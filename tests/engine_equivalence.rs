//! Differential engine harness: the compiled SoA engine must be
//! observably indistinguishable from the seed `Box<dyn Component>`
//! interpreter, under either scheduler.
//!
//! Three families of workloads drive every engine × scheduler pairing:
//!
//! * **a cell zoo** — one of every lowerable primitive wired off shared
//!   splitter trees with deliberately tight delays, so each `CellOp` arm
//!   (including its violation and degrade paths) executes on every run;
//! * **seeded random netlists** — layered transport/storage circuits
//!   with randomized delays (sub-ps up to past the calendar wheel's
//!   horizon) and randomized stimulus, with and without a seeded fault
//!   plan;
//! * **every registered register-file design** at 4×4 and 16×16, driven
//!   through write/read/peek sweeps behind the `RegisterFile` trait,
//!   clean and under fault injection with the `Degrade` policy — and,
//!   after a soak and a reset, against a fresh build of the same design.
//!
//! Every observable must match exactly: pulse traces, violations (kind,
//! time, label, and message), the exported VCD byte for byte, the
//! scheduler counters including peak queue depth and the delivery-path
//! work counters, and degraded-drop counts.
//!
//! The layout-invariance tests extend the sweep along a third axis: the
//! compiled engine's cell placement (identity, BFS affinity, and seeded
//! arbitrary permutations) must never leak into any observable — events
//! carry external component ids, so placement is pure lowering
//! bookkeeping.

use hiperrf::config::RfGeometry;
use hiperrf::designs::registry;
use sfq_cells::builder::CircuitBuilder;
use sfq_cells::counter::CounterBit;
use sfq_cells::logic::{AndGate, Dand, NotGate, SyncSampler};
use sfq_cells::storage::{Dro, HcDro, Ndro, Ndroc};
use sfq_cells::transport::{Jtl, Merger, Splitter};
use sfq_sim::fault::FaultPlan;
use sfq_sim::prelude::*;
use sfq_sim::vcd::to_vcd;
use sfq_sim::violation::ViolationPolicy;

/// Everything a run exposes to the outside world.
#[derive(Debug, PartialEq)]
struct Observables {
    traces: Vec<PulseTrace>,
    violations: Vec<Violation>,
    vcd: String,
    events_processed: u64,
    peak_queue_depth: usize,
    sim_time_advanced: Duration,
    slot_bytes_touched: u64,
    fanout_rows_visited: u64,
    degraded_drops: u64,
}

/// Which cell placement the compiled engine lowers with. `Default` leaves
/// the simulator's feature-selected policy alone; `Seeded` pins an
/// arbitrary Fisher–Yates permutation — the adversarial case the layout
/// invariance suite sweeps.
#[derive(Debug, Clone, Copy)]
enum Placement {
    Default,
    Kind(LayoutKind),
    Seeded(u64),
}

impl Placement {
    fn apply(self, sim: &mut Simulator) {
        match self {
            Placement::Default => {}
            Placement::Kind(kind) => sim.set_layout_kind(kind),
            Placement::Seeded(seed) => {
                let cells = sim.netlist().component_count();
                sim.set_cell_layout(CellLayout::shuffled(cells, seed));
            }
        }
    }
}

/// One of every lowerable primitive, fed from three stimulus inputs
/// through splitter trees with a mix of clean and deliberately tight
/// delays. Tight pairs hit the HC-DRO hold window, the NDROC re-arm
/// time, and the sync sampler's setup aperture, so violation recording
/// and (under `Degrade`) pulse destruction run on every burst.
fn zoo_circuit() -> (Netlist, Vec<Pin>, Vec<Pin>) {
    let mut b = CircuitBuilder::new();
    let inputs: Vec<Pin> = (0..3)
        .map(|_| {
            let id = b.jtl();
            Pin::new(id, Jtl::IN)
        })
        .collect();
    let roots: Vec<Pin> = inputs
        .iter()
        .map(|p| Pin::new(p.component, Jtl::OUT))
        .collect();
    let a = b.splitter_tree(roots[0], 8);
    let c = b.splitter_tree(roots[1], 8);
    let k = b.splitter_tree(roots[2], 4);
    let ps = Duration::from_ps;

    let mut taps = Vec::new();
    let dro = b.dro();
    b.connect_delayed(a[0], Pin::new(dro, Dro::D), ps(5.0));
    b.connect_delayed(c[0], Pin::new(dro, Dro::CLK), ps(30.0));
    taps.push(Pin::new(dro, Dro::Q));

    // D pulses 4 ps apart: inside the 10 ps design rule *and* the hard
    // guard band, so this is a violation (and a drop under `Degrade`).
    let hc = b.hcdro();
    b.connect_delayed(a[1], Pin::new(hc, HcDro::D), ps(5.0));
    b.connect_delayed(a[2], Pin::new(hc, HcDro::D), ps(9.0));
    b.connect_delayed(c[1], Pin::new(hc, HcDro::CLK), ps(60.0));
    taps.push(Pin::new(hc, HcDro::Q));

    let ndro = b.ndro();
    b.connect_delayed(a[3], Pin::new(ndro, Ndro::SET), ps(5.0));
    b.connect_delayed(c[2], Pin::new(ndro, Ndro::CLK), ps(25.0));
    b.connect_delayed(k[0], Pin::new(ndro, Ndro::RESET), ps(120.0));
    taps.push(Pin::new(ndro, Ndro::OUT));

    // Enables 30 ps apart: inside the 53 ps re-arm time.
    let ndroc = b.ndroc();
    b.connect_delayed(a[4], Pin::new(ndroc, Ndroc::SET), ps(2.0));
    b.connect_delayed(c[3], Pin::new(ndroc, Ndroc::CLK), ps(20.0));
    b.connect_delayed(c[4], Pin::new(ndroc, Ndroc::CLK), ps(50.0));
    taps.push(Pin::new(ndroc, Ndroc::OUT0));
    taps.push(Pin::new(ndroc, Ndroc::OUT1));

    let dand = b.dand();
    b.connect_delayed(a[5], Pin::new(dand, Dand::A), ps(5.0));
    b.connect_delayed(c[5], Pin::new(dand, Dand::B), ps(8.0));
    taps.push(Pin::new(dand, Dand::OUT));

    let and = b.and_gate();
    b.connect_delayed(a[6], Pin::new(and, AndGate::A), ps(2.0));
    b.connect_delayed(c[6], Pin::new(and, AndGate::B), ps(3.0));
    b.connect_delayed(k[1], Pin::new(and, AndGate::CLK), ps(40.0));
    taps.push(Pin::new(and, AndGate::OUT));

    let not = b.not_gate();
    b.connect_delayed(a[7], Pin::new(not, NotGate::A), ps(2.0));
    b.connect_delayed(k[2], Pin::new(not, NotGate::CLK), ps(35.0));
    taps.push(Pin::new(not, NotGate::OUT));

    // Data 1 ps before the edge: inside the 3 ps setup aperture.
    let sync = b.sync_sampler();
    b.connect_delayed(c[7], Pin::new(sync, SyncSampler::D), ps(9.0));
    b.connect_delayed(k[3], Pin::new(sync, SyncSampler::CLK), ps(10.0));
    taps.push(Pin::new(sync, SyncSampler::OUT));

    let cnt = b.counter_bit();
    b.connect_delayed(taps[0], Pin::new(cnt, CounterBit::IN), ps(6.0));
    b.connect_delayed(taps[1], Pin::new(cnt, CounterBit::READ), ps(50.0));
    taps.push(Pin::new(cnt, CounterBit::CARRY));
    taps.push(Pin::new(cnt, CounterBit::VALUE));

    let m = b.merger();
    b.connect_delayed(taps[5], Pin::new(m, Merger::IN_A), ps(4.0));
    b.connect_delayed(taps[6], Pin::new(m, Merger::IN_B), ps(4.5));
    taps.push(Pin::new(m, Merger::OUT));

    (b.finish(), inputs, taps)
}

/// Builds a seeded random layered circuit; deterministic per seed. Same
/// topology family as the scheduler-equivalence suite, with HC-DRO and
/// NDROC cells in the draw so stateful timing checks are exercised.
fn random_circuit(seed: u64) -> (Netlist, Vec<Pin>, Vec<Pin>) {
    let mut rng = Rng64::new(seed);
    let mut b = CircuitBuilder::new();
    let inputs: Vec<Pin> = (0..3)
        .map(|_| {
            let id = b.jtl();
            Pin::new(id, Jtl::IN)
        })
        .collect();
    let mut frontier: Vec<Pin> = inputs
        .iter()
        .map(|p| Pin::new(p.component, Jtl::OUT))
        .collect();

    let delay = |rng: &mut Rng64| Duration::from_ps(0.1 + rng.next_f64() * 9000.0);
    let take = |frontier: &mut Vec<Pin>, rng: &mut Rng64| {
        let i = rng.next_below(frontier.len());
        frontier.swap_remove(i)
    };

    for step in 0..40 {
        match rng.next_below(6) {
            0 => {
                let id = b.splitter();
                let from = take(&mut frontier, &mut rng);
                b.connect_delayed(from, Pin::new(id, Splitter::IN), delay(&mut rng));
                frontier.push(Pin::new(id, Splitter::OUT0));
                frontier.push(Pin::new(id, Splitter::OUT1));
            }
            1 if frontier.len() >= 2 => {
                let id = b.merger();
                let a = take(&mut frontier, &mut rng);
                let c = take(&mut frontier, &mut rng);
                b.connect_delayed(a, Pin::new(id, Merger::IN_A), delay(&mut rng));
                b.connect_delayed(c, Pin::new(id, Merger::IN_B), delay(&mut rng));
                frontier.push(Pin::new(id, Merger::OUT));
            }
            2 if frontier.len() >= 2 => {
                let id = b.dro();
                let d = take(&mut frontier, &mut rng);
                let clk = take(&mut frontier, &mut rng);
                b.connect_delayed(d, Pin::new(id, Dro::D), delay(&mut rng));
                b.connect_delayed(clk, Pin::new(id, Dro::CLK), delay(&mut rng));
                frontier.push(Pin::new(id, Dro::Q));
            }
            // Tightly-clocked HC-DRO: short delays provoke hold checks.
            3 if frontier.len() >= 2 => {
                let id = b.hcdro();
                let d = take(&mut frontier, &mut rng);
                let clk = take(&mut frontier, &mut rng);
                let tight = |rng: &mut Rng64| Duration::from_ps(0.5 + rng.next_f64() * 20.0);
                b.connect_delayed(d, Pin::new(id, HcDro::D), tight(&mut rng));
                b.connect_delayed(clk, Pin::new(id, HcDro::CLK), tight(&mut rng));
                frontier.push(Pin::new(id, HcDro::Q));
            }
            // NDROC demux: short enable spacing provokes re-arm checks.
            4 if frontier.len() >= 2 => {
                let id = b.ndroc();
                let set = take(&mut frontier, &mut rng);
                let clk = take(&mut frontier, &mut rng);
                let tight = |rng: &mut Rng64| Duration::from_ps(0.5 + rng.next_f64() * 40.0);
                b.connect_delayed(set, Pin::new(id, Ndroc::SET), tight(&mut rng));
                b.connect_delayed(clk, Pin::new(id, Ndroc::CLK), tight(&mut rng));
                frontier.push(Pin::new(id, Ndroc::OUT0));
                frontier.push(Pin::new(id, Ndroc::OUT1));
            }
            _ => {
                let id = b.jtl();
                let from = take(&mut frontier, &mut rng);
                b.connect_delayed(from, Pin::new(id, Jtl::IN), delay(&mut rng));
                frontier.push(Pin::new(id, Jtl::OUT));
            }
        }
        assert!(!frontier.is_empty(), "step {step} emptied the frontier");
    }
    (b.finish(), inputs, frontier)
}

/// Drives one circuit on one engine × scheduler pairing and captures
/// every observable. Stimulus is forked from `seed`; interleaved bounded
/// runs exercise the deadline push-back and (for the compiled engine)
/// the state sync-back between runs.
fn run_circuit(
    circuit: &dyn Fn() -> (Netlist, Vec<Pin>, Vec<Pin>),
    seed: u64,
    scheduler: SchedulerKind,
    engine: EngineKind,
    policy: ViolationPolicy,
    fault: Option<FaultPlan>,
    placement: Placement,
) -> Observables {
    let (netlist, inputs, probes) = circuit();
    let mut sim = Simulator::with_engine(netlist, scheduler, engine);
    assert_eq!(sim.engine_kind(), engine);
    placement.apply(&mut sim);
    sim.set_violation_policy(policy);
    if let Some(plan) = fault {
        sim.set_fault_plan(plan);
    }
    let probe_ids: Vec<ProbeId> = probes
        .iter()
        .enumerate()
        .map(|(i, &p)| sim.probe(p, format!("tap{i}")))
        .collect();
    drive_and_observe(&mut sim, &inputs, &probe_ids, seed)
}

/// Drives `sim` with the seeded stimulus bursts of `seed` (some of them
/// deadline-bounded) and collects every observable.
fn drive_and_observe(
    sim: &mut Simulator,
    inputs: &[Pin],
    probe_ids: &[ProbeId],
    seed: u64,
) -> Observables {
    let mut rng = Rng64::fork(seed, 0xD1CE);
    for burst in 0..20u32 {
        let pin = inputs[rng.next_below(inputs.len())];
        let at = sim.now() + Duration::from_ps(rng.next_f64() * 2000.0);
        sim.inject(pin, at);
        if burst % 7 == 6 {
            sim.run_for(sim.now() + Duration::from_ps(350.0));
        }
    }
    sim.run();

    let traces: Vec<PulseTrace> = probe_ids
        .iter()
        .map(|&id| sim.probe_trace(id).clone())
        .collect();
    let vcd = to_vcd(&traces, "equivalence");
    let stats = sim.stats();
    Observables {
        traces,
        violations: sim.violations().to_vec(),
        vcd,
        events_processed: stats.events_processed,
        peak_queue_depth: stats.peak_queue_depth,
        sim_time_advanced: stats.sim_time_advanced,
        slot_bytes_touched: stats.slot_bytes_touched,
        fanout_rows_visited: stats.fanout_rows_visited,
        degraded_drops: sim.degraded_drops(),
    }
}

/// Asserts all four engine × scheduler pairings agree, returning the
/// reference run.
fn assert_all_pairings_match(
    circuit: &dyn Fn() -> (Netlist, Vec<Pin>, Vec<Pin>),
    seed: u64,
    policy: ViolationPolicy,
    fault: &dyn Fn() -> Option<FaultPlan>,
    what: &str,
) -> Observables {
    let reference = run_circuit(
        circuit,
        seed,
        SchedulerKind::ReferenceHeap,
        EngineKind::DynInterpreter,
        policy,
        fault(),
        Placement::Default,
    );
    for scheduler in SchedulerKind::ALL {
        for engine in EngineKind::ALL {
            let run = run_circuit(
                circuit,
                seed,
                scheduler,
                engine,
                policy,
                fault(),
                Placement::Default,
            );
            assert_eq!(reference, run, "{what}: {engine} on {scheduler:?}");
        }
    }
    reference
}

#[test]
fn zoo_matches_across_engines_and_schedulers() {
    let reference = assert_all_pairings_match(
        &zoo_circuit,
        0x0200,
        ViolationPolicy::Record,
        &|| None,
        "zoo/record",
    );
    assert!(reference.events_processed > 0);
    assert!(
        !reference.violations.is_empty(),
        "the zoo's tight delays must exercise violation recording"
    );
    assert!(
        reference.traces.iter().any(|t| !t.is_empty()),
        "the zoo must emit observable pulses"
    );
}

#[test]
fn zoo_degrade_drops_identically() {
    let reference = assert_all_pairings_match(
        &zoo_circuit,
        0x0201,
        ViolationPolicy::Degrade,
        &|| None,
        "zoo/degrade",
    );
    assert!(
        reference.degraded_drops > 0,
        "the zoo's guard-band violations must destroy pulses under Degrade"
    );
}

#[test]
fn random_netlists_match_across_engines() {
    for seed in [1u64, 0xBEEF, 0x5EED_5EED, 0xFFFF_FFFF_0000_0001] {
        let circuit = move || random_circuit(seed);
        let reference = assert_all_pairings_match(
            &circuit,
            seed,
            ViolationPolicy::Record,
            &|| None,
            "random/record",
        );
        assert!(
            reference.events_processed > 0,
            "seed {seed:#x}: workload never touched the queue"
        );
    }
}

#[test]
fn random_netlist_fault_replay_is_engine_invariant() {
    for seed in [7u64, 0xFA07] {
        let circuit = move || random_circuit(seed);
        let (_, inputs, _) = random_circuit(seed);
        let plan = move || {
            Some(
                FaultPlan::new(seed ^ 0xF001)
                    .with_delay_sigma(0.25)
                    .drop_nth(inputs[0], 2)
                    .duplicate_nth(inputs[1], 1, Duration::from_ps(3.0))
                    .spurious(inputs[2], Time::from_ps(500.0)),
            )
        };
        let reference = assert_all_pairings_match(
            &circuit,
            seed,
            ViolationPolicy::Degrade,
            &plan,
            "random/fault",
        );
        assert!(reference.events_processed > 0, "seed {seed:#x}");
    }
}

#[test]
fn vcd_is_byte_identical_across_engines() {
    let dyn_run = run_circuit(
        &zoo_circuit,
        0xA5A5,
        SchedulerKind::CalendarQueue,
        EngineKind::DynInterpreter,
        ViolationPolicy::Record,
        None,
        Placement::Default,
    );
    let compiled = run_circuit(
        &zoo_circuit,
        0xA5A5,
        SchedulerKind::CalendarQueue,
        EngineKind::Compiled,
        ViolationPolicy::Record,
        None,
        Placement::Default,
    );
    assert!(!dyn_run.vcd.is_empty() && dyn_run.vcd.contains("$var"));
    assert_eq!(dyn_run.vcd.as_bytes(), compiled.vcd.as_bytes());
}

/// Drives one design on one engine × scheduler pairing through a
/// write/read/peek sweep — peeks interleave with port traffic, so the
/// compiled engine's state sync-back is load-bearing here.
fn run_design(
    design: hiperrf::Design,
    g: RfGeometry,
    scheduler: SchedulerKind,
    engine: EngineKind,
    fault: Option<FaultPlan>,
    placement: Placement,
) -> (Vec<u64>, Vec<Violation>, SimStats, u64) {
    let mut rf = design.build(g);
    rf.set_scheduler(scheduler);
    rf.set_engine(engine);
    assert_eq!(rf.engine_kind(), engine);
    match placement {
        Placement::Default => {}
        Placement::Kind(kind) => rf.set_layout_kind(kind),
        Placement::Seeded(seed) => {
            let cells = rf.harness().netlist().component_count();
            rf.set_cell_layout(CellLayout::shuffled(cells, seed));
        }
    }
    if let Some(plan) = fault {
        rf.set_violation_policy(ViolationPolicy::Degrade);
        rf.set_fault_plan(plan);
    }
    let mask = (1u64 << g.width()) - 1;
    let mut reads = Vec::new();
    for reg in 0..g.registers() {
        rf.write(reg, (0xDA7A + 3 * reg as u64) & mask);
        reads.push(rf.peek(reg));
    }
    for reg in 0..g.registers() {
        reads.push(rf.read(reg));
        reads.push(rf.peek(reg));
    }
    let stats = rf.sim_stats();
    (reads, rf.violations().to_vec(), stats, rf.degraded_drops())
}

#[test]
fn every_registered_design_matches_across_engines() {
    for design in registry() {
        for g in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
            let reference = run_design(
                design,
                g,
                SchedulerKind::ReferenceHeap,
                EngineKind::DynInterpreter,
                None,
                Placement::Default,
            );
            assert!(
                reference.2.events_processed > 0,
                "{design} at {g}: no events processed"
            );
            for scheduler in SchedulerKind::ALL {
                for engine in EngineKind::ALL {
                    let run = run_design(design, g, scheduler, engine, None, Placement::Default);
                    assert_eq!(reference, run, "{design} at {g}: {engine} on {scheduler:?}");
                    assert_reset_matches_fresh(design, g, scheduler, engine);
                }
            }
        }
    }
}

#[test]
fn registry_fault_replay_is_engine_invariant() {
    for design in registry() {
        let g = RfGeometry::paper_4x4();
        let plan = || Some(FaultPlan::new(0xD1F7).with_delay_sigma(0.3));
        let reference = run_design(
            design,
            g,
            SchedulerKind::ReferenceHeap,
            EngineKind::DynInterpreter,
            plan(),
            Placement::Default,
        );
        for scheduler in SchedulerKind::ALL {
            for engine in EngineKind::ALL {
                let run = run_design(design, g, scheduler, engine, plan(), Placement::Default);
                assert_eq!(
                    reference, run,
                    "{design} faulted: {engine} on {scheduler:?}"
                );
            }
        }
    }
}

/// Everything a register-file soak exposes: reads and peeks, violations,
/// scheduler counters, the hierarchical VCD, degraded drops and the fault
/// plan's `(dropped, duplicated)` tallies.
type SoakObservables = (Vec<u64>, Vec<Violation>, SimStats, String, u64, (u64, u64));

/// Soaks `rf` under `plan` and the `Degrade` policy: every register
/// written, peeked, read and peeked again.
fn soak_observed(rf: &mut dyn hiperrf::RegisterFile, plan: FaultPlan) -> SoakObservables {
    let g = rf.geometry();
    rf.set_violation_policy(ViolationPolicy::Degrade);
    rf.set_fault_plan(plan);
    let mask = (1u64 << g.width()) - 1;
    let mut reads = Vec::new();
    for reg in 0..g.registers() {
        rf.write(reg, (0x5EED + 7 * reg as u64) & mask);
        reads.push(rf.peek(reg));
    }
    for reg in 0..g.registers() {
        reads.push(rf.read(reg));
        reads.push(rf.peek(reg));
    }
    let sim = rf.harness().sim();
    (
        reads,
        rf.violations().to_vec(),
        rf.sim_stats(),
        sim.to_vcd("rf"),
        rf.degraded_drops(),
        sim.fault_counts(),
    )
}

/// A register file soaked under one plan and then reset must be
/// indistinguishable from a fresh build: its second soak — under a plan
/// with pin faults *and* delay variation, so the per-pin delivery counters
/// are live — must match the fresh file's byte for byte.
fn assert_reset_matches_fresh(
    design: hiperrf::Design,
    g: RfGeometry,
    scheduler: SchedulerKind,
    engine: EngineKind,
) {
    let what = format!("{design} at {g}, reset: {engine} on {scheduler:?}");
    let build = || {
        let mut rf = design.build(g);
        rf.set_scheduler(scheduler);
        rf.set_engine(engine);
        rf
    };
    let mut rf = build();
    let inputs = rf.lint_ports().external_inputs;
    let (a, b) = (inputs[0], inputs[inputs.len() / 2]);
    let p1 = FaultPlan::new(0xA11CE)
        .with_delay_sigma(0.2)
        .duplicate_nth(b, 1, Duration::from_ps(4.0))
        .spurious(a, Time::from_ps(5.0));
    let p2 = || {
        FaultPlan::new(0xB0B)
            .with_delay_sigma(0.05)
            .drop_nth(a, 2)
            .duplicate_nth(b, 3, Duration::from_ps(3.0))
    };
    let fresh = soak_observed(build().as_mut(), p2());

    let first = soak_observed(rf.as_mut(), p1);
    assert_ne!(first.0, fresh.0, "{what}: P1 must leave different state");
    // Leave a pulse in flight: reset must discard it.
    let late = rf.harness().sim().now() + Duration::from_ps(50.0);
    rf.harness_mut().sim_mut().inject(a, late);
    rf.reset();
    let sim = rf.harness().sim();
    assert_eq!(sim.violation_policy(), ViolationPolicy::Record, "{what}");
    assert!(sim.fault_plan().is_none(), "{what}");
    let reused = soak_observed(rf.as_mut(), p2());

    assert_eq!(fresh, reused, "{what}");
    assert_ne!(fresh.5, (0, 0), "{what}: pin faults must fire");
}

#[test]
fn reset_simulator_matches_a_fresh_one() {
    // The zoo plus an NDRO that powers on *holding* a fluxon, so the
    // power-on image is not all zeros. A run under one plan, a pulse
    // left in flight, then a reset: the next run must match a fresh
    // simulator's byte for byte on every engine and scheduler.
    let circuit = || {
        let (mut netlist, inputs, mut taps) = zoo_circuit();
        let held = netlist.add("held", Box::new(Ndro::holding()));
        netlist.connect(taps[0], Pin::new(held, Ndro::CLK), Duration::from_ps(2.0));
        netlist.connect(taps[2], Pin::new(held, Ndro::RESET), Duration::from_ps(2.0));
        taps.push(Pin::new(held, Ndro::OUT));
        (netlist, inputs, taps)
    };
    let p2 = |inputs: &[Pin]| {
        FaultPlan::new(0x2B)
            .with_delay_sigma(0.08)
            .drop_nth(inputs[0], 2)
            .duplicate_nth(inputs[1], 1, Duration::from_ps(6.0))
    };
    for scheduler in SchedulerKind::ALL {
        for engine in EngineKind::ALL {
            let build = || {
                let (netlist, inputs, taps) = circuit();
                let mut sim = Simulator::with_engine(netlist, scheduler, engine);
                let ids: Vec<ProbeId> = taps
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| sim.probe(p, format!("tap{i}")))
                    .collect();
                let held = taps.last().expect("held NDRO tap").component;
                (sim, inputs, ids, held)
            };
            let (mut fresh, inputs, ids, _) = build();
            fresh.set_violation_policy(ViolationPolicy::Degrade);
            fresh.set_fault_plan(p2(&inputs));
            let expect = drive_and_observe(&mut fresh, &inputs, &ids, 7);

            let (mut sim, inputs, ids, held) = build();
            sim.set_fault_plan(FaultPlan::new(0x1A).with_delay_sigma(0.3));
            drive_and_observe(&mut sim, &inputs, &ids, 5);
            assert_eq!(sim.netlist().component(held).stored(), Some(0));
            sim.inject(inputs[2], sim.now() + Duration::from_ps(40.0));
            sim.reset();
            assert_eq!(sim.netlist().component(held).stored(), Some(1));
            assert_eq!(sim.stats(), SimStats::default());
            sim.set_violation_policy(ViolationPolicy::Degrade);
            sim.set_fault_plan(p2(&inputs));
            let got = drive_and_observe(&mut sim, &inputs, &ids, 7);
            assert_eq!(expect, got, "{engine} on {scheduler:?}");
            assert_eq!(fresh.fault_counts(), sim.fault_counts());
            assert_ne!(sim.fault_counts(), (0, 0));
        }
    }
}

#[test]
#[should_panic(expected = "has no lowering")]
fn reset_refuses_a_netlist_with_an_unlowerable_cell() {
    /// A custom cell with private state and no lowering.
    #[derive(Debug, Default)]
    struct Opaque {
        seen: u32,
    }
    impl Component for Opaque {
        fn kind(&self) -> &'static str {
            "opaque"
        }
        fn pulse(&mut self, _pin: u8, now: Time, ctx: &mut PulseContext<'_>) {
            self.seen += 1;
            ctx.emit_after(0, now, Duration::from_ps(1.0));
        }
    }
    let mut b = CircuitBuilder::new();
    let jtl = b.jtl();
    let mut netlist = b.finish();
    let opaque = netlist.add("opaque0", Box::new(Opaque::default()));
    netlist.connect(
        Pin::new(jtl, Jtl::OUT),
        Pin::new(opaque, 0),
        Duration::from_ps(1.0),
    );
    let mut sim = Simulator::new(netlist);
    sim.inject(Pin::new(jtl, Jtl::IN), Time::ZERO);
    sim.run();
    sim.reset();
}

/// The placement sweep every layout-invariance test drives: the identity
/// permutation (the pre-layout delivery path), the BFS affinity order,
/// and three seeded arbitrary permutations.
const PLACEMENTS: [Placement; 5] = [
    Placement::Kind(LayoutKind::Identity),
    Placement::Kind(LayoutKind::Affinity),
    Placement::Seeded(0x1AE0),
    Placement::Seeded(0xFEED_F00D),
    Placement::Seeded(0xFFFF_FFFF_FFFF_FFFF),
];

#[test]
fn random_netlists_are_layout_invariant() {
    // The compiled engine under every placement — identity, affinity, and
    // adversarial shuffles — must be byte-identical to the dyn-interpreter
    // oracle, under all three schedulers. Placement is pure lowering
    // bookkeeping; if any permutation leaks into an observable, the dense
    // remap tables are wrong.
    for seed in [3u64, 0xC0FFEE] {
        let circuit = move || random_circuit(seed);
        let oracle = run_circuit(
            &circuit,
            seed,
            SchedulerKind::ReferenceHeap,
            EngineKind::DynInterpreter,
            ViolationPolicy::Record,
            None,
            Placement::Default,
        );
        assert!(oracle.events_processed > 0, "seed {seed:#x}");
        for scheduler in SchedulerKind::ALL {
            for placement in PLACEMENTS {
                let run = run_circuit(
                    &circuit,
                    seed,
                    scheduler,
                    EngineKind::Compiled,
                    ViolationPolicy::Record,
                    None,
                    placement,
                );
                assert_eq!(
                    oracle, run,
                    "seed {seed:#x}: {placement:?} on {scheduler:?}"
                );
            }
        }
    }
}

#[test]
fn every_registered_design_is_layout_invariant() {
    // Same sweep over the real register-file designs: reads, violations,
    // counters, and degraded drops must not move under any placement.
    let g = RfGeometry::paper_4x4();
    for design in registry() {
        let oracle = run_design(
            design,
            g,
            SchedulerKind::ReferenceHeap,
            EngineKind::DynInterpreter,
            None,
            Placement::Kind(LayoutKind::Identity),
        );
        for scheduler in SchedulerKind::ALL {
            for placement in PLACEMENTS {
                let run = run_design(design, g, scheduler, EngineKind::Compiled, None, placement);
                assert_eq!(oracle, run, "{design}: {placement:?} on {scheduler:?}");
            }
        }
    }
}

#[test]
fn delivery_counters_are_engine_and_layout_invariant() {
    // The slot/CSR work counters are defined engine-independently: one
    // 64-byte slot line per delivery, one fan-out row per emission. Both
    // engines and every placement must report the same figures, and the
    // figures must be live (a delivering workload cannot report zero).
    let circuit = || random_circuit(11);
    let oracle = run_circuit(
        &circuit,
        11,
        SchedulerKind::ReferenceHeap,
        EngineKind::DynInterpreter,
        ViolationPolicy::Record,
        None,
        Placement::Default,
    );
    assert!(oracle.slot_bytes_touched > 0);
    assert!(oracle.fanout_rows_visited > 0);
    assert_eq!(oracle.slot_bytes_touched % 64, 0);
    for placement in PLACEMENTS {
        let run = run_circuit(
            &circuit,
            11,
            SchedulerKind::default(),
            EngineKind::Compiled,
            ViolationPolicy::Record,
            None,
            placement,
        );
        assert_eq!(oracle.slot_bytes_touched, run.slot_bytes_touched);
        assert_eq!(oracle.fanout_rows_visited, run.fanout_rows_visited);
    }
}
