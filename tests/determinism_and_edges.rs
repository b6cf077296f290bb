//! Determinism and edge-case coverage: identical runs must produce
//! identical pulse traces (the simulator is a model, not a Monte Carlo),
//! power-on reset must fully clear every stateful cell, and the
//! full-size 32×32 structural HiPerRF must round-trip values.

use hiperrf::config::RfGeometry;
use hiperrf::hiperrf_rf::HiPerRf;
use hiperrf::RegisterFile;
use sfq_cells::builder::CircuitBuilder;
use sfq_cells::composite::{build_hc_clk, build_hc_write};
use sfq_cells::storage::HcDro;
use sfq_sim::netlist::Pin;
use sfq_sim::prelude::*;

fn run_once() -> Vec<Time> {
    let mut b = CircuitBuilder::new();
    let w = build_hc_write(&mut b);
    let cell = b.hcdro();
    let clk = build_hc_clk(&mut b);
    b.connect(w.output, Pin::new(cell, HcDro::D));
    b.connect(clk.output, Pin::new(cell, HcDro::CLK));
    let mut sim = Simulator::new(b.finish());
    let probe = sim.probe(Pin::new(cell, HcDro::Q), "q");
    sim.inject(w.b0, Time::ZERO);
    sim.inject(w.b1, Time::ZERO);
    sim.inject(clk.input, Time::from_ps(100.0));
    sim.run();
    sim.probe_trace(probe).pulses().to_vec()
}

#[test]
fn identical_runs_produce_identical_traces() {
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b);
    assert_eq!(a.len(), 3, "value 3 pops three fluxons");
}

#[test]
fn power_on_reset_clears_every_stateful_cell() {
    use sfq_cells::counter::CounterBit;
    use sfq_cells::logic::{AndGate, Dand, NotGate};
    use sfq_cells::storage::{Dro, Ndro, Ndroc};
    use sfq_sim::component::Component;

    let cells: Vec<Box<dyn Component>> = vec![
        Box::new(Dro::new()),
        Box::new(HcDro::new()),
        Box::new(Ndro::holding()),
        Box::new(Ndroc::new()),
        Box::new(CounterBit::new()),
        Box::new(Dand::new()),
        Box::new(AndGate::new()),
        Box::new(NotGate::new()),
    ];
    let mut netlist = Netlist::new();
    let ids: Vec<_> = cells
        .into_iter()
        .enumerate()
        .map(|(i, c)| netlist.add(format!("c{i}"), c))
        .collect();
    let mut sim = Simulator::new(netlist);
    // Poke state into everything via pin 0.
    for &id in &ids {
        sim.inject(Pin::new(id, 0), Time::from_ps(1.0));
    }
    sim.run();
    for &id in &ids {
        sim.netlist_mut().component_mut(id).power_on_reset();
        let stored = sim.netlist().component(id).stored();
        assert!(
            stored.is_none() || stored == Some(0),
            "{} not cleared: {stored:?}",
            sim.netlist().label(id)
        );
    }
}

#[test]
fn full_size_structural_hiperrf_round_trips() {
    // The paper-size 32×32 file: ~17k cells, full pulse-level operation.
    let mut rf = HiPerRf::new(RfGeometry::paper_32x32());
    let values = [
        0xdead_beefu64,
        0x0000_0001,
        0x8000_0000,
        0xffff_ffff,
        0x1234_5678,
    ];
    for (i, &v) in values.iter().enumerate() {
        rf.write(i * 7 % 32, v);
    }
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(rf.read(i * 7 % 32), v, "register {}", i * 7 % 32);
    }
    assert!(rf.violations().is_empty());
}

#[test]
fn assembler_accepts_bare_memory_operands() {
    use sfq_riscv::asm::assemble;
    // `lw a0, (t0)` — offsetless memory operand.
    let prog = assemble("lw a0, (t0)\nsw a0, (t1)", 0).expect("assembles");
    assert_eq!(prog.words.len(), 2);
}

#[test]
fn simulator_handles_simultaneous_events_deterministically() {
    // Two pulses injected at the identical instant must be processed in
    // injection order (the seq tiebreaker), run after run.
    let observed: Vec<Vec<Time>> = (0..3)
        .map(|_| {
            let mut b = CircuitBuilder::new();
            let m = b.merger();
            let mut sim = Simulator::new(b.finish());
            let p = sim.probe(Pin::new(m, sfq_cells::transport::Merger::OUT), "out");
            sim.inject(
                Pin::new(m, sfq_cells::transport::Merger::IN_A),
                Time::from_ps(5.0),
            );
            sim.inject(
                Pin::new(m, sfq_cells::transport::Merger::IN_B),
                Time::from_ps(5.0),
            );
            sim.run();
            sim.probe_trace(p).pulses().to_vec()
        })
        .collect();
    assert_eq!(observed[0], observed[1]);
    assert_eq!(observed[1], observed[2]);
    // Coincident pulses: the second dissipates in the merger dead zone.
    assert_eq!(observed[0].len(), 1);
}

/// Folds a shard's [`BatchStats`](hiperrf::BatchStats) roll-up into a
/// result digest, field by field.
fn absorb_batch_stats(h: &mut hiperrf::hashing::Fnv64, stats: &hiperrf::BatchStats) {
    let t = stats.totals;
    h.write_u64(stats.runs);
    h.write_u64(t.events_processed);
    h.write_u64(t.peak_queue_depth as u64);
    h.write_u64(t.sim_time_advanced.as_fs());
    h.write_u64(t.slot_bytes_touched);
    h.write_u64(t.fanout_rows_visited);
}

/// Seed of the Monte Carlo result goldens below.
const GOLDEN_SEED: u64 = 0x5EED_0012;
/// Trials per golden shard.
const GOLDEN_TRIALS: u32 = 4;
/// Peak injection jitter of the jitter-shard goldens (ps): wide enough
/// that some trials pass and some fail on every design.
const GOLDEN_JITTER_PS: f64 = 12.0;

/// `(design, geometry, digest)` rows for every registry design at 4×4 and
/// 16×16, digesting `f`'s output.
fn golden_rows(f: impl Fn(hiperrf::Design, RfGeometry) -> u64) -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for geometry in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
        for design in hiperrf::Design::ALL {
            let name = format!(
                "{}/{}x{}",
                design.label(),
                geometry.registers(),
                geometry.width()
            );
            rows.push((name, f(design, geometry)));
        }
    }
    rows
}

fn yield_shard_digest(design: hiperrf::Design, geometry: RfGeometry) -> u64 {
    let shard = hiperrf::jobs::yield_shard(design, geometry, GOLDEN_SEED, 0..GOLDEN_TRIALS);
    let mut h = hiperrf::hashing::Fnv64::new();
    h.write_u64(hiperrf::jobs::digest_f64s(&shard.criticals));
    absorb_batch_stats(&mut h, &shard.stats);
    h.finish()
}

fn jitter_shard_digest(design: hiperrf::Design, geometry: RfGeometry) -> u64 {
    let shard = hiperrf::jobs::jitter_shard(
        design,
        geometry,
        GOLDEN_JITTER_PS,
        GOLDEN_SEED,
        0..GOLDEN_TRIALS,
    );
    let mut h = hiperrf::hashing::Fnv64::new();
    h.write_u64(hiperrf::jobs::digest_bools(&shard.passes));
    absorb_batch_stats(&mut h, &shard.stats);
    h.finish()
}

/// Digests of `yield_shard` criticals plus their `BatchStats`, recorded
/// before margin trials reused one register file across bisection probes:
/// reuse must not move a single bit of any result or counter.
const YIELD_SHARD_GOLDENS: [(&str, u64); 8] = [
    ("NDRO baseline/4x4", 0x5a395cd2cf5fb5ba),
    ("HiPerRF/4x4", 0xe0e9a39502f535d0),
    ("dual-banked/4x4", 0x23ce7025dd32fad0),
    ("shift-register/4x4", 0x21642da400a7ec30),
    ("NDRO baseline/16x16", 0xe8cedded8f325950),
    ("HiPerRF/16x16", 0x85890dc40b201abd),
    ("dual-banked/16x16", 0xd3a0fa9e77d66da3),
    ("shift-register/16x16", 0x96e1ee8b928be602),
];

/// Digests of `jitter_shard` passes plus their `BatchStats`, recorded
/// alongside [`YIELD_SHARD_GOLDENS`].
const JITTER_SHARD_GOLDENS: [(&str, u64); 8] = [
    ("NDRO baseline/4x4", 0x5f53243ee032117b),
    ("HiPerRF/4x4", 0xfe3ebf6956216e17),
    ("dual-banked/4x4", 0x13a0acbcfa81d3e4),
    ("shift-register/4x4", 0x7124bff98ea0bb86),
    ("NDRO baseline/16x16", 0x577ffa7f915b2c19),
    ("HiPerRF/16x16", 0xc6794ed981e587a5),
    ("dual-banked/16x16", 0x20e83315efbad3be),
    ("shift-register/16x16", 0x80bd4f39b273cc42),
];

fn assert_goldens(what: &str, rows: Vec<(String, u64)>, goldens: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = rows.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(
        got, goldens,
        "{what} results drifted from the committed goldens"
    );
}

#[test]
fn yield_shard_results_match_committed_goldens() {
    assert_goldens(
        "yield_shard",
        golden_rows(yield_shard_digest),
        &YIELD_SHARD_GOLDENS,
    );
}

#[test]
fn jitter_shard_results_match_committed_goldens() {
    assert_goldens(
        "jitter_shard",
        golden_rows(jitter_shard_digest),
        &JITTER_SHARD_GOLDENS,
    );
}
