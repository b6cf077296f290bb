//! `soak-256x64`: seeded write-all/read-all rounds over every registry
//! design at 256×64.
//!
//! Simulation-bound: up to 116 k cells × 64-byte slots is past L2 and
//! the event queue peaks at 500–11 000 pending pulses, so the queue,
//! delivery and placement dominate the timed rounds. Elaboration
//! (`Design::build`) and lowering (`prepare`) happen once per design in
//! set-up and show only in `setup_s`.

use hiperrf::designs::{registry, Design};
use hiperrf::{RegisterFile, RfGeometry};
use sfq_sim::simulator::SimStats;

use crate::report::Metric;
use crate::stats::{median, percentile, Tally};
use crate::trace::{Scope, Tracer};
use crate::{goldens, mix, slug, Phase, Round, Stopwatch, Workload, DEFAULT_SEED};

/// One design under soak, with the counters of its first round.
struct Rf {
    design: Design,
    rf: Box<dyn RegisterFile>,
    first_round: Option<SimStats>,
}

pub struct Soak {
    seed: u64,
    geometry: RfGeometry,
    rfs: Vec<Rf>,
}

impl Soak {
    pub fn new(seed: u64) -> Self {
        Soak {
            seed,
            geometry: RfGeometry::new(256, 64).expect("256x64 is a valid geometry"),
            rfs: Vec::new(),
        }
    }

    /// The value written to `reg` of the design at `design_index` in
    /// round `round`: a pure function of the seed, so reruns write the
    /// same bits and the event counters repeat exactly. Registers are 64
    /// bits wide, so any `u64` is a valid value.
    fn value(&self, round: u64, design_index: usize, reg: usize) -> u64 {
        mix(self.seed, &[round, design_index as u64, reg as u64])
    }
}

impl Workload for Soak {
    fn setup(&mut self, s: Scope) {
        let geometry = self.geometry;
        self.rfs = s.span("soak.setup", "", |s| {
            registry()
                .map(|design| {
                    let label = slug(design);
                    let mut rf = s.span("cells.build", label, |_| design.build(geometry));
                    s.count("cells.cells", label, rf.netlist().component_count() as f64);
                    s.span("sim.prepare", label, |_| rf.prepare());
                    Rf {
                        design,
                        rf,
                        first_round: None,
                    }
                })
                .collect()
        });
    }

    fn reset(&mut self) {
        // Two sets at once would double the memory high-water mark.
        self.rfs.clear();
    }

    fn round(&mut self, s: Scope, round: u64) -> Round {
        let mut out = Round::default();
        let values: Vec<Vec<u64>> = (0..self.rfs.len())
            .map(|d| {
                (0..self.geometry.registers())
                    .map(|r| self.value(round, d, r))
                    .collect()
            })
            .collect();
        // One operation is a register's write and read-back on every
        // design: its latency sums the eight port operations, each of
        // which is a part in its design's write or read group.
        let mut per_register = vec![(0.0, 0.0); self.geometry.registers()];
        s.span("soak.round", "", |s| {
            for (entry, values) in self.rfs.iter_mut().zip(&values) {
                let label = slug(entry.design);
                let rf = entry.rf.as_mut();
                let before = rf.sim_stats().events_processed;
                let (write, read) = (format!("{label}.write"), format!("{label}.read"));
                let mut port_op = |out: &mut Round,
                                   rf: &dyn RegisterFile,
                                   group: &str,
                                   reg: usize,
                                   events: u64,
                                   sw: Stopwatch| {
                    let (cpu, wall) = (sw.cpu_s(), sw.wall_s());
                    let events = rf.sim_stats().events_processed - events;
                    per_register[reg].0 += cpu * 1e3;
                    per_register[reg].1 += wall * 1e3;
                    out.samples.push(("port_op_ms", wall * 1e3));
                    out.part(group, reg, events as f64, cpu);
                };
                for (reg, &v) in values.iter().enumerate() {
                    let events = rf.sim_stats().events_processed;
                    let sw = Stopwatch::start();
                    s.span("sim.write", label, |_| rf.write(reg, v));
                    port_op(&mut out, rf, &write, reg, events, sw);
                }
                for (reg, &v) in values.iter().enumerate() {
                    let events = rf.sim_stats().events_processed;
                    let sw = Stopwatch::start();
                    let got = s.span("sim.read", label, |_| rf.read(reg));
                    port_op(&mut out, rf, &read, reg, events, sw);
                    out.tally.check(got == v, || {
                        format!("{label} r{reg} round {round}: read {got:#x}, wrote {v:#x}")
                    });
                }
                let violations = rf.violations().len();
                out.tally.check(violations == 0, || {
                    format!("{label} round {round}: {violations} timing violations")
                });
                let stats = rf.sim_stats();
                out.work += (stats.events_processed - before) as f64;
                if entry.first_round.is_none() {
                    entry.first_round = Some(stats);
                    s.count("sim.events", label, stats.events_processed as f64);
                    s.count("sim.slot_bytes", label, stats.slot_bytes_touched as f64);
                    s.count("sim.fanout_rows", label, stats.fanout_rows_visited as f64);
                    s.count("sim.peak_queue_depth", label, stats.peak_queue_depth as f64);
                }
            }
        });
        (out.ops_ms, out.ops_wall_ms) = per_register.into_iter().unzip();
        out
    }

    /// Per-event cost at the fast end: the soak is memory-bound, so
    /// neighbours on a shared host move its median cost by a third from
    /// moment to moment, while its thousands of port operations per
    /// group still put fifteen or more below the 1st percentile.
    fn cost_percentile(&self) -> f64 {
        1.0
    }

    fn verify(&mut self, tally: &mut Tally) {
        if self.seed != DEFAULT_SEED {
            return;
        }
        for entry in &self.rfs {
            let label = slug(entry.design);
            let Some(got) = entry.first_round else {
                continue;
            };
            let got = [
                got.events_processed,
                got.slot_bytes_touched,
                got.fanout_rows_visited,
                got.peak_queue_depth as u64,
            ];
            let want = goldens::soak(entry.design);
            tally.check(got == want, || {
                format!("{label}: first-round counters {got:?}, golden {want:?}")
            });
        }
    }

    fn named(&self, phase: &Phase) -> Vec<Metric> {
        vec![
            Metric::new("soak.events_per_s", phase.work_per_s(), "1/s"),
            Metric::new(
                "soak.op_p99_us",
                percentile(&phase.samples("port_op_ms"), 99.0) * 1e3,
                "us",
            ),
        ]
    }
}

/// Per-layer figures from one traced set-up and round.
pub fn layer_metrics(t: &Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    for design in registry() {
        let d = slug(design);
        let ms = |name| median(&t.durations(name, d)) * 1e3;
        let us = |name| median(&t.durations(name, d)) * 1e6;
        let count = |name| t.counter(name, d).unwrap_or(f64::NAN);
        let busy: f64 = t
            .durations("sim.write", d)
            .iter()
            .chain(&t.durations("sim.read", d))
            .sum();
        out.push(Metric::new(
            format!("cells.elab_ms.{d}"),
            ms("cells.build"),
            "ms",
        ));
        out.push(Metric::new(
            format!("cells.cells.{d}"),
            count("cells.cells"),
            "count",
        ));
        out.push(Metric::new(
            format!("sim.prepare_ms.{d}"),
            ms("sim.prepare"),
            "ms",
        ));
        out.push(Metric::new(
            format!("sim.ns_per_event.{d}"),
            busy * 1e9 / count("sim.events"),
            "ns",
        ));
        out.push(Metric::new(
            format!("sim.write_us.{d}"),
            us("sim.write"),
            "us",
        ));
        out.push(Metric::new(
            format!("sim.read_us.{d}"),
            us("sim.read"),
            "us",
        ));
        for name in [
            "sim.events",
            "sim.slot_bytes",
            "sim.fanout_rows",
            "sim.peak_queue_depth",
        ] {
            out.push(Metric::new(format!("{name}.{d}"), count(name), "count"));
        }
    }
    out
}
