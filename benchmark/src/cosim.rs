//! `cosim-32x32`: the three `cosim_suite` kernels on the gate-level CPU
//! over a pulse-level register file, for every registry design at the
//! paper's 32×32 geometry.
//!
//! The paper's Fig. 14 path uses the simulator differently from the
//! soak: one long-lived netlist per design, driven by interleaved
//! single-register reads and writes with RAW hazards. It is the only
//! workload that times `sfq-cpu` from outside. Kernels, CPUs and netlists
//! are built in set-up; each round runs every kernel × design pair once,
//! in an order drawn from the seed.

use hiperrf::designs::{registry, Design};
use hiperrf::PulseRf;
use sfq_cpu::{GateLevelCpu, PipelineConfig};
use sfq_riscv::asm::{assemble, Program};
use sfq_workloads::{cosim_suite, Workload as Kernel, PASS};

use crate::report::Metric;
use crate::stats::{median, Tally};
use crate::trace::{Scope, Tracer};
use crate::{mix, slug, Phase, Round, Stopwatch, Workload};

/// Retired count and CPI of a kernel on the analytic port model.
#[derive(Clone, Copy)]
struct Reference {
    retired: u64,
    cpi: f64,
}

pub struct Cosim {
    seed: u64,
    kernels: Vec<(Kernel, Program)>,
    cpus: Vec<(Design, GateLevelCpu)>,
    /// `[kernel][design]` analytic reference (`None` for the shift
    /// register, which has no analytic port model).
    references: Vec<Vec<Option<Reference>>>,
}

impl Cosim {
    pub fn new(seed: u64) -> Self {
        Cosim {
            seed,
            kernels: Vec::new(),
            cpus: Vec::new(),
            references: Vec::new(),
        }
    }

    /// Runs `kernel` on the analytic model of `design`.
    fn analytic(kernel: &Kernel, prog: &Program, design: Design) -> Option<Reference> {
        let arch = design.arch_design()?;
        let mut cpu = GateLevelCpu::new(arch, PipelineConfig::sodor());
        let out = cpu.run(prog, kernel.mem_size, kernel.budget).ok()?;
        (out.exit_code == PASS).then(|| Reference {
            retired: out.stats.retired,
            cpi: out.stats.cpi(),
        })
    }
}

impl Workload for Cosim {
    fn setup(&mut self, s: Scope) {
        s.span("cosim.setup", "", |s| {
            self.kernels = cosim_suite()
                .into_iter()
                .map(|k| {
                    let prog = s.span("riscv.assemble", k.name, |_| assemble(&k.source, 0));
                    let prog = prog.unwrap_or_else(|e| panic!("{} does not assemble: {e}", k.name));
                    (k, prog)
                })
                .collect();
            self.cpus = registry()
                .map(|design| {
                    let label = slug(design);
                    let mut rf = s.span("backend.pulse_new", label, |_| PulseRf::new(design));
                    s.span("backend.prepare", label, |_| rf.rf_mut().prepare());
                    let cpu = GateLevelCpu::with_backend(Box::new(rf), PipelineConfig::sodor());
                    (design, cpu)
                })
                .collect();
            self.references = self
                .kernels
                .iter()
                .map(|(k, prog)| {
                    registry()
                        .map(|design| Self::analytic(k, prog, design))
                        .collect()
                })
                .collect();
        });
    }

    fn reset(&mut self) {
        self.cpus.clear();
    }

    fn round(&mut self, s: Scope, round: u64) -> Round {
        let mut out = Round::default();
        // Seeded order of the kernel × design pairs (Fisher–Yates).
        let mut order: Vec<(usize, usize)> = (0..self.kernels.len())
            .flat_map(|k| (0..self.cpus.len()).map(move |d| (k, d)))
            .collect();
        for i in (1..order.len()).rev() {
            let j = (mix(self.seed, &[round, i as u64]) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        s.span("cosim.round", "", |s| {
            for (k, d) in order {
                let (kernel, prog) = &self.kernels[k];
                let (design, cpu) = &mut self.cpus[d];
                let label = format!("{}.{}", kernel.name, slug(*design));
                let before = cpu.backend().health();
                let sw = Stopwatch::start();
                let run = s.span("cpu.pulse_run", &label, |_| {
                    cpu.run(prog, kernel.mem_size, kernel.budget)
                });
                let cpu_s = sw.cpu_s();
                out.op(sw);
                let Ok(run) = run else {
                    out.tally.check(false, || format!("{label}: {run:?}"));
                    continue;
                };
                let reference = self.references[k][d];
                let agrees = reference
                    .is_none_or(|r| r.retired == run.stats.retired && r.cpi == run.stats.cpi());
                out.tally
                    .check(run.exit_code == PASS && run.rf.is_clean() && agrees, || {
                        format!(
                            "{label}: exit {}, health {:?}, cpi {} vs analytic {:?}",
                            run.exit_code,
                            run.rf,
                            run.stats.cpi(),
                            reference.map(|r| r.cpi)
                        )
                    });
                out.work += run.stats.retired as f64;
                let op = out.ops_ms.len() - 1;
                out.part(&label, op, run.stats.retired as f64, cpu_s);
                s.count("cpu.retired", "", run.stats.retired as f64);
                s.count("cpu.cpi", &label, run.stats.cpi());
                s.count(
                    "backend.rf_reads",
                    slug(*design),
                    (run.rf.reads - before.reads) as f64,
                );
                s.count(
                    "backend.rf_writes",
                    slug(*design),
                    (run.rf.writes - before.writes) as f64,
                );
            }
        });
        out
    }

    fn verify(&mut self, tally: &mut Tally) {
        // Every design with an analytic model must have produced a
        // reference: a kernel failing on the analytic path is a defect.
        for (k, refs) in self.kernels.iter().zip(&self.references) {
            for (design, r) in registry().zip(refs) {
                tally.check(r.is_some() == design.arch_design().is_some(), || {
                    format!("{} on analytic {design}: no passing run", k.0.name)
                });
            }
        }
    }

    fn probes(&mut self, s: Scope) {
        for _ in 0..5 {
            for (k, _) in &self.kernels {
                s.span("riscv.assemble", k.name, |_| assemble(&k.source, 0))
                    .expect("assembled in set-up");
            }
        }
        for _ in 0..20 {
            for (k, prog) in &self.kernels {
                for design in registry() {
                    if let Some(r) = s.span("cpu.analytic_run", k.name, |_| {
                        Self::analytic(k, prog, design)
                    }) {
                        s.count("cpu.analytic_retired", "", r.retired as f64);
                    }
                }
            }
        }
    }

    fn named(&self, phase: &Phase) -> Vec<Metric> {
        vec![Metric::new("cosim.instr_per_s", phase.work_per_s(), "1/s")]
    }
}

/// Per-layer figures from one traced set-up, round and the probes.
pub fn layer_metrics(t: &Tracer) -> Vec<Metric> {
    let kernels = cosim_suite();
    let mut out = Vec::new();
    let analytic_s: f64 = t.durations("cpu.analytic_run", "").iter().sum();
    out.push(Metric::new(
        "cpu.analytic_instr_per_s",
        t.counter("cpu.analytic_retired", "").unwrap_or(f64::NAN) / analytic_s,
        "1/s",
    ));
    // Median over repeats of assembling the whole suite.
    let sets: Vec<Vec<f64>> = kernels
        .iter()
        .map(|k| t.durations("riscv.assemble", k.name))
        .collect();
    let per_set: Vec<f64> = (0..sets.iter().map(Vec::len).min().unwrap_or(0))
        .map(|i| sets.iter().map(|v| v[i]).sum())
        .collect();
    out.push(Metric::new(
        "riscv.assemble_ms",
        median(&per_set) * 1e3,
        "ms",
    ));
    for design in registry() {
        let d = slug(design);
        let run_s: f64 = kernels
            .iter()
            .map(|k| {
                t.durations("cpu.pulse_run", &format!("{}.{d}", k.name))
                    .iter()
                    .sum::<f64>()
            })
            .sum();
        let accesses = t.counter("backend.rf_reads", d).unwrap_or(f64::NAN)
            + t.counter("backend.rf_writes", d).unwrap_or(f64::NAN);
        out.push(Metric::new(
            format!("backend.pulse_access_us.{d}"),
            run_s * 1e6 / accesses,
            "us",
        ));
    }
    out.push(Metric::new(
        "cpu.retired",
        t.counter("cpu.retired", "").unwrap_or(f64::NAN),
        "count",
    ));
    for k in &kernels {
        for design in registry() {
            let label = format!("{}.{}", k.name, slug(design));
            out.push(Metric::new(
                format!("cpu.cpi.{label}"),
                t.counter("cpu.cpi", &label).unwrap_or(f64::NAN),
                "cycles/instr",
            ));
        }
    }
    for name in ["backend.rf_reads", "backend.rf_writes"] {
        out.push(Metric::new(
            name,
            t.counter(name, "").unwrap_or(f64::NAN),
            "count",
        ));
    }
    out
}
