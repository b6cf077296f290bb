//! `yield-16x16`: Monte Carlo yield curves for HiPerRF and the NDRO
//! baseline at 16×16 on two worker threads.
//!
//! Many short-lived, cache-resident simulators: every trial elaborates
//! and lowers ten netlists (one per probed σ of its bisection), so
//! `sfq-cells` elaboration, `prepare` and the `par` fork-join show here,
//! while cell placement and locality barely matter. One operation is a
//! yield comparison — both designs' curves at one seed — the figure the
//! paper's margin study plots.

use hiperrf::designs::Design;
use hiperrf::jobs::{assemble_yield_curve, digest_f64s, yield_shard};
use hiperrf::margins::{soak_trial, yield_curve_with_threads, yield_trial};
use hiperrf::{par, RfGeometry};

use crate::report::Metric;
use crate::stats::{median, Tally};
use crate::trace::{Scope, Tracer};
use crate::{goldens, mix, slug, Phase, Round, Stopwatch, Workload, DEFAULT_SEED};

/// The two designs the margin study compares.
const DESIGNS: [Design; 2] = [Design::HiPerRf, Design::NdroBaseline];
/// Fixed σ grid every curve is sampled on, ascending.
const SIGMAS: [f64; 7] = [0.0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30];
/// Trials per curve: one per worker thread.
const TRIALS: u32 = 2;
/// Worker threads.
const THREADS: usize = 2;

/// A curve as served: the design, its seed and its `(σ, yield)` points.
type Curve = (Design, u64, Vec<(f64, f64)>);

pub struct YieldMc {
    seed: u64,
    geometry: RfGeometry,
    /// The first curve of each design, checked after the run.
    first: Vec<Curve>,
}

impl YieldMc {
    pub fn new(seed: u64) -> Self {
        YieldMc {
            seed,
            geometry: RfGeometry::paper_16x16(),
            first: Vec::new(),
        }
    }

    /// The curve seed of round `round`.
    fn curve_seed(&self, round: u64) -> u64 {
        mix(self.seed, &[round])
    }

    /// One curve, through the library's own fork-join.
    fn curve(&self, s: Scope, design: Design, seed: u64) -> Vec<(f64, f64)> {
        s.span("yield.curve", slug(design), |_| {
            yield_curve_with_threads(design, self.geometry, &SIGMAS, TRIALS, seed, THREADS)
        })
        .points
    }
}

/// A yield curve is well formed when it has a point per σ of the grid,
/// every yield is a fraction, and yield never rises with σ.
fn well_formed(points: &[(f64, f64)]) -> bool {
    points.len() == SIGMAS.len()
        && points.iter().zip(SIGMAS).all(|(p, s)| p.0 == s)
        && points.iter().all(|p| (0.0..=1.0).contains(&p.1))
        && points.windows(2).all(|w| w[1].1 <= w[0].1)
}

impl Workload for YieldMc {
    fn setup(&mut self, s: Scope) {
        // Warm-up: one trial per design elaborates, lowers and runs the
        // ten simulators a trial needs and starts the worker pool path.
        let geometry = self.geometry;
        let seed = mix(self.seed, &[u64::MAX]);
        s.span("yield.setup", "", |s| {
            for design in DESIGNS {
                s.span("yield.warmup", slug(design), |_| {
                    yield_trial(design, geometry, seed, 0)
                });
            }
        });
    }

    fn round(&mut self, s: Scope, round: u64) -> Round {
        let mut out = Round::default();
        let seed = self.curve_seed(round);
        let sw = Stopwatch::start();
        for design in DESIGNS {
            let part = Stopwatch::start();
            let points = self.curve(s, design, seed);
            out.part(slug(design), 0, f64::from(TRIALS), part.cpu_s());
            out.tally.check(well_formed(&points), || {
                format!("{design} round {round}: malformed curve {points:?}")
            });
            if round == 0 {
                self.first.push((design, seed, points));
            }
            out.work += f64::from(TRIALS);
        }
        out.op(sw);
        out
    }

    fn verify(&mut self, tally: &mut Tally) {
        for (design, seed, points) in &self.first {
            let criticals = yield_shard(*design, self.geometry, *seed, 0..TRIALS).criticals;
            let assembled = assemble_yield_curve(&SIGMAS, &criticals);
            tally.check(&assembled == points, || {
                format!("{design}: curve {points:?} != trials' curve {assembled:?}")
            });
            if self.seed == DEFAULT_SEED {
                let digest = digest_f64s(&criticals);
                let want = goldens::yield_criticals(*design);
                tally.check(digest == want, || {
                    format!("{design}: criticals digest {digest:#x}, golden {want:#x}")
                });
            }
        }
    }

    /// The fork-join and its trials get spans of their own here, with
    /// the same calls `yield_curve_with_threads` makes, so the timed
    /// rounds keep the library's single code path.
    fn probes(&mut self, s: Scope) {
        let geometry = self.geometry;
        for design in DESIGNS {
            let label = slug(design);
            for k in 0..4 {
                let seed = self.curve_seed(k);
                s.span("par.map_trials", label, |s| {
                    par::map_trials(TRIALS, THREADS, |i| {
                        s.span("margins.yield_trial", label, |s| {
                            let (critical, batch) = yield_trial(design, geometry, seed, i);
                            s.count("margins.sims_per_trial", label, batch.runs as f64);
                            s.count("margins.events_per_trial", label, batch.events() as f64);
                            critical
                        })
                    })
                });
            }
            for k in 0..3 {
                s.span("margins.soak_trial", label, |_| {
                    soak_trial(design, geometry, 0.05, mix(self.seed, &[k]))
                });
            }
        }
    }

    fn named(&self, phase: &Phase) -> Vec<Metric> {
        vec![Metric::new("yield.trials_per_s", phase.work_per_s(), "1/s")]
    }
}

/// Per-layer figures from traced curves and soak trials.
pub fn layer_metrics(t: &Tracer) -> Vec<Metric> {
    let trials = t.durations("margins.yield_trial", "");
    let spans = t.spans();
    // Fork-join straggler: the slowest trial of each curve.
    let stragglers: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "par.map_trials")
        .map(|(id, _)| {
            spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.secs())
                .fold(0.0, f64::max)
        })
        .collect();
    let per_trial = |name| t.counter(name, "").unwrap_or(f64::NAN) / trials.len() as f64;
    vec![
        Metric::new(
            "margins.soak_trial_ms",
            median(&t.durations("margins.soak_trial", "")) * 1e3,
            "ms",
        ),
        Metric::new("par.trial_ms_p50", median(&trials) * 1e3, "ms"),
        Metric::new("par.trial_ms_max", median(&stragglers) * 1e3, "ms"),
        Metric::new(
            "margins.sims_per_trial",
            per_trial("margins.sims_per_trial"),
            "count",
        ),
        Metric::new(
            "margins.events_per_trial",
            per_trial("margins.events_per_trial"),
            "count",
        ),
    ]
}
