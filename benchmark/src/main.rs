//! The HiPerRF workspace benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads: `soak-256x64`, `yield-16x16`, `cosim-32x32`, `serve-mixed`
//! (see `README.md` beside this crate). Every input is generated from
//! `--seed`; the program only ever sees the generated inputs, through its
//! public API. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a traced run. The line before it is the full result row, host
//! fingerprint included, which is also appended to
//! `benchmark/out/results.jsonl`.

mod cosim;
mod goldens;
mod mc;
mod report;
mod serve;
mod soak;
mod stats;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use report::{metrics_object, number, numbers, string, Metric};
pub use sfq_serve::job::design_slug as slug;
use stats::{costed, median, percentile, tail_percentile, Costed, Part, Tally};
use trace::{layer_self_times, self_times, Counter, Scope, Span, Tracer};

/// The seed the committed goldens are for.
pub const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds whose memory high-water marks `peak_rss_mb` is the median of.
const RSS_ROUNDS: usize = 5;
/// Workload names, in the order the traced run's layer pass visits them.
const WORKLOADS: [&str; 4] = ["soak-256x64", "yield-16x16", "cosim-32x32", "serve-mixed"];
/// Layers whose self time the traced run reports.
const LAYERS: [&str; 18] = [
    "soak", "yield", "cosim", "serve", "cells", "sim", "margins", "par", "cpu", "backend", "riscv",
    "lint", "job", "http", "wal", "json", "hashing", "cache",
];

/// SplitMix64 over `seed` and `words`: every generated input is a pure
/// function of the seed and its position.
pub fn mix(seed: u64, words: &[u64]) -> u64 {
    let step = |mut z: u64| {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    words.iter().fold(step(seed), |h, &w| step(h ^ step(w)))
}

/// A wall clock and the process CPU clock started together.
///
/// The end-to-end figures are taken over CPU time: on a shared virtual
/// host the wall clock also counts time the hypervisor gave to other
/// guests, which moved whole ten-run sets by up to 40 %. Wall figures
/// are still kept in the result row.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: report::process_cpu_s(),
        }
    }

    /// Process CPU seconds since the start.
    pub fn cpu_s(&self) -> f64 {
        report::process_cpu_s() - self.cpu_s
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

/// What one round of a workload did.
#[derive(Debug, Default)]
pub struct Round {
    /// Work units completed (events, trials, instructions, jobs).
    pub work: f64,
    /// Process CPU time (ms) of every user-visible operation in the round.
    pub ops_ms: Vec<f64>,
    /// Wall time (ms) of the same operations.
    pub ops_wall_ms: Vec<f64>,
    /// Other named samples (e.g. submit latency, polls per job).
    pub samples: Vec<(&'static str, f64)>,
    /// The timed parts of the operations; `Part::op` indexes `ops_ms`.
    pub parts: Vec<Part>,
    pub tally: Tally,
}

impl Round {
    /// Records one operation timed from `sw` until now.
    pub fn op(&mut self, sw: Stopwatch) {
        self.ops_wall_ms.push(sw.wall_s() * 1e3);
        self.ops_ms.push(sw.cpu_s() * 1e3);
    }

    /// Records a part of operation `op` that did `work` units in `cpu_s`
    /// process CPU seconds.
    pub fn part(&mut self, group: impl Into<String>, op: usize, work: f64, cpu_s: f64) {
        self.parts.push(Part {
            group: group.into(),
            op,
            work,
            cpu_s,
        });
    }
}

/// The rounds of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub rounds: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Work per process CPU second of each round.
    pub rates: Vec<f64>,
    /// Work per wall second of each round.
    pub wall_rates: Vec<f64>,
    pub ops_ms: Vec<f64>,
    pub ops_wall_ms: Vec<f64>,
    samples: Vec<(&'static str, f64)>,
    /// Every round's parts, with `Part::op` indexing `ops_ms`.
    pub parts: Vec<Part>,
    /// The workload's [`Workload::cost_percentile`].
    pub cost_pct: f64,
    pub tally: Tally,
    /// Median over the first [`RSS_ROUNDS`] rounds of each round's
    /// memory high-water mark (MB), counted from the memory live before
    /// it: a fixed amount of work, so the figure does not grow with the
    /// number of rounds a faster program fits into the budget.
    pub rss_mb: f64,
    /// Share (%) of all vCPU time the hypervisor stole during the phase.
    pub steal_pct: f64,
}

impl Phase {
    /// Median over rounds of work per process CPU second.
    pub fn work_per_cpu_s(&self) -> f64 {
        median(&self.rates)
    }

    /// Work rate and operation times with every group of parts costed
    /// at the workload's cost percentile.
    pub fn costed(&self) -> Costed {
        costed(&self.parts, self.ops_ms.len(), self.cost_pct)
    }

    /// Median over rounds of work per wall second.
    pub fn work_per_s(&self) -> f64 {
        median(&self.wall_rates)
    }

    /// Every sample recorded under `name`.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect()
    }
}

/// One benchmark workload, driven only through the program's public API.
pub trait Workload {
    /// Builds everything the rounds need; timed as `setup_s`.
    fn setup(&mut self, s: Scope);
    /// Releases what a previous set-up built, outside the timed set-up.
    fn reset(&mut self) {}
    /// One unit of measured work; `round` seeds its inputs.
    fn round(&mut self, s: Scope, round: u64) -> Round;
    /// The percentile of each group's cost per unit of work the
    /// end-to-end figures take (see [`stats::costed`]): the median,
    /// unless the workload measures work in a unit the cost is
    /// proportional to and has thousands of parts per group.
    fn cost_percentile(&self) -> f64 {
        50.0
    }
    /// Correctness gates checked after the timed rounds.
    fn verify(&mut self, tally: &mut Tally);
    /// Calls made only in the traced layer pass, for layers the rounds do
    /// not reach by themselves.
    fn probes(&mut self, _s: Scope) {}
    /// The workload's own end-to-end figures, under workload-specific names.
    fn named(&self, phase: &Phase) -> Vec<Metric>;
}

fn make(name: &str, seed: u64, out_dir: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "soak-256x64" => Box::new(soak::Soak::new(seed)),
        "yield-16x16" => Box::new(mc::YieldMc::new(seed)),
        "cosim-32x32" => Box::new(cosim::Cosim::new(seed)),
        "serve-mixed" => Box::new(serve::Serve::new(seed, out_dir.to_path_buf())),
        _ => return None,
    })
}

/// Set-up repeated [`SETUP_REPS`] times; the process CPU and wall
/// seconds of each.
fn setups(w: &mut dyn Workload, s: Scope) -> (Vec<f64>, Vec<f64>) {
    (0..SETUP_REPS)
        .map(|_| {
            w.reset();
            let sw = Stopwatch::start();
            w.setup(s);
            (sw.cpu_s(), sw.wall_s())
        })
        .unzip()
}

/// Runs whole rounds for about `seconds` of wall time: a round starts
/// only while the typical round still fits, so the phase ends near the
/// budget instead of one long round past it. At least one round always
/// runs.
fn measure(w: &mut dyn Workload, s: Scope, seconds: f64, first_round: u64) -> Phase {
    let start = Stopwatch::start();
    let jiffies = report::cpu_jiffies();
    let mut phase = Phase {
        cost_pct: w.cost_percentile(),
        ..Phase::default()
    };
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    loop {
        let rss_round = phase.rounds < RSS_ROUNDS;
        if rss_round {
            report::restart_peak_rss();
        }
        let sw = Stopwatch::start();
        let round = w.round(s, first_round + phase.rounds as u64);
        let (cpu, wall) = (sw.cpu_s(), sw.wall_s());
        if rss_round {
            peaks.push(report::peak_rss_mb());
        }
        walls.push(wall);
        phase.rounds += 1;
        phase.rates.push(round.work / cpu);
        phase.wall_rates.push(round.work / wall);
        let base = phase.ops_ms.len();
        phase.parts.extend(round.parts.into_iter().map(|p| Part {
            op: base + p.op,
            ..p
        }));
        phase.ops_ms.extend(round.ops_ms);
        phase.ops_wall_ms.extend(round.ops_wall_ms);
        phase.samples.extend(round.samples);
        phase.tally.merge(round.tally);
        if start.wall_s() + median(&walls) > seconds {
            break;
        }
    }
    phase.rss_mb = median(&peaks);
    phase.wall_s = start.wall_s();
    phase.cpu_s = start.cpu_s();
    phase.steal_pct = match (jiffies, report::cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    phase
}

/// The benchmark's end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(setup_cpu: &[f64], phase: &Phase) -> Vec<Metric> {
    let c = phase.costed();
    vec![
        Metric::new("setup_s", median(setup_cpu), "s"),
        Metric::new("peak_rss_mb", phase.rss_mb, "MB"),
        Metric::new("work_per_cpu_s", c.work_per_cpu_s, "1/s"),
        Metric::new("op_cpu_p50_ms", median(&c.op_ms), "ms"),
        Metric::new("op_cpu_p90_ms", percentile(&c.op_ms, 90.0), "ms"),
    ]
}

/// Row fields describing a measured phase.
fn phase_fields(phase: &Phase) -> Vec<(&'static str, String)> {
    let n = phase.ops_ms.len();
    let tail = tail_percentile(n);
    let quartiles = |v: &[f64]| stats::quartiles(v).map_or("null".into(), |q| numbers(&q));
    vec![
        ("rounds", phase.rounds.to_string()),
        ("parts", phase.parts.len().to_string()),
        ("cost_percentile", number(phase.cost_pct)),
        ("round_work_per_cpu_s", number(phase.work_per_cpu_s())),
        ("work_per_cpu_s_quartiles", quartiles(&phase.rates)),
        ("work_per_cpu_s_rounds", numbers(&phase.rates)),
        ("work_per_wall_s_rounds", numbers(&phase.wall_rates)),
        ("measured_s", number(phase.wall_s)),
        ("measured_cpu_s", number(phase.cpu_s)),
        ("host_steal_pct", number(phase.steal_pct)),
        ("ops", n.to_string()),
        ("op_measured_cpu_p50_ms", number(median(&phase.ops_ms))),
        (
            "op_measured_cpu_p90_ms",
            number(percentile(&phase.ops_ms, 90.0)),
        ),
        ("op_wall_p50_ms", number(median(&phase.ops_wall_ms))),
        (
            "op_wall_p90_ms",
            number(percentile(&phase.ops_wall_ms, 90.0)),
        ),
        ("op_tail_percentile", tail.map_or("null".into(), number)),
        (
            "op_cpu_tail_ms",
            tail.map_or("null".into(), |p| number(percentile(&phase.ops_ms, p))),
        ),
        (
            "op_wall_tail_ms",
            tail.map_or("null".into(), |p| number(percentile(&phase.ops_wall_ms, p))),
        ),
    ]
}

fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Spans as JSON, with each span's self time.
fn spans_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let items: Vec<String> = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(id, (s, self_ns))| {
            object(&[
                ("id", id.to_string()),
                ("name", string(s.name)),
                ("label", string(&s.label)),
                ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
                ("start_us", number(s.start_ns as f64 / 1e3)),
                ("end_us", number(s.end_ns as f64 / 1e3)),
                ("self_us", number(self_ns as f64 / 1e3)),
            ])
        })
        .collect();
    format!("[{}]", items.join(",\n"))
}

/// Counters as JSON.
fn counters_json(counters: &[Counter]) -> String {
    let items: Vec<String> = counters
        .iter()
        .map(|c| {
            object(&[
                ("name", string(c.name)),
                ("label", string(&c.label)),
                ("value", number(c.value)),
            ])
        })
        .collect();
    format!("[{}]", items.join(",\n"))
}

/// Self time per layer (ms), in [`LAYERS`] order, zero for a layer with
/// no spans.
fn self_ms(spans: &[Span]) -> Vec<Metric> {
    let per_layer = layer_self_times(spans);
    LAYERS
        .iter()
        .map(|&layer| {
            let s = per_layer
                .iter()
                .find(|(l, _)| *l == layer)
                .map_or(0.0, |&(_, t)| t);
            Metric::new(format!("self_ms.{layer}"), s * 1e3, "ms")
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// What a run prints: the result row and the contract's last line.
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    row: Vec<(&'static str, String)>,
}

fn run_untraced(args: &Args, out_dir: &Path) -> Outcome {
    let tracer = Tracer::new(false);
    let s = tracer.root();
    let mut w = make(&args.workload, args.seed, out_dir).expect("validated name");
    let (setup, setup_wall) = setups(w.as_mut(), s);
    let phase = measure(w.as_mut(), s, args.seconds, 0);
    let mut tally = phase.tally.clone();
    w.verify(&mut tally);
    let named = w.named(&phase);
    drop(w);
    let metrics = end_to_end(&setup, &phase);
    let mut row = phase_fields(&phase);
    row.push(("setup_cpu_s_each", numbers(&setup)));
    row.push(("setup_wall_s_each", numbers(&setup_wall)));
    row.push(("named", metrics_object(&named)));
    Outcome {
        tally,
        metrics,
        row,
    }
}

fn run_traced(args: &Args, root: &Path, out_dir: &Path) -> Outcome {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let mut w = make(&args.workload, args.seed, out_dir).expect("validated name");
    let (setup, _) = setups(w.as_mut(), off.root());
    // Half the budget untraced, half traced: the difference is the cost
    // of tracing.
    let untraced = measure(w.as_mut(), off.root(), args.seconds / 2.0, 0);
    let traced = measure(
        w.as_mut(),
        on.root(),
        args.seconds / 2.0,
        untraced.rounds as u64,
    );
    let mut tally = untraced.tally.clone();
    tally.merge(traced.tally.clone());
    w.verify(&mut tally);
    drop(w);
    let (fast, slow) = (
        untraced.costed().work_per_cpu_s,
        traced.costed().work_per_cpu_s,
    );
    let overhead_pct = (fast - slow) / fast * 100.0;

    // Layer pass: a traced set-up, one round and the probes of every workload,
    // so each layer's figures come from the workload that exercises it.
    let layers = Tracer::new(true);
    for name in WORKLOADS {
        let mut x = make(name, args.seed, out_dir).expect("known name");
        let root = layers.root();
        root.span("bench.layer_pass", name, |s| {
            x.setup(s);
            let round = x.round(s, 0);
            x.probes(s);
            tally.merge(round.tally);
        });
        x.verify(&mut tally);
    }

    let layer_spans = layers.spans();
    let mut metrics = soak::layer_metrics(&layers);
    metrics.extend(mc::layer_metrics(&layers));
    metrics.extend(cosim::layer_metrics(&layers));
    metrics.extend(serve::layer_metrics(&layers));
    metrics.extend(self_ms(&layer_spans));
    metrics.push(Metric::new("trace.overhead_pct", overhead_pct, "%"));

    let traced_spans = on.spans();
    let spans_path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let doc = format!(
        "{{\"workload\": {}, \"seed\": {},\n\"traced\": {},\n\"layers\": {},\n\"layer_counters\": {}}}\n",
        string(&args.workload),
        args.seed,
        spans_json(&traced_spans),
        spans_json(&layer_spans),
        counters_json(&layers.counters())
    );
    if let Err(e) = std::fs::write(&spans_path, doc) {
        eprintln!("cannot write {}: {e}", spans_path.display());
    }

    let untraced_e2e = end_to_end(&setup, &untraced);
    let traced_e2e = end_to_end(&setup, &traced);
    let mut row = phase_fields(&traced);
    row.push(("untraced", metrics_object(&untraced_e2e[2..])));
    row.push(("traced", metrics_object(&traced_e2e[2..])));
    row.push(("traced_self_ms", metrics_object(&self_ms(&traced_spans))));
    let shown = spans_path.strip_prefix(root).unwrap_or(&spans_path);
    row.push(("spans", string(&shown.to_string_lossy())));
    Outcome {
        tally,
        metrics,
        row,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root: PathBuf = bench_dir.parent().unwrap_or(bench_dir).to_path_buf();
    let out_dir = bench_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }

    let outcome = if args.trace {
        run_traced(&args, &root, &out_dir)
    } else {
        run_untraced(&args, &out_dir)
    };
    let tally = &outcome.tally;
    let host: Vec<(&str, String)> = report::host_fingerprint(&root)
        .into_iter()
        .map(|(k, v)| (k, string(&v)))
        .collect();
    let mut row = vec![
        ("workload", string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", number(args.seconds)),
        ("trace", args.trace.to_string()),
        ("host", object(&host)),
        ("attempted", tally.attempted.to_string()),
        ("failed", tally.failed.to_string()),
        ("fail_ratio", number(tally.fail_ratio())),
        (
            "failures",
            format!(
                "[{}]",
                tally
                    .failures
                    .iter()
                    .map(|f| string(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("metrics", metrics_object(&outcome.metrics)),
    ];
    row.extend(outcome.row);
    let row = format!("{{\"row\": {}}}", object(&row));
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir.join("results.jsonl"))
    {
        let _ = writeln!(f, "{row}");
    }
    println!("{row}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        metrics_object(&outcome.metrics)
    );
    if !tally.correct() {
        for f in &tally.failures {
            eprintln!("check failed: {f}");
        }
        std::process::exit(1);
    }
}
