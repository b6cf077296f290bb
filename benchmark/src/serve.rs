//! `serve-mixed`: one closed-loop client against an in-process
//! `sfq_serve::Server` with the default configuration.
//!
//! The only path through `http`, `json`, `wal`, `supervisor` and `cache`.
//! The client submits a seeded mix of yield, margins, simulate, cosim and
//! lint jobs and waits for each to finish before sending the next — the
//! reference client's etiquette — so the loop is closed with one client.
//! A fifth of the submissions are exact resubmits of finished jobs, which
//! the content-addressed cache must answer at once; a cache change shows
//! here and nowhere else.

use hiperrf::designs::{registry, Design};
use hiperrf::hashing::{design_digest, parse_digest_hex};
use hiperrf::jobs::lint_job;
use hiperrf::RfGeometry;
use sfq_serve::job::{finalize, run_shard, JobKind};
use sfq_serve::{client, JobSpec, Json, Server, ServerConfig, Wal};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::report::Metric;
use crate::stats::{median, percentile, Tally};
use crate::trace::{Scope, Tracer};
use crate::{mix, slug, Phase, Round, Stopwatch, Workload};

/// A round submits one fresh job of every kind for every registry
/// design (20 jobs) plus [`RESUBMITS`] resubmits, so every round does the
/// same work whatever the seed. Every kind weighs the same and a fifth of
/// the submissions are resubmits: no record of the server's real traffic
/// exists, so this mix is a guess, not a measured profile.
///
/// Exact resubmits per round: 5 of 25 submissions.
const RESUBMITS: usize = 5;
/// Poll backoff: first gap, growth factor, cap.
const POLL_FIRST: Duration = Duration::from_micros(200);
const POLL_GROWTH: f64 = 1.5;
const POLL_CAP: Duration = Duration::from_millis(2);
/// A job not done by then counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The side of a job's square register file: the paper's 16×16 for the
/// Monte Carlo kinds (the geometry of `yield-16x16`), its 32×32 for the
/// single-shot kinds (the geometry of `cosim-32x32`).
fn side(kind: JobKind) -> usize {
    match kind {
        JobKind::Yield | JobKind::Margins => 16,
        JobKind::Simulate | JobKind::Cosim | JobKind::Lint => 32,
    }
}

/// The request body of a fresh job: the paper geometry of its kind, and
/// the server's defaults for every other parameter (8 trials in shards
/// of 4, the default σ grid, σ = 0 for a simulation).
fn spec_text(kind: JobKind, design: Design, seed: u64) -> String {
    let n = side(kind);
    format!(
        r#"{{"kind":"{}","design":"{}","registers":{n},"width":{n},"seed":"{seed}"}}"#,
        kind.name(),
        slug(design)
    )
}

/// The served result digest in a job or cached-submit document.
fn result_digest(doc: &Json) -> Option<u64> {
    doc.get("result")?
        .get("digest")?
        .as_str()
        .and_then(parse_digest_hex)
}

/// A fresh job the server finished, kept for resubmits and verification.
struct DoneJob {
    text: String,
    kind: JobKind,
    digest: u64,
}

/// The running server and its journal directory.
struct Running {
    server: Server,
    addr: String,
    dir: PathBuf,
}

pub struct Serve {
    seed: u64,
    out_dir: PathBuf,
    setups: u64,
    running: Option<Running>,
    /// Every finished job on the running server (warm-up included).
    finished: Vec<DoneJob>,
    /// Index into `finished` where the measured jobs start.
    measured_from: usize,
    /// A finished yield job's status document, for the JSON probes.
    yield_doc: Option<String>,
}

impl Serve {
    pub fn new(seed: u64, out_dir: PathBuf) -> Self {
        Serve {
            seed,
            out_dir,
            setups: 0,
            running: None,
            finished: Vec::new(),
            measured_from: 0,
            yield_doc: None,
        }
    }

    fn addr(&self) -> &str {
        &self.running.as_ref().expect("server running").addr
    }

    /// Polls job `id` with a short capped backoff until it is terminal.
    /// Returns the final document, the polls made, and how long after the
    /// reply the job was first seen out of the queue.
    fn wait(&self, s: Scope, label: &str, id: u64) -> Result<(Json, u32, f64), String> {
        let start = Instant::now();
        let mut gap = POLL_FIRST;
        let mut polls = 0;
        let mut queue_wait = None;
        loop {
            std::thread::sleep(gap);
            polls += 1;
            let doc = s
                .span("http.poll", label, |_| client::job_status(self.addr(), id))
                .map_err(|e| format!("job {id}: poll failed: {e}"))?;
            let status = doc.get("status").and_then(Json::as_str).unwrap_or("");
            if status != "queued" && queue_wait.is_none() {
                queue_wait = Some(start.elapsed().as_secs_f64() * 1e3);
            }
            match status {
                "done" => return Ok((doc, polls, queue_wait.unwrap_or(0.0))),
                "failed" => return Err(format!("job {id} failed: {doc}")),
                _ if start.elapsed() > JOB_TIMEOUT => {
                    return Err(format!("job {id} not done after {JOB_TIMEOUT:?}"))
                }
                _ => gap = gap.mul_f64(POLL_GROWTH).min(POLL_CAP),
            }
        }
    }

    /// Submits a fresh job and waits for it. On success records the job
    /// as an operation of `out` and returns `true`.
    /// `group` names the job's kind and design: jobs of one group do the
    /// same work.
    fn fresh(
        &mut self,
        s: Scope,
        text: String,
        kind: JobKind,
        group: &str,
        out: &mut Round,
    ) -> bool {
        let label = kind.name();
        let sw = Stopwatch::start();
        let reply = s.span("http.submit", label, |_| client::submit(self.addr(), &text));
        out.samples.push(("submit_ms", sw.wall_s() * 1e3));
        let id = match reply {
            Ok((202, ref body)) => body.get("id").and_then(Json::as_u64),
            _ => None,
        };
        let Some(id) = id else {
            out.tally
                .check(false, || format!("{text}: refused: {reply:?}"));
            return false;
        };
        match self.wait(s, label, id) {
            Ok((doc, polls, queue_wait)) => {
                out.part(group, out.ops_ms.len(), 1.0, sw.cpu_s());
                out.op(sw);
                let digest = result_digest(&doc);
                out.tally
                    .check(digest.is_some(), || format!("job {id}: no digest in {doc}"));
                out.samples.push(("polls", f64::from(polls)));
                out.samples.push(("queue_wait_ms", queue_wait));
                s.count("serve.polls", label, f64::from(polls));
                s.count("serve.queue_wait_ms", label, queue_wait);
                if kind == JobKind::Yield {
                    self.yield_doc = Some(doc.to_string());
                }
                if let Some(digest) = digest {
                    self.finished.push(DoneJob { text, kind, digest });
                }
                digest.is_some()
            }
            Err(e) => {
                out.tally.check(false, || e);
                false
            }
        }
    }

    /// Resubmits finished job `i`, recorded as an operation of `out`:
    /// the cache must answer 200 with the same digest.
    fn resubmit(&self, s: Scope, i: usize, out: &mut Round) {
        let job = &self.finished[i];
        let sw = Stopwatch::start();
        let reply = s.span("cache.resubmit", job.kind.name(), |_| {
            client::submit(self.addr(), &job.text)
        });
        out.part("resubmit", out.ops_ms.len(), 1.0, sw.cpu_s());
        out.op(sw);
        out.samples.push(("submit_ms", sw.wall_s() * 1e3));
        let ok = matches!(&reply, Ok((200, body)) if result_digest(body) == Some(job.digest));
        out.tally.check(ok, || {
            format!(
                "resubmit of {}: {reply:?}, want digest {:016x}",
                job.text, job.digest
            )
        });
    }

    /// Drains the server and removes its journal. While a panic unwinds
    /// the server is left to die with the process: draining could block.
    fn stop(&mut self) {
        if let Some(r) = self.running.take() {
            if !std::thread::panicking() {
                r.server.drain_and_join();
            }
            let _ = std::fs::remove_dir_all(&r.dir);
        }
    }
}

impl Workload for Serve {
    fn reset(&mut self) {
        self.stop();
        self.finished.clear();
    }

    fn setup(&mut self, s: Scope) {
        self.setups += 1;
        let dir = self
            .out_dir
            .join(format!("serve-{}-{}", std::process::id(), self.setups));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the journal directory");
        s.span("serve.setup", "", |s| {
            let server = s
                .span("serve.start", "", |_| {
                    Server::start(ServerConfig::new(dir.join("jobs.wal")))
                })
                .expect("server starts");
            let addr = server.addr().to_string();
            client::wait_healthy(&addr, 10_000).expect("server answers /healthz");
            self.running = Some(Running { server, addr, dir });
            // Warm-up: one lint job per design and geometry of the mix
            // computes and caches every netlist digest admission needs.
            // Untraced: its submissions are not the measured mix.
            let off = Tracer::new(false);
            let mut warm = Round::default();
            for (i, design) in registry().enumerate() {
                for (j, side) in [16, 32].into_iter().enumerate() {
                    let seed = mix(self.seed, &[u64::MAX, i as u64, j as u64]);
                    let text = format!(
                        r#"{{"kind":"lint","design":"{}","registers":{side},"width":{side},"seed":"{seed}"}}"#,
                        slug(design)
                    );
                    self.fresh(off.root(), text, JobKind::Lint, "warm-up", &mut warm);
                }
            }
            assert!(warm.tally.correct(), "warm-up failed: {:?}", warm.tally.failures);
        });
        self.measured_from = self.finished.len();
    }

    fn round(&mut self, s: Scope, round: u64) -> Round {
        let mut out = Round::default();
        // Seeded order of the round's submissions (Fisher–Yates);
        // `None` marks a resubmit.
        let mut order: Vec<Option<(JobKind, Design)>> = JobKind::ALL
            .into_iter()
            .flat_map(|k| Design::ALL.into_iter().map(move |d| Some((k, d))))
            .chain(std::iter::repeat_n(None, RESUBMITS))
            .collect();
        for i in (1..order.len()).rev() {
            let j = (mix(self.seed, &[round, i as u64, 1]) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        s.span("serve.round", "", |s| {
            for (i, slot) in order.into_iter().enumerate() {
                let r = mix(self.seed, &[round, i as u64, 2]);
                match slot {
                    Some((kind, design)) => {
                        let text = spec_text(kind, design, mix(r, &[3]));
                        let group = format!("{}.{}", kind.name(), slug(design));
                        if s.span("serve.job", kind.name(), |s| {
                            self.fresh(s, text, kind, &group, &mut out)
                        }) {
                            out.work += 1.0;
                        }
                    }
                    None => {
                        let target = (r % self.finished.len() as u64) as usize;
                        self.resubmit(s, target, &mut out);
                        out.work += 1.0;
                    }
                }
            }
        });
        if s.on() {
            if let Ok(h) = client::health(self.addr()) {
                let cache = h.get("cache");
                let field = |k| cache.and_then(|c| c.get(k)).and_then(Json::as_u64);
                if let (Some(hits), Some(misses)) = (field("hits"), field("misses")) {
                    s.count(
                        "cache.hit_ratio",
                        "",
                        hits as f64 / (hits + misses).max(1) as f64,
                    );
                }
                if let Some(n) = h.get("shards_executed").and_then(Json::as_u64) {
                    s.count("serve.shards_executed", "", n as f64);
                }
            }
        }
        out
    }

    fn verify(&mut self, tally: &mut Tally) {
        // Each measured job's digest must equal `finalize` over direct
        // `run_shard` calls for the same spec, computed here, outside the
        // timed loop, on two threads.
        let jobs = &self.finished[self.measured_from..];
        let recompute = |job: &DoneJob| -> Result<u64, String> {
            let json = Json::parse(&job.text).map_err(|e| e.to_string())?;
            let spec = JobSpec::from_json(&json)?;
            let shards: Vec<Json> = (0..spec.shard_count())
                .map(|i| run_shard(&spec, i, 0))
                .collect();
            Ok(finalize(&spec, &shards)?.digest)
        };
        let results: Vec<Result<u64, String>> = std::thread::scope(|scope| {
            let half = jobs.len().div_ceil(2);
            let handles: Vec<_> = jobs
                .chunks(half.max(1))
                .map(|chunk| scope.spawn(move || chunk.iter().map(recompute).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("verification thread panicked"))
                .collect()
        });
        for (job, want) in jobs.iter().zip(results) {
            tally.check(want.as_ref() == Ok(&job.digest), || {
                format!("{}: served {:016x}, direct {want:?}", job.text, job.digest)
            });
        }
    }

    fn probes(&mut self, s: Scope) {
        for _ in 0..50 {
            s.span("http.healthz", "", |_| client::health(self.addr()))
                .expect("healthz answers");
        }
        // WAL appends on a journal the benchmark owns.
        let dir = &self.running.as_ref().expect("server running").dir;
        let path = dir.join("probe.wal");
        let (mut wal, _) = Wal::open(&path).expect("open the probe journal");
        let record = Json::parse(r#"{"t":"shard","id":1,"shard":0,"result":{"ok":true}}"#)
            .expect("valid JSON");
        for _ in 0..1000 {
            s.span("wal.append", "", |_| wal.append(&record))
                .expect("journal append");
        }
        drop(wal);
        let _ = std::fs::remove_file(&path);
        if let Some(text) = self.yield_doc.clone() {
            for _ in 0..200 {
                let doc = s
                    .span("json.parse", "", |_| Json::parse(&text))
                    .expect("served JSON parses");
                s.span("json.encode", "", |_| doc.to_string());
            }
        }
        let geometry = RfGeometry::paper_32x32();
        for design in registry() {
            for _ in 0..3 {
                s.span("hashing.design_digest", slug(design), |_| {
                    design_digest(design, geometry)
                });
                s.span("lint.lint_job", slug(design), |_| {
                    lint_job(design, geometry)
                });
            }
        }
        for (i, kind) in JobKind::ALL.into_iter().enumerate() {
            let text = spec_text(kind, Design::HiPerRf, mix(self.seed, &[7, i as u64]));
            let spec =
                JobSpec::from_json(&Json::parse(&text).expect("valid JSON")).expect("valid spec");
            for _ in 0..3 {
                s.span("job.run_shard", kind.name(), |_| {
                    for shard in 0..spec.shard_count() {
                        run_shard(&spec, shard, 0);
                    }
                });
            }
        }
    }

    fn named(&self, phase: &Phase) -> Vec<Metric> {
        vec![
            Metric::new("serve.job_p50_ms", median(&phase.ops_wall_ms), "ms"),
            Metric::new(
                "serve.job_p90_ms",
                percentile(&phase.ops_wall_ms, 90.0),
                "ms",
            ),
            Metric::new(
                "serve.submit_p50_ms",
                median(&phase.samples("submit_ms")),
                "ms",
            ),
            Metric::new("serve.jobs_per_s", phase.work_per_s(), "1/s"),
            Metric::new(
                "serve.polls_per_job",
                median(&phase.samples("polls")),
                "count",
            ),
        ]
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Per-layer figures from one traced set-up, round and the probes.
pub fn layer_metrics(t: &Tracer) -> Vec<Metric> {
    let med = |name, label| median(&t.durations(name, label));
    let mut out = Vec::new();
    for kind in JobKind::ALL {
        out.push(Metric::new(
            format!("job.run_shard_ms.{}", kind.name()),
            med("job.run_shard", kind.name()) * 1e3,
            "ms",
        ));
    }
    let wal = t.durations("wal.append", "");
    let polls: f64 = t.counter_values("serve.polls", "").iter().sum();
    let fresh = t.counter_values("serve.polls", "").len() as f64;
    out.extend([
        Metric::new("http.healthz_us", med("http.healthz", "") * 1e6, "us"),
        Metric::new("wal.append_us_p50", median(&wal) * 1e6, "us"),
        Metric::new("wal.append_us_p99", percentile(&wal, 99.0) * 1e6, "us"),
        Metric::new("json.parse_us", med("json.parse", "") * 1e6, "us"),
        Metric::new("json.encode_us", med("json.encode", "") * 1e6, "us"),
        Metric::new(
            "hashing.design_digest_ms",
            med("hashing.design_digest", "") * 1e3,
            "ms",
        ),
        Metric::new("cache.hit_ms", med("cache.resubmit", "") * 1e3, "ms"),
        Metric::new(
            "cache.hit_ratio",
            t.counter("cache.hit_ratio", "").unwrap_or(f64::NAN),
            "ratio",
        ),
        Metric::new(
            "serve.shards_executed",
            t.counter("serve.shards_executed", "").unwrap_or(f64::NAN),
            "count",
        ),
        Metric::new(
            "serve.queue_wait_ms",
            median(&t.counter_values("serve.queue_wait_ms", "")),
            "ms",
        ),
        Metric::new("serve.polls_per_job", polls / fresh, "count"),
        Metric::new("serve.submit_p50_ms", med("http.submit", "") * 1e3, "ms"),
    ]);
    for design in registry() {
        let d = slug(design);
        out.push(Metric::new(
            format!("lint.ms.{d}"),
            med("lint.lint_job", d) * 1e3,
            "ms",
        ));
    }
    out
}
