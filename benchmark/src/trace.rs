//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a label (design, kernel or job
//! kind), start and end times, and the span that caused it. Spans are
//! recorded only when tracing is on; with tracing off a [`Scope`] runs
//! the closure directly, so the untraced end-to-end figures pay one
//! branch per call. Nothing here is inside the program under test: the
//! layer split is what is visible from its public API.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub label: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer the span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A deterministic work counter recorded next to the spans.
#[derive(Debug, Clone)]
pub struct Counter {
    pub name: &'static str,
    pub label: String,
    pub value: f64,
}

/// Span and counter store, shared by every thread of a run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Vec<Counter>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
        }
    }

    /// The root scope: spans opened here have no parent.
    pub fn root(&self) -> Scope<'_> {
        Scope {
            tracer: self,
            id: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Every counter recorded so far, in recording order.
    pub fn counters(&self) -> Vec<Counter> {
        self.counters
            .lock()
            .expect("counter store poisoned")
            .clone()
    }

    /// Wall times (s) of the spans named `name` whose label is `label`
    /// (any label when `label` is empty).
    pub fn durations(&self, name: &str, label: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name && (label.is_empty() || s.label == label))
            .map(Span::secs)
            .collect()
    }

    /// Values of the counters named `name` with label `label` (any label
    /// when `label` is empty), in recording order.
    pub fn counter_values(&self, name: &str, label: &str) -> Vec<f64> {
        self.counters
            .lock()
            .expect("counter store poisoned")
            .iter()
            .filter(|c| c.name == name && (label.is_empty() || c.label == label))
            .map(|c| c.value)
            .collect()
    }

    /// Sum of the counters named `name` with label `label` (any label when
    /// `label` is empty); `None` when none was recorded.
    pub fn counter(&self, name: &str, label: &str) -> Option<f64> {
        let counters = self.counters.lock().expect("counter store poisoned");
        let mut hits = counters
            .iter()
            .filter(|c| c.name == name && (label.is_empty() || c.label == label))
            .peekable();
        hits.peek()?;
        Some(hits.map(|c| c.value).sum())
    }
}

/// A position in the span tree: new spans opened through it are its
/// children. `Copy` and `Sync`, so worker threads can open spans under a
/// parent owned by the thread that forked them.
#[derive(Clone, Copy)]
pub struct Scope<'t> {
    tracer: &'t Tracer,
    id: Option<usize>,
}

impl<'t> Scope<'t> {
    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.tracer.on
    }

    /// Runs `f` inside a new child span named `name` with `label`.
    pub fn span<T>(&self, name: &'static str, label: &str, f: impl FnOnce(Scope<'t>) -> T) -> T {
        if !self.tracer.on {
            return f(*self);
        }
        let start_ns = self.tracer.now_ns();
        let id = {
            let mut spans = self.tracer.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                label: label.to_string(),
                parent: self.id,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(Scope {
            tracer: self.tracer,
            id: Some(id),
        });
        let end_ns = self.tracer.now_ns();
        self.tracer.spans.lock().expect("span store poisoned")[id].end_ns = end_ns;
        out
    }

    /// Records a work counter (no-op with tracing off).
    pub fn count(&self, name: &'static str, label: &str, value: f64) {
        if self.tracer.on {
            self.tracer
                .counters
                .lock()
                .expect("counter store poisoned")
                .push(Counter {
                    name,
                    label: label.to_string(),
                    value,
                });
        }
    }
}

/// Self time (ns) of every span: its wall time minus the part of its
/// interval that its children cover. Children running in parallel on
/// other threads overlap; the union of their intervals is subtracted, so
/// a parent's self time never goes negative and never counts a covered
/// instant twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.end_ns - s.start_ns - covered
        })
        .collect()
}

/// Self time (s) summed per layer, in first-seen order.
pub fn layer_self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let t = t as f64 * 1e-9;
        match out.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some((_, sum)) => *sum += t,
            None => out.push((s.layer(), t)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            label: String::new(),
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn parent_self_time_excludes_children() {
        let spans = vec![
            span("soak.round", None, 0, 1000),
            span("sim.write", Some(0), 100, 300),
            span("sim.read", Some(0), 400, 700),
            span("sim.deep", Some(2), 500, 600),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![500, 200, 200, 100]);
        let layers = layer_self_times(&spans);
        assert_eq!(layers[0].0, "soak");
        assert!((layers[0].1 - 500e-9).abs() < 1e-15);
        assert_eq!(layers[1].0, "sim");
        assert!((layers[1].1 - 500e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_parallel_children_are_not_double_counted() {
        // Two worker-thread trials overlap inside one fork-join span.
        let spans = vec![
            span("par.map_trials", None, 0, 1000),
            span("margins.yield_trial", Some(0), 100, 600),
            span("margins.yield_trial", Some(0), 200, 900),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 200, "covered 100..900 once");
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("a.x", None, 100, 200), span("b.y", Some(0), 150, 400)];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn scopes_record_parentage_only_when_on() {
        let t = Tracer::new(true);
        let root = t.root();
        let v = root.span("soak.round", "", |s| {
            s.span("sim.write", "hiperrf", |_| 7) + s.span("sim.read", "hiperrf", |_| 1)
        });
        root.count("sim.events", "hiperrf", 3.0);
        root.count("sim.events", "hiperrf", 4.0);
        assert_eq!(v, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.durations("sim.write", "hiperrf").len(), 1);
        assert_eq!(t.counter("sim.events", "hiperrf"), Some(7.0));
        assert_eq!(t.counter("sim.events", "ndro"), None);

        let off = Tracer::new(false);
        let v = off
            .root()
            .span("soak.round", "", |s| s.span("sim.write", "", |_| 3));
        off.root().count("sim.events", "", 1.0);
        assert_eq!(v, 3);
        assert!(off.spans().is_empty());
        assert!(off.counters().is_empty());
    }
}
