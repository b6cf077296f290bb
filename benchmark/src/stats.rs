//! Order statistics, group costing and failure accounting for the
//! benchmark's reports.

use std::collections::BTreeMap;

/// Sorted copy of `values` (NaN-free by construction: every sample is a
/// measured duration, count or rate).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `NaN` for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the benchmark's own spread figures match the ones its acceptance
/// check computes. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The `p`-th percentile (0–100), linearly interpolated between the
/// closest ranks; `NaN` for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it, so a tail figure always rests on ten
/// observations; `None` below twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// One timed part of a user-visible operation: its group, the operation
/// it belongs to, the work it did and the process CPU seconds it took.
/// Parts of one group do the same kind of work (one design's write pass,
/// one job kind on one design), so their cost per unit of work is
/// comparable from part to part.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    pub group: String,
    /// Index of the operation, among the phase's operations.
    pub op: usize,
    pub work: f64,
    pub cpu_s: f64,
}

/// A phase's work rate and operation times with every part costed at
/// its group's typical cost per unit of work.
///
/// A group's cost is a percentile of its parts' CPU seconds per unit of
/// work, and every part is costed at that times its own work. At the
/// 50th percentile this is a work-weighted median. At a low percentile it
/// is the cost when the host was quiet: other guests on a shared host
/// slow cache- and memory-bound work for a while and then stop, so the
/// same work takes a third more CPU from moment to moment, while the
/// fast end of the distribution moves far less.
#[derive(Debug, Clone, PartialEq)]
pub struct Costed {
    /// All work over the cost of all parts.
    pub work_per_cpu_s: f64,
    /// Cost (ms) of each operation: the sum over its parts.
    pub op_ms: Vec<f64>,
}

/// [`Costed`] figures for `ops` operations made of `parts`, each group
/// costed at the `pct`-th percentile.
pub fn costed(parts: &[Part], ops: usize, pct: f64) -> Costed {
    let parts: Vec<&Part> = parts.iter().filter(|p| p.work > 0.0).collect();
    let mut per_group: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in &parts {
        per_group
            .entry(p.group.as_str())
            .or_default()
            .push(p.cpu_s / p.work);
    }
    let cost: BTreeMap<&str, f64> = per_group
        .into_iter()
        .map(|(g, v)| (g, percentile(&v, pct)))
        .collect();
    let mut op_ms = vec![0.0; ops];
    let (mut work, mut cpu_s) = (0.0, 0.0);
    for p in parts {
        let c = p.work * cost[p.group.as_str()];
        work += p.work;
        cpu_s += c;
        if let Some(op) = op_ms.get_mut(p.op) {
            *op += c * 1e3;
        }
    }
    Costed {
        work_per_cpu_s: work / cpu_s,
        op_ms,
    }
}

/// Operations attempted and failed in one run. A failed, refused or
/// check-failing operation counts once; every check is one attempt.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Failure descriptions kept for the report.
    const KEEP: usize = 8;

    /// Records one attempted operation and whether it passed its check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < Self::KEEP {
                self.failures.push(what());
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < Self::KEEP {
                self.failures.push(f);
            }
        }
    }

    /// Failed over attempted (0 for no attempts).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether the run counts as correct: something ran and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The chosen percentile really leaves ten samples strictly above
        // its rank.
        for n in [100usize, 250, 1000, 4096] {
            let p = tail_percentile(n).unwrap();
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let cut = percentile(&v, p);
            assert!(v.iter().filter(|&&x| x > cut).count() >= 10, "n={n}");
        }
    }

    fn part(group: &str, op: usize, work: f64, cpu_s: f64) -> Part {
        Part {
            group: group.into(),
            op,
            work,
            cpu_s,
        }
    }

    #[test]
    fn costed_prices_each_group_at_its_percentile() {
        // Group "a": ten parts of 2 units at 1..=10 s per unit; its 10th
        // percentile is 1.9 s per unit. Group "b": one part of 4 units in
        // 2 s, 0.5 s per unit.
        let mut parts: Vec<Part> = (1..=10)
            .map(|i| part("a", i % 2, 2.0, 2.0 * i as f64))
            .collect();
        parts.push(part("b", 2, 4.0, 2.0));
        // A part that did no work has no cost per unit and is left out.
        parts.push(part("b", 2, 0.0, 9.0));
        let c = costed(&parts, 3, 10.0);
        // 24 units over 10 × 2 × 1.9 + 4 × 0.5 = 40 s.
        assert!((c.work_per_cpu_s - 24.0 / 40.0).abs() < 1e-12);
        // Operations 0 and 1 have five "a" parts each; operation 2 the "b" part.
        for (got, want) in c.op_ms.iter().zip([19e3, 19e3, 2e3]) {
            assert!((got - want).abs() < 1e-6, "{:?}", c.op_ms);
        }
        // At the median, "a" costs 5.5 s per unit: 24 units over 112 s.
        let c = costed(&parts, 3, 50.0);
        assert!((c.work_per_cpu_s - 24.0 / 112.0).abs() < 1e-12);
    }

    #[test]
    fn low_percentile_ignores_interference_a_median_would_see() {
        // Four of five parts slowed by up to 90 %: the fast end stays at
        // the undisturbed cost, the median does not.
        let mut parts: Vec<Part> = (0..90)
            .map(|i| part("g", i, 1.0, 1.0 + (i % 10) as f64 / 10.0))
            .collect();
        parts.extend((90..100).map(|i| part("g", i, 1.0, 1.0)));
        let c = costed(&parts, 100, 1.0);
        assert_eq!(c.work_per_cpu_s, 1.0);
        assert!(c.op_ms.iter().all(|&ms| ms == 1e3));
        assert!(costed(&parts, 100, 50.0).work_per_cpu_s < 0.8);
    }

    #[test]
    fn fail_ratio_counts_every_check_once() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        assert!(!t.correct(), "a run that checked nothing is not correct");
        for i in 0..8 {
            t.check(i != 3, || format!("op {i}"));
        }
        assert_eq!((t.attempted, t.failed), (8, 1));
        assert_eq!(t.fail_ratio(), 0.125);
        assert!(!t.correct());
        assert_eq!(t.failures, vec!["op 3".to_string()]);

        let mut other = Tally::default();
        other.check(true, String::new);
        other.check(false, || "golden".into());
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (10, 2));
        assert_eq!(t.fail_ratio(), 0.2);

        let mut clean = Tally::default();
        clean.check(true, String::new);
        assert!(clean.correct());
    }

    #[test]
    fn failure_list_is_bounded() {
        let mut t = Tally::default();
        for i in 0..100 {
            t.check(false, || format!("{i}"));
        }
        assert_eq!(t.failed, 100);
        assert_eq!(t.failures.len(), Tally::KEEP);
    }
}
