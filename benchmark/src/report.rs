//! Host fingerprint, memory high-water mark, and the JSON the benchmark
//! prints.

use std::fmt::Write as _;
use std::path::Path;

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit Rust prints for the `f64`; non-finite
/// values (a metric with no samples) become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// JSON array of numbers.
pub fn numbers(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
    format!("[{}]", items.join(", "))
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Peak resident set size of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the heap's free pages back to the kernel and restarts the
/// memory high-water mark (`VmHWM`) from the current resident size.
///
/// Called before a round, so [`peak_rss_mb`] then covers that round on
/// top of the memory still live: the allocator keeps one heap per
/// contended thread, and how much the server's short-lived threads left
/// in theirs varies from run to run. Where `/proc/self/clear_refs`
/// cannot be written the mark keeps counting from the start of the
/// process.
pub fn restart_peak_rss() {
    // SAFETY: `malloc_trim` only returns free memory the C library's
    // allocator owns; no live allocation moves.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME: i32 = 2;

/// CPU time (s) this process has used so far, every thread included
/// (threads that have exited too). A paravirtualised guest kernel keeps
/// hypervisor steal out of this clock, and a thread that sleeps or waits
/// for a lock or a join does not advance it, so a figure taken over it
/// measures the work done rather than how busy the host was.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` and the clock
    // id is one every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// System-wide `(steal, total)` CPU jiffies from `/proc/stat`. Steal is
/// time the hypervisor ran something else while a vCPU wanted to run; a
/// phase with a large share of it measured a disturbed host.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The host and build a result was measured on, so figures from
/// different machines are never compared unlabelled.
pub fn host_fingerprint(root: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        ("rustc", env!("BENCH_RUSTC_VERSION").to_string()),
        ("commit", git_commit(root)),
        ("source_digest", source_digest(root)),
    ]
}

/// The checked-out commit, read from `.git` in `root` alone (a checkout
/// without git history reports `none`).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "none".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs")).and_then(|packed| {
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest over the program's sources (`crates/` and the root
/// manifests), so rows from a checkout without git history still name
/// the exact code they measured.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            let rel = f.strip_prefix(root).unwrap_or(f);
            feed(rel.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_clock_counts_work_not_sleep() {
        let t0 = process_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(100));
        let slept = process_cpu_s() - t0;
        assert!((0.0..0.05).contains(&slept), "sleeping used {slept} s");
        // Busy work on another thread shows in the process clock.
        let t1 = process_cpu_s();
        std::thread::spawn(|| {
            let start = std::time::Instant::now();
            let mut x = 1u64;
            while start.elapsed().as_millis() < 60 {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005));
            }
        })
        .join()
        .expect("busy thread");
        assert!(process_cpu_s() - t1 > 0.01);
    }

    #[test]
    fn json_pieces_escape_and_keep_digits() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "null");
        let m = metrics_object(&[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(m, "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}");
    }
}
