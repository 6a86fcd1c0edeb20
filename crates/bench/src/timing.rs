//! A minimal measurement harness for the `[[bench]]` binaries: wall-clock
//! repetition with warmup, median/mean/min summary, and a hand-rolled JSON
//! emitter so results are machine-readable without external crates.

use std::fmt::Write as _;
use std::time::Instant;

/// One measured benchmark case.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Group/case label, e.g. `sim_delay_chain_100cycles/static/64`.
    pub name: String,
    /// Number of measured iterations.
    pub iters: u32,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: u64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: u64,
    /// Fastest iteration in nanoseconds.
    pub min_ns: u64,
}

/// Runs `f` for `warmup` unmeasured and `iters` measured iterations and
/// returns the summary. Prints one human-readable line per case.
pub fn measure<F: FnMut()>(name: impl Into<String>, warmup: u32, iters: u32, mut f: F) -> Sample {
    let name = name.into();
    assert!(iters > 0, "need at least one measured iteration");
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<u64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    let median_ns = times[times.len() / 2];
    let mean_ns = times.iter().sum::<u64>() / times.len() as u64;
    let min_ns = times[0];
    println!(
        "{name:<48} median {:>10}  mean {:>10}  min {:>10}  ({iters} iters)",
        fmt_ns(median_ns),
        fmt_ns(mean_ns),
        fmt_ns(min_ns)
    );
    Sample {
        name,
        iters,
        median_ns,
        mean_ns,
        min_ns,
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Serializes samples as a JSON array (stable key order, no dependencies).
pub fn to_json(samples: &[Sample]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"name\": \"{}\", \"iters\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}}}{comma}",
            lss_netlist::json::escape(&s.name),
            s.iters,
            s.median_ns,
            s.mean_ns,
            s.min_ns
        )
        .unwrap();
    }
    out.push(']');
    out.push('\n');
    out
}

/// Writes samples to `path` as JSON, reporting where they went.
pub fn write_json(path: &str, samples: &[Sample]) {
    std::fs::write(path, to_json(samples)).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path} ({} cases)", samples.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_ordered_stats() {
        let s = measure("noop", 1, 5, || {
            std::hint::black_box(1 + 1);
        });
        assert!(s.min_ns <= s.median_ns);
        assert_eq!(s.iters, 5);
    }

    #[test]
    fn json_is_well_formed() {
        let samples = vec![Sample {
            name: "a\"b".into(),
            iters: 3,
            median_ns: 10,
            mean_ns: 11,
            min_ns: 9,
        }];
        let json = to_json(&samples);
        assert!(json.contains("\\\""));
        assert!(json.trim_end().starts_with('[') && json.trim_end().ends_with(']'));
    }
}
