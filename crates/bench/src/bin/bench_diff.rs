//! Warn-only benchmark diff: compare two `BENCH_*.json` record files (the
//! committed previous run vs a fresh one) and print per-metric deltas.
//!
//! Usage: `bench_diff <old.json> <new.json> [--max-regress <pct>]`
//!
//! Only `(experiment, series, x, metric)` keys present in **both** files
//! are compared — a smoke run diffing against a committed full run simply
//! covers the shared subset. Keys present only in the *fresh* file are
//! listed as `fresh-only` warnings (a metric without a committed baseline
//! is usually a new axis someone forgot to re-commit — surfacing it keeps
//! the baseline honest without failing the build). Timing metrics
//! (`*_ms`/`*_us`, lower is better) and rate metrics (`*_per_us`, higher
//! is better) that moved more than 25% are flagged `WARN`, but by default
//! the exit code is always 0: this step reports perf drift, it does not
//! gate CI (timings on shared runners are too noisy for a hard threshold).
//!
//! `--max-regress <pct>` opts into a hard gate: the exit code becomes
//! nonzero when any timing metric *regressed* (got slower) by more than
//! `<pct>` percent, measured as `new/old − 1`, or any rate metric fell by
//! more than `<pct>` percent, measured as `old/new − 1` — so a 3× slowdown
//! trips a 200% gate the same way whether it shows as a time or a rate.
//! CI runs the gate at 200% (a 3× slowdown fails the build): across 3
//! back-to-back smoke runs on one machine the worst observed drift on
//! these microsecond windows was +102%, so the gate sits about 2× above
//! measured noise while still catching order-of-magnitude regressions.

use sentential_bench::{parse_records, Record, Table};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Relative change (in %) of a timing metric that earns a `WARN` flag.
const WARN_PCT: f64 = 25.0;

fn load(path: &str) -> Option<Vec<Record>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("bench_diff: cannot read {path}: {e} — skipping diff");
            return None;
        }
    };
    match parse_records(&text) {
        Ok(r) => Some(r),
        Err(e) => {
            println!("bench_diff: cannot parse {path}: {e} — skipping diff");
            None
        }
    }
}

/// How the gate reads a metric, by its name.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Kind {
    /// `*_ms` / `*_us`: a duration, lower is better.
    Timing,
    /// `*_per_us`: a throughput, higher is better.
    Rate,
    /// Sizes, counts, ratios: reported, never gated.
    Other,
}

fn classify(metric: &str) -> Kind {
    if metric.ends_with("_per_us") {
        Kind::Rate
    } else if metric.ends_with("_ms") || metric.ends_with("_us") {
        Kind::Timing
    } else {
        Kind::Other
    }
}

/// How much worse `new` is than `old`, in percent: `new/old − 1` for a
/// timing, `old/new − 1` for a rate (a fall to a third reads +200%, like
/// a threefold slowdown). `None` for ungated metrics.
fn regress_pct(kind: Kind, old: f64, new: f64) -> Option<f64> {
    // `bad / good − 1`, where `good` is the side that would be better.
    let pct = |good: f64, bad: f64| {
        if good == 0.0 {
            if bad == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (bad / good - 1.0) * 100.0
        }
    };
    match kind {
        Kind::Timing => Some(pct(old, new)),
        Kind::Rate => Some(pct(new, old)),
        Kind::Other => None,
    }
}

fn index(records: &[Record]) -> BTreeMap<(String, String, u64, String), f64> {
    let mut map = BTreeMap::new();
    for r in records {
        for (k, v) in &r.values {
            if v.is_finite() {
                map.insert((r.experiment.clone(), r.series.clone(), r.x, k.clone()), *v);
            }
        }
    }
    map
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut max_regress: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--max-regress" {
            let pct = args
                .next()
                .and_then(|p| p.parse::<f64>().ok())
                .expect("--max-regress needs a percentage");
            max_regress = Some(pct);
        } else {
            paths.push(a);
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        println!(
            "usage: bench_diff <old.json> <new.json> [--max-regress <pct>]  \
             (warn-only unless --max-regress is given)"
        );
        return ExitCode::SUCCESS;
    };
    let (Some(old), Some(new)) = (load(old_path), load(new_path)) else {
        return ExitCode::SUCCESS;
    };
    let old = index(&old);
    let new = index(&new);

    let mut t = Table::new(&[
        "experiment",
        "series",
        "x",
        "metric",
        "old",
        "new",
        "Δ%",
        "",
    ]);
    let mut shared = 0usize;
    let mut warned = 0usize;
    let mut fresh_only: Vec<String> = Vec::new();
    let mut regressions: Vec<(String, f64)> = Vec::new();
    for (key, new_v) in &new {
        let Some(old_v) = old.get(key) else {
            let (exp, series, x, metric) = key;
            fresh_only.push(format!("{exp}/{series}/{x}/{metric}"));
            continue;
        };
        shared += 1;
        let (exp, series, x, metric) = key;
        let delta_pct = if *old_v == 0.0 {
            if *new_v == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (new_v - old_v) / old_v * 100.0
        };
        let kind = classify(metric);
        if let (Some(limit), Some(worse)) = (max_regress, regress_pct(kind, *old_v, *new_v)) {
            if worse > limit {
                regressions.push((format!("{exp}/{series}/{x}/{metric}"), worse));
            }
        }
        let flag = if kind != Kind::Other && delta_pct.abs() > WARN_PCT {
            warned += 1;
            "WARN"
        } else {
            ""
        };
        t.row(&[
            exp,
            series,
            x,
            metric,
            &format!("{old_v:.3}"),
            &format!("{new_v:.3}"),
            &format!("{delta_pct:+.1}"),
            &flag,
        ]);
    }
    if shared == 0 {
        println!("bench_diff: no shared (experiment, series, x, metric) keys between {old_path} and {new_path}");
        if !fresh_only.is_empty() {
            println!(
                "bench_diff: WARN {} fresh metric(s) have no committed baseline — \
                 re-run the full experiment and commit {old_path}",
                fresh_only.len()
            );
        }
        return ExitCode::SUCCESS;
    }
    println!("bench_diff: {old_path} → {new_path} ({shared} shared metrics)\n");
    t.print();
    if !fresh_only.is_empty() {
        println!(
            "\nWARN: {} fresh metric(s) have no committed baseline (new axis? \
             re-run the full experiment and commit {old_path}):",
            fresh_only.len()
        );
        for key in &fresh_only {
            println!("  {key}");
        }
    }
    if warned > 0 {
        println!(
            "\n{warned} timing/rate metric(s) moved more than {WARN_PCT}% — perf drift, not a failure."
        );
    } else {
        println!("\nno timing/rate metric moved more than {WARN_PCT}%.");
    }
    if let Some(limit) = max_regress {
        if !regressions.is_empty() {
            println!(
                "\n--max-regress {limit}%: {} timing/rate metric(s) regressed past the gate:",
                regressions.len()
            );
            for (key, pct) in &regressions {
                println!("  {key}  {pct:+.1}%");
            }
            return ExitCode::FAILURE;
        }
        println!("\n--max-regress {limit}%: no timing/rate regression past the gate.");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_classified_by_suffix() {
        assert_eq!(classify("apply_per_us"), Kind::Rate);
        assert_eq!(classify("compile_ms"), Kind::Timing);
        assert_eq!(classify("warm_query_us"), Kind::Timing);
        assert_eq!(classify("sdd_size"), Kind::Other);
        assert_eq!(classify("speedup"), Kind::Other);
    }

    #[test]
    fn rates_regress_when_they_fall_and_timings_when_they_rise() {
        // A threefold slowdown reads +200% either way.
        assert_eq!(regress_pct(Kind::Timing, 10.0, 30.0), Some(200.0));
        assert_eq!(regress_pct(Kind::Rate, 30.0, 10.0), Some(200.0));
        // Improvements are negative, however large.
        assert!(regress_pct(Kind::Timing, 30.0, 1.0).unwrap() < 0.0);
        assert!(regress_pct(Kind::Rate, 1.0, 30.0).unwrap() < 0.0);
        // A rate that drops to zero regresses without bound.
        assert_eq!(regress_pct(Kind::Rate, 5.0, 0.0), Some(f64::INFINITY));
        assert_eq!(regress_pct(Kind::Timing, 0.0, 0.0), Some(0.0));
        assert_eq!(regress_pct(Kind::Other, 1.0, 100.0), None);
    }
}
