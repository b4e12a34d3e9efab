//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <compile_suite|serve_mixed|serve_lanes> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds`, checks every answer against an
//! oracle independent of the SDD path, and prints as its last stdout line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. Host facts (cores, SIMD tier,
//! build profile, server banner) go to stderr. See `README.md`.

mod compile_suite;
mod oracle;
mod rng;
mod serve;
mod stats;
mod stream;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::Command;

pub use wire::peak_rss_mb;

/// End-to-end metrics and units, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("sdd_size", "count"),
    ("peak_rss_mb", "MiB"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("answers_per_s", "1/s"),
];

/// Per-layer metrics and units, as listed in `BENCHMARK.json`. A workload
/// that does not exercise a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 73] = [
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.replay_ms", "ms"),
    ("query.lineage_ms", "ms"),
    ("query.lineage_gates", "count"),
    ("circuit.primal_max_degree", "count"),
    ("graphtw.decompose_ms", "ms"),
    ("graphtw.decompose_ms.hier", "ms"),
    ("graphtw.decompose_ms.sjoin", "ms"),
    ("graphtw.decompose_ms.uh", "ms"),
    ("graphtw.decompose_ms.cnf", "ms"),
    ("graphtw.min_fill_ms", "ms"),
    ("graphtw.min_degree_ms", "ms"),
    ("graphtw.width", "count"),
    ("core.vtree_extract_ms", "ms"),
    ("sdd.apply_ms", "ms"),
    ("sdd.apply_ms.hier", "ms"),
    ("sdd.apply_ms.sjoin", "ms"),
    ("sdd.apply_ms.uh", "ms"),
    ("sdd.apply_ms.cnf", "ms"),
    ("sdd.apply_calls", "count"),
    ("sdd.apply_cache_hit_ratio", "ratio"),
    ("sdd.unique_probes_per_insert", "ratio"),
    ("sdd.validate_ms", "ms"),
    ("sdd.count_exact_ms", "ms"),
    ("sdd.mem_bytes", "bytes"),
    ("kb.build_ms", "ms"),
    ("kb.freeze_ms", "ms"),
    ("kb.eval_ms", "ms"),
    ("kb.ac_gates", "count"),
    ("snap.save_ms", "ms"),
    ("snap.load_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.roundtrip_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.busy_us", "us"),
    ("wire.tcp_p50_us", "us"),
    ("wire.overhead_us", "us"),
    ("kb.query_us", "us"),
    ("kb.condition_us", "us"),
    ("kb.retract_us", "us"),
    ("kb.setp_us", "us"),
    ("kb.marginal_miss_us", "us"),
    ("kb.marginal_hit_ratio", "ratio"),
    ("kb.mpe_us", "us"),
    ("kb.entails_us", "us"),
    ("kb.all_marginals_us", "us"),
    ("kb.eval_hit_ratio", "ratio"),
    ("sdd.eval_full_us.chain", "us"),
    ("sdd.eval_full_us.band", "us"),
    ("sdd.eval_dirty_us.chain", "us"),
    ("sdd.eval_dirty_us.band", "us"),
    ("sdd.eval_recomputed_frac.chain", "ratio"),
    ("sdd.eval_recomputed_frac.band", "ratio"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.batch_depth_p50", "count"),
    ("serve.window_wait_us", "us"),
    ("kb.query_batch_us_per_lane.chain.b1", "us"),
    ("kb.query_batch_us_per_lane.chain.b8", "us"),
    ("kb.query_batch_us_per_lane.chain.b16", "us"),
    ("kb.query_batch_us_per_lane.chain.b64", "us"),
    ("kb.query_batch_us_per_lane.band.b1", "us"),
    ("kb.query_batch_us_per_lane.band.b8", "us"),
    ("kb.query_batch_us_per_lane.band.b16", "us"),
    ("kb.query_batch_us_per_lane.band.b64", "us"),
    ("kb.lane_bytes_per_sweep.chain.b8", "bytes"),
    ("kb.lane_bytes_per_sweep.chain.b64", "bytes"),
    ("kb.lane_bytes_per_sweep.band.b8", "bytes"),
    ("kb.lane_bytes_per_sweep.band.b64", "bytes"),
    ("arith.lse_ns_per_elem", "ns"),
    ("loadgen.late_p99_ms", "ms"),
    ("host.nproc", "count"),
    ("host.simd_width_bits", "bits"),
];

/// What one run produced.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Per-metric median over rounds of the same metrics.
pub fn median_rounds(rounds: &[Vec<(String, f64)>]) -> Vec<(String, f64)> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|(name, _)| {
            let vals: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            (name.clone(), stats::median(&vals))
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <compile_suite|serve_mixed|serve_lanes> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// The directory holding this package's manifest.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The Cargo target directory this executable was built into.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.ancestors()
        .find(|d| {
            matches!(
                d.file_name().and_then(|n| n.to_str()),
                Some("release" | "debug")
            )
        })
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not in a Cargo target directory", exe.display()))
}

/// Build the repository's `kb-server` (release) into this target directory
/// and return its path.
pub fn kb_server_binary() -> Result<PathBuf, String> {
    let target = target_dir()?;
    let repo = package_dir()
        .parent()
        .map(Path::to_path_buf)
        .ok_or("package has no parent directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "sentential-serve", "--bin", "kb-server"])
        .current_dir(&repo)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building kb-server failed: {status}"));
    }
    Ok(target.join("release").join("kb-server"))
}

/// The widest SIMD tier the lane kernels can dispatch to on this host.
fn simd_tier() -> (&'static str, f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return ("avx512f", 512.0);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return ("avx2", 256.0);
        }
    }
    ("scalar", 64.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args) -> Result<Report, String> {
    let work = target_dir()?.join("perfbench-work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let spans = work.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let (simd, _) = simd_tier();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    eprintln!(
        "perfbench: host nproc={} simd={simd} profile={profile}",
        nproc()
    );
    let workload = match args.workload.as_str() {
        "compile_suite" => None,
        "serve_mixed" => Some(stream::Workload::Mixed),
        "serve_lanes" => Some(stream::Workload::Lanes),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut report = match (workload, args.trace) {
        (None, false) => compile_suite::run(args.seed, args.seconds)?,
        (None, true) => compile_suite::run_traced(args.seed, args.seconds, &spans)?,
        (Some(w), trace) => {
            let bin = kb_server_binary()?;
            if trace {
                serve::run_traced(w, args.seed, args.seconds, &bin, &work, &spans)?
            } else {
                serve::run(w, args.seed, args.seconds, &bin, &work)?
            }
        }
    };
    if args.trace {
        report.metrics.push(("host.nproc".into(), nproc() as f64));
        report
            .metrics
            .push(("host.simd_width_bits".into(), simd_tier().1));
    }
    Ok(report)
}

/// The result line: every catalogued metric, 0 where the run measured none.
fn render(report: &Report, catalog: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let value = report
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(report) => {
            let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            for (name, _) in &report.metrics {
                if !catalog.iter().any(|(n, _)| n == name) {
                    eprintln!("perfbench: metric {name} is not catalogued");
                    std::process::exit(1);
                }
            }
            println!("{}", render(&report, catalog));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the catalogued
    /// metrics, in order, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = package_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json");
        let names: Vec<(String, String)> = text
            .lines()
            .filter_map(|l| {
                let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
                let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name.to_string(), unit.to_string()))
            })
            .collect();
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names, want);
    }

    #[test]
    fn result_line_lists_every_metric() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.25)],
        };
        let line = render(&report, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"answers_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
    }
}
