//! E19 — batched evaluation throughput: lane-parallel marginal batches
//! vs the scalar warm serving loop.
//!
//! The batch-first evaluation core answers B queries per circuit sweep:
//! [`kb::KbSession::marginal_batch`] merges each lane's evidence onto the
//! session pins and runs one column-per-lane up+down sweep of the
//! arithmetic circuit, so gate dispatch and memory traversal are paid
//! once per *batch* while the log-space kernels pipeline across
//! independent lanes. The scalar warm path answers the same stream one
//! query at a time — `condition(e)`, `marginal(v)`, `retract()` — each
//! paying its own full sweep.
//!
//! The run first **asserts bit-identity**: every lane of every batch must
//! equal the scalar loop's answer down to the last mantissa bit (the
//! batched core is the *same* op sequence per lane, so this is equality,
//! not tolerance). Only then does it time both paths and assert the
//! ≥ 5× per-query throughput bar at B = 64 (≥ 2× under `--smoke`, where
//! runner noise dominates the small families).
//!
//! Regenerate: `cargo run --release -p sentential-bench --bin exp_batch`
//! (`--smoke` for the CI-sized subset, `--json <path>` for records).

use cnf::{families, CnfFormula};
use kb::{KbSession, KnowledgeBase, Lit};
use sentential_bench::{maybe_write_json, Record, Table};
use sentential_core::Compiler;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vtree::VarId;

/// Evidence sets served per path (a multiple of every batch width).
const STREAM: usize = 256;
/// Batch widths timed (the last one carries the speedup assertion).
const WIDTHS: [usize; 3] = [8, 16, 64];
/// Per-query speedup a full run certifies at B = 64.
const REQUIRED_SPEEDUP: f64 = 5.0;
/// The `--smoke` floor: small families on noisy CI runners check the
/// mechanism (batching clearly wins), the full run checks the number.
const SMOKE_SPEEDUP: f64 = 2.0;
/// Evidence sets cross-checked bit-for-bit before anything is timed.
const IDENTITY_CHECKED: usize = 64;
/// Per-query speedup a full run certifies for B = 64 `mpe_batch` over the
/// scalar `mpe()` warm loop (the MPE lanes also pay the per-lane argmax
/// decode and witness verification, so the bar sits below the marginal
/// one).
const MPE_REQUIRED_SPEEDUP: f64 = 3.0;
/// The `--smoke` floor for the MPE family.
const MPE_SMOKE_SPEEDUP: f64 = 1.5;

/// Deterministic prior of variable `i` (the E14 shape).
fn prior(i: usize) -> f64 {
    0.2 + 0.6 * ((i * 7) % 10) as f64 / 10.0
}

/// The deterministic one-literal evidence stream: query `j` pins variable
/// `j mod n`, alternating polarity.
fn stream(nv: usize) -> Vec<Vec<Lit>> {
    (0..STREAM)
        .map(|j| vec![(VarId((j % nv) as u32), j.is_multiple_of(2))])
        .collect()
}

/// The scalar warm path for one evidence set: assert it, read the
/// marginal, drop it.
fn scalar_query(s: &mut KbSession, target: VarId, e: &[Lit]) -> f64 {
    s.condition(e).unwrap();
    let p = s.marginal(target).unwrap();
    s.retract();
    p
}

/// The scalar warm path for one MPE lane: assert the evidence, run the
/// argmax sweep plus witness decode, drop the evidence.
fn scalar_mpe(s: &mut KbSession, e: &[Lit]) -> kb::Model {
    s.condition(e).unwrap();
    let m = s.mpe().unwrap();
    s.retract();
    m
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "E19: batched marginal throughput vs the scalar warm loop{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let mut t = Table::new(&[
        "family",
        "n",
        "ac gates",
        "scalar µs",
        "b8 µs",
        "b16 µs",
        "b64 µs",
        "speedup@64",
    ]);
    let mut records = Vec::new();

    let mut run = |label: &str, n: u32, f: &CnfFormula, required: f64| {
        let nv = f.num_vars() as usize;
        let compiler = Compiler::builder().exact_counts(false).build();
        let mut kb = KnowledgeBase::compile_cnf(&compiler, f)
            .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        for i in 0..nv {
            kb.set_probability(VarId(i as u32), prior(i)).unwrap();
        }
        let frozen = Arc::new(kb.freeze());
        let ac_gates = frozen.unfolded_size();
        let target = VarId((nv / 2) as u32);
        let evidence = stream(nv);

        // Bit-identity gate: no number is reported unless every checked
        // lane equals the scalar loop's answer exactly.
        let mut batched = frozen.session();
        let mut scalar = frozen.session();
        for chunk in evidence[..IDENTITY_CHECKED].chunks(16) {
            let lanes = batched.marginal_batch(target, chunk);
            for (l, e) in chunk.iter().enumerate() {
                let want = scalar_query(&mut scalar, target, e);
                let got = lanes[l]
                    .as_ref()
                    .unwrap_or_else(|err| panic!("{label} n={n}: lane {l} ({e:?}) errored: {err}"));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{label} n={n}: lane {l} ({e:?}) must be bit-identical to the scalar loop"
                );
            }
        }

        // Scalar warm path: one condition/marginal/retract cycle per query.
        let t0 = Instant::now();
        for e in &evidence {
            black_box(scalar_query(&mut scalar, target, e));
        }
        let scalar_us = t0.elapsed().as_secs_f64() * 1e6 / STREAM as f64;

        // Batched path at each width; per-query latency, not per-batch.
        let mut width_us = [0.0f64; WIDTHS.len()];
        for (wi, &w) in WIDTHS.iter().enumerate() {
            let t0 = Instant::now();
            for chunk in evidence.chunks(w) {
                for r in black_box(batched.marginal_batch(target, chunk)) {
                    let _ = r.unwrap();
                }
            }
            width_us[wi] = t0.elapsed().as_secs_f64() * 1e6 / STREAM as f64;
        }

        let speedup = scalar_us / width_us[WIDTHS.len() - 1];
        assert!(
            speedup >= required,
            "{label} n={n}: B=64 batches must serve queries ≥ {required}× faster \
             than the scalar warm loop, measured {speedup:.1}×"
        );

        t.row(&[
            &label,
            &n,
            &ac_gates,
            &format!("{scalar_us:.1}"),
            &format!("{:.1}", width_us[0]),
            &format!("{:.1}", width_us[1]),
            &format!("{:.1}", width_us[2]),
            &format!("{speedup:.1}x"),
        ]);
        records.push(Record {
            experiment: "E19".into(),
            series: label.into(),
            x: n as u64,
            values: vec![
                ("ac_gates".into(), ac_gates as f64),
                ("scalar_query_us".into(), scalar_us),
                ("batch8_query_us".into(), width_us[0]),
                ("batch16_query_us".into(), width_us[1]),
                ("batch64_query_us".into(), width_us[2]),
                ("speedup_b64".into(), speedup),
            ],
        });
    };

    // The smoke-sized cases also run (at the smoke bar — small circuits
    // amortize less) in the full sweep, so the committed record shares
    // keys with CI's smoke run and `bench_diff` has a real baseline.
    run("chain", 60, &families::chain_cnf(60), SMOKE_SPEEDUP);
    run("band_w3", 30, &families::band_cnf(30, 3), SMOKE_SPEEDUP);
    if !smoke {
        run("chain", 240, &families::chain_cnf(240), REQUIRED_SPEEDUP);
        run(
            "chain_deep",
            2_000,
            &families::chain_cnf(2_000),
            REQUIRED_SPEEDUP,
        );
        run("band_w3", 60, &families::band_cnf(60, 3), REQUIRED_SPEEDUP);
        run("band_w4", 60, &families::band_cnf(60, 4), REQUIRED_SPEEDUP);
    }

    t.print();
    let bar = if smoke {
        SMOKE_SPEEDUP
    } else {
        REQUIRED_SPEEDUP
    };
    println!(
        "\nEvery checked lane is bit-identical to the scalar warm loop, and B=64 \
         batches clear the ≥ {bar}× per-query throughput bar{}: one sweep amortizes \
         dispatch across 64 lanes and the log-space kernels pipeline.",
        if smoke {
            ""
        } else {
            " (smoke-sized cases ≥ 2×)"
        }
    );

    // ---- The MPE family: MaxPlus lane sweeps + per-lane argmax decode --
    //
    // `mpe_batch` runs one MaxPlus column sweep for B evidence lanes, then
    // decodes each lane's witness with the scalar descent's exact
    // tie-breaking — score AND witness must be bit-identical to the warm
    // `condition`/`mpe`/`retract` loop before anything is timed.
    println!("\nE19b: batched MPE throughput vs the scalar warm loop\n");
    let mut tm = Table::new(&[
        "family",
        "n",
        "ac gates",
        "scalar µs",
        "b64 µs",
        "speedup@64",
    ]);
    let mut run_mpe = |label: &str, n: u32, f: &CnfFormula, required: f64| {
        let nv = f.num_vars() as usize;
        let compiler = Compiler::builder().exact_counts(false).build();
        let mut kb = KnowledgeBase::compile_cnf(&compiler, f)
            .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        for i in 0..nv {
            kb.set_probability(VarId(i as u32), prior(i)).unwrap();
        }
        let frozen = Arc::new(kb.freeze());
        let ac_gates = frozen.unfolded_size();
        let evidence = stream(nv);

        // Bit-identity gate: score and full witness, every checked lane.
        let mut batched = frozen.session();
        let mut scalar = frozen.session();
        for chunk in evidence[..IDENTITY_CHECKED].chunks(16) {
            let lanes = batched.mpe_batch(chunk);
            for (l, e) in chunk.iter().enumerate() {
                let want = scalar_mpe(&mut scalar, e);
                let got = lanes[l]
                    .as_ref()
                    .unwrap_or_else(|err| panic!("{label} n={n}: lane {l} ({e:?}) errored: {err}"));
                assert_eq!(
                    got.log_weight.to_bits(),
                    want.log_weight.to_bits(),
                    "{label} n={n}: lane {l} ({e:?}) score must be bit-identical"
                );
                assert_eq!(
                    got.assignment, want.assignment,
                    "{label} n={n}: lane {l} ({e:?}) witness must be bit-identical"
                );
                assert_eq!(got.assignment.get(e[0].0), Some(e[0].1));
            }
        }

        // Scalar warm path: one condition/mpe/retract cycle per query.
        let t0 = Instant::now();
        for e in &evidence {
            let _ = black_box(scalar_mpe(&mut scalar, e));
        }
        let scalar_us = t0.elapsed().as_secs_f64() * 1e6 / STREAM as f64;

        // Batched path at B = 64 (every lane's witness is verified inside
        // mpe_batch before it is returned).
        let t0 = Instant::now();
        for chunk in evidence.chunks(64) {
            for r in black_box(batched.mpe_batch(chunk)) {
                let _ = r.unwrap();
            }
        }
        let batch_us = t0.elapsed().as_secs_f64() * 1e6 / STREAM as f64;

        let speedup = scalar_us / batch_us;
        assert!(
            speedup >= required,
            "{label} n={n}: B=64 mpe_batch must serve queries ≥ {required}× faster \
             than the scalar mpe() warm loop, measured {speedup:.1}×"
        );
        tm.row(&[
            &label,
            &n,
            &ac_gates,
            &format!("{scalar_us:.1}"),
            &format!("{batch_us:.1}"),
            &format!("{speedup:.1}x"),
        ]);
        records.push(Record {
            experiment: "E19b".into(),
            series: format!("mpe_{label}"),
            x: n as u64,
            values: vec![
                ("ac_gates".into(), ac_gates as f64),
                ("mpe_scalar_query_us".into(), scalar_us),
                ("mpe_batch64_query_us".into(), batch_us),
                ("mpe_speedup_b64".into(), speedup),
            ],
        });
    };

    run_mpe("chain", 60, &families::chain_cnf(60), MPE_SMOKE_SPEEDUP);
    run_mpe("band_w3", 30, &families::band_cnf(30, 3), MPE_SMOKE_SPEEDUP);
    if !smoke {
        run_mpe(
            "chain",
            240,
            &families::chain_cnf(240),
            MPE_REQUIRED_SPEEDUP,
        );
        run_mpe(
            "chain_deep",
            2_000,
            &families::chain_cnf(2_000),
            MPE_REQUIRED_SPEEDUP,
        );
        run_mpe(
            "band_w4",
            60,
            &families::band_cnf(60, 4),
            MPE_REQUIRED_SPEEDUP,
        );
    }
    tm.print();
    let mbar = if smoke {
        MPE_SMOKE_SPEEDUP
    } else {
        MPE_REQUIRED_SPEEDUP
    };
    println!(
        "\nEvery checked MPE lane matches the scalar loop bit-for-bit — score and \
         witness — and B=64 mpe_batch clears the ≥ {mbar}× bar{}: one MaxPlus \
         column sweep amortizes the argmax evaluation across 64 lanes.",
        if smoke {
            ""
        } else {
            " (smoke-sized cases ≥ 1.5×)"
        }
    );
    maybe_write_json(&records);
}
