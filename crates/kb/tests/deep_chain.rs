//! Deep-chain stress: the iterative-engine invariant, end to end.
//!
//! The chain family compiles to vtree/SDD structures as *deep* as the
//! variable count, which is exactly where the pre-iterative engines blew
//! the stack (~10k variables needed a dedicated 256 MB thread). These
//! tests drive a full knowledge-base session — `compile_cnf` → SDD
//! restriction → `condition` → `freeze` → `all_marginals` → `mpe` →
//! `enumerate_models` — on the harness's **default-size test thread**, at
//! 100k variables, with every numeric answer checked against an
//! independent O(n) chain-DP oracle; the same session at small scale is
//! additionally pinned against the exact `Rational` engine (the
//! `LogF64`/`Rat` cross-check).

use arith::{BigUint, LogF64, Rational};
use cnf::families;
use kb::KnowledgeBase;
use sdd::eval::SddEval;
use sentential_core::Compiler;
use std::sync::Arc;
use vtree::VarId;

/// Variables the deep test runs (the acceptance bar: ≥ 100k on a default
/// stack).
const DEEP_N: u32 = 100_000;

fn log_sum_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let m = a.max(b);
    m + ((a - m).exp() + (b - m).exp()).ln()
}

/// Independent oracle for the chain `⋀ (xᵢ ∨ xᵢ₊₁)`: forward/backward
/// message passing over the line MRF whose pairwise factor forbids two
/// adjacent `false`s. `lw[i] = (log w⁻, log w⁺)` (evidence = `-∞` on the
/// suppressed polarity). Returns `(log Z, per-variable P(xᵢ = 1), best
/// log-weight)` — the exact quantities `log_weight`, `all_marginals` and
/// `mpe` must reproduce. O(n) and recursion-free, so it scales to any n.
fn chain_oracle(lw: &[(f64, f64)]) -> (f64, Vec<f64>, f64) {
    let n = lw.len();
    let w = |i: usize, b: bool| if b { lw[i].1 } else { lw[i].0 };
    let allowed = |a: bool, b: bool| a || b;
    // Sum-product and max-product forward messages, in lockstep.
    let mut alpha = vec![(0.0f64, 0.0f64); n];
    let mut alpha_max = vec![(0.0f64, 0.0f64); n];
    alpha[0] = (w(0, false), w(0, true));
    alpha_max[0] = alpha[0];
    for i in 1..n {
        for b in [false, true] {
            let (mut s, mut m) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for a in [false, true] {
                if !allowed(a, b) {
                    continue;
                }
                let pa = if a { alpha[i - 1].1 } else { alpha[i - 1].0 };
                let pm = if a {
                    alpha_max[i - 1].1
                } else {
                    alpha_max[i - 1].0
                };
                s = log_sum_exp(s, pa);
                m = m.max(pm);
            }
            let (s, m) = (s + w(i, b), m + w(i, b));
            if b {
                alpha[i].1 = s;
                alpha_max[i].1 = m;
            } else {
                alpha[i].0 = s;
                alpha_max[i].0 = m;
            }
        }
    }
    let log_z = log_sum_exp(alpha[n - 1].0, alpha[n - 1].1);
    let best = alpha_max[n - 1].0.max(alpha_max[n - 1].1);
    // Backward messages for the marginals.
    let mut beta = vec![(0.0f64, 0.0f64); n];
    for i in (0..n - 1).rev() {
        for b in [false, true] {
            let mut s = f64::NEG_INFINITY;
            for a in [false, true] {
                if !allowed(b, a) {
                    continue;
                }
                let nb = if a { beta[i + 1].1 } else { beta[i + 1].0 };
                s = log_sum_exp(s, w(i + 1, a) + nb);
            }
            if b {
                beta[i].1 = s;
            } else {
                beta[i].0 = s;
            }
        }
    }
    let marginals = (0..n)
        .map(|i| (alpha[i].1 + beta[i].1 - log_z).exp())
        .collect();
    (log_z, marginals, best)
}

/// The serving compiler for chain-scale sessions: exact counting off (the
/// up-front `BigUint` count stage is quadratic at this depth; counts stay
/// available on demand).
fn serving_compiler() -> Compiler {
    Compiler::builder().exact_counts(false).build()
}

/// A deterministic, non-degenerate probability for variable `i`.
fn prior(i: u32) -> f64 {
    0.15 + 0.7 * ((i as usize * 13) % 10) as f64 / 10.0
}

/// The full session at oracle-verifiable scale, additionally pinned
/// against the exact `Rational` engine: the `LogF64` serving answers must
/// match exact rational weighted counts to 1e-9, and the oracle must agree
/// with both — which is what licenses the oracle as the only anchor at
/// 100k. (The `Rat` side is kept at n = 48 with a handful of sampled
/// numerators: exact rational evaluation normalizes through bignum gcds,
/// whose cost grows superlinearly — ~40 s per evaluation at n = 120 in
/// debug builds — and escaping exactly that cost is the log carrier's
/// reason to exist.)
#[test]
fn chain_session_matches_exact_rationals_and_oracle_at_small_scale() {
    let n = 48u32;
    let f = families::chain_cnf(n);
    let mut kb = KnowledgeBase::compile_cnf(&serving_compiler(), &f).expect("compiles");
    for i in 0..n {
        kb.set_probability(VarId(i), prior(i)).unwrap();
    }
    let evidence = (VarId(n / 2), true);
    kb.condition(&[evidence]).unwrap();
    let root = kb.root();
    let frozen = Arc::new(kb.freeze());
    let mut s = frozen.session();

    // Oracle weights under the evidence.
    let lw: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let p = prior(i);
            if i == evidence.0 .0 {
                (f64::NEG_INFINITY, p.ln())
            } else {
                ((1.0 - p).ln(), p.ln())
            }
        })
        .collect();
    let (log_z, oracle_marginals, oracle_best) = chain_oracle(&lw);

    // The serving layer's answers, collected first (queries take &mut).
    let lnw = s.log_weight();
    let marginals = s.all_marginals().unwrap();
    let mpe = s.mpe().unwrap();
    let top = s.enumerate_models(3);

    // Exact rational anchor: the same session weights as exact rationals,
    // prior(i) = 0.15 + 0.07·((13i) mod 10) = (15 + 7·((13i) mod 10))/100.
    let compiled = frozen.sdd();
    let p_rat = |i: u32| {
        Rational::from_ratio(
            BigUint::from_u64(15 + 7 * ((i as u64 * 13) % 10)),
            BigUint::from_u64(100),
        )
    };
    for i in 0..n {
        let diff = p_rat(i).to_f64() - prior(i);
        assert!(diff.abs() < 1e-12, "exact prior reconstruction at {i}");
    }
    let weight_of = |pin: Option<(VarId, bool)>| {
        move |v: VarId| {
            let p = p_rat(v.0);
            let one = Rational::one();
            let (mut wn, mut wp) = (one.sub(&p), p);
            if v == evidence.0 {
                wn = Rational::zero();
            }
            if let Some((pv, pb)) = pin {
                if v == pv {
                    if pb {
                        wn = Rational::zero();
                    } else {
                        wp = Rational::zero();
                    }
                }
            }
            (wn, wp)
        }
    };
    let denom = compiled.weighted_count_exact(root, weight_of(None));
    assert!(!denom.is_zero(), "evidence is consistent");

    // log_weight (LogF64) vs exact rationals vs oracle.
    let ln_denom = ln_rational(&denom);
    assert!(
        (lnw - ln_denom).abs() < 1e-9 * ln_denom.abs().max(1.0),
        "LogF64 log-weight {lnw} vs exact {ln_denom}"
    );
    assert!(
        (lnw - log_z).abs() < 1e-9 * log_z.abs().max(1.0),
        "oracle log Z {log_z} vs kb {lnw}"
    );

    // Marginals: kb (LogF64 two-pass) vs exact rational ratio vs oracle.
    for &(v, got) in marginals.iter().step_by(10) {
        let numer = compiled.weighted_count_exact(root, weight_of(Some((v, true))));
        let exact = if numer.is_zero() {
            0.0
        } else {
            (ln_rational(&numer) - ln_denom).exp()
        };
        assert!(
            (got - exact).abs() < 1e-9,
            "marginal {v}: kb {got} vs exact {exact}"
        );
        let oracle = oracle_marginals[v.0 as usize];
        assert!(
            (got - oracle).abs() < 1e-9,
            "marginal {v}: kb {got} vs oracle {oracle}"
        );
    }

    // MPE vs the oracle's max-product value (the witness itself is
    // verified inside mpe(): satisfies the SDD, the evidence, and its
    // weight reproduces the maximum).
    assert!(
        (mpe.log_weight - oracle_best).abs() < 1e-9 * oracle_best.abs().max(1.0),
        "mpe {} vs oracle {oracle_best}",
        mpe.log_weight
    );
    assert_eq!(top.len(), 3);
    assert!(
        (top[0].log_weight - mpe.log_weight).abs() < 1e-9,
        "top-1 = MPE"
    );
    assert!(top[0].log_weight >= top[1].log_weight && top[1].log_weight >= top[2].log_weight);
}

/// The acceptance bar: a 100k-variable chain knowledge-base session —
/// compile, restrict, condition, freeze, all_marginals, mpe,
/// enumerate_models — completes on the harness's default-size thread,
/// answers matching the O(n) oracle. Before the worklist rewrite every
/// stage of this overflowed an 8 MB stack (the engines recursed to vtree
/// depth ≈ 100k).
#[test]
fn hundred_thousand_variable_session_on_a_default_stack() {
    let n = DEEP_N;
    let f = families::chain_cnf(n);
    let mut c = serving_compiler()
        .compile_cnf(&f)
        .expect("compiles at 100k");
    let evidence = (VarId(n / 2), true);

    // The restriction engine (`SddManager::condition`) at full depth: the
    // cofactor `F | x = 1` no longer mentions x, so under counting weights
    // its log count is the oracle's pinned log count plus the smoothing
    // factor ln 2 of the freed variable.
    let restricted = c.sdd.condition(c.root, evidence.0, evidence.1);
    let ln_restricted = c.sdd.evaluate(restricted, &LogF64, |_, _| 0.0);
    let pinned_counts: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            if i == evidence.0 .0 {
                (f64::NEG_INFINITY, 0.0)
            } else {
                (0.0, 0.0)
            }
        })
        .collect();
    let (ln_pinned, _, _) = chain_oracle(&pinned_counts);
    let expect = ln_pinned + std::f64::consts::LN_2;
    assert!(
        (ln_restricted - expect).abs() < 1e-9 * expect,
        "restricted log count {ln_restricted} vs oracle {expect}"
    );

    let mut kb = KnowledgeBase::from_cnf_compilation(c, &f).expect("unweighted formula");
    assert_eq!(kb.vars().len(), n as usize);

    // Weight a scattered handful of variables (each update walks one
    // leaf-to-root cone; the rest keep counting semantics).
    let weighted: Vec<u32> = (0..10).map(|j| j * (n / 10) + 7).collect();
    for &i in &weighted {
        kb.set_probability(VarId(i), prior(i)).unwrap();
    }
    kb.condition(&[evidence]).unwrap();
    let frozen = Arc::new(kb.freeze());
    let mut s = frozen.session();
    assert!(s.is_consistent());

    // The oracle's weight table under the same session state.
    let lw: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let (wn, wp) = if weighted.contains(&i) {
                let p = prior(i);
                ((1.0 - p).ln(), p.ln())
            } else {
                (0.0, 0.0)
            };
            if i == evidence.0 .0 {
                (f64::NEG_INFINITY, wp)
            } else {
                (wn, wp)
            }
        })
        .collect();
    let (log_z, oracle_marginals, oracle_best) = chain_oracle(&lw);

    // Weighted count of the conditioned session, in log space.
    let lnw = s.log_weight();
    assert!(lnw.is_finite());
    assert!(
        (lnw - log_z).abs() < 1e-6 * log_z.abs().max(1.0),
        "kb log-weight {lnw} vs oracle {log_z}"
    );

    // All 100k posterior marginals in one two-pass sweep.
    let marginals = s.all_marginals().unwrap();
    assert_eq!(marginals.len(), n as usize);
    let pinned_idx = (n / 2) as usize;
    assert!(
        (marginals[pinned_idx].1 - 1.0).abs() < 1e-9,
        "conditioned variable is pinned"
    );
    for (i, &(v, m)) in marginals.iter().enumerate().step_by(4999) {
        assert_eq!(v.0 as usize, i);
        assert!((0.0..=1.0 + 1e-12).contains(&m), "marginal {v} = {m}");
        let oracle = oracle_marginals[i];
        assert!(
            (m - oracle).abs() < 1e-6,
            "marginal {v}: kb {m} vs oracle {oracle}"
        );
    }

    // MPE: the argmax sweep plus its internally verified witness (the
    // witness is checked against the compiled SDD, the evidence, and its
    // own weight inside mpe()).
    let mpe = s.mpe().unwrap();
    assert!(
        (mpe.log_weight - oracle_best).abs() < 1e-6 * oracle_best.abs().max(1.0),
        "mpe {} vs oracle {oracle_best}",
        mpe.log_weight
    );
    assert_eq!(mpe.assignment.get(evidence.0), Some(true));
    assert!(f.eval(&mpe.assignment), "MPE witness satisfies the formula");

    // Top-k enumeration at depth: distinct models, sorted, top-1 = MPE.
    let top = s.enumerate_models(2);
    assert_eq!(top.len(), 2);
    assert!(
        (top[0].log_weight - mpe.log_weight).abs() < 1e-9,
        "top-1 = MPE"
    );
    assert!(top[0].log_weight >= top[1].log_weight);
    assert_ne!(
        top[0].assignment, top[1].assignment,
        "determinism: no duplicate models"
    );
    assert!(f.eval(&top[1].assignment));
}

/// Session-local evidence at depth: a 100k-variable chain frozen with
/// evidence baked in, then a session that queries, conditions further,
/// decides entailment and retracts — every answer against the O(n)
/// oracle, and the retract landing bit-for-bit on the frozen baseline.
#[test]
fn hundred_thousand_variable_session_local_evidence_on_a_default_stack() {
    let n = DEEP_N;
    let f = families::chain_cnf(n);
    let mut kb = KnowledgeBase::compile_cnf(&serving_compiler(), &f).expect("compiles at 100k");
    let weighted: Vec<u32> = (0..10).map(|j| j * (n / 10) + 7).collect();
    for &i in &weighted {
        kb.set_probability(VarId(i), prior(i)).unwrap();
    }
    let frozen_lit = (VarId(n / 2), true);
    kb.condition(&[frozen_lit]).unwrap();
    let frozen = Arc::new(kb.freeze());
    let mut s = frozen.session();

    // Oracle tables: the frozen evidence alone, then with x3 = 0 added.
    let table = |extra: Option<(VarId, bool)>| -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let (mut wn, mut wp) = if weighted.contains(&i) {
                    let p = prior(i);
                    ((1.0 - p).ln(), p.ln())
                } else {
                    (0.0, 0.0)
                };
                for (v, b) in [Some(frozen_lit), extra].into_iter().flatten() {
                    if v.0 == i {
                        if b {
                            wn = f64::NEG_INFINITY;
                        } else {
                            wp = f64::NEG_INFINITY;
                        }
                    }
                }
                (wn, wp)
            })
            .collect()
    };
    let (log_z, oracle_marginals, _) = chain_oracle(&table(None));
    let baseline = s.log_weight();
    assert!((baseline - log_z).abs() < 1e-6 * log_z.abs().max(1.0));

    // P(x3 = 0 | e) by the pin-evaluate-restore query.
    let extra = (VarId(3), false);
    let posterior = s.query(&[extra]).unwrap();
    let expect = 1.0 - oracle_marginals[3];
    assert!(
        (posterior - expect).abs() < 1e-9,
        "session query {posterior} vs oracle {expect}"
    );

    // ¬x3 forces x2 and x4 (the chain forbids adjacent falses).
    s.condition(&[extra]).unwrap();
    assert!(s.is_consistent());
    assert!(s.entails(&[(VarId(2), true)]).unwrap());
    assert!(s.entails(&[(VarId(4), true)]).unwrap());
    assert!(!s.entails(&[(VarId(5), true)]).unwrap());
    let (log_z_extra, _, _) = chain_oracle(&table(Some(extra)));
    let lnw = s.log_weight();
    assert!(
        (lnw - log_z_extra).abs() < 1e-6 * log_z_extra.abs().max(1.0),
        "conditioned log-weight {lnw} vs oracle {log_z_extra}"
    );
    // ¬x3 ∧ ¬x4 has no model.
    assert_eq!(
        s.condition(&[(VarId(4), false)]),
        Err(kb::KbError::Inconsistent)
    );

    // Back to the frozen baseline — not the unconditioned formula.
    s.retract();
    assert!(s.is_consistent());
    assert_eq!(s.log_weight().to_bits(), baseline.to_bits());
}

/// The batched half of the acceptance bar: a full B = 16 evidence batch
/// over the 100k-variable frozen chain, on the default test thread. Every
/// lane of `marginal_batch` must be bit-identical to the scalar
/// condition-then-marginal loop (the batched sweep is the same per-lane
/// op sequence, just column-parallel), `query_batch` to the scalar
/// `query` loop, and `mpe_batch` — score and full 100k-bit witness — to
/// the scalar condition-then-mpe loop — the deep-vtree case of the
/// batched-core contract, where the lane tables run to ~2M gate columns.
#[test]
fn sixteen_lane_batch_over_the_hundred_thousand_variable_kb() {
    let n = DEEP_N;
    let f = families::chain_cnf(n);
    let mut kb = KnowledgeBase::compile_cnf(&serving_compiler(), &f).expect("compiles at 100k");
    let weighted: Vec<u32> = (0..10).map(|j| j * (n / 10) + 7).collect();
    for &i in &weighted {
        kb.set_probability(VarId(i), prior(i)).unwrap();
    }
    let frozen = Arc::new(kb.freeze());
    let target = VarId(n / 2);

    // 16 single-literal evidence lanes scattered across the chain's full
    // depth, alternating polarity.
    let batch: Vec<Vec<(VarId, bool)>> = (0..16u32)
        .map(|j| vec![(VarId((j * (n / 16) + 3) % n), j % 2 == 0)])
        .collect();

    let mut batched = frozen.session();
    let marginals = batched.marginal_batch(target, &batch);
    let joints = batched.query_batch(&batch);
    let mpes = batched.mpe_batch(&batch);

    let mut scalar = frozen.session();
    for (l, e) in batch.iter().enumerate() {
        let want_joint = scalar.query(e).expect("chain evidence is consistent");
        let got_joint = joints[l].as_ref().expect("batched lane is consistent");
        assert_eq!(
            got_joint.to_bits(),
            want_joint.to_bits(),
            "query lane {l} diverged at depth"
        );
        scalar.condition(e).unwrap();
        let want = scalar.marginal(target).unwrap();
        let want_mpe = scalar.mpe().unwrap();
        scalar.retract();
        let got = marginals[l].as_ref().expect("batched lane is consistent");
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "marginal lane {l} diverged at depth"
        );
        assert!((0.0..=1.0 + 1e-12).contains(got));
        // mpe_batch: score AND 100k-bit witness, bit-identical to the
        // scalar argmax descent (the MaxPlus lane decode reproduces its
        // tie-breaking exactly).
        let got_mpe = mpes[l].as_ref().expect("batched lane is consistent");
        assert_eq!(
            got_mpe.log_weight.to_bits(),
            want_mpe.log_weight.to_bits(),
            "mpe lane {l} score diverged at depth"
        );
        assert_eq!(
            got_mpe.assignment, want_mpe.assignment,
            "mpe lane {l} witness diverged at depth"
        );
        assert_eq!(got_mpe.assignment.get(e[0].0), Some(e[0].1));
    }
}

/// `ln` of a positive rational at any size: split numerator and
/// denominator into `mantissa · 2^shift` (the `to_f64` route overflows
/// past ~2^1024).
fn ln_rational(r: &Rational) -> f64 {
    fn ln_big(b: &BigUint) -> f64 {
        let bits = b.bits();
        if bits <= 53 {
            return b.to_f64().ln();
        }
        let shift = bits - 53;
        b.shr(shift).to_f64().ln() + shift as f64 * std::f64::consts::LN_2
    }
    assert!(!r.is_negative() && !r.is_zero());
    ln_big(r.numer()) - ln_big(r.denom())
}
