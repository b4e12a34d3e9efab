//! Concurrent-read stress: 8 threads over one frozen slab, every answer
//! cross-checked **bit-for-bit** against a sequential session and, through
//! it, against brute-force enumeration.
//!
//! Each thread opens its own [`kb::KbSession`] on a shared
//! [`kb::FrozenKb`], asserts a thread-specific evidence script, runs the
//! full query menu, retracts, and repeats — while seven other threads do
//! the same with *different* evidence over the very same `Arc`'d slab.
//! The expected answers are computed up front by one sequential session
//! running the identical scripts, and those are anchored to brute-force
//! enumeration over all `2^n` worlds (fixtures stay at 16 variables for
//! that); every concurrent float is compared by bit pattern, every count
//! by exact `BigUint` equality. This is the concurrency half of the
//! freeze-and-serve contract (the compile-time `Send + Sync` half is
//! asserted inside the crates).

use arith::BigUint;
use cnf::{families, CnfFormula};
use kb::{FrozenKb, KbSession, KnowledgeBase, Lit};
use sentential_core::Compiler;
use std::sync::Arc;
use vtree::VarId;

const THREADS: usize = 8;
/// Condition → query-menu → retract cycles per thread.
const ROUNDS: usize = 3;

/// Deterministic, non-degenerate prior of variable `i`.
fn prior(i: usize) -> f64 {
    0.2 + 0.6 * ((i * 7) % 10) as f64 / 10.0
}

fn build(f: &CnfFormula) -> Arc<FrozenKb> {
    let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), f).expect("fixture compiles");
    for i in 0..f.num_vars() as usize {
        kb.set_probability(VarId(i as u32), prior(i)).unwrap();
    }
    Arc::new(kb.freeze())
}

/// Thread `t`'s evidence: one polarity-alternating pin plus one distant
/// positive pin (distinct variables, so the script is never
/// self-contradictory; at most one `false` pin keeps the chain fixture
/// consistent).
fn script(t: usize, n: u32) -> Vec<Lit> {
    let a = VarId(t as u32 % n);
    let b = VarId((t as u32 + n / 2) % n);
    vec![(a, t.is_multiple_of(2)), (b, true)]
}

/// Everything one serving round answers, with floats as raw bits so
/// "close enough" can't mask a divergence.
#[derive(Debug, PartialEq)]
struct Answers {
    consistent: bool,
    log_weight: u64,
    prob_evidence: u64,
    query: u64,
    marginals: Vec<u64>,
    mpe_log_weight: u64,
    mpe_bits: Vec<bool>,
    count: BigUint,
    entailed: bool,
}

/// The query menu under `evidence` on one session, ending in a retract.
fn answers_session(s: &mut KbSession, evidence: &[Lit], n: u32) -> Answers {
    s.condition(evidence).expect("scripts are consistent");
    let out = Answers {
        consistent: s.is_consistent(),
        log_weight: s.log_weight().to_bits(),
        prob_evidence: s.probability_of_evidence().unwrap().to_bits(),
        query: s.query(&[(VarId(n - 1), true)]).unwrap().to_bits(),
        marginals: s
            .all_marginals()
            .unwrap()
            .into_iter()
            .map(|(_, m)| m.to_bits())
            .collect(),
        mpe_log_weight: s.mpe().unwrap().log_weight.to_bits(),
        mpe_bits: {
            let m = s.mpe().unwrap();
            (0..n)
                .map(|i| m.assignment.get(VarId(i)) == Some(true))
                .collect()
        },
        count: s.count_models(),
        entailed: s.entails(&[(VarId(0), true), (VarId(1), true)]).unwrap(),
    };
    s.retract();
    out
}

/// Every world of `f` (bit `i` = variable `i`) satisfying `evidence`,
/// with its weight under the fixture priors.
fn brute_models(f: &CnfFormula, evidence: &[Lit]) -> Vec<(u64, f64)> {
    let n = f.num_vars() as usize;
    let bit = |mask: u64, v: VarId| mask >> v.0 & 1 == 1;
    (0..1u64 << n)
        .filter(|&m| {
            f.clauses()
                .iter()
                .all(|c| c.iter().any(|&(v, b)| bit(m, v) == b))
                && evidence.iter().all(|&(v, b)| bit(m, v) == b)
        })
        .map(|m| {
            let w = (0..n)
                .map(|i| {
                    if m >> i & 1 == 1 {
                        prior(i)
                    } else {
                        1.0 - prior(i)
                    }
                })
                .product();
            (m, w)
        })
        .collect()
}

/// Check one round's answers against brute-force enumeration.
fn assert_matches_brute_force(label: &str, f: &CnfFormula, evidence: &[Lit], a: &Answers) {
    let n = f.num_vars();
    let total: f64 = brute_models(f, &[]).iter().map(|(_, w)| w).sum();
    let models = brute_models(f, evidence);
    let weight: f64 = models.iter().map(|(_, w)| w).sum();
    let close = |got: u64, want: f64, what: &str| {
        let got = f64::from_bits(got);
        assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "{label} {evidence:?}: {what} {got} vs brute force {want}"
        );
    };
    assert_eq!(a.consistent, !models.is_empty(), "{label}: consistency");
    close(a.log_weight, weight.ln(), "log weight");
    close(a.prob_evidence, weight / total, "P(e)");
    let with = |v: u32| -> f64 {
        models
            .iter()
            .filter(|&&(m, _)| m >> v & 1 == 1)
            .map(|(_, w)| w)
            .sum()
    };
    close(a.query, with(n - 1) / weight, "query");
    for (i, &m) in a.marginals.iter().enumerate() {
        close(m, with(i as u32) / weight, "marginal");
    }
    let best = models.iter().map(|(_, w)| *w).fold(0.0, f64::max);
    close(a.mpe_log_weight, best.ln(), "mpe weight");
    let witness = a
        .mpe_bits
        .iter()
        .enumerate()
        .fold(0u64, |m, (i, &b)| m | (b as u64) << i);
    assert!(
        models.iter().any(|&(m, w)| m == witness && w == best),
        "{label} {evidence:?}: mpe witness is a heaviest model"
    );
    assert_eq!(
        a.count,
        BigUint::from_u64(models.len() as u64),
        "{label}: count"
    );
    let entailed = models.iter().all(|&(m, _)| m & 0b11 != 0);
    assert_eq!(a.entailed, entailed, "{label}: entails x0 ∨ x1");
}

#[test]
fn eight_threads_over_one_slab_match_the_sequential_engine() {
    let fixtures: [(&str, CnfFormula); 2] = [
        ("chain", families::chain_cnf(16)),
        ("band_w3", families::band_cnf(16, 3)),
    ];
    for (label, f) in &fixtures {
        let n = f.num_vars();
        let frozen = build(f);
        // Sequential reference: one session runs every thread's script,
        // each round anchored to brute force.
        let mut seq = frozen.session();
        let expected: Vec<Answers> = (0..THREADS)
            .map(|t| {
                let a = answers_session(&mut seq, &script(t, n), n);
                assert_matches_brute_force(label, f, &script(t, n), &a);
                a
            })
            .collect();

        // 8 threads, one shared slab, private sessions — repeated rounds
        // so warm-cache answers are checked too, not just cold ones.
        std::thread::scope(|sc| {
            for (t, want) in expected.iter().enumerate() {
                let frozen = &frozen;
                let ev = script(t, n);
                sc.spawn(move || {
                    let mut s = frozen.session();
                    for round in 0..ROUNDS {
                        let got = answers_session(&mut s, &ev, n);
                        assert_eq!(
                            &got, want,
                            "{label}: thread {t} round {round} diverged from the sequential session"
                        );
                    }
                });
            }
        });
    }
}
