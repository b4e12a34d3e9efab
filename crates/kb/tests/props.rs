//! Property tests for the knowledge-base serving layer (via the workspace
//! proptest shim): every session query is pinned against brute-force
//! enumeration on kernel-sized random formulas, and the log-space carrier
//! against the exact rational engine on the chain families.

use arith::{LogF64, Rational};
use boolfunc::Assignment;
use cnf::{families, CnfFormula};
use kb::{FrozenKb, KbError, KbSession, KnowledgeBase, Lit};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentential_core::Compiler;
use std::sync::Arc;
use vtree::VarId;

/// A seeded random formula over `n ≤ 16` variables plus per-variable
/// probabilities bounded away from 0 and 1 (no degenerate weights).
///
/// Clauses draw their variables from a random sliding window of width ≤ 3,
/// with uniform polarities: the polarity/satisfiability structure is fully
/// random (unsatisfiable instances included), while the primal treewidth
/// stays ≤ 3 — an *unstructured* random CNF at treewidth ~10 makes the
/// bottom-up apply compilation take tens of seconds per case in debug
/// builds, which is the regime the paper's pipeline is explicitly not for.
fn random_instance(n: u32, m: usize, seed: u64) -> (CnfFormula, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = 3u32.min(n);
    let mut f = CnfFormula::new(n);
    for _ in 0..m {
        let start = rng.gen_range(0..n - w + 1);
        let k = rng.gen_range(1..=w);
        let mut vars: Vec<u32> = (start..start + w).collect();
        for i in (1..vars.len()).rev() {
            vars.swap(i, rng.gen_range(0..i as u32 + 1) as usize);
        }
        f.add_clause(
            vars.into_iter()
                .take(k as usize)
                .map(|v| (VarId(v), rng.gen_bool(0.5)))
                .collect(),
        );
    }
    let probs = (0..n)
        .map(|_| 0.05 + 0.9 * rng.gen_range(0.0..1.0))
        .collect();
    (f, probs)
}

fn kb_of(f: &CnfFormula, probs: &[f64]) -> KnowledgeBase {
    let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), f).expect("compiles");
    for (i, &p) in probs.iter().enumerate() {
        kb.set_probability(VarId(i as u32), p).unwrap();
    }
    kb
}

/// A session over the frozen `kb_of(f, probs)`.
fn session_of(f: &CnfFormula, probs: &[f64]) -> KbSession {
    Arc::new(kb_of(f, probs).freeze()).session()
}

/// Weight of one complete assignment (bit `i` = variable `i`) under
/// independent probabilities.
fn weight_of(mask: u64, probs: &[f64]) -> f64 {
    probs
        .iter()
        .enumerate()
        .map(|(i, &p)| if mask >> i & 1 == 1 { p } else { 1.0 - p })
        .product()
}

/// All models of `f ∧ lits` with their weights, by enumeration over raw
/// bitmasks (bit `i` = variable `i`) — cheap enough for 2^16 worlds per
/// proptest case.
fn brute_models(f: &CnfFormula, probs: &[f64], lits: &[(VarId, bool)]) -> Vec<(u64, f64)> {
    let holds = |mask: u64| {
        f.clauses()
            .iter()
            .all(|c| c.iter().any(|&(v, pos)| (mask >> v.0 & 1 == 1) == pos))
            && lits.iter().all(|&(v, b)| (mask >> v.0 & 1 == 1) == b)
    };
    (0..1u64 << probs.len())
        .filter(|&m| holds(m))
        .map(|m| (m, weight_of(m, probs)))
        .collect()
}

/// Does `a` denote the same world as `mask`?
fn agrees(a: &Assignment, mask: u64, n: usize) -> bool {
    (0..n).all(|i| a.get(VarId(i as u32)) == Some(mask >> i & 1 == 1))
}

/// `ln` of a positive rational, exactly enough for 1e-9 comparisons at any
/// size: split numerator and denominator into `mantissa · 2^shift`.
fn ln_rational(r: &Rational) -> f64 {
    fn ln_big(b: &arith::BigUint) -> f64 {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `mpe()` finds exactly the maximum brute-force model weight (and its
    /// witness carries that weight — witnesses may differ under ties, the
    /// weight may not).
    #[test]
    fn mpe_matches_brute_force(n in 2u32..=16, m in 0usize..20, seed: u64) {
        let (f, probs) = random_instance(n, m, seed);
        let mut s = session_of(&f, &probs);
        let models = brute_models(&f, &probs, &[]);
        match s.mpe() {
            Err(KbError::Inconsistent) => prop_assert!(models.is_empty(), "session says unsat"),
            Err(e) => panic!("unexpected error {e}"),
            Ok(mpe) => {
                let best = models
                    .iter()
                    .map(|(_, w)| *w)
                    .fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(!models.is_empty());
                prop_assert!(f.eval(&mpe.assignment), "witness satisfies f");
                let got = mpe.weight();
                prop_assert!(
                    (got - best).abs() <= 1e-9 * best,
                    "mpe weight {got} vs brute best {best}"
                );
            }
        }
    }

    /// `all_marginals()` agrees with brute-force `P(v = 1 | F)` for every
    /// variable.
    #[test]
    fn marginals_match_brute_force(n in 2u32..=16, m in 0usize..20, seed: u64) {
        let (f, probs) = random_instance(n, m, seed);
        let mut s = session_of(&f, &probs);
        let models = brute_models(&f, &probs, &[]);
        let total: f64 = models.iter().map(|(_, w)| w).sum();
        match s.all_marginals() {
            Err(KbError::Inconsistent) => prop_assert!(models.is_empty()),
            Err(e) => panic!("unexpected error {e}"),
            Ok(marginals) => {
                prop_assert!(total > 0.0);
                for (v, got) in marginals {
                    let with_v: f64 = models
                        .iter()
                        .filter(|&&(mask, _)| mask >> v.0 & 1 == 1)
                        .map(|(_, w)| w)
                        .sum();
                    let expect = with_v / total;
                    prop_assert!(
                        (got - expect).abs() < 1e-9,
                        "marginal {v}: {got} vs {expect}"
                    );
                }
            }
        }
    }

    /// Top-k enumeration returns exactly the k heaviest brute-force
    /// models: distinct, satisfying, sorted, and weight-for-weight equal
    /// to the sorted brute-force prefix (k is capped — carrying thousands
    /// of candidate models per gate is not what top-k is for).
    #[test]
    fn enumeration_is_the_sorted_brute_force_prefix(n in 2u32..=12, m in 0usize..16, seed: u64) {
        let (f, probs) = random_instance(n, m, seed);
        let mut s = session_of(&f, &probs);
        let mut models = brute_models(&f, &probs, &[]);
        models.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let k = models.len().min(9) + 2;
        let listed = s.enumerate_models(k);
        prop_assert_eq!(listed.len(), models.len().min(k));
        let mut seen = std::collections::HashSet::new();
        for (rank, m) in listed.iter().enumerate() {
            prop_assert!(f.eval(&m.assignment));
            let twin = models
                .iter()
                .find(|&&(mask, _)| agrees(&m.assignment, mask, n as usize))
                .expect("every enumerated model is a brute-force model");
            prop_assert!((m.weight() - twin.1).abs() < 1e-12);
            prop_assert!(seen.insert(twin.0), "duplicate model in enumeration");
            // Weight-for-weight the sorted brute-force prefix (witnesses
            // may permute within ties).
            prop_assert!(
                (m.weight() - models[rank].1).abs() < 1e-12,
                "rank {rank}: {} vs {}",
                m.weight(),
                models[rank].1
            );
        }
        for w in listed.windows(2) {
            prop_assert!(w[0].log_weight >= w[1].log_weight - 1e-12);
        }
    }

    /// The chain rule on the serving layer: P(q ∧ e) = P(q | e) · P(e),
    /// with P(q | e) read off a *conditioned* session and both other
    /// factors off the unconditioned one.
    #[test]
    fn condition_then_count_is_consistent(n in 3u32..=14, m in 0usize..18, seed: u64) {
        let (f, probs) = random_instance(n, m, seed);
        let mut s = session_of(&f, &probs);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE51D);
        let ev = (VarId(rng.gen_range(0..n)), rng.gen_bool(0.5));
        let qv = VarId((ev.0 .0 + 1 + rng.gen_range(0..n - 1)) % n);
        let q = (qv, rng.gen_bool(0.5));
        prop_assume!(q.0 != ev.0);

        // P(q ∧ e) and P(e) on the unconditioned base.
        let p_q_and_e = s.query(&[q, ev]);
        let p_e = s.query(&[ev]);
        let (Ok(p_q_and_e), Ok(p_e)) = (p_q_and_e, p_e) else {
            // Unsatisfiable formula: nothing to check.
            prop_assert!(brute_models(&f, &probs, &[]).is_empty());
            continue;
        };
        // P(q | e) on the conditioned base.
        match s.condition(&[ev]) {
            Err(KbError::Inconsistent) => {
                prop_assert!(brute_models(&f, &probs, &[ev]).is_empty());
                s.retract();
                continue;
            }
            Err(e) => panic!("unexpected error {e}"),
            Ok(()) => {}
        }
        if p_e == 0.0 {
            // Structurally consistent but measure-zero evidence cannot be
            // conditioned on numerically.
            continue;
        }
        let p_q_given_e = s.marginal(q.0).unwrap();
        let p_q_given_e = if q.1 { p_q_given_e } else { 1.0 - p_q_given_e };
        prop_assert!(
            (p_q_and_e - p_q_given_e * p_e).abs() < 1e-9,
            "P(q ∧ e) = {p_q_and_e} vs P(q|e)·P(e) = {}",
            p_q_given_e * p_e
        );
        // And the brute-force anchor for the joint.
        let total: f64 = brute_models(&f, &probs, &[]).iter().map(|(_, w)| w).sum();
        let joint: f64 = brute_models(&f, &probs, &[q, ev]).iter().map(|(_, w)| w).sum();
        prop_assert!((p_q_and_e - joint / total).abs() < 1e-9);
    }

    /// The structural queries against brute force: `condition`'s verdict,
    /// `is_consistent`, exact `count_models` and clause `entails` under
    /// random session evidence (contradicted evidence included), over
    /// clauses built to hit every case the pin arithmetic must get right —
    /// a literal the evidence satisfies, a complementary pair, a duplicate
    /// literal, the empty clause, and plain random clauses.
    #[test]
    fn structural_queries_match_brute_force(n in 2u32..=14, m in 0usize..18, seed: u64) {
        let (f, probs) = random_instance(n, m, seed);
        let mut s = session_of(&f, &probs);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57C7);
        let lit = |rng: &mut StdRng| (VarId(rng.gen_range(0..n)), rng.gen_bool(0.5));
        let mut evidence: Vec<Lit> = (0..rng.gen_range(0..=3usize)).map(|_| lit(&mut rng)).collect();
        if rng.gen_bool(0.25) {
            // Contradicted evidence: both polarities of one variable.
            let (v, b) = lit(&mut rng);
            evidence.extend([(v, b), (v, !b)]);
        }
        let models = brute_models(&f, &probs, &evidence);

        let verdict = s.condition(&evidence);
        prop_assert_eq!(verdict.is_ok(), !models.is_empty(), "condition verdict");
        if let Err(e) = verdict {
            prop_assert_eq!(e, KbError::Inconsistent);
        }
        prop_assert_eq!(s.is_consistent(), !models.is_empty());
        prop_assert_eq!(s.count_models().to_u128(), Some(models.len() as u128));

        let random_clause = |rng: &mut StdRng| -> Vec<Lit> {
            (0..rng.gen_range(1..=3usize)).map(|_| lit(rng)).collect()
        };
        let mut clauses: Vec<Vec<Lit>> = vec![Vec::new()];
        for _ in 0..4 {
            clauses.push(random_clause(&mut rng));
        }
        // A literal the evidence satisfies: alone, and among others.
        if let Some(&e) = evidence.first() {
            clauses.push(vec![e]);
            let mut c = random_clause(&mut rng);
            c.insert(rng.gen_range(0..=c.len()), e);
            clauses.push(c);
        }
        // A complementary pair inside a clause.
        let (v, b) = lit(&mut rng);
        let mut c = random_clause(&mut rng);
        c.extend([(v, b), (v, !b)]);
        clauses.push(c);
        // A duplicate literal.
        let mut c = random_clause(&mut rng);
        c.push(c[0]);
        clauses.push(c);

        for clause in &clauses {
            let holds = models.iter().all(|&(mask, _)| {
                clause.iter().any(|&(v, b)| (mask >> v.0 & 1 == 1) == b)
            });
            prop_assert_eq!(
                s.entails(clause),
                Ok(holds),
                "entails {:?} under evidence {:?}", clause, evidence
            );
        }
        // Entailment pins are temporary: the evidence posture is intact.
        prop_assert_eq!(s.count_models().to_u128(), Some(models.len() as u128));
    }
}

/// Brute-force `Σ weight` of the models of `f ∧ lits`.
fn brute_weight(f: &CnfFormula, probs: &[f64], lits: &[Lit]) -> f64 {
    brute_models(f, probs, lits).iter().map(|(_, w)| w).sum()
}

/// `P(⋀ lits | F ∧ e)` by brute force, `Inconsistent` when `W(F ∧ e) = 0`.
fn brute_conditional(
    f: &CnfFormula,
    probs: &[f64],
    evidence: &[Lit],
    lits: &[Lit],
) -> Result<f64, KbError> {
    let total = brute_weight(f, probs, evidence);
    if total == 0.0 {
        return Err(KbError::Inconsistent);
    }
    let joint: Vec<Lit> = evidence.iter().chain(lits).copied().collect();
    Ok(brute_weight(f, probs, &joint) / total)
}

/// Two conditional answers agree: the same error, or values within 1e-9.
fn close(got: &Result<f64, KbError>, want: &Result<f64, KbError>) -> bool {
    match (got, want) {
        (Ok(g), Ok(w)) => (g - w).abs() < 1e-9,
        (g, w) => g == w,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The session's epoch memos (`ln W(F)`, `ln W(F ∧ e)`, the consistency
    /// verdict, the marginals table) against brute force: a random script
    /// interleaves weight changes (zero weights included), evidence
    /// (contradictions included), retracts and every read, and each answer
    /// is checked against enumeration under the script's state so far. A
    /// memo that survives a change it depends on answers a stale value
    /// here.
    #[test]
    fn interleaved_session_ops_match_brute_force(n in 2u32..=12, m in 0usize..16, seed: u64) {
        let (f, mut probs) = random_instance(n, m, seed);
        let mut s = session_of(&f, &probs);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3E30);
        let mut evidence: Vec<Lit> = Vec::new();
        let lit = |rng: &mut StdRng| (VarId(rng.gen_range(0..n)), rng.gen_bool(0.5));
        let lits = |rng: &mut StdRng, max: usize| -> Vec<Lit> {
            (0..rng.gen_range(0..=max)).map(|_| lit(rng)).collect()
        };
        for step in 0..40 {
            let models = brute_models(&f, &probs, &evidence);
            let total: f64 = models.iter().map(|(_, w)| w).sum();
            match rng.gen_range(0..11u32) {
                0 => {
                    let v = rng.gen_range(0..n);
                    let p = match rng.gen_range(0..8u32) {
                        0 => 0.0,
                        1 => 1.0,
                        _ => 0.05 + 0.9 * rng.gen_range(0.0..1.0),
                    };
                    s.set_probability(VarId(v), p).unwrap();
                    probs[v as usize] = p;
                }
                1 => {
                    let mut e = lits(&mut rng, 2);
                    if rng.gen_bool(0.2) {
                        let (v, b) = lit(&mut rng);
                        e.extend([(v, b), (v, !b)]);
                    }
                    evidence.extend(&e);
                    let verdict = s.condition(&e);
                    let sat = !brute_models(&f, &probs, &evidence).is_empty();
                    prop_assert_eq!(verdict.is_ok(), sat, "step {} condition {:?}", step, e);
                }
                2 => {
                    s.retract();
                    evidence.clear();
                }
                3 => {
                    let q = lits(&mut rng, 3);
                    let want = brute_conditional(&f, &probs, &evidence, &q);
                    let got = s.query(&q);
                    prop_assert!(close(&got, &want), "step {} query {:?}: {:?} vs {:?}", step, q, got, want);
                }
                4 => {
                    let qs: Vec<Vec<Lit>> = (0..rng.gen_range(1..=5usize)).map(|_| lits(&mut rng, 2)).collect();
                    for (q, got) in qs.iter().zip(s.query_batch(&qs)) {
                        let want = brute_conditional(&f, &probs, &evidence, q);
                        prop_assert!(close(&got, &want), "step {} query_batch {:?}: {:?} vs {:?}", step, q, got, want);
                    }
                }
                5 => {
                    let got = s.log_weight();
                    if total == 0.0 {
                        prop_assert_eq!(got, f64::NEG_INFINITY, "step {} log_weight", step);
                    } else {
                        let want = total.ln();
                        prop_assert!((got - want).abs() < 1e-9 * want.abs().max(1.0), "step {} log_weight {} vs {}", step, got, want);
                    }
                }
                6 => {
                    let prior = brute_weight(&f, &probs, &[]);
                    let want = if prior == 0.0 { Err(KbError::Inconsistent) } else { Ok(total / prior) };
                    let got = s.probability_of_evidence();
                    prop_assert!(close(&got, &want), "step {} pe: {:?} vs {:?}", step, got, want);
                }
                7 => {
                    let v = VarId(rng.gen_range(0..n));
                    let want = brute_conditional(&f, &probs, &evidence, &[(v, true)]);
                    let got = s.marginal(v);
                    prop_assert!(close(&got, &want), "step {} marginal {}: {:?} vs {:?}", step, v, got, want);
                }
                8 => prop_assert_eq!(s.is_consistent(), !models.is_empty(), "step {} is_consistent", step),
                9 => {
                    let clause = lits(&mut rng, 3);
                    let holds = models.iter().all(|&(mask, _)| {
                        clause.iter().any(|&(v, b)| (mask >> v.0 & 1 == 1) == b)
                    });
                    prop_assert_eq!(s.entails(&clause), Ok(holds), "step {} entails {:?}", step, clause);
                }
                _ => prop_assert_eq!(
                    s.count_models().to_u128(),
                    Some(models.len() as u128),
                    "step {} count_models", step
                ),
            }
        }
    }
}

/// A random batch of evidence sets (0–2 literals each) over `n` variables.
fn random_batch(n: u32, lanes: usize, rng: &mut StdRng) -> Vec<Vec<Lit>> {
    (0..lanes)
        .map(|_| {
            (0..rng.gen_range(0..=2usize))
                .map(|_| (VarId(rng.gen_range(0..n)), rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// The scalar serving loop for one lane of a marginal batch: a fresh
/// session (so a failed `condition` cannot leak state into the next
/// lane), evidence asserted, one marginal read.
fn scalar_marginal(frozen: &Arc<FrozenKb>, target: VarId, e: &[Lit]) -> Result<f64, KbError> {
    let mut s = frozen.session();
    s.condition(e)?;
    s.marginal(target)
}

/// As [`scalar_marginal`], for the full marginal table.
fn scalar_all_marginals(frozen: &Arc<FrozenKb>, e: &[Lit]) -> Result<Vec<(VarId, f64)>, KbError> {
    let mut s = frozen.session();
    s.condition(e)?;
    s.all_marginals()
}

/// As [`scalar_marginal`], for one lane of an MPE batch.
fn scalar_mpe(frozen: &Arc<FrozenKb>, e: &[Lit]) -> Result<kb::Model, KbError> {
    let mut s = frozen.session();
    s.condition(e)?;
    s.mpe()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batched session APIs are **bit-identical**, lane for lane, to
    /// the scalar serving loop — `query_batch` vs `query`, and the
    /// marginal batches vs condition-then-read — and invariant under lane
    /// permutation (a lane's answer depends only on its own evidence, not
    /// on its neighbors). `Ok` lanes are additionally anchored to
    /// brute-force enumeration.
    #[test]
    fn batched_answers_are_the_scalar_loop_bit_for_bit(
        n in 2u32..=16, m in 0usize..20, seed: u64
    ) {
        let (f, probs) = random_instance(n, m, seed);
        let frozen = Arc::new(kb_of(&f, &probs).freeze());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
        let lanes = rng.gen_range(1..=9usize);
        let batch = random_batch(n, lanes, &mut rng);
        let target = VarId(rng.gen_range(0..n));

        let mut batched = frozen.session();
        let mut scalar = frozen.session();

        // query_batch ≡ query, to the bit (errors included: KbError is
        // PartialEq).
        let joints = batched.query_batch(&batch);
        for (l, e) in batch.iter().enumerate() {
            prop_assert_eq!(
                joints[l].clone().map(f64::to_bits),
                scalar.query(e).map(f64::to_bits),
                "query lane {}", l
            );
        }

        // marginal_batch ≡ condition + marginal on a fresh session.
        let marginals = batched.marginal_batch(target, &batch);
        for (l, e) in batch.iter().enumerate() {
            prop_assert_eq!(
                marginals[l].clone().map(f64::to_bits),
                scalar_marginal(&frozen, target, e).map(f64::to_bits),
                "marginal lane {}", l
            );
        }

        // all_marginals_batch ≡ condition + all_marginals, every variable.
        let tables = batched.all_marginals_batch(&batch);
        for (l, e) in batch.iter().enumerate() {
            let want = scalar_all_marginals(&frozen, e);
            let got = tables[l].clone();
            prop_assert_eq!(
                got.map(|t| t.into_iter().map(|(v, p)| (v, p.to_bits())).collect::<Vec<_>>()),
                want.map(|t| t.into_iter().map(|(v, p)| (v, p.to_bits())).collect::<Vec<_>>()),
                "all_marginals lane {}", l
            );
        }

        // Lane permutation: shuffling the batch shuffles the answers and
        // changes nothing else.
        let mut perm: Vec<usize> = (0..lanes).collect();
        for i in (1..lanes).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let shuffled: Vec<Vec<Lit>> = perm.iter().map(|&i| batch[i].clone()).collect();
        let reshuffled = batched.marginal_batch(target, &shuffled);
        for (j, &i) in perm.iter().enumerate() {
            prop_assert_eq!(
                reshuffled[j].clone().map(f64::to_bits),
                marginals[i].clone().map(f64::to_bits),
                "permuted lane {} (was {})", j, i
            );
        }

        // Brute-force anchor for the Ok lanes.
        for (l, e) in batch.iter().enumerate() {
            let Ok(p) = marginals[l] else { continue };
            let models = brute_models(&f, &probs, e);
            let total: f64 = models.iter().map(|(_, w)| w).sum();
            prop_assert!(total > 0.0, "Ok lane over an empty model set");
            let with_t: f64 = models
                .iter()
                .filter(|&&(mask, _)| mask >> target.0 & 1 == 1)
                .map(|(_, w)| w)
                .sum();
            prop_assert!(
                (p - with_t / total).abs() < 1e-9,
                "lane {}: {} vs brute {}", l, p, with_t / total
            );
        }
    }

    /// `mpe_batch` is **bit-identical**, lane for lane, to the scalar
    /// serving loop (fresh session, `condition`, `mpe`) — score AND
    /// witness, errors included. The MaxPlus lane decode reproduces the
    /// scalar argmax descent's tie-breaking exactly, so even degenerate
    /// weight ties may not flip a single assignment bit. Ok lanes are
    /// additionally anchored to brute-force enumeration.
    #[test]
    fn mpe_batch_is_the_scalar_loop_bit_for_bit(
        n in 2u32..=16, m in 0usize..20, seed: u64
    ) {
        let (f, probs) = random_instance(n, m, seed);
        let frozen = Arc::new(kb_of(&f, &probs).freeze());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3A9E);
        let lanes = rng.gen_range(1..=9usize);
        let batch = random_batch(n, lanes, &mut rng);

        let mut batched = frozen.session();
        let decoded = batched.mpe_batch(&batch);
        prop_assert_eq!(decoded.len(), batch.len());
        for (l, e) in batch.iter().enumerate() {
            let want = scalar_mpe(&frozen, e);
            match (&decoded[l], &want) {
                (Ok(got), Ok(w)) => {
                    prop_assert_eq!(
                        got.log_weight.to_bits(), w.log_weight.to_bits(),
                        "lane {} score", l
                    );
                    prop_assert_eq!(
                        &got.assignment, &w.assignment,
                        "lane {} witness", l
                    );
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "lane {} error", l),
                (got, want) => prop_assert!(
                    false,
                    "lane {} diverged: batched ok={} scalar ok={}",
                    l, got.is_ok(), want.is_ok()
                ),
            }
            // Brute-force anchor: the batched witness is a maximal model
            // of f ∧ e.
            if let Ok(got) = &decoded[l] {
                let models = brute_models(&f, &probs, e);
                let best = models
                    .iter()
                    .map(|(_, w)| *w)
                    .fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(!models.is_empty(), "Ok lane over an empty model set");
                prop_assert!(f.eval(&got.assignment), "lane {} witness satisfies f", l);
                prop_assert!(
                    e.iter().all(|&(v, b)| got.assignment.get(v) == Some(b)),
                    "lane {} witness honors its evidence", l
                );
                let gw = got.weight();
                prop_assert!(
                    (gw - best).abs() <= 1e-9 * best,
                    "lane {}: mpe weight {} vs brute best {}", l, gw, best
                );
            }
        }
    }
}

/// The same bit-identity contract on the structured families the strategy
/// matrix serves: weighted chains and bands up to 16 variables, a full
/// 16-lane batch each, anchored to brute force.
#[test]
fn batched_answers_match_the_scalar_loop_on_chains_and_bands() {
    let cases: Vec<(&str, CnfFormula)> = vec![
        ("chain_8", families::chain_cnf(8)),
        ("chain_16", families::chain_cnf(16)),
        ("band_12_w3", families::band_cnf(12, 3)),
        ("band_16_w3", families::band_cnf(16, 3)),
    ];
    for (label, f) in cases {
        let n = f.num_vars();
        let probs: Vec<f64> = (0..n)
            .map(|i| 0.1 + 0.8 * ((i * 7) % 11) as f64 / 11.0)
            .collect();
        let frozen = Arc::new(kb_of(&f, &probs).freeze());
        let target = VarId(n / 2);
        let batch: Vec<Vec<Lit>> = (0..16)
            .map(|j| vec![(VarId(j as u32 % n), j % 2 == 0)])
            .collect();
        let mut batched = frozen.session();
        let marginals = batched.marginal_batch(target, &batch);
        let models_of = |e: &[Lit]| brute_models(&f, &probs, e);
        for (l, e) in batch.iter().enumerate() {
            let want = scalar_marginal(&frozen, target, e);
            assert_eq!(
                marginals[l].clone().map(f64::to_bits),
                want.map(f64::to_bits),
                "{label}: lane {l}"
            );
            if let Ok(p) = marginals[l] {
                let models = models_of(e);
                let total: f64 = models.iter().map(|(_, w)| w).sum();
                let with_t: f64 = models
                    .iter()
                    .filter(|&&(mask, _)| mask >> target.0 & 1 == 1)
                    .map(|(_, w)| w)
                    .sum();
                assert!(
                    (p - with_t / total).abs() < 1e-9,
                    "{label}: lane {l} vs brute force"
                );
            }
        }
    }
}

/// `LogF64` stays within 1e-9 (relative, in log space) of the exact
/// `Rational` engine on the weighted chain families. (Sizes are capped at
/// 120: the exact side's rationals grow ~`10^n`-denominator normal forms,
/// whose gcd normalization is what the log carrier exists to avoid — the
/// 10k-variable test below covers the large end without the `Rat` anchor.)
#[test]
fn logf64_tracks_exact_rationals_on_chains() {
    for n in [25u32, 50, 80, 120] {
        let f = families::chain_cnf(n);
        let compiled = Compiler::new().compile_cnf(&f).unwrap();
        let weight_of = |v: VarId| {
            let i = v.index() as u64;
            (
                Rational::from_ratio(((i % 7) + 1).into(), 10u64.into()),
                Rational::from_ratio(((i % 9) + 1).into(), 10u64.into()),
            )
        };
        let exact = compiled.sdd.weighted_count_exact(compiled.root, weight_of);
        let expect = ln_rational(&exact);
        let logged = compiled.sdd.evaluate(compiled.root, &LogF64, |v, pos| {
            let (wn, wp) = weight_of(v);
            if pos {
                wp.to_f64().ln()
            } else {
                wn.to_f64().ln()
            }
        });
        let rel = (logged - expect).abs() / expect.abs().max(1.0);
        assert!(
            rel < 1e-9,
            "n={n}: log-space {logged} vs exact {expect} (rel {rel:.2e})"
        );
    }
}

/// At 10k variables the chain's weighted count is far below `f64::MIN` —
/// the linear engine underflows to 0, the log-space engine keeps the full
/// answer. (The underflow-safety claim of the semiring-zoo roadmap item.)
/// Runs directly on the harness's default-size test thread: the engines
/// are worklist-iterative, so vtree depth no longer consumes stack (the
/// pre-iterative version needed a dedicated 256 MB thread here; the
/// 100k-variable session lives in `tests/deep_chain.rs`).
#[test]
fn logf64_survives_ten_thousand_variables() {
    let n = 10_000u32;
    let f = families::chain_cnf(n);
    let compiled = Compiler::new().compile_cnf(&f).unwrap();
    let linear = compiled.sdd.weighted_count(compiled.root, |_| (1e-3, 1e-3));
    assert_eq!(linear, 0.0, "the f64 engine underflows at this size");
    let logged = compiled
        .sdd
        .evaluate(compiled.root, &LogF64, |_, _| (1e-3f64).ln());
    assert!(logged.is_finite());
    // W = count · (1e-3)^n, so ln W = ln count + n · ln 1e-3 exactly.
    let ln_count = ln_rational(&Rational::from_ratio(
        families::chain_count(n),
        arith::BigUint::one(),
    ));
    let expect = ln_count + n as f64 * (1e-3f64).ln();
    assert!(
        (logged - expect).abs() < 1e-6 * expect.abs(),
        "{logged} vs {expect}"
    );
}
