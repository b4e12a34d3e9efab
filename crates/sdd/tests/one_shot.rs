//! The one-shot evaluation path (`FrozenSdd::evaluate`: unfold the root's
//! circuit, sweep it once) against oracles that share no code with it: the
//! closed-form chain count and brute force over every assignment.

use arith::{BigUint, Rational};
use boolfunc::{Assignment, VarSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdd::SddManager;
use vtree::{VarId, Vtree};

fn vars(n: u32) -> Vec<VarId> {
    (0..n).map(VarId).collect()
}

#[test]
fn chain_counts_match_the_closed_form() {
    for n in [1u32, 2, 100, 2000] {
        let f = cnf::families::chain_cnf(n);
        let mut m = SddManager::new(Vtree::right_linear(&vars(n)).unwrap());
        let r = m.from_circuit(&f.to_circuit());
        assert_eq!(
            m.count_models_exact(r),
            cnf::families::chain_count(n),
            "chain n={n}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exact counts and exact weighted counts of random circuits on all
    /// three vtree shapes equal a brute-force sum over all `2ⁿ`
    /// assignments. Weights are `a/4` with `a ∈ 0..=4`, so zero weights
    /// occur and the brute force stays in integers (scaled by `4ⁿ`).
    #[test]
    fn exact_counts_match_brute_force(n in 2u32..=16, shape in 0u32..3, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = circuit::families::random_circuit(n as usize, 3 * n as usize, &mut rng);
        let f = c.to_boolfn().unwrap();
        let vt = match shape {
            0 => Vtree::random(&vars(n), &mut rng),
            1 => Vtree::left_linear(&vars(n)),
            _ => Vtree::right_linear(&vars(n)),
        }
        .unwrap();
        let mut m = SddManager::new(vt);
        let r = m.from_circuit(&c);
        let quarters: Vec<(u64, u64)> =
            (0..n).map(|_| (rng.gen_range(0..5), rng.gen_range(0..5))).collect();

        let scope = VarSet::from_slice(&vars(n));
        let (mut count, mut scaled) = (0u128, 0u128);
        for i in 0..1u64 << n {
            let a = Assignment::from_index(&scope, i);
            if !f.eval(&a) {
                continue;
            }
            count += 1;
            scaled += quarters
                .iter()
                .enumerate()
                .map(|(j, &(wn, wp))| {
                    u128::from(if a.get(VarId(j as u32)) == Some(true) { wp } else { wn })
                })
                .product::<u128>();
        }

        prop_assert_eq!(m.count_models_exact(r), BigUint::from_u128(count));
        let quarter = |k: u64| Rational::from_ratio(BigUint::from_u64(k), BigUint::from_u64(4));
        let exact = m.weighted_count_exact(r, |v| {
            let (wn, wp) = quarters[v.index()];
            (quarter(wn), quarter(wp))
        });
        let want = Rational::from_ratio(BigUint::from_u128(scaled), BigUint::pow2(2 * n as usize));
        prop_assert_eq!(exact, want);
    }
}
