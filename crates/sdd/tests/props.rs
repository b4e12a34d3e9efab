//! Property tests pinning the element-arena kernel to the semantics of
//! the node-owned-storage kernel it replaced: interning must be
//! observationally identical — structurally equal decisions get the same
//! `SddId` (canonicity), model counts match brute force, `sdd_size`
//! is stable across recompilation, and the structural invariants validate.

use boolfunc::{BoolFn, VarSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdd::{SddManager, SddNode};
use vtree::{VarId, Vtree};

fn vars(n: u32) -> Vec<VarId> {
    (0..n).map(VarId).collect()
}

/// A vtree of one of three shapes: random, left-linear or right-linear.
/// Left-linear vtrees put apply accumulators left of the lca, where the
/// cross product's absorbing-sub skip fires on every product.
fn shaped_vtree(shape: u32, n: u32, rng: &mut StdRng) -> Vtree {
    match shape {
        0 => Vtree::random(&vars(n), rng),
        1 => Vtree::left_linear(&vars(n)),
        _ => Vtree::right_linear(&vars(n)),
    }
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Canonicity under the open-addressed unique table: compiling the
    /// same function again — and re-interning every reachable decision
    /// through the public constructor — returns the *same* node ids.
    #[test]
    fn interning_is_canonical(n in 2u32..=10, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = BoolFn::random(VarSet::from_slice(&vars(n)), &mut rng);
        let vt = Vtree::random(&vars(n), &mut rng).unwrap();
        let mut m = SddManager::new(vt);
        let r1 = m.from_boolfn(&f);
        let r2 = m.from_boolfn(&f);
        prop_assert_eq!(r1, r2, "same function, same node");
        // Structurally equal decisions intern to the same id: rebuild each
        // reachable decision from its own element list.
        for d in m.reachable_decisions(r1) {
            let SddNode::Decision { vnode, .. } = m.node(d) else { unreachable!() };
            let vnode = *vnode;
            let elems = m.elements_of(d).to_vec();
            let again = m.decision(vnode, elems);
            prop_assert_eq!(again, d, "re-interned decision must dedupe");
        }
    }

    /// Model counts and structure agree with the truth-table kernel on
    /// random, left-linear and right-linear vtrees, and `sdd_size` is
    /// reproducible in a fresh manager (the arena layout
    /// cannot change what is reachable).
    #[test]
    fn counts_and_size_match_brute_force(n in 1u32..=9, shape in 0u32..3, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = BoolFn::random(VarSet::from_slice(&vars(n)), &mut rng);
        let vt = shaped_vtree(shape, n, &mut rng);
        let mut m = SddManager::new(vt.clone());
        let r = m.from_boolfn(&f);
        prop_assert_eq!(m.count_models(r), f.count_models() as u128);
        m.validate(r).unwrap();

        let mut m2 = SddManager::new(vt);
        let r2 = m2.from_boolfn(&f);
        prop_assert_eq!(m.size(r), m2.size(r2), "size is a function of (f, vtree)");
        prop_assert_eq!(m.width(r), m2.width(r2));
    }

    /// The apply route at the full 16-variable bound: random circuits
    /// compile through `from_circuit` on all three vtree shapes and count
    /// exactly what the brute-force kernel counts (structural validation stays on — the
    /// semantic partition checks are what need the small-n test above).
    #[test]
    fn circuit_route_counts_match_brute_force_at_16_vars(
        n in 10u32..=16,
        shape in 0u32..3,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = circuit::families::random_circuit(n as usize, 3 * n as usize, &mut rng);
        let f = c.to_boolfn().unwrap();
        let vt = shaped_vtree(shape, n, &mut rng);
        let mut m = SddManager::new(vt);
        let r = m.from_circuit(&c);
        // Count over the full vtree scope (the circuit may not mention
        // every variable; the SDD smooths over all of them).
        let scope = VarSet::from_slice(&vars(n));
        prop_assert_eq!(m.count_models(r), f.count_models_over(&scope) as u128);
        m.validate_structure(r).unwrap();
    }

    /// Negation and conditioning stay observationally identical: they
    /// agree with the kernel's `not`/`restrict`, and the double negation
    /// returns the original id (the neg cache round-trips through the
    /// arena-backed builds).
    #[test]
    fn negate_and_condition_agree_with_kernel(n in 2u32..=8, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = BoolFn::random(VarSet::from_slice(&vars(n)), &mut rng);
        let vt = Vtree::random(&vars(n), &mut rng).unwrap();
        let mut m = SddManager::new(vt);
        let r = m.from_boolfn(&f);
        let nr = m.negate(r);
        prop_assert_eq!(m.negate(nr), r, "double negation is the identity");
        prop_assert!(m.to_boolfn(nr).equivalent(&f.not()));
        let v = VarId(seed as u32 % n);
        for value in [false, true] {
            let c = m.condition(r, v, value);
            prop_assert!(m.to_boolfn(c).equivalent(&f.restrict(v, value)));
        }
    }

    /// The arena stores every interned decision's elements exactly once,
    /// and `elements_of` exposes them sorted by prime — the kernel-storage
    /// invariants the module documents.
    #[test]
    fn arena_holds_each_element_exactly_once(n in 2u32..=10, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = BoolFn::random(VarSet::from_slice(&vars(n)), &mut rng);
        let vt = Vtree::random(&vars(n), &mut rng).unwrap();
        let mut m = SddManager::new(vt);
        let _ = m.from_boolfn(&f);
        let mut total = 0usize;
        for id in 0..m.num_allocated() as u32 {
            let id = sdd::SddId(id);
            if let SddNode::Decision { elems, .. } = m.node(id) {
                prop_assert!(elems.start < elems.end);
                prop_assert!(elems.end as usize <= m.num_elements());
                total += elems.len();
                let slice = m.elements_of(id);
                prop_assert!(slice.windows(2).all(|w| w[0].0 < w[1].0));
            }
        }
        prop_assert_eq!(total, m.num_elements());
    }
}
