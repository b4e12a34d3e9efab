//! Structural validation of SDD invariants (test and experiment support).

use crate::{FrozenSdd, SddId, SddNode};
use std::fmt;
use vtree::fxhash::FxHashSet;

/// Violations of the SDD syntax (paper §2.1, conditions (1)–(3)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SddError {
    /// A prime is not over the left subtree of its decision's vnode.
    PrimeOutOfPlace(SddId),
    /// A sub is not over the right subtree of its decision's vnode.
    SubOutOfPlace(SddId),
    /// Primes are not pairwise disjoint (condition (2)).
    PrimesOverlap(SddId),
    /// Primes do not cover the space (condition (1)).
    PrimesNotExhaustive(SddId),
    /// Two equal subs (compression / canonicity condition (3)).
    NotCompressed(SddId),
    /// A ⊥ prime survived construction.
    FalsePrime(SddId),
}

impl fmt::Display for SddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SddError::PrimeOutOfPlace(n) => write!(f, "prime of {n:?} outside left subtree"),
            SddError::SubOutOfPlace(n) => write!(f, "sub of {n:?} outside right subtree"),
            SddError::PrimesOverlap(n) => write!(f, "primes of {n:?} overlap"),
            SddError::PrimesNotExhaustive(n) => write!(f, "primes of {n:?} not exhaustive"),
            SddError::NotCompressed(n) => write!(f, "node {n:?} not compressed"),
            SddError::FalsePrime(n) => write!(f, "node {n:?} has a ⊥ prime"),
        }
    }
}

impl std::error::Error for SddError {}

impl FrozenSdd {
    /// Check every reachable decision node against the SDD conditions.
    ///
    /// Structural checks (placement, compression) are exact everywhere.
    /// The partition checks (disjoint + exhaustive) are *semantic* and
    /// enumerate the prime space, so they are skipped when the store's
    /// vtree exceeds the truth-table kernel cap ([`boolfunc::MAX_VARS`]) —
    /// validation degrades gracefully instead of panicking on large vtrees.
    /// For a check that is cheap at any size, use
    /// [`FrozenSdd::validate_structure`].
    pub fn validate(&self, root: SddId) -> Result<(), SddError> {
        self.check(root, true)
    }

    /// The structural subset of [`FrozenSdd::validate`] — placement,
    /// compression, and ⊥-prime checks only. Linear in the SDD, no
    /// truth-table enumeration, safe at any size.
    pub fn validate_structure(&self, root: SddId) -> Result<(), SddError> {
        self.check(root, false)
    }

    fn check(&self, root: SddId, semantic: bool) -> Result<(), SddError> {
        for n in self.reachable_decisions(root) {
            let SddNode::Decision { vnode, .. } = self.node(n) else {
                unreachable!()
            };
            let elems = self.elements_of(n);
            let (lv, rv) = self
                .vtree()
                .children(*vnode)
                .expect("decision vnode is internal");
            // Placement.
            for &(p, s) in elems.iter() {
                if p == crate::FALSE {
                    return Err(SddError::FalsePrime(n));
                }
                if let Some(pv) = self.respects(p) {
                    if !self.vtree().is_descendant(pv, lv) {
                        return Err(SddError::PrimeOutOfPlace(n));
                    }
                }
                if let Some(sv) = self.respects(s) {
                    if !self.vtree().is_descendant(sv, rv) {
                        return Err(SddError::SubOutOfPlace(n));
                    }
                }
            }
            // Compression: subs pairwise distinct.
            let subs: FxHashSet<SddId> = elems.iter().map(|&(_, s)| s).collect();
            if subs.len() != elems.len() {
                return Err(SddError::NotCompressed(n));
            }
            // Partition (semantic): enumerate assignments of the left vars.
            // `to_boolfn` expands primes over the store's full variable
            // set, so the kernel cap applies to the whole vtree here.
            if !semantic || self.vtree().num_vars() > boolfunc::MAX_VARS {
                continue;
            }
            let left_vars = boolfunc::VarSet::from_slice(self.vtree().vars_below(lv));
            let primes: Vec<boolfunc::BoolFn> = elems
                .iter()
                .map(|&(p, _)| {
                    let full = self.to_boolfn(p);
                    // Project onto the left vars: p only mentions them.
                    boolfunc::BoolFn::from_fn(left_vars.clone(), |idx| {
                        let a = boolfunc::Assignment::from_index(&left_vars, idx);
                        // Extend arbitrarily (p does not depend on the rest).
                        let mut ext = a.clone();
                        for v in full.vars().iter() {
                            if ext.get(v).is_none() {
                                ext.set(v, false);
                            }
                        }
                        full.eval(&ext)
                    })
                })
                .collect();
            let mut union_count = 0u64;
            for (i, p) in primes.iter().enumerate() {
                union_count += p.count_models();
                for q in &primes[i + 1..] {
                    if p.and(q).count_models() != 0 {
                        return Err(SddError::PrimesOverlap(n));
                    }
                }
            }
            if union_count != 1u64 << left_vars.len() {
                return Err(SddError::PrimesNotExhaustive(n));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::SddManager;
    use boolfunc::{BoolFn, VarSet};
    use vtree::{VarId, Vtree};

    #[test]
    fn random_compilations_validate() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let vars: Vec<VarId> = (0..6).map(VarId).collect();
        for _ in 0..10 {
            let f = BoolFn::random(VarSet::from_slice(&vars), &mut rng);
            let vt = Vtree::random(&vars, &mut rng).unwrap();
            let mut m = SddManager::new(vt);
            let r = m.from_boolfn(&f);
            m.validate(r).unwrap();
            assert!(m.to_boolfn(r).equivalent(&f));
        }
    }

    #[test]
    fn circuit_compilations_validate() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let vars: Vec<VarId> = (0..5).map(VarId).collect();
        for _ in 0..10 {
            let c = circuit::families::random_circuit(5, 15, &mut rng);
            let vt = Vtree::balanced(&vars).unwrap();
            let mut m = SddManager::new(vt);
            let r = m.from_circuit(&c);
            m.validate(r).unwrap();
        }
    }
}
