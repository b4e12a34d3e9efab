//! The generic bottom-up evaluation engine.
//!
//! An SDD is deterministic (primes are pairwise disjoint, so ∨ is a disjoint
//! union of models) and decomposable (primes and subs have disjoint scopes,
//! so ∧ is a cartesian product). That makes *every* counting query one and
//! the same traversal over a commutative semiring: `⊥ ↦ 0`, `⊤ ↦ 1`, a
//! literal ↦ its weight, a decision ↦ `⊕ᵢ (Pᵢ ⊗ Sᵢ)` — plus **gap
//! smoothing**: a variable of the enclosing vtree scope that a node does not
//! mention contributes the factor `w(¬v) ⊕ w(v)`.
//!
//! [`FrozenSdd::evaluate`] implements that engine once, division-free
//! (smoothing factors come from walking the vtree, never from dividing them
//! back out, so it works in any semiring). The former `count_models` /
//! `weighted_count` / `probability` triplet of near-duplicate traversals are
//! now instantiations:
//!
//! * [`FrozenSdd::count_models_exact`] — `arith::Nat` (`BigUint`): exact
//!   #SAT, no overflow at any size;
//! * [`FrozenSdd::weighted_count_exact`] / [`FrozenSdd::probability_exact`]
//!   — `arith::Rat` (`Rational`): exact WMC, no rounding;
//! * [`FrozenSdd::weighted_count`] / [`FrozenSdd::probability`] —
//!   `arith::F64`: the fast approximate path.
//!
//! [`EvalCache`] is the incremental form of the same engine — per-node
//! values carry **epoch stamps**, each vtree node remembers the last epoch
//! a weight below it changed, and a re-evaluation recomputes exactly the
//! *dirty cone* (the vtree ancestors of the changed leaves and the SDD
//! nodes structured by them), answering everything else from cache.
//! Serving sessions (`kb::KbSession`) do not use it: they sweep the
//! unfolded arithmetic circuit instead. It remains for the repo
//! benchmark's traced dirty-cone measurement.

use crate::{FrozenSdd, SddId, SddNode};
use arith::{BigUint, Nat, Rat, Rational, Semiring, F64};
use vtree::fxhash::FxHashMap;
use vtree::{VarId, VtreeNodeId};

impl FrozenSdd {
    /// Evaluate `root` over all vtree variables in an arbitrary commutative
    /// semiring. `weight(v, polarity)` is the weight of the literal `v` /
    /// `¬v`; variables absent from a subfunction contribute
    /// `weight(v, false) ⊕ weight(v, true)` (smoothing).
    ///
    /// Counting is `evaluate(root, &Nat, |_, _| BigUint::one())`; weighted
    /// counting plugs in the literal weights. The traversal is memoized per
    /// node, so it is linear in the SDD size (times the cost of semiring
    /// operations and vtree-path walks).
    pub fn evaluate<S: Semiring>(
        &self,
        root: SddId,
        semiring: &S,
        weight: impl Fn(VarId, bool) -> S::Elem,
    ) -> S::Elem {
        let vtree = self.vtree();
        // Literal weights per variable.
        let mut wmap: FxHashMap<VarId, (S::Elem, S::Elem)> = FxHashMap::default();
        for &v in vtree.vars() {
            wmap.insert(v, (weight(v, false), weight(v, true)));
        }
        // gap[t] = ⊗_{v below t} (w⁻(v) ⊕ w⁺(v)), bottom-up over the vtree.
        let mut gap: Vec<Option<S::Elem>> = vec![None; vtree.num_nodes()];
        for n in vtree.bottom_up_order() {
            let g = match vtree.children(n) {
                None => {
                    let v = vtree.leaf_var(n).expect("leaf");
                    let (wn, wp) = &wmap[&v];
                    semiring.add(wn, wp)
                }
                Some((l, r)) => semiring.mul(
                    gap[l.index()].as_ref().expect("child gap computed"),
                    gap[r.index()].as_ref().expect("child gap computed"),
                ),
            };
            gap[n.index()] = Some(g);
        }
        let gap: Vec<S::Elem> = gap.into_iter().map(|g| g.expect("all nodes")).collect();

        let mut ev = Evaluator {
            mgr: self,
            semiring,
            wmap,
            gap,
            raw: FxHashMap::default(),
        };
        ev.run(root)
    }

    /// Exact model count over all vtree variables — the `BigUint` semiring,
    /// valid at any variable count.
    pub fn count_models_exact(&self, root: SddId) -> BigUint {
        self.evaluate(root, &Nat, |_, _| BigUint::one())
    }

    /// Exact model count as `u128`, `None` when the count needs more than
    /// 128 bits.
    pub fn count_models_checked(&self, root: SddId) -> Option<u128> {
        self.count_models_exact(root).to_u128()
    }

    /// Exact model count over all vtree variables.
    ///
    /// Panics — in every build profile — when the true count exceeds 128
    /// bits. The pre-semiring implementation silently wrapped there, and
    /// the first semiring version saturated at `u128::MAX` behind a
    /// debug-only assertion, so release builds could hand a saturated
    /// count to reports; no counting path may do that. Prefer
    /// [`FrozenSdd::count_models_exact`] (never overflows) or
    /// [`FrozenSdd::count_models_checked`] (typed overflow) on inputs
    /// with more than 128 variables.
    pub fn count_models(&self, root: SddId) -> u128 {
        self.count_models_checked(root)
            .expect("model count exceeds u128; use count_models_exact/count_models_checked")
    }

    /// Weighted model count over all vtree variables: `weight(v) = (w⁻, w⁺)`.
    /// Variables skipped between a node and its vtree scope contribute the
    /// smoothing factor `w⁻ + w⁺`. The fast `f64` path of the semiring
    /// engine; see [`FrozenSdd::weighted_count_exact`] for the exact one.
    pub fn weighted_count(&self, root: SddId, weight: impl Fn(VarId) -> (f64, f64)) -> f64 {
        self.evaluate(root, &F64, |v, positive| {
            let (wn, wp) = weight(v);
            if positive {
                wp
            } else {
                wn
            }
        })
    }

    /// Exact weighted model count — the `Rational` semiring.
    pub fn weighted_count_exact(
        &self,
        root: SddId,
        weight: impl Fn(VarId) -> (Rational, Rational),
    ) -> Rational {
        self.evaluate(root, &Rat, |v, positive| {
            let (wn, wp) = weight(v);
            if positive {
                wp
            } else {
                wn
            }
        })
    }

    /// Probability under independent `P(v=1) = prob(v)`.
    pub fn probability(&self, root: SddId, prob: impl Fn(VarId) -> f64) -> f64 {
        self.weighted_count(root, |v| {
            let p = prob(v);
            (1.0 - p, p)
        })
    }

    /// Exact probability under independent `P(v=1) = prob(v)`.
    pub fn probability_exact(&self, root: SddId, prob: impl Fn(VarId) -> Rational) -> Rational {
        self.weighted_count_exact(root, |v| {
            let p = prob(v);
            (Rational::one().sub(&p), p)
        })
    }
}

/// One evaluation pass: semiring, literal weights, per-vtree-node smoothing
/// products, and the per-node raw-value table.
struct Evaluator<'a, S: Semiring> {
    mgr: &'a FrozenSdd,
    semiring: &'a S,
    wmap: FxHashMap<VarId, (S::Elem, S::Elem)>,
    gap: Vec<S::Elem>,
    raw: FxHashMap<SddId, S::Elem>,
}

impl<S: Semiring> Evaluator<'_, S> {
    /// One bottom-up sweep over the reachable decisions in interning order
    /// (children are always interned before their parents, so ascending
    /// [`SddId`] is a topological order), then the root read-off. Each
    /// decision's raw value is computed exactly once, as with the former
    /// recursive memoization, but the sweep's depth is constant — the
    /// recursion descended to vtree depth, Θ(n) on chains.
    fn run(&mut self, root: SddId) -> S::Elem {
        let mut decisions = self.mgr.reachable_decisions(root);
        decisions.sort_unstable();
        // Copy out the reference so the element slices (borrowed from the
        // arena, never cloned) don't pin `self` while `raw` is written.
        let mgr = self.mgr;
        for a in decisions {
            let SddNode::Decision { vnode, .. } = mgr.node(a) else {
                unreachable!("reachable_decisions returns decisions");
            };
            let vnode = *vnode;
            let (lv, rv) = mgr.vtree().children(vnode).expect("internal vnode");
            let mut total = self.semiring.zero();
            for &(p, s) in mgr.elements_of(a) {
                let pc = self.scoped(p, lv);
                let sc = self.scoped(s, rv);
                total = self.semiring.add(&total, &self.semiring.mul(&pc, &sc));
            }
            self.raw.insert(a, total);
        }
        self.scoped(root, self.mgr.vtree().root())
    }

    /// Value of `a` over the scope of vtree node `scope` (⊇ `a`'s own
    /// scope) — a pure lookup (terminal, literal weight, or the
    /// already-swept raw value) times the smoothing factor.
    fn scoped(&self, a: SddId, scope: VtreeNodeId) -> S::Elem {
        match self.mgr.node(a) {
            SddNode::False => self.semiring.zero(),
            SddNode::True => self.gap[scope.index()].clone(),
            SddNode::Literal { var, positive } => {
                let (wn, wp) = &self.wmap[var];
                let lit = if *positive { wp.clone() } else { wn.clone() };
                let leaf = self.mgr.vtree().leaf_of_var(*var).expect("var in vtree");
                let smooth = self.smoothing(scope, leaf);
                self.semiring.mul(&lit, &smooth)
            }
            SddNode::Decision { vnode, .. } => {
                let raw = &self.raw[&a];
                let smooth = self.smoothing(scope, *vnode);
                self.semiring.mul(raw, &smooth)
            }
        }
    }

    /// `⊗ (w⁻ ⊕ w⁺)` over the variables below `scope` but not below
    /// `target`: the vtree's [`Vtree::gap_subtrees`] walk, multiplying
    /// the gap of every subtree branched away from. Division-free, so it
    /// is valid in any semiring (the old `f64` engine divided smoothing
    /// products back out, which has no rational/BigUint analogue at zero
    /// weights).
    fn smoothing(&self, scope: VtreeNodeId, target: VtreeNodeId) -> S::Elem {
        let mut acc = self.semiring.one();
        self.mgr.vtree().gap_subtrees(scope, target, |t| {
            acc = self.semiring.mul(&acc, &self.gap[t.index()]);
        });
        acc
    }
}

/// What a suspended [`RawFrame`] is waiting for.
enum RawWait<E> {
    /// Just pushed, or between elements.
    Idle,
    /// The current element's prime value.
    Prime,
    /// The current element's sub value; the prime's value rides along.
    Sub(E),
}

/// Outcome of advancing the top [`RawFrame`] in place.
enum EvalStep<E> {
    /// The frame recorded what it waits for and requests the value of
    /// this node under this scope.
    Request(SddId, VtreeNodeId),
    /// The frame finished; pop it and deliver its scoped value.
    Complete(E),
}

/// One suspended raw-value computation of the incremental engine: a
/// decision node whose stamp was stale, part-way through summing its
/// elements' prime ⊗ sub products. The frame stack replaces the former
/// recursion (vtree-depth-deep, Θ(n) on chains) with heap storage.
struct RawFrame<E> {
    a: SddId,
    /// The scope the requester wanted `a` under (for the final smoothing).
    scope: VtreeNodeId,
    vnode: VtreeNodeId,
    lv: VtreeNodeId,
    rv: VtreeNodeId,
    /// The decision's element-arena range (immutable once interned, so the
    /// frame holds indices instead of a cloned element list).
    elems: std::ops::Range<u32>,
    i: u32,
    wait: RawWait<E>,
    total: E,
}

impl<E> RawFrame<E> {
    /// The current element `(prime, sub)` pair.
    fn cur(&self, mgr: &FrozenSdd) -> (SddId, SddId) {
        mgr.elements(self.elems.clone())[self.i as usize]
    }

    fn done(&self) -> bool {
        self.elems.start + self.i >= self.elems.end
    }
}

/// Evaluation-traffic counters. An [`EvalCache`] counts decision nodes, so
/// its numbers show how small the dirty cone was; `kb::KbQueryStats`
/// reuses the type for circuit sweeps, counted in gates × lanes.
#[must_use]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Decision-node value lookups.
    pub lookups: u64,
    /// Lookups answered by a still-valid cached value.
    pub hits: u64,
    /// Decision-node values recomputed (the dirty cone, in nodes).
    pub recomputed: u64,
}

impl EvalCacheStats {
    /// Counter increments since `earlier` (a snapshot of the same cache).
    pub fn delta_since(&self, earlier: EvalCacheStats) -> EvalCacheStats {
        EvalCacheStats {
            lookups: self.lookups.saturating_sub(earlier.lookups),
            hits: self.hits.saturating_sub(earlier.hits),
            recomputed: self.recomputed.saturating_sub(earlier.recomputed),
        }
    }
}

/// An **epoch-tagged incremental evaluator**: the semiring engine of
/// [`FrozenSdd::evaluate`], restructured so repeated evaluations under
/// changing literal weights only redo the work the changes invalidated.
///
/// Every weight update bumps a global epoch and stamps it onto the vtree
/// path from the variable's leaf to the root (`vnode_epoch`). A cached
/// value — a decision node's raw value, or a vtree node's smoothing gap —
/// is valid exactly when its stamp is at least the `vnode_epoch` of the
/// vtree node it is scoped to: weights enter a value only through the
/// variables below that node. Changing one variable therefore dirties one
/// root-to-leaf cone; everything outside it is answered from cache.
///
/// The cache is bound to the store it was created with (values are keyed
/// by that store's node and vtree ids); handing any other store —
/// same-shaped vtree or not — panics ([`FrozenSdd::uid`]). A manager and
/// the store frozen from it share one uid, so a cache outlives a freeze.
pub struct EvalCache<S: Semiring> {
    /// The [`FrozenSdd::uid`] this cache is bound to.
    mgr_uid: u64,
    semiring: S,
    /// Bumped on every weight change.
    epoch: u64,
    /// Literal weights per variable.
    weights: FxHashMap<VarId, (S::Elem, S::Elem)>,
    /// Per vtree node: the last epoch any weight below it changed.
    vnode_epoch: Vec<u64>,
    /// Per vtree node: stamped smoothing product `⊗ (w⁻ ⊕ w⁺)`.
    gap: Vec<Option<(u64, S::Elem)>>,
    /// Per decision node: stamped raw (unsmoothed) value.
    raw: FxHashMap<SddId, (u64, S::Elem)>,
    /// Reverse-preorder vtree traversal, computed once.
    vtree_postorder: Vec<VtreeNodeId>,
    stats: EvalCacheStats,
}

impl<S: Semiring> EvalCache<S> {
    /// A fresh cache over `mgr`'s vtree with initial literal weights
    /// `weight(v, polarity)`. A manager passes its store by `Deref`; a
    /// serving thread creates its private cache directly against a shared
    /// frozen store.
    pub fn new(mgr: &FrozenSdd, semiring: S, weight: impl Fn(VarId, bool) -> S::Elem) -> Self {
        let mut weights = FxHashMap::default();
        for &v in mgr.vtree().vars() {
            weights.insert(v, (weight(v, false), weight(v, true)));
        }
        EvalCache {
            mgr_uid: mgr.uid(),
            semiring,
            epoch: 0,
            weights,
            vnode_epoch: vec![0; mgr.vtree().num_nodes()],
            gap: vec![None; mgr.vtree().num_nodes()],
            raw: FxHashMap::default(),
            vtree_postorder: mgr.vtree().bottom_up_order(),
            stats: EvalCacheStats::default(),
        }
    }

    /// The carrier descriptor.
    pub fn semiring(&self) -> &S {
        &self.semiring
    }

    /// The current epoch: bumped by every [`EvalCache::set_weight`], so it
    /// doubles as a cheap invalidation token for values derived from the
    /// weights (a serving layer memoizes marginals against it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current weight pair `(w⁻, w⁺)` of `v`.
    pub fn weight(&self, v: VarId) -> &(S::Elem, S::Elem) {
        &self.weights[&v]
    }

    /// Lifetime cache-traffic counters (snapshot before a query and
    /// [`EvalCacheStats::delta_since`] after it for per-query numbers).
    pub fn stats(&self) -> EvalCacheStats {
        self.stats
    }

    /// Update `v`'s weight pair, dirtying exactly the vtree cone above its
    /// leaf: the next [`EvalCache::evaluate`] recomputes only values scoped
    /// to an ancestor of `v`.
    pub fn set_weight(&mut self, mgr: &FrozenSdd, v: VarId, neg: S::Elem, pos: S::Elem) {
        self.check_binding(mgr);
        let leaf = mgr.vtree().leaf_of_var(v).expect("weight var in the vtree");
        self.epoch += 1;
        self.weights.insert(v, (neg, pos));
        let mut cur = Some(leaf);
        while let Some(n) = cur {
            self.vnode_epoch[n.index()] = self.epoch;
            cur = mgr.vtree().parent(n);
        }
    }

    /// Evaluate `root` over all vtree variables under the current weights,
    /// reusing every cached value the weight changes since the last call
    /// did not invalidate. The dirty-cone traversal runs on an explicit
    /// frame stack (the former recursion descended to vtree depth — Θ(n)
    /// on chains — which is exactly where serving sessions get deep), so
    /// any diagram evaluates on a default-size stack.
    pub fn evaluate(&mut self, mgr: &FrozenSdd, root: SddId) -> S::Elem {
        self.check_binding(mgr);
        self.refresh_gaps(mgr);
        let mut frames: Vec<RawFrame<S::Elem>> = Vec::new();
        let mut ret = self.scoped(mgr, root, mgr.vtree().root(), &mut frames);
        loop {
            if frames.is_empty() {
                return ret.expect("the worklist terminates with the root value");
            }
            // Frames advance in place — only completions pop, only stale
            // children push (same encoding as the apply engine: re-pushing
            // the whole frame per element taxes the hot path for nothing).
            let step = {
                let f = frames.last_mut().expect("nonempty");
                self.advance(mgr, f, ret.take())
            };
            match step {
                EvalStep::Request(a, scope) => ret = self.scoped(mgr, a, scope, &mut frames),
                EvalStep::Complete(v) => {
                    frames.pop();
                    ret = Some(v);
                }
            }
        }
    }

    /// Advance one suspended raw-value computation in place: consume `ret`
    /// into the slot its `wait` state names, then either request the next
    /// child value or complete (stamping the raw cache and returning the
    /// scoped value its requester asked for).
    fn advance(
        &mut self,
        mgr: &FrozenSdd,
        f: &mut RawFrame<S::Elem>,
        ret: Option<S::Elem>,
    ) -> EvalStep<S::Elem> {
        match std::mem::replace(&mut f.wait, RawWait::Idle) {
            RawWait::Idle => {}
            RawWait::Prime => {
                let pc = ret.expect("prime value");
                f.wait = RawWait::Sub(pc);
                return EvalStep::Request(f.cur(mgr).1, f.rv);
            }
            RawWait::Sub(pc) => {
                let sc = ret.expect("sub value");
                f.total = self.semiring.add(&f.total, &self.semiring.mul(&pc, &sc));
                f.i += 1;
            }
        }
        if !f.done() {
            f.wait = RawWait::Prime;
            EvalStep::Request(f.cur(mgr).0, f.lv)
        } else {
            self.raw.insert(f.a, (self.epoch, f.total.clone()));
            EvalStep::Complete(
                self.semiring
                    .mul(&f.total, &self.smoothing(mgr, f.scope, f.vnode)),
            )
        }
    }

    /// Cached values are keyed by `SddId`s, which are per-store indices:
    /// serving them for another store — even one over an identical vtree
    /// — would silently return another formula's numbers.
    fn check_binding(&self, mgr: &FrozenSdd) {
        assert_eq!(
            self.mgr_uid,
            mgr.uid(),
            "EvalCache is bound to the manager it was created with"
        );
    }

    /// Recompute the smoothing gaps whose subtree saw a weight change
    /// (linear sweep over the vtree — the SDD is the expensive side).
    fn refresh_gaps(&mut self, mgr: &FrozenSdd) {
        for i in 0..self.vtree_postorder.len() {
            let n = self.vtree_postorder[i];
            let need = self.vnode_epoch[n.index()];
            if matches!(&self.gap[n.index()], Some((stamp, _)) if *stamp >= need) {
                continue;
            }
            let g = match mgr.vtree().children(n) {
                None => {
                    let v = mgr.vtree().leaf_var(n).expect("leaf");
                    let (wn, wp) = &self.weights[&v];
                    self.semiring.add(wn, wp)
                }
                Some((l, r)) => {
                    let gl = &self.gap[l.index()].as_ref().expect("postorder").1;
                    let gr = &self.gap[r.index()].as_ref().expect("postorder").1;
                    self.semiring.mul(gl, gr)
                }
            };
            self.gap[n.index()] = Some((self.epoch, g));
        }
    }

    fn gap_of(&self, t: VtreeNodeId) -> &S::Elem {
        &self.gap[t.index()].as_ref().expect("gaps refreshed").1
    }

    /// Value of `a` over the scope of vtree node `scope` (⊇ `a`'s own
    /// scope): answered immediately for terminals, literals, and decisions
    /// whose stamped raw value is still valid; a stale decision pushes a
    /// [`RawFrame`] and returns `None` (the requester resumes once the
    /// frame completes).
    fn scoped(
        &mut self,
        mgr: &FrozenSdd,
        a: SddId,
        scope: VtreeNodeId,
        frames: &mut Vec<RawFrame<S::Elem>>,
    ) -> Option<S::Elem> {
        match mgr.node(a) {
            SddNode::False => Some(self.semiring.zero()),
            SddNode::True => Some(self.gap_of(scope).clone()),
            SddNode::Literal { var, positive } => {
                let (wn, wp) = &self.weights[var];
                let lit = if *positive { wp.clone() } else { wn.clone() };
                let leaf = mgr.vtree().leaf_of_var(*var).expect("var in vtree");
                let smooth = self.smoothing(mgr, scope, leaf);
                Some(self.semiring.mul(&lit, &smooth))
            }
            SddNode::Decision { vnode, elems } => {
                let vnode = *vnode;
                self.stats.lookups += 1;
                if let Some((stamp, v)) = self.raw.get(&a) {
                    if *stamp >= self.vnode_epoch[vnode.index()] {
                        self.stats.hits += 1;
                        let raw = v.clone();
                        let smooth = self.smoothing(mgr, scope, vnode);
                        return Some(self.semiring.mul(&raw, &smooth));
                    }
                }
                self.stats.recomputed += 1;
                let elems = elems.clone(); // an arena range, not element data
                let (lv, rv) = mgr.vtree().children(vnode).expect("internal vnode");
                frames.push(RawFrame {
                    a,
                    scope,
                    vnode,
                    lv,
                    rv,
                    elems,
                    i: 0,
                    wait: RawWait::Idle,
                    total: self.semiring.zero(),
                });
                None
            }
        }
    }

    /// `⊗ (w⁻ ⊕ w⁺)` over the variables below `scope` but not below
    /// `target` — the division-free smoothing walk of the one-shot engine,
    /// reading the stamped gap table.
    fn smoothing(&self, mgr: &FrozenSdd, scope: VtreeNodeId, target: VtreeNodeId) -> S::Elem {
        let mut acc = self.semiring.one();
        mgr.vtree().gap_subtrees(scope, target, |t| {
            acc = self.semiring.mul(&acc, self.gap_of(t));
        });
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SddManager, FALSE, TRUE};
    use boolfunc::{BoolFn, VarSet};
    use vtree::Vtree;

    fn vars(n: u32) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    #[test]
    fn exact_checked_and_saturating_counts_agree_small() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let f = BoolFn::random(VarSet::from_slice(&vars(7)), &mut rng);
        let mut m = SddManager::new(Vtree::balanced(&vars(7)).unwrap());
        let r = m.from_boolfn(&f);
        let expect = f.count_models() as u128;
        assert_eq!(m.count_models(r), expect);
        assert_eq!(m.count_models_checked(r), Some(expect));
        assert_eq!(m.count_models_exact(r), BigUint::from_u128(expect));
    }

    #[test]
    fn beyond_u128_is_exact_not_wrapped() {
        // ⊤ over 200 variables: 2^200 models, far past u128.
        let vt = Vtree::balanced(&vars(200)).unwrap();
        let m = SddManager::new(vt);
        assert_eq!(m.count_models_exact(TRUE), BigUint::pow2(200));
        assert_eq!(m.count_models_checked(TRUE), None);
        // A single literal still pins one variable: 2^199.
        let mut m = SddManager::new(Vtree::balanced(&vars(200)).unwrap());
        let x = m.literal(VarId(7), true);
        assert_eq!(m.count_models_exact(x), BigUint::pow2(199));
        assert_eq!(m.count_models_exact(FALSE), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "exceeds u128")]
    fn overflowing_u128_count_panics_in_every_profile() {
        // Release builds used to return u128::MAX silently (the assertion
        // was debug-only); saturated counts must never escape.
        let m = SddManager::new(Vtree::balanced(&vars(130)).unwrap());
        let _ = m.count_models(TRUE);
    }

    #[test]
    fn rational_and_f64_weighted_counts_agree() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let f = BoolFn::random(VarSet::from_slice(&vars(6)), &mut rng);
        let mut m = SddManager::new(Vtree::balanced(&vars(6)).unwrap());
        let r = m.from_boolfn(&f);
        let probs = [0.5, 0.25, 0.125, 0.75, 0.375, 0.0625]; // dyadic: exact in f64
        let approx = m.probability(r, |v| probs[v.index()]);
        let exact = m.probability_exact(r, |v| Rational::from_f64(probs[v.index()]));
        assert!(
            (exact.to_f64() - approx).abs() < 1e-12,
            "exact {exact} vs f64 {approx}"
        );
        let kernel = f.probability(|v| probs[v.index()]);
        assert!((approx - kernel).abs() < 1e-12);
    }

    #[test]
    fn zero_weights_are_handled_without_division() {
        // The old engine divided by smoothing products and special-cased 0;
        // the semiring engine must get w⁻ = w⁺ = 0 right structurally.
        let mut m = SddManager::new(Vtree::balanced(&vars(3)).unwrap());
        let x0 = m.literal(VarId(0), true);
        let x2 = m.literal(VarId(2), true);
        let g = m.or(x0, x2);
        // Var 1 dead (weight 0 both ways): whole count collapses to 0.
        let wc = m.weighted_count(g, |v| {
            if v.index() == 1 {
                (0.0, 0.0)
            } else {
                (1.0, 1.0)
            }
        });
        assert_eq!(wc, 0.0);
        // Var 1 pinned to true only: count halves instead.
        let wc = m.weighted_count(g, |v| {
            if v.index() == 1 {
                (0.0, 1.0)
            } else {
                (1.0, 1.0)
            }
        });
        assert_eq!(wc, 3.0);
    }

    #[test]
    fn eval_cache_matches_one_shot_engine_under_weight_churn() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let f = BoolFn::random(VarSet::from_slice(&vars(8)), &mut rng);
        let mut m = SddManager::new(Vtree::balanced(&vars(8)).unwrap());
        let r = m.from_boolfn(&f);
        let mut probs = [0.5f64; 8];
        let mut cache = EvalCache::new(&m, F64, |v, pos| {
            if pos {
                probs[v.index()]
            } else {
                1.0 - probs[v.index()]
            }
        });
        for step in 0..20 {
            let fresh = m.probability(r, |v| probs[v.index()]);
            let cached = cache.evaluate(&m, r);
            assert!(
                (fresh - cached).abs() < 1e-12,
                "step {step}: {fresh} vs {cached}"
            );
            // Mutate one weight and go around again.
            let v = VarId(step % 8);
            probs[v.index()] = (step as f64 * 0.37 + 0.13) % 1.0;
            cache.set_weight(&m, v, 1.0 - probs[v.index()], probs[v.index()]);
        }
    }

    #[test]
    fn eval_cache_recomputes_only_the_dirty_cone() {
        // A conjunction of independent literals over a balanced vtree: the
        // SDD has decision nodes spread across the tree, and flipping one
        // variable's weight must not touch the opposite half.
        let n = 16u32;
        let mut m = SddManager::new(Vtree::balanced(&vars(n)).unwrap());
        let mut g = TRUE;
        for i in 0..n {
            let x = m.literal(VarId(i), true);
            let o = if i % 2 == 0 { x } else { m.negate(x) };
            g = m.and(g, o);
        }
        let mut cache = EvalCache::new(&m, F64, |_, _| 0.5);
        let _ = cache.evaluate(&m, g);
        let cold = cache.stats();
        assert!(cold.recomputed > 0 && cold.hits <= cold.lookups);

        // Second evaluation with nothing changed: all hits, zero recompute.
        let _ = cache.evaluate(&m, g);
        let warm = cache.stats().delta_since(cold);
        assert_eq!(warm.recomputed, 0, "clean cache must not recompute");
        // One weight change: strictly fewer recomputations than cold.
        cache.set_weight(&m, VarId(3), 0.25, 0.75);
        let before = cache.stats();
        let _ = cache.evaluate(&m, g);
        let dirty = cache.stats().delta_since(before);
        assert!(dirty.recomputed > 0, "the cone above x3 is dirty");
        assert!(
            dirty.recomputed < cold.recomputed,
            "dirty cone ({}) must be smaller than the full diagram ({})",
            dirty.recomputed,
            cold.recomputed
        );
    }

    #[test]
    fn eval_cache_carries_any_semiring() {
        use arith::MaxPlus;
        // Chain-ish function; max-plus over log-weights = log of the best
        // model's weight. F = x0 ∨ x2 over 3 vars, w⁺ = 0.8, w⁻ = 0.2:
        // best model sets everything true: 0.8³.
        let mut m = SddManager::new(Vtree::balanced(&vars(3)).unwrap());
        let x0 = m.literal(VarId(0), true);
        let x2 = m.literal(VarId(2), true);
        let g = m.or(x0, x2);
        let mut cache =
            EvalCache::new(
                &m,
                MaxPlus,
                |_, pos| {
                    if pos {
                        (0.8f64).ln()
                    } else {
                        (0.2f64).ln()
                    }
                },
            );
        let best = cache.evaluate(&m, g);
        assert!((best - (0.8f64).ln() * 3.0).abs() < 1e-12);
        // Pin x0 false (weight → log 0): best model is now ¬x0 ∧ x2 ∧ x1.
        cache.set_weight(&m, VarId(0), (1.0f64).ln(), f64::NEG_INFINITY);
        let best = cache.evaluate(&m, g);
        assert!((best - (0.8f64).ln() * 2.0).abs() < 1e-12, "{best}");
    }

    #[test]
    #[should_panic(expected = "bound to the manager")]
    fn eval_cache_rejects_a_different_manager_with_the_same_vtree_shape() {
        // SddIds are per-manager indices: a cache built on one manager
        // must refuse another even when the vtrees are identical.
        let mut a = SddManager::new(Vtree::balanced(&vars(4)).unwrap());
        let mut b = SddManager::new(Vtree::balanced(&vars(4)).unwrap());
        let ra = {
            let x = a.literal(VarId(0), true);
            let y = a.literal(VarId(1), true);
            a.and(x, y)
        };
        let rb = {
            let x = b.literal(VarId(2), true);
            let y = b.literal(VarId(3), false);
            b.or(x, y)
        };
        let mut cache = EvalCache::new(&a, F64, |_, _| 0.5);
        let _ = cache.evaluate(&a, ra);
        let _ = cache.evaluate(&b, rb); // must panic, not mis-serve
    }

    #[test]
    fn counting_semiring_matches_generic_evaluate() {
        let mut m = SddManager::new(Vtree::right_linear(&vars(5)).unwrap());
        let x0 = m.literal(VarId(0), true);
        let x3 = m.literal(VarId(3), false);
        let g = m.and(x0, x3);
        let via_engine = m.evaluate(g, &Nat, |_, _| BigUint::one());
        assert_eq!(via_engine, BigUint::from_u64(8)); // 2 pinned, 3 free
        assert_eq!(m.count_models(g), 8);
    }
}
