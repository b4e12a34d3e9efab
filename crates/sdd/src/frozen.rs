//! The SDD store: the compiled object, and the one home of every
//! read-only SDD query.
//!
//! A [`FrozenSdd`] is the vtree, the node table and the element arena (the
//! sentential decisions of paper §2.1 and their elements), plus a uid
//! naming its id space. An [`SddManager`] grows one while it compiles and
//! reads it through `Deref`; [`SddManager::freeze`] ends the mutable phase
//! for good by dropping the compile-time tables (unique table, literal
//! cache, apply/lca memos, negation memo, pools) and returning the store
//! with its vectors shrunk to fit. Node ids, arena offsets and the
//! [`uid`](FrozenSdd::uid) are unchanged, so `SddId`s, and anything keyed
//! by them, stay valid. The store is `Send + Sync` and shared via `Arc`; a
//! frozen store is only ever read, never extended.

use crate::{SddId, SddManager, SddNode};
use boolfunc::{Assignment, BoolFn, VarSet};
use std::ops::Range;
use std::sync::Arc;
use vtree::fxhash::{FxHashMap, FxHashSet};
use vtree::{Vtree, VtreeNodeId};

/// The SDD store: every node and element a manager interned, over one
/// vtree. `Send + Sync`; share a frozen one with `Arc` and read it from any
/// number of threads (one-shot evaluation, model checks, the snapshot
/// writer).
pub struct FrozenSdd {
    pub(crate) vtree: Arc<Vtree>,
    /// The node table, indexed by [`SddId`].
    pub(crate) nodes: Vec<SddNode>,
    /// The element arena: every decision's `(prime, sub)` pairs,
    /// contiguous, append-only. Ranges handed to [`SddNode::Decision`] are
    /// immutable once interned.
    pub(crate) arena: Vec<(SddId, SddId)>,
    /// Process-unique identity (see [`FrozenSdd::uid`]).
    pub(crate) uid: u64,
}

/// Compile-time `Send + Sync` evidence (hand-rolled static assertion —
/// this function only type-checks if the store is shareable).
#[allow(dead_code)]
fn frozen_sdd_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrozenSdd>();
    assert_send_sync::<Arc<FrozenSdd>>();
}

impl SddManager {
    /// End the mutable phase: drop the interning tables and memos and
    /// return the store, its vectors shrunk to fit. Node ids, arena
    /// offsets and the uid are unchanged (anything keyed by this manager's
    /// node ids keeps working against the frozen store).
    pub fn freeze(self) -> FrozenSdd {
        let mut store = self.store;
        store.nodes.shrink_to_fit();
        store.arena.shrink_to_fit();
        store
    }
}

impl FrozenSdd {
    /// The store's vtree.
    pub fn vtree(&self) -> &Vtree {
        &self.vtree
    }

    /// Process-unique identity of this id space, stable across moves: node
    /// ids are per-store indices, so caches keyed by them (e.g.
    /// [`EvalCache`](crate::eval::EvalCache)) store the uid and refuse any
    /// other store. A frozen store keeps the uid of the manager it was
    /// frozen from; a store loaded from a snapshot draws a fresh one.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Node payload.
    #[inline]
    pub fn node(&self, id: SddId) -> &SddNode {
        &self.nodes[id.index()]
    }

    /// Resolve a decision's arena range (as stored in
    /// [`SddNode::Decision`]) to its element slice.
    #[inline]
    pub fn elements(&self, r: Range<u32>) -> &[(SddId, SddId)] {
        &self.arena[r.start as usize..r.end as usize]
    }

    /// The element slice of a decision node (borrowed from the arena — no
    /// cloning; panics on terminals and literals).
    pub fn elements_of(&self, a: SddId) -> &[(SddId, SddId)] {
        match self.node(a) {
            SddNode::Decision { elems, .. } => self.elements(elems.clone()),
            _ => panic!("elements_of on non-decision"),
        }
    }

    /// One arena element.
    #[inline]
    pub(crate) fn element(&self, i: u32) -> (SddId, SddId) {
        self.arena[i as usize]
    }

    /// Total nodes (terminals included).
    pub fn num_allocated(&self) -> usize {
        self.nodes.len()
    }

    /// Total elements in the arena — every decision's elements exactly
    /// once, live or not.
    pub fn num_elements(&self) -> usize {
        self.arena.len()
    }

    /// The vtree node a node respects: leaf for literals, its `vnode` for
    /// decisions, `None` for ⊥/⊤ (which respect every node).
    pub fn respects(&self, id: SddId) -> Option<VtreeNodeId> {
        match self.node(id) {
            SddNode::False | SddNode::True => None,
            SddNode::Literal { var, .. } => {
                Some(self.vtree.leaf_of_var(*var).expect("literal var in vtree"))
            }
            SddNode::Decision { vnode, .. } => Some(*vnode),
        }
    }

    /// Decision nodes reachable from `root`.
    pub fn reachable_decisions(&self, root: SddId) -> Vec<SddId> {
        let mut seen: FxHashSet<SddId> = FxHashSet::default();
        let mut stack = vec![root];
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let SddNode::Decision { elems, .. } = self.node(n) {
                out.push(n);
                for &(p, s) in self.elements(elems.clone()) {
                    stack.push(p);
                    stack.push(s);
                }
            }
        }
        out
    }

    /// SDD size: total number of elements (∧-gates) over reachable
    /// decisions.
    pub fn size(&self, root: SddId) -> usize {
        self.reachable_decisions(root)
            .iter()
            .map(|n| match self.node(*n) {
                SddNode::Decision { elems, .. } => elems.len(),
                _ => 0,
            })
            .sum()
    }

    /// ∧-gates per vtree node: the counts behind the paper's Definition 5.
    pub fn vnode_profile(&self, root: SddId) -> FxHashMap<VtreeNodeId, usize> {
        let mut profile: FxHashMap<VtreeNodeId, usize> = FxHashMap::default();
        for n in self.reachable_decisions(root) {
            if let SddNode::Decision { vnode, elems } = self.node(n) {
                *profile.entry(*vnode).or_insert(0) += elems.len();
            }
        }
        profile
    }

    /// The paper's **SDD width** (Definition 5): the maximum number of
    /// ∧-gates structured by a single vtree node.
    pub fn width(&self, root: SddId) -> usize {
        self.vnode_profile(root)
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Evaluate under an assignment covering the vtree variables: one
    /// bottom-up sweep over the reachable decisions in interning order
    /// (children are always interned before their parents, so ascending
    /// [`SddId`] is a topological order) — linear in the DAG size,
    /// constant stack depth.
    pub fn eval(&self, a: SddId, asg: &Assignment) -> bool {
        let mut decisions = self.reachable_decisions(a);
        decisions.sort_unstable();
        let mut val: FxHashMap<SddId, bool> = FxHashMap::default();
        let value_of = |n: SddId, val: &FxHashMap<SddId, bool>| match self.node(n) {
            SddNode::False => false,
            SddNode::True => true,
            SddNode::Literal { var, positive } => {
                asg.get(*var).expect("assignment covers vtree vars") == *positive
            }
            SddNode::Decision { .. } => val[&n],
        };
        for d in decisions {
            let b = self
                .elements_of(d)
                .iter()
                .any(|&(p, s)| value_of(p, &val) && value_of(s, &val));
            val.insert(d, b);
        }
        value_of(a, &val)
    }

    /// Read back the function over the full vtree variable set.
    pub fn to_boolfn(&self, a: SddId) -> BoolFn {
        let vars = VarSet::from_slice(self.vtree.vars());
        BoolFn::from_fn(vars.clone(), |idx| {
            self.eval(a, &Assignment::from_index(&vars, idx))
        })
    }

    /// Resident bytes of the store's node table and element arena
    /// allocations. A manager's [`SddManager::memory_bytes`] adds its
    /// compile-time tables to this, so a freeze reports *less* than the
    /// manager it came from.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<SddNode>()
            + self.arena.capacity() * size_of::<(SddId, SddId)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FALSE, TRUE};
    use boolfunc::{BoolFn, VarSet};
    use vtree::VarId;

    fn vars(n: u32) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    fn compiled(n: u32, seed: u64) -> (SddManager, SddId, BoolFn) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = BoolFn::random(VarSet::from_slice(&vars(n)), &mut rng);
        let mut m = SddManager::new(Vtree::balanced(&vars(n)).unwrap());
        let r = m.from_boolfn(&f);
        (m, r, f)
    }

    #[test]
    fn freeze_preserves_ids_structure_and_uid() {
        let (m, r, f) = compiled(7, 20);
        let uid = m.uid();
        let (nodes, elems, size) = (m.num_allocated(), m.num_elements(), m.size(r));
        let frozen = m.freeze();
        assert_eq!(frozen.uid(), uid, "freeze keeps the manager uid");
        assert_eq!(frozen.num_allocated(), nodes);
        assert_eq!(frozen.num_elements(), elems);
        assert_eq!(frozen.size(r), size);
        // Semantics unchanged node-for-node.
        let vs = VarSet::from_slice(&vars(7));
        for idx in 0..(1u64 << 7) {
            let asg = boolfunc::Assignment::from_index(&vs, idx);
            assert_eq!(frozen.eval(r, &asg), f.eval(&asg));
        }
        assert!(frozen.memory_bytes() > 0);
    }

    #[test]
    fn terminals_survive_the_freeze() {
        let m = SddManager::new(Vtree::balanced(&vars(3)).unwrap());
        let frozen = m.freeze();
        assert!(matches!(frozen.node(FALSE), SddNode::False));
        assert!(matches!(frozen.node(TRUE), SddNode::True));
    }
}
