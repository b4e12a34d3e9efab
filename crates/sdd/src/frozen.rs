//! The immutable freeze-and-serve slab.
//!
//! A compiled SDD is worth amortizing across many queries (and many
//! threads), but [`SddManager`] is mutable — its caches and arena move
//! under apply traffic, so a manager can serve exactly one thread.
//! [`SddManager::freeze`] ends the mutable phase for good: the node table,
//! element arena and negation array become plain owned slabs in a
//! [`FrozenSdd`], which is `Send + Sync` and shared via `Arc`. Freezing is
//! **zero-copy** (the vectors move into boxed slices; node ids, arena
//! offsets and the manager [`uid`](FrozenSdd::uid) are all unchanged, so
//! `SddId`s, and anything keyed by them, stay valid). The interning tables
//! (unique table, literal cache) and the apply memos are dropped: a slab
//! is only ever read, never extended.

use crate::{SddId, SddManager, SddNode, SddRead};
use std::ops::Range;
use std::sync::Arc;
use vtree::Vtree;

/// An immutable SDD slab: every node and element of a finished manager.
/// `Send + Sync`; share it with `Arc` and read it from any number of
/// threads through [`SddRead`] (one-shot evaluation, model checks, the
/// snapshot writer).
pub struct FrozenSdd {
    pub(crate) vtree: Arc<Vtree>,
    pub(crate) nodes: Box<[SddNode]>,
    pub(crate) arena: Box<[(SddId, SddId)]>,
    /// Negation array (node-indexed, `EMPTY_SLOT` = unknown) — carried
    /// because the snapshot format persists it.
    pub(crate) neg: Box<[u32]>,
    pub(crate) uid: u64,
}

/// Compile-time `Send + Sync` evidence (hand-rolled static assertion —
/// this function only type-checks if the slab is shareable).
#[allow(dead_code)]
fn frozen_sdd_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrozenSdd>();
    assert_send_sync::<Arc<FrozenSdd>>();
}

impl SddManager {
    /// End the mutable phase: turn this manager into an immutable
    /// [`FrozenSdd`] slab. Zero-copy — the vectors move into boxed slices,
    /// and node ids, arena offsets and [`SddManager::uid`] are unchanged
    /// (anything keyed by this manager's node ids keeps working against
    /// the slab).
    pub fn freeze(self) -> FrozenSdd {
        FrozenSdd {
            vtree: self.vtree,
            nodes: self.nodes.into_boxed_slice(),
            arena: self.arena.into_boxed_slice(),
            neg: self.neg_cache.into_boxed_slice(),
            uid: self.uid,
        }
    }
}

impl FrozenSdd {
    /// The slab's vtree.
    pub fn vtree(&self) -> &Vtree {
        &self.vtree
    }

    /// The uid of the manager this slab was frozen from (see
    /// [`SddRead::uid`]).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Node payload.
    pub fn node(&self, id: SddId) -> &SddNode {
        &self.nodes[id.index()]
    }

    /// Resolve a decision's arena range to its element slice.
    pub fn elements(&self, r: Range<u32>) -> &[(SddId, SddId)] {
        &self.arena[r.start as usize..r.end as usize]
    }

    /// The element slice of a decision node.
    pub fn elements_of(&self, a: SddId) -> &[(SddId, SddId)] {
        SddRead::elements_of(self, a)
    }

    /// Total nodes in the slab (terminals included).
    pub fn num_allocated(&self) -> usize {
        self.nodes.len()
    }

    /// Total elements in the slab's arena.
    pub fn num_elements(&self) -> usize {
        self.arena.len()
    }

    /// Decision nodes reachable from `root`.
    pub fn reachable_decisions(&self, root: SddId) -> Vec<SddId> {
        SddRead::reachable_decisions(self, root)
    }

    /// SDD size (total elements over reachable decisions).
    pub fn size(&self, root: SddId) -> usize {
        SddRead::size(self, root)
    }

    /// Evaluate under an assignment covering the vtree variables.
    pub fn eval(&self, a: SddId, asg: &boolfunc::Assignment) -> bool {
        SddRead::eval(self, a, asg)
    }

    /// Resident bytes of the slab: node table, element arena, negation
    /// array — the same accounting as [`SddManager::memory_bytes`] minus
    /// the mutable-phase interning tables and caches, so a freeze reports
    /// *less* than the manager it came from.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * size_of::<SddNode>()
            + self.arena.len() * size_of::<(SddId, SddId)>()
            + self.neg.len() * size_of::<u32>()
    }
}

impl SddRead for FrozenSdd {
    fn vtree(&self) -> &Vtree {
        &self.vtree
    }

    fn uid(&self) -> u64 {
        self.uid
    }

    fn node(&self, id: SddId) -> &SddNode {
        &self.nodes[id.index()]
    }

    fn elements(&self, r: Range<u32>) -> &[(SddId, SddId)] {
        &self.arena[r.start as usize..r.end as usize]
    }

    fn num_allocated(&self) -> usize {
        self.nodes.len()
    }

    fn num_elements(&self) -> usize {
        self.arena.len()
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
