//! Sentential decision diagrams (Darwiche, IJCAI 2011).
//!
//! An SDD respecting a vtree `T` is a deterministic structured NNF built from
//! **sentential decisions** `⋁ᵢ (Pᵢ ∧ Sᵢ)` (paper §2.1, Eq. 5): at an
//! internal vtree node `v`, the primes `Pᵢ` are SDDs over the left subtree
//! forming an exhaustive, pairwise-disjoint case distinction, and the subs
//! `Sᵢ` are SDDs over the right subtree. With **compression** (no two equal
//! subs) and **trimming**, SDDs are canonical: equivalent functions get the
//! *same node*, which this manager maintains through a unique table.
//!
//! The compiled object is one [`FrozenSdd`] store: the vtree, the node
//! table and the element arena. Every read-only query lives there once —
//! node access, reachability, [`FrozenSdd::size`], the paper's **SDD
//! width** ([`FrozenSdd::width`], Definition 5: max ∧-gates structured by
//! a single vtree node), assignment checks, validation, and one-shot
//! semiring evaluation ([`FrozenSdd::evaluate`], module [`eval`]),
//! instantiated at `BigUint` (exact #SAT,
//! [`FrozenSdd::count_models_exact`]), `Rational` (exact WMC,
//! [`FrozenSdd::weighted_count_exact`]) and `f64`
//! ([`FrozenSdd::weighted_count`], [`FrozenSdd::probability`]). Evaluation
//! has one engine: a root is unfolded into its smoothed arithmetic circuit
//! ([`ac::Ac`], module [`ac`]) and swept bottom-up; serving sessions sweep
//! the same circuit.
//!
//! An [`SddManager`] owns the store it grows plus the compile-time
//! machinery, and reaches every read through `Deref<Target = FrozenSdd>`.
//! It implements:
//! * apply-style operations ([`SddManager::and`],
//!   [`SddManager::or`], [`SddManager::negate`]) with memoization, via
//!   lca-normalization and element cross products;
//! * compilation from circuits and truth tables;
//! * conditioning (cofactors), used by the Theorem 5 experiments.
//!
//! **Kernel storage.** Every decision node's `(prime, sub)` pairs live in a
//! single contiguous **element arena** in the store;
//! [`SddNode::Decision`] holds only its vtree node and a `Range<u32>` into
//! that arena, and [`FrozenSdd::elements_of`] returns a borrowed slice —
//! element data is stored exactly once and never cloned on the apply path.
//! The arena is **append-only and ranges are immutable once interned**: a
//! node's range never moves or changes, so engines may hold ranges across
//! arena appends (only the backing allocation may relocate; all access is
//! by index). The unique table is a hand-rolled open-addressed table whose
//! slots store `(precomputed hash, node id)`; probes compare candidate
//! elements against arena slices in place, so interning allocates nothing
//! beyond the arena append itself. The apply cache packs its `(op, a, b)`
//! key into one `u64` (2 op bits + 2×31-bit node ids — the manager asserts
//! the 2³¹-node cap at allocation) stored in an open-addressed integer
//! table, the negation cache is a plain node-indexed array, the vtree
//! lca/side resolution is memoized per vnode pair, and the worklist engine
//! recycles its element buffers and frame stack through per-manager pools,
//! so steady-state `and`/`or`/`negate`/`condition` do no per-step heap
//! allocation. [`SddManager::memory_bytes`] estimates the resident size of
//! all of it; [`ApplyStats`] counts unique-table probe/insert traffic
//! alongside apply/cache-hit traffic.
//!
//! **Depth contract:** no engine in this crate recurses on *input-sized*
//! structure. Apply, negation, conditioning and decision construction run
//! a **bounded-recursion hybrid**: a recursive fast path with a constant
//! fuel budget (`REC_FUEL` levels — a fixed ~20 KiB of machine stack)
//! handles the overwhelmingly common shallow operations at direct-call
//! speed, and anything deeper spills to the explicit worklist (`Engine`,
//! heap-allocated frames), which finishes with constant stack depth. Both
//! paths consult and fill the same memo tables in the same order, so they
//! construct identical nodes. The circuit unfold walks reachable decisions
//! in interning order, and its sweeps are indexed passes over the gates.
//! Vtree-deep diagrams — Θ(n) deep on the chain families — therefore work
//! on a default-size thread stack at any variable count.
//!
//! **Freeze-and-serve.** [`SddManager::freeze`] drops the compile-time
//! tables and returns the store, its vectors shrunk to fit: node ids,
//! arena offsets and the uid are unchanged. The store is `Send + Sync`
//! and shared across threads via `Arc` (module [`frozen`]). Freezing ends
//! the structural phase for good: a frozen store is never reopened for
//! apply, and serving sessions (`kb::KbSession`) answer from the
//! arithmetic circuit unfolded from it, not from the store.

pub mod ac;
pub mod eval;
pub mod frozen;
pub mod snapshot;
pub mod validate;

pub use frozen::FrozenSdd;
pub use validate::SddError;

use boolfunc::BoolFn;
use std::ops::{Deref, Range};
use std::sync::Arc;
use vtree::fxhash::FxHashMap;
use vtree::{Side, VarId, Vtree, VtreeNodeId};

/// Index of an SDD node. `FALSE = 0`, `TRUE = 1`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SddId(pub u32);

/// The ⊥ terminal.
pub const FALSE: SddId = SddId(0);
/// The ⊤ terminal.
pub const TRUE: SddId = SddId(1);

impl SddId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }

    /// Is this ⊥ or ⊤?
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }
}

/// Node payload.
///
/// Decisions do not own their elements: they hold a range into the
/// store's element arena (see the module doc's *Kernel storage*), which
/// is immutable once the node is interned. Resolve it with
/// [`FrozenSdd::elements_of`] / [`FrozenSdd::elements`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SddNode {
    /// ⊥.
    False,
    /// ⊤.
    True,
    /// A literal, attached at the vtree leaf of its variable.
    Literal { var: VarId, positive: bool },
    /// A sentential decision `⋁ (prime ∧ sub)`, normalized for `vnode`.
    Decision {
        /// The internal vtree node this decision respects.
        vnode: VtreeNodeId,
        /// Arena range of the `(prime, sub)` pairs: primes partition the
        /// left-subtree space, subs are pairwise distinct (compression),
        /// sorted by prime id. Immutable once interned.
        elems: Range<u32>,
    },
}

#[derive(Copy, Clone, PartialEq, Eq, Hash)]
enum Op {
    And = 0,
    Or = 1,
}

impl Op {
    /// The constant that decides `op` on its own: ⊥ under ∧, ⊤ under ∨.
    #[inline]
    fn absorbing(self) -> SddId {
        match self {
            Op::And => FALSE,
            Op::Or => TRUE,
        }
    }
}

/// The packed apply-cache key: 2 op bits + 2×31-bit node ids. Node ids are
/// capped at 2³¹ by the manager ([`SddManager::push_node`] asserts), so the
/// packing is injective.
#[inline]
fn pack_apply_key(op: Op, a: SddId, b: SddId) -> u64 {
    ((op as u64) << 62) | ((a.0 as u64) << 31) | b.0 as u64
}

/// The canonical apply-cache key: operands ordered (apply is commutative),
/// then packed. Every cache consult and insert goes through this one
/// ordering so the paths cannot drift.
#[inline]
fn apply_key(op: Op, a: SddId, b: SddId) -> u64 {
    if a <= b {
        pack_apply_key(op, a, b)
    } else {
        pack_apply_key(op, b, a)
    }
}

/// One FxHash fold step (the vtree crate's `FxHasher`, inlined here so the
/// unique-table hash needs no `Hasher` indirection on the hot path).
#[inline]
fn fx_fold(h: u64, word: u64) -> u64 {
    const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    (h.rotate_left(5) ^ word).wrapping_mul(SEED64)
}

/// The unique-table hash of a decision: vnode plus every element pair.
fn decision_hash(vnode: VtreeNodeId, elems: &[(SddId, SddId)]) -> u64 {
    let mut h = fx_fold(0, vnode.0 as u64);
    for &(p, s) in elems {
        h = fx_fold(h, ((p.0 as u64) << 32) | s.0 as u64);
    }
    h
}

/// Counters over a manager's lifetime, reported by [`SddManager::apply_stats`].
/// Compilation sessions (see `sentential_core::Compiler`) surface these in
/// their reports to show how much work the apply route did;
/// [`ApplyStats::delta_since`] isolates one stage's share of a manager's
/// lifetime counters.
#[must_use]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Binary apply (`and`/`or`) invocations, including recursive ones.
    /// Combinations the cross product settles structurally are not
    /// invocations and are not counted: a ⊤ prime, and every element pair
    /// whose sub is the operation's absorbing constant (⊥ under ∧, ⊤
    /// under ∨), which costs at most one trailing `or` per product.
    pub apply_calls: u64,
    /// Apply invocations answered from the memo table.
    pub cache_hits: u64,
    /// Unique-table slot inspections during decision interning. Every
    /// lookup probes at least once; the excess over lookups measures
    /// open-addressing clustering.
    pub unique_probes: u64,
    /// Fresh decision nodes interned (unique-table misses that allocated).
    pub unique_inserts: u64,
}

impl ApplyStats {
    /// Zero the counters (see also [`SddManager::reset_apply_stats`]).
    pub fn reset(&mut self) {
        *self = ApplyStats::default();
    }

    /// Counter increments since `earlier` (a snapshot of the same manager's
    /// stats) — the per-query delta serving layers report.
    pub fn delta_since(&self, earlier: ApplyStats) -> ApplyStats {
        ApplyStats {
            apply_calls: self.apply_calls.saturating_sub(earlier.apply_calls),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            unique_probes: self.unique_probes.saturating_sub(earlier.unique_probes),
            unique_inserts: self.unique_inserts.saturating_sub(earlier.unique_inserts),
        }
    }

    /// Publish these counters (typically a [`delta_since`](Self::delta_since)
    /// delta) into the kernel's telemetry families: `sdd_apply_calls_total`,
    /// `sdd_apply_cache_hits_total`, `sdd_unique_probes_total`,
    /// `sdd_unique_inserts_total`.
    pub fn publish(&self, reg: &obs::MetricsRegistry) {
        reg.counter("sdd_apply_calls_total", &[])
            .add(self.apply_calls);
        reg.counter("sdd_apply_cache_hits_total", &[])
            .add(self.cache_hits);
        reg.counter("sdd_unique_probes_total", &[])
            .add(self.unique_probes);
        reg.counter("sdd_unique_inserts_total", &[])
            .add(self.unique_inserts);
    }
}

/// The hand-rolled open-addressed unique table (offline constraint: no
/// registry hash-table crates). Slots hold `(precomputed hash, node id)`;
/// empty slots carry [`EMPTY_SLOT`]. Lookups compare candidates against the
/// interned nodes' arena slices in place — the table owns **no** keys, so a
/// decision's elements exist exactly once, in the arena. The table lives
/// only as long as the mutable manager: [`SddManager::freeze`] drops it,
/// because a frozen slab never interns again.
struct UniqueTable {
    /// Power-of-two slot array.
    slots: Box<[(u64, u32)]>,
    /// Occupied slots.
    len: usize,
}

/// Sentinel for an empty cache/table slot (node ids are capped at 2³¹).
const EMPTY_SLOT: u32 = u32::MAX;

impl UniqueTable {
    fn new() -> Self {
        UniqueTable {
            slots: vec![(0, EMPTY_SLOT); 16].into_boxed_slice(),
            len: 0,
        }
    }

    /// Home slot of a decision hash in a table of `mask + 1` slots — the
    /// one slot function of every probe and growth. The
    /// hash ends in an FxHash multiply, and the low bits of a product see
    /// only the low bits of its factors: the last element's sub id, not its
    /// prime id in the word's high half. So `hash & mask` piles decisions
    /// that differ in their primes into one cluster; folding the hash's
    /// high half in spreads them.
    #[inline]
    fn slot(hash: u64, mask: usize) -> usize {
        ((hash ^ (hash >> 32)) as usize) & mask
    }

    /// Put an entry known to be absent into the first free slot from its
    /// home (table growth; the table never fills).
    fn place(slots: &mut [(u64, u32)], hash: u64, id: u32) {
        let mask = slots.len() - 1;
        let mut i = Self::slot(hash, mask);
        while slots[i].1 != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        slots[i] = (hash, id);
    }
}

/// Fibonacci multiplier for integer-key slot indexing (the golden-ratio
/// constant spreads consecutive keys across the table).
const FIB_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// A hand-rolled open-addressed `u64 → u32` map for the apply cache and
/// the lca memo: linear probing over a power-of-two slot array, exact
/// (grows, never evicts — memoization semantics are unchanged), with the
/// value's [`EMPTY_SLOT`] as the vacancy sentinel (node ids are capped at
/// 2³¹ and packed lca answers at 2³⁰, so stored values never collide with
/// it). Compared to the standard hash map this drops the hasher state
/// machine and control-byte probing — the apply hot loop does one multiply
/// and (usually) one slot read per lookup.
struct IntCache {
    /// Power-of-two key array. Vacancy lives in `vals`, so `keys[i]` is
    /// meaningful only where `vals[i] != EMPTY_SLOT`; keys and values are
    /// split so probes touch only the 8-byte key lane (the tables outgrow
    /// L2 on band-family compiles — probe bandwidth is the cost).
    keys: Box<[u64]>,
    /// Values; [`EMPTY_SLOT`] marks a vacant slot.
    vals: Box<[u32]>,
    /// Occupied slots.
    len: usize,
    /// `64 - log2(keys.len())`, for Fibonacci indexing.
    shift: u32,
}

impl IntCache {
    fn new() -> Self {
        const CAP: usize = 1 << 10;
        IntCache {
            keys: vec![0; CAP].into_boxed_slice(),
            vals: vec![EMPTY_SLOT; CAP].into_boxed_slice(),
            len: 0,
            shift: 64 - CAP.trailing_zeros(),
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB_MIX) >> self.shift) as usize
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let v = self.vals[i];
            if v == EMPTY_SLOT {
                return None;
            }
            if self.keys[i] == key {
                return Some(v);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, key: u64, value: u32) {
        debug_assert_ne!(value, EMPTY_SLOT);
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let v = self.vals[i];
            if v == EMPTY_SLOT {
                self.keys[i] = key;
                self.vals[i] = value;
                self.len += 1;
                if self.len * 4 >= self.keys.len() * 3 {
                    self.grow();
                }
                return;
            }
            if self.keys[i] == key {
                // Memo tables never re-bind a key to a new answer (results
                // are canonical); keep the existing entry.
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let shift = 64 - new_cap.trailing_zeros();
        let mut keys = vec![0u64; new_cap].into_boxed_slice();
        let mut vals = vec![EMPTY_SLOT; new_cap].into_boxed_slice();
        let mask = new_cap - 1;
        for i in 0..self.keys.len() {
            let v = self.vals[i];
            if v == EMPTY_SLOT {
                continue;
            }
            let k = self.keys[i];
            let mut j = (k.wrapping_mul(FIB_MIX) >> shift) as usize;
            while vals[j] != EMPTY_SLOT {
                j = (j + 1) & mask;
            }
            keys[j] = k;
            vals[j] = v;
        }
        self.keys = keys;
        self.vals = vals;
        self.shift = shift;
    }

    fn memory_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<u64>() + self.vals.len() * std::mem::size_of::<u32>()
    }
}

/// An SDD manager over a fixed vtree: the [`FrozenSdd`] store it grows
/// (vtree, node table, element arena, uid) plus the interning tables and
/// memos that only compilation reads. Every read-only method is the
/// store's, reached through `Deref`.
pub struct SddManager {
    /// The store this manager appends to; [`SddManager::freeze`] hands it
    /// out.
    store: FrozenSdd,
    lit_cache: FxHashMap<(VarId, bool), SddId>,
    unique: UniqueTable,
    /// Apply memo keyed by [`pack_apply_key`].
    apply_cache: IntCache,
    /// Negation memo as a node-indexed array (`EMPTY_SLOT` = unknown; both
    /// directions are stored). Read on every uncached apply for the
    /// complement shortcut, so it must be a plain load, not a hash probe.
    neg_cache: Vec<u32>,
    /// Memoized vtree lca/side resolution per `(va, vb)` pair (packed —
    /// see [`pack_lca`]): the binary-lifting walk runs once per pair
    /// instead of once per cache-missing apply.
    lca_cache: IntCache,
    /// Recycled element buffers for the worklist engine (cleared, capacity
    /// kept), so steady-state operations allocate no per-step scratch.
    scratch: Vec<Vec<(SddId, SddId)>>,
    /// Recycled frame stack of the worklist engine (one engine runs at a
    /// time; public operations are not reentrant).
    frame_pool: Vec<Frame>,
    stats: ApplyStats,
}

impl Deref for SddManager {
    type Target = FrozenSdd;

    #[inline]
    fn deref(&self) -> &FrozenSdd {
        &self.store
    }
}

/// Encode a side for the packed lca memo.
#[inline]
fn side_code(s: Option<Side>) -> u32 {
    match s {
        None => 0,
        Some(Side::Left) => 1,
        Some(Side::Right) => 2,
    }
}

/// Decode a side from the packed lca memo.
#[inline]
fn side_decode(c: u32) -> Option<Side> {
    match c & 3 {
        0 => None,
        1 => Some(Side::Left),
        _ => Some(Side::Right),
    }
}

/// Pack an lca answer `(lca, side of a, side of b)` into a cache value:
/// 4 side bits below the lca id. The cap is a hard assert (like the node
/// cap in `push_node`) — a silent truncation here would mis-serve the lca
/// memo and corrupt apply results; it only runs on memo misses, off the
/// hot path. Vtree node ids stay well under 2²⁸ (2.7·10⁸ nodes) in any
/// session the 2³¹ SDD node cap admits.
#[inline]
fn pack_lca(l: VtreeNodeId, a_at: Option<Side>, b_at: Option<Side>) -> u32 {
    assert!(l.0 < (1 << 28), "vtree node ids fit the packed lca memo");
    (l.0 << 4) | (side_code(a_at) << 2) | side_code(b_at)
}

/// The next process-unique manager identity (every `SddManager::new` and
/// every snapshot load draws one, so caches bound to one id space refuse
/// another).
fn next_uid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_UID: AtomicU64 = AtomicU64::new(0);
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

impl SddManager {
    /// Fresh manager over `vtree`.
    pub fn new(vtree: Vtree) -> Self {
        SddManager {
            store: FrozenSdd {
                vtree: Arc::new(vtree),
                nodes: vec![SddNode::False, SddNode::True],
                arena: Vec::new(),
                uid: next_uid(),
            },
            lit_cache: FxHashMap::default(),
            unique: UniqueTable::new(),
            apply_cache: IntCache::new(),
            neg_cache: vec![EMPTY_SLOT, EMPTY_SLOT],
            lca_cache: IntCache::new(),
            scratch: Vec::new(),
            frame_pool: Vec::new(),
            stats: ApplyStats::default(),
        }
    }

    /// Lifetime apply counters (see [`ApplyStats`]).
    pub fn apply_stats(&self) -> ApplyStats {
        self.stats
    }

    /// Zero the lifetime apply counters (or snapshot and
    /// [`ApplyStats::delta_since`]) so a report reflects one stage alone.
    pub fn reset_apply_stats(&mut self) {
        self.stats.reset();
    }

    /// Estimated resident bytes of the manager: its store
    /// ([`FrozenSdd::memory_bytes`]) plus the negation array, the
    /// open-addressed unique/apply/lca tables, and the literal cache
    /// (estimated from its capacity — the standard hash table stores
    /// entries plus one control byte per slot). Scratch-pool and vtree
    /// memory are excluded; the SDD is the part that grows.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.store.memory_bytes()
            + self.neg_cache.capacity() * size_of::<u32>()
            + self.unique.slots.len() * size_of::<(u64, u32)>()
            + self.apply_cache.memory_bytes()
            + self.lca_cache.memory_bytes()
            + self
                .lit_cache
                .capacity()
                .saturating_mul(size_of::<((VarId, bool), SddId)>() + 1)
    }

    /// Append a node, enforcing the 31-bit id cap the packed apply key
    /// (and the caches' slot encoding) relies on.
    fn push_node(&mut self, n: SddNode) -> SddId {
        let id = self.nodes.len();
        assert!(id < (1 << 31), "SDD node ids are packed into 31 bits");
        self.store.nodes.push(n);
        self.neg_cache.push(EMPTY_SLOT);
        SddId(id as u32)
    }

    /// The literal `v` / `¬v`.
    pub fn literal(&mut self, v: VarId, positive: bool) -> SddId {
        assert!(
            self.vtree.contains_var(v),
            "literal variable {v} not in the vtree"
        );
        if let Some(&id) = self.lit_cache.get(&(v, positive)) {
            return id;
        }
        let id = self.push_node(SddNode::Literal { var: v, positive });
        self.lit_cache.insert((v, positive), id);
        id
    }

    /// Memoized `(lca, side of va, side of vb)` for a vnode pair: the
    /// binary-lifting lca walk plus two descendant checks run once per
    /// pair; every later apply on the same pair is one cache load.
    fn lca_sides(
        &mut self,
        va: VtreeNodeId,
        vb: VtreeNodeId,
    ) -> (VtreeNodeId, Option<Side>, Option<Side>) {
        let key = ((va.0 as u64) << 32) | vb.0 as u64;
        if let Some(packed) = self.lca_cache.get(key) {
            return (
                VtreeNodeId(packed >> 4),
                side_decode(packed >> 2),
                side_decode(packed),
            );
        }
        let l = self.vtree.lca(va, vb);
        let a_at = self.vtree.side_of(l, va); // None ⇒ va == l
        let b_at = self.vtree.side_of(l, vb);
        self.lca_cache.insert(key, pack_lca(l, a_at, b_at));
        (l, a_at, b_at)
    }

    /// Take a recycled element buffer (empty, capacity retained).
    fn take_buf(&mut self) -> Vec<(SddId, SddId)> {
        self.scratch.pop().unwrap_or_default()
    }

    /// Return an element buffer to the pool.
    fn recycle_buf(&mut self, mut buf: Vec<(SddId, SddId)>) {
        buf.clear();
        self.scratch.push(buf);
    }

    /// Canonical decision-node constructor: drops ⊥ primes, compresses
    /// (merges equal subs, or-ing their primes), trims, sorts, and interns.
    /// Runs on the bounded-recursion fast path; compression disjunctions
    /// past the fuel budget spill to the worklist [`Engine`], so
    /// construction never recurses on node depth.
    fn mk_decision(&mut self, vnode: VtreeNodeId, elems: Vec<(SddId, SddId)>) -> SddId {
        self.build_rec(vnode, elems, REC_FUEL)
    }

    /// The pure tail of decision construction: trimming rules, prime-order
    /// sorting, and unique-table interning. `compressed` must already have
    /// pairwise distinct subs and no ⊥ primes; the buffer is left in an
    /// unspecified state for the caller to recycle. Interning allocates
    /// nothing beyond the arena append (and the occasional table growth):
    /// probes compare `compressed` against arena slices in place.
    fn finish_decision(
        &mut self,
        vnode: VtreeNodeId,
        compressed: &mut Vec<(SddId, SddId)>,
    ) -> SddId {
        // Trimming rule 1: {(⊤, s)} → s.
        if compressed.len() == 1 && compressed[0].0 == TRUE {
            return compressed[0].1;
        }
        // Trimming rule 2: {(p, ⊤), (¬p, ⊥)} → p.
        if compressed.len() == 2 {
            let find = |sub: SddId| compressed.iter().find(|&&(_, s)| s == sub).map(|&(p, _)| p);
            if let (Some(p_true), Some(_p_false)) = (find(TRUE), find(FALSE)) {
                return p_true;
            }
        }
        compressed.sort_unstable_by_key(|&(p, _)| p);
        let hash = decision_hash(vnode, compressed);
        let mask = self.unique.slots.len() - 1;
        let mut i = UniqueTable::slot(hash, mask);
        loop {
            self.stats.unique_probes += 1;
            let (slot_hash, slot_id) = self.unique.slots[i];
            if slot_id == EMPTY_SLOT {
                break;
            }
            if slot_hash == hash {
                if let SddNode::Decision { vnode: v2, elems } = self.node(SddId(slot_id)) {
                    if *v2 == vnode && self.elements(elems.clone()) == compressed.as_slice() {
                        return SddId(slot_id);
                    }
                }
            }
            i = (i + 1) & mask;
        }
        // Miss: the elements enter the arena (their single home) and the
        // free slot found above records the new node.
        let start = self.arena.len();
        assert!(
            start + compressed.len() <= u32::MAX as usize,
            "element arena exceeds u32 indexing"
        );
        self.store.arena.extend_from_slice(compressed);
        let end = self.arena.len();
        let id = self.push_node(SddNode::Decision {
            vnode,
            elems: start as u32..end as u32,
        });
        self.stats.unique_inserts += 1;
        self.unique.slots[i] = (hash, id.0);
        self.unique.len += 1;
        if self.unique.len * 4 >= self.unique.slots.len() * 3 {
            self.grow_unique();
        }
        id
    }

    /// Double the unique table, re-slotting entries by their stored hashes
    /// (no key data to rehash — the arena holds it).
    fn grow_unique(&mut self) {
        let new_cap = self.unique.slots.len() * 2;
        let mut slots = vec![(0u64, EMPTY_SLOT); new_cap].into_boxed_slice();
        for &(h, id) in self.unique.slots.iter() {
            if id != EMPTY_SLOT {
                UniqueTable::place(&mut slots, h, id);
            }
        }
        self.unique.slots = slots;
    }

    /// Public canonical decision constructor: builds `⋁ (prime ∧ sub)`
    /// normalized for `vnode`, applying compression, trimming and unique-table
    /// interning.
    ///
    /// The caller must supply primes forming an exhaustive, pairwise-disjoint
    /// partition of the left-subtree space (the constructor *canonicalizes*
    /// but does not verify this; use [`FrozenSdd::validate`] in tests). This
    /// is the entry point for the paper's direct `S_{F,T}` construction
    /// (§3.2.2), which builds sentential decisions from factor sets rather
    /// than through `apply`.
    pub fn decision(&mut self, vnode: VtreeNodeId, elems: Vec<(SddId, SddId)>) -> SddId {
        assert!(
            !self.vtree.is_leaf(vnode),
            "decision vnode must be internal"
        );
        self.mk_decision(vnode, elems)
    }

    /// Negation (cached; structural: same primes, negated subs). Bounded
    /// recursion with worklist spill — heap-bounded depth at any size.
    pub fn negate(&mut self, a: SddId) -> SddId {
        self.negate_rec(a, REC_FUEL)
    }

    /// Conjunction.
    pub fn and(&mut self, a: SddId, b: SddId) -> SddId {
        self.apply_rec(Op::And, a, b, REC_FUEL)
    }

    /// Disjunction.
    pub fn or(&mut self, a: SddId, b: SddId) -> SddId {
        self.apply_rec(Op::Or, a, b, REC_FUEL)
    }

    // ------------------------------------------------------------------
    // The bounded-recursion fast path.
    //
    // Every operation first runs the same memo-consulting head as the
    // worklist engine; a genuine miss recurses on the machine stack while
    // `fuel` lasts and spills the subproblem to the worklist at zero.
    // Heads, cache consults and cache inserts happen in the identical
    // order on both paths, so the constructed nodes are the same — the
    // fast path only removes the frame machine's dispatch constant from
    // the (overwhelmingly common) shallow operations.
    // ------------------------------------------------------------------

    /// Apply with a recursion budget; see the section comment above.
    fn apply_rec(&mut self, op: Op, a: SddId, b: SddId, fuel: u32) -> SddId {
        if let Some(r) = Engine::apply_head(self, op, a, b) {
            return r;
        }
        if fuel == 0 {
            return self.apply_spill(op, a, b);
        }
        let key = apply_key(op, a, b);
        let va = self.respects(a).expect("non-terminal");
        let vb = self.respects(b).expect("non-terminal");
        if va == vb {
            let ea = Engine::norm_elems(self, a, None, None);
            let eb = Engine::norm_elems(self, b, None, None);
            return self.cross_rec(op, key, va, ea, eb, fuel);
        }
        let (l, a_at, b_at) = self.lca_sides(va, vb);
        // Left-side operands need their negations first (operand a before
        // b, as both engines always did).
        let na = if a_at == Some(Side::Left) {
            Some(self.negate_rec(a, fuel - 1))
        } else {
            None
        };
        let nb = if b_at == Some(Side::Left) {
            Some(self.negate_rec(b, fuel - 1))
        } else {
            None
        };
        let ea = Engine::norm_elems(self, a, a_at, na);
        let eb = Engine::norm_elems(self, b, b_at, nb);
        self.cross_rec(op, key, l, ea, eb, fuel)
    }

    /// The element cross product of an uncached apply, recursively.
    ///
    /// Pairs in which either sub is the absorbing constant of `op` (⊥
    /// under ∧, ⊤ under ∨) are skipped: their sub is that constant
    /// whatever the partner holds. A compressed operand has at most one
    /// such element, and the primes of each operand partition ⊤, so the
    /// skipped pairs' primes join to exactly `pa_abs ∨ pb_abs` — one
    /// trailing element `(pa_abs ∨ pb_abs, abs)` stands for all of them
    /// and `build_rec` canonicalizes the rest as before. A left-side
    /// normalization `{(x, ⊤), (¬x, ⊥)}` always has such an element, so
    /// the shortcut drops half of its pairs outright.
    fn cross_rec(
        &mut self,
        op: Op,
        key: u64,
        vnode: VtreeNodeId,
        ea: Elems,
        eb: Elems,
        fuel: u32,
    ) -> SddId {
        let abs = op.absorbing();
        let mut out = self.take_buf();
        out.reserve(ea.len() * eb.len());
        for i in 0..ea.len() {
            let (pa, sa) = ea.get(self, i);
            if sa == abs {
                continue;
            }
            for j in 0..eb.len() {
                let (pb, sb) = eb.get(self, j);
                if sb == abs {
                    continue;
                }
                // ⊤-conjunctions resolve structurally (primes are never
                // ⊥, so `pa ∧ ⊤ = pa` needs no apply at all — singleton
                // `{(⊤, x)}` normalizations make it the most common
                // prime combination).
                let p = if pb == TRUE {
                    pa
                } else if pa == TRUE {
                    pb
                } else {
                    let p = self.apply_rec(Op::And, pa, pb, fuel - 1);
                    if p == FALSE {
                        continue;
                    }
                    p
                };
                let s = self.apply_rec(op, sa, sb, fuel - 1);
                out.push((p, s));
            }
        }
        match (ea.prime_of_sub(self, abs), eb.prime_of_sub(self, abs)) {
            (Some(pa), Some(pb)) => {
                let p = self.apply_rec(Op::Or, pa, pb, fuel - 1);
                out.push((p, abs));
            }
            (Some(p), None) | (None, Some(p)) => out.push((p, abs)),
            (None, None) => {}
        }
        let r = self.build_rec(vnode, out, fuel);
        self.apply_cache.insert(key, r.0);
        r
    }

    /// Canonical decision construction, recursively: drop ⊥ primes, sort
    /// by sub, or-reduce equal-sub groups, then intern. Adopts `elems`
    /// into the buffer pool.
    fn build_rec(
        &mut self,
        vnode: VtreeNodeId,
        mut elems: Vec<(SddId, SddId)>,
        fuel: u32,
    ) -> SddId {
        elems.retain(|&(p, _)| p != FALSE);
        if elems.is_empty() {
            self.recycle_buf(elems);
            return FALSE;
        }
        elems.sort_unstable_by_key(|&(_, s)| s);
        // The common case — all subs already distinct — interns directly.
        if elems.windows(2).all(|w| w[0].1 != w[1].1) {
            let r = self.finish_decision(vnode, &mut elems);
            self.recycle_buf(elems);
            return r;
        }
        if fuel == 0 {
            return self.build_spill(vnode, elems);
        }
        let mut compressed = self.take_buf();
        let mut k = 0;
        while k < elems.len() {
            let sub = elems[k].1;
            let mut acc = elems[k].0;
            k += 1;
            while k < elems.len() && elems[k].1 == sub {
                let p = elems[k].0;
                acc = self.apply_rec(Op::Or, acc, p, fuel - 1);
                k += 1;
            }
            compressed.push((acc, sub));
        }
        self.recycle_buf(elems);
        let r = self.finish_decision(vnode, &mut compressed);
        self.recycle_buf(compressed);
        r
    }

    /// Negation with a recursion budget.
    fn negate_rec(&mut self, a: SddId, fuel: u32) -> SddId {
        if let Some(r) = Engine::negate_head(self, a) {
            return r;
        }
        if fuel == 0 {
            return self.negate_spill(a);
        }
        let SddNode::Decision { vnode, elems } = self.node(a) else {
            unreachable!()
        };
        let (vnode, range) = (*vnode, elems.clone());
        let mut out = self.take_buf();
        out.reserve(range.len());
        for idx in range {
            let (p, s) = self.element(idx);
            let ns = self.negate_rec(s, fuel - 1);
            out.push((p, ns));
        }
        let n = self.build_rec(vnode, out, fuel);
        self.neg_cache[a.index()] = n.0;
        self.neg_cache[n.index()] = a.0;
        n
    }

    /// Conditioning with a recursion budget.
    fn condition_rec(&mut self, ctx: &mut CondCtx, a: SddId, fuel: u32) -> SddId {
        if let Some(r) = Engine::condition_head(self, ctx, a) {
            return r;
        }
        if fuel == 0 {
            return self.condition_spill(ctx, a);
        }
        let SddNode::Decision { vnode, elems } = self.node(a) else {
            unreachable!()
        };
        let (vnode, range) = (*vnode, elems.clone());
        let mut out = self.take_buf();
        out.reserve(range.len());
        for idx in range {
            let (p, s) = self.element(idx);
            let np = self.condition_rec(ctx, p, fuel - 1);
            let ns = self.condition_rec(ctx, s, fuel - 1);
            out.push((np, ns));
        }
        let r = self.build_rec(vnode, out, fuel);
        ctx.memo.insert(a, r);
        r
    }

    // ------------------------------------------------------------------
    // Worklist spills: the operation already ran its head (and missed);
    // hand it to the frame machine, which finishes it with heap-bounded
    // depth regardless of how deep the remaining structure is.
    // ------------------------------------------------------------------

    /// An apply that never takes the recursive fast path: the head, then
    /// the frame machine for everything below it. Test-only — it pins that
    /// both engines build the same nodes in the same order.
    #[cfg(test)]
    fn apply_worklist(&mut self, op: Op, a: SddId, b: SddId) -> SddId {
        match Engine::apply_head(self, op, a, b) {
            Some(r) => r,
            None => self.apply_spill(op, a, b),
        }
    }

    fn apply_spill(&mut self, op: Op, a: SddId, b: SddId) -> SddId {
        let mut eng = Engine::new(std::mem::take(&mut self.frame_pool), None);
        eng.push_apply_frame(self, op, a, b);
        let r = eng.run(self);
        self.frame_pool = eng.into_frames();
        r
    }

    fn negate_spill(&mut self, a: SddId) -> SddId {
        let mut eng = Engine::new(std::mem::take(&mut self.frame_pool), None);
        let r = match eng.start_negate(self, a) {
            Some(r) => r,
            None => eng.run(self),
        };
        self.frame_pool = eng.into_frames();
        r
    }

    fn condition_spill(&mut self, ctx: &mut CondCtx, a: SddId) -> SddId {
        // The engine owns the memo while it runs; hand it over and take
        // it back so the whole `condition` call shares one memo table.
        let taken = CondCtx {
            var: ctx.var,
            value: ctx.value,
            memo: std::mem::take(&mut ctx.memo),
        };
        let mut eng = Engine::new(std::mem::take(&mut self.frame_pool), Some(taken));
        let r = match eng.start_condition(self, a) {
            Some(r) => r,
            None => eng.run(self),
        };
        let (frames, cond) = eng.into_parts();
        self.frame_pool = frames;
        ctx.memo = cond.expect("condition context preserved").memo;
        r
    }

    fn build_spill(&mut self, vnode: VtreeNodeId, elems: Vec<(SddId, SddId)>) -> SddId {
        let mut eng = Engine::new(std::mem::take(&mut self.frame_pool), None);
        let r = match eng.start_build(self, vnode, elems) {
            Some(r) => r,
            None => eng.run(self),
        };
        self.frame_pool = eng.into_frames();
        r
    }

    /// Compile a circuit bottom-up.
    pub fn from_circuit(&mut self, c: &circuit::Circuit) -> SddId {
        self.compile_gates(c, |m, op, a, b| m.apply_rec(op, a, b, REC_FUEL))
    }

    /// [`SddManager::from_circuit`] with every gate input folded in by
    /// `apply` (the tests route it through the frame machine alone).
    fn compile_gates(
        &mut self,
        c: &circuit::Circuit,
        mut apply: impl FnMut(&mut Self, Op, SddId, SddId) -> SddId,
    ) -> SddId {
        use circuit::GateKind;
        let mut val: Vec<SddId> = Vec::with_capacity(c.size());
        for (_, g) in c.iter() {
            let n = match g {
                GateKind::Var(v) => self.literal(*v, true),
                GateKind::Const(b) => {
                    if *b {
                        TRUE
                    } else {
                        FALSE
                    }
                }
                GateKind::Not(x) => {
                    let x = val[x.index()];
                    self.negate(x)
                }
                GateKind::And(xs) => {
                    let mut acc = TRUE;
                    for x in xs.iter() {
                        let xv = val[x.index()];
                        acc = apply(self, Op::And, acc, xv);
                    }
                    acc
                }
                GateKind::Or(xs) => {
                    let mut acc = FALSE;
                    for x in xs.iter() {
                        let xv = val[x.index()];
                        acc = apply(self, Op::Or, acc, xv);
                    }
                    acc
                }
            };
            val.push(n);
        }
        val[c.output().index()]
    }

    /// Compile a truth table by Shannon expansion along the vtree leaf order
    /// (apply does the structural work; the result is canonical regardless).
    pub fn from_boolfn(&mut self, f: &BoolFn) -> SddId {
        assert!(
            f.vars().iter().all(|v| self.vtree.contains_var(v)),
            "vtree must cover the support"
        );
        let order = self.vtree.leaf_order();
        let mut memo: FxHashMap<BoolFn, SddId> = FxHashMap::default();
        self.from_boolfn_rec(f, &order, 0, &mut memo)
    }

    #[allow(clippy::wrong_self_convention)] // recursive helper of from_boolfn
    fn from_boolfn_rec(
        &mut self,
        f: &BoolFn,
        order: &[VarId],
        mut i: usize,
        memo: &mut FxHashMap<BoolFn, SddId>,
    ) -> SddId {
        if let Some(c) = f.as_constant() {
            return if c { TRUE } else { FALSE };
        }
        if let Some(&n) = memo.get(f) {
            return n;
        }
        while !(f.vars().contains(order[i]) && f.depends_on(order[i])) {
            i += 1;
        }
        let v = order[i];
        let f0 = f.restrict(v, false);
        let f1 = f.restrict(v, true);
        let lo = self.from_boolfn_rec(&f0, order, i + 1, memo);
        let hi = self.from_boolfn_rec(&f1, order, i + 1, memo);
        let pos = self.literal(v, true);
        let neg = self.literal(v, false);
        let a = self.and(pos, hi);
        let b = self.and(neg, lo);
        let n = self.or(a, b);
        memo.insert(f.clone(), n);
        n
    }

    /// Condition on `var := value` (cofactor). Memoized per node; bounded
    /// recursion with worklist spill — heap-bounded depth even on
    /// vtree-deep diagrams.
    pub fn condition(&mut self, a: SddId, var: VarId, value: bool) -> SddId {
        let mut ctx = CondCtx {
            var,
            value,
            memo: FxHashMap::default(),
        };
        self.condition_rec(&mut ctx, a, REC_FUEL)
    }
}

// ---------------------------------------------------------------------
// The worklist engine behind apply / negate / condition.
//
// The natural implementations of these operations recurse to the vtree /
// SDD depth, which is Θ(n) on chain-shaped inputs — a 100k-variable
// session would overflow any default stack. The `Engine` below replaces
// the call stack with an explicit frame stack on the heap: every suspended
// operation is a `Frame` recording exactly where it will resume, a single
// `ret` register carries each finished node id to the frame that asked for
// it, and `start_*` resolvers answer what they can immediately (terminal
// shortcuts, cache hits, literals) without growing the stack. Memoization
// and hash-consing match the recursive fast path: the same caches are
// consulted and filled at the same points, in the same order, so both
// paths construct identical nodes. (ApplyStats counts are *not* those of
// the pre-arena engine: ⊤-conjunction primes now resolve structurally
// without an apply call, so apply_calls/cache_hits run strictly lower
// than historical runs on the same input.)
//
// Frames never copy element lists: a normalized operand is either an
// arena range (decisions — the arena is append-only, so the range stays
// valid while children intern new nodes) or at most two inline pairs (the
// lca normalization shapes). Output buffers and the frame stack itself
// come from per-manager pools, so a steady-state apply step allocates
// nothing.
// ---------------------------------------------------------------------

/// Context of one `condition` run: the pinned literal and the per-call
/// memo table (cofactor results are not globally cached).
struct CondCtx {
    var: VarId,
    value: bool,
    memo: FxHashMap<SddId, SddId>,
}

/// What a suspended [`Frame::Prep`] is waiting for.
#[derive(Copy, Clone)]
enum PrepWait {
    /// Just pushed; no negation requested yet.
    Fresh,
    /// The negation of operand `a`.
    NegA,
    /// The negation of operand `b`.
    NegB,
}

/// What a suspended [`Frame::Cross`] is waiting for.
enum CrossWait {
    /// Just pushed, or between element pairs.
    Idle,
    /// The prime conjunction of the current pair.
    Prime,
    /// The sub combination; the finished prime rides along.
    Sub(SddId),
    /// The disjunction `pa_abs ∨ pb_abs` of the two absorbing-sub primes
    /// that stands for every skipped pair.
    Absorb,
    /// The final decision construction.
    Build,
}

/// What a suspended [`Frame::Cond`] is waiting for.
enum CondWait {
    /// Just pushed, or between elements.
    Idle,
    /// The conditioned prime of the current element.
    Prime,
    /// The conditioned sub; the conditioned prime rides along.
    Sub(SddId),
    /// The final decision construction.
    Build,
}

/// A normalized apply operand's element list: a decision node's arena
/// range (no copy — ranges are immutable once interned), or the up-to-two
/// synthesized pairs of the lca normalization, inline.
enum Elems {
    /// `arena[start..end]` of a decision at the normalization vnode.
    Arena(u32, u32),
    /// `{(⊤, x)}` (right side) or `{(x, ⊤), (¬x, ⊥)}` (left side).
    Inline { buf: [(SddId, SddId); 2], len: u8 },
}

impl Elems {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Elems::Arena(s, e) => (e - s) as usize,
            Elems::Inline { len, .. } => *len as usize,
        }
    }

    #[inline]
    fn get(&self, m: &SddManager, i: usize) -> (SddId, SddId) {
        match self {
            Elems::Arena(s, _) => m.element(s + i as u32),
            Elems::Inline { buf, .. } => buf[i],
        }
    }

    /// The prime of the element whose sub is `sub`. Subs are pairwise
    /// distinct in a compressed decision and in both normalizations, so
    /// there is at most one.
    fn prime_of_sub(&self, m: &SddManager, sub: SddId) -> Option<SddId> {
        (0..self.len())
            .map(|i| self.get(m, i))
            .find(|&(_, s)| s == sub)
            .map(|(p, _)| p)
    }
}

/// One suspended operation of the worklist engine.
enum Frame {
    /// An apply whose operands normalize at their vtree lca: a left-side
    /// operand needs its negation before the element lists exist.
    Prep {
        op: Op,
        key: u64,
        l: VtreeNodeId,
        a: SddId,
        /// `None` when `a` respects `l` itself.
        a_at: Option<Side>,
        b: SddId,
        b_at: Option<Side>,
        na: Option<SddId>,
        nb: Option<SddId>,
        wait: PrepWait,
    },
    /// The element cross product of an apply, pair by pair as in
    /// [`SddManager::cross_rec`]. Pairs with an absorbing sub (⊥ under ∧,
    /// ⊤ under ∨) are skipped: each operand's primes partition ⊤, so the
    /// skipped pairs' primes join to exactly `pa_abs ∨ pb_abs`, which is
    /// pushed as one trailing element (waiting in [`CrossWait::Absorb`]
    /// when that `or` needs a frame).
    Cross {
        op: Op,
        key: u64,
        vnode: VtreeNodeId,
        ea: Elems,
        eb: Elems,
        i: u32,
        j: u32,
        wait: CrossWait,
        out: Vec<(SddId, SddId)>,
    },
    /// Structural negation of a decision (same primes, negated subs).
    Neg {
        a: SddId,
        vnode: VtreeNodeId,
        /// The decision's arena range.
        elems: Range<u32>,
        i: u32,
        out: Vec<(SddId, SddId)>,
        /// Set once the final decision construction was requested.
        building: bool,
    },
    /// Conditioning of a decision (both primes and subs restricted).
    Cond {
        a: SddId,
        vnode: VtreeNodeId,
        /// The decision's arena range.
        elems: Range<u32>,
        i: u32,
        wait: CondWait,
        out: Vec<(SddId, SddId)>,
    },
    /// Canonical decision construction with pending prime-compression
    /// disjunctions (groups of equal subs whose primes must be or-ed).
    Build {
        vnode: VtreeNodeId,
        /// `(primes, sub)` groups, sorted by sub.
        groups: Vec<(Vec<SddId>, SddId)>,
        gi: usize,
        /// Next prime index within the current group (0 = group untouched).
        pi: usize,
        /// The or-accumulator of the current group.
        acc: SddId,
        compressed: Vec<(SddId, SddId)>,
    },
}

impl Frame {
    /// A fresh cross-product frame with a pooled output buffer — the one
    /// place the `Frame::Cross` literal is spelled out, so the worklist's
    /// three construction sites cannot drift.
    fn cross(
        m: &mut SddManager,
        op: Op,
        key: u64,
        vnode: VtreeNodeId,
        ea: Elems,
        eb: Elems,
    ) -> Frame {
        let out = Engine::cross_buf(m, &ea, &eb);
        Frame::Cross {
            op,
            key,
            vnode,
            ea,
            eb,
            i: 0,
            j: 0,
            wait: CrossWait::Idle,
            out,
        }
    }
}

/// A sub-operation a frame asks the engine to resolve.
enum Req {
    Apply(Op, SddId, SddId),
    /// An apply whose memo-consulting head ([`Engine::apply_head`]) was
    /// already run (and missed) by the requesting frame's inline fast
    /// path: go straight to the frame push — re-running the head would
    /// double-count the call in [`ApplyStats`].
    ApplyMiss(Op, SddId, SddId),
    Negate(SddId),
    Condition(SddId),
    Build(VtreeNodeId, Vec<(SddId, SddId)>),
}

/// Outcome of advancing the top frame in place.
enum Step {
    /// The frame recorded what it waits for and requests a sub-operation.
    Request(Req),
    /// The frame finished; pop it and deliver its result.
    Complete(SddId),
}

/// The recursion budget of the bounded-depth fast path: operations nest on
/// the machine stack for this many levels (a constant — ~300 bytes per
/// level, ~20 KiB total, safe on any thread) and spill the remainder to
/// the worklist engine. The fast path is what claws back the frame
/// machine's dispatch constant on shallow work; the spill is what keeps
/// 100k-variable chains off the stack. Depth is bounded by the *constant*,
/// never by input size, so the workspace's iterative-engine invariant
/// holds.
const REC_FUEL: u32 = 64;

/// The frame stack plus the `ret` register. One engine drives one public
/// operation (`and`/`or`/`negate`/`condition`/`decision`) to completion;
/// its frame stack is borrowed from (and returned to) the manager's pool.
struct Engine {
    frames: Vec<Frame>,
    cond: Option<CondCtx>,
}

impl Engine {
    fn new(frames: Vec<Frame>, cond: Option<CondCtx>) -> Self {
        debug_assert!(frames.is_empty(), "the frame pool is handed over empty");
        Engine { frames, cond }
    }

    /// Surrender the (now empty) frame stack back to the manager's pool.
    fn into_frames(mut self) -> Vec<Frame> {
        self.frames.clear();
        self.frames
    }

    /// As [`Engine::into_frames`], also returning the condition context
    /// (the spill path hands the memo back to its recursive caller).
    fn into_parts(mut self) -> (Vec<Frame>, Option<CondCtx>) {
        self.frames.clear();
        let cond = self.cond.take();
        (self.frames, cond)
    }

    /// Drive the frame stack until the initial request is answered.
    ///
    /// Invariant: a frame on top with no pending `ret` was just pushed (or
    /// just transitioned) and issues its first request; any other advance
    /// delivers `ret` to the exact slot the top frame's `wait` state
    /// names. Frames advance **in place** — only completions pop, only new
    /// children push; re-pushing the whole frame per element (the obvious
    /// encoding) moves ~100 bytes twice per cross-product pair, which
    /// measurably taxed the compile path.
    fn run(&mut self, m: &mut SddManager) -> SddId {
        let mut ret: Option<SddId> = None;
        loop {
            let Some(top) = self.frames.last_mut() else {
                return ret.expect("the worklist terminates with the requested node");
            };
            match Self::advance(top, ret.take(), m, &mut self.cond) {
                Step::Request(req) => ret = self.start_request(m, req),
                Step::Complete(v) => {
                    self.frames.pop();
                    ret = Some(v);
                }
            }
        }
    }

    /// Dispatch a frame's sub-operation request to its resolver (which
    /// answers immediately or pushes the frame that will).
    fn start_request(&mut self, m: &mut SddManager, req: Req) -> Option<SddId> {
        match req {
            Req::Apply(op, a, b) => self.start_apply(m, op, a, b),
            Req::ApplyMiss(op, a, b) => {
                self.push_apply_frame(m, op, a, b);
                None
            }
            Req::Negate(a) => self.start_negate(m, a),
            Req::Condition(a) => self.start_condition(m, a),
            Req::Build(vnode, elems) => self.start_build(m, vnode, elems),
        }
    }

    /// Advance the top frame in place: consume `ret` into the slot its
    /// `wait` state names, then either emit the frame's next request or
    /// declare it complete. The only internal transition is Prep → Cross
    /// (once the needed negations are in hand).
    fn advance(
        frame: &mut Frame,
        mut ret: Option<SddId>,
        m: &mut SddManager,
        cond: &mut Option<CondCtx>,
    ) -> Step {
        loop {
            match frame {
                Frame::Prep {
                    op,
                    key,
                    l,
                    a,
                    a_at,
                    b,
                    b_at,
                    na,
                    nb,
                    wait,
                } => {
                    match wait {
                        PrepWait::Fresh => {}
                        PrepWait::NegA => *na = Some(ret.take().expect("negation result")),
                        PrepWait::NegB => *nb = Some(ret.take().expect("negation result")),
                    }
                    if *a_at == Some(Side::Left) && na.is_none() {
                        *wait = PrepWait::NegA;
                        return Step::Request(Req::Negate(*a));
                    }
                    if *b_at == Some(Side::Left) && nb.is_none() {
                        *wait = PrepWait::NegB;
                        return Step::Request(Req::Negate(*b));
                    }
                    let ea = Self::norm_elems(m, *a, *a_at, *na);
                    let eb = Self::norm_elems(m, *b, *b_at, *nb);
                    *frame = Frame::cross(m, *op, *key, *l, ea, eb);
                    // Loop: the fresh Cross issues its first request.
                }
                Frame::Cross {
                    op,
                    key,
                    vnode,
                    ea,
                    eb,
                    i,
                    j,
                    wait,
                    out,
                } => {
                    // Advance one position past the current pair.
                    macro_rules! bump {
                        () => {
                            *j += 1;
                            if *j as usize == eb.len() {
                                *j = 0;
                                *i += 1;
                            }
                        };
                    }
                    // Deliver the pending answer, finishing its pair inline
                    // where the partner operation resolves from the memos.
                    match std::mem::replace(wait, CrossWait::Idle) {
                        CrossWait::Idle => {}
                        CrossWait::Prime => {
                            let p = ret.take().expect("prime result");
                            if p == FALSE {
                                bump!();
                            } else {
                                let sa = ea.get(m, *i as usize).1;
                                let sb = eb.get(m, *j as usize).1;
                                match Self::apply_head(m, *op, sa, sb) {
                                    Some(s) => {
                                        out.push((p, s));
                                        bump!();
                                    }
                                    None => {
                                        *wait = CrossWait::Sub(p);
                                        return Step::Request(Req::ApplyMiss(*op, sa, sb));
                                    }
                                }
                            }
                        }
                        CrossWait::Sub(p) => {
                            out.push((p, ret.take().expect("sub result")));
                            bump!();
                        }
                        CrossWait::Absorb => {
                            out.push((ret.take().expect("absorbing prime"), op.absorbing()));
                            *wait = CrossWait::Build;
                            return Step::Request(Req::Build(*vnode, std::mem::take(out)));
                        }
                        CrossWait::Build => {
                            let r = ret.take().expect("build result");
                            m.apply_cache.insert(*key, r.0);
                            return Step::Complete(r);
                        }
                    }
                    // The pair loop: run entirely on the memo fast path —
                    // most prime conjunctions and sub combinations answer
                    // from the caches, and yielding to the frame stack for
                    // those costs more than computing them here.
                    let abs = op.absorbing();
                    while (*i as usize) < ea.len() {
                        let (pa, sa) = ea.get(m, *i as usize);
                        if sa == abs {
                            // The whole row's subs are decided.
                            *i += 1;
                            *j = 0;
                            continue;
                        }
                        let (pb, sb) = eb.get(m, *j as usize);
                        if sb == abs {
                            bump!();
                            continue;
                        }
                        // ⊤-conjunctions are resolved structurally: primes
                        // are never ⊥ (construction drops them), so
                        // `pa ∧ ⊤ = pa` needs no apply call at all — and
                        // singleton `{(⊤, x)}` normalizations make this
                        // the single most common prime combination.
                        let prime = if pb == TRUE {
                            Some(pa)
                        } else if pa == TRUE {
                            Some(pb)
                        } else {
                            match Self::apply_head(m, Op::And, pa, pb) {
                                None => {
                                    *wait = CrossWait::Prime;
                                    return Step::Request(Req::ApplyMiss(Op::And, pa, pb));
                                }
                                Some(p) => Some(p).filter(|&p| p != FALSE),
                            }
                        };
                        match prime {
                            None => {
                                bump!();
                            }
                            Some(p) => match Self::apply_head(m, *op, sa, sb) {
                                Some(s) => {
                                    out.push((p, s));
                                    bump!();
                                }
                                None => {
                                    *wait = CrossWait::Sub(p);
                                    return Step::Request(Req::ApplyMiss(*op, sa, sb));
                                }
                            },
                        }
                    }
                    // The one element standing for every skipped pair.
                    match (ea.prime_of_sub(m, abs), eb.prime_of_sub(m, abs)) {
                        (Some(pa), Some(pb)) => match Self::apply_head(m, Op::Or, pa, pb) {
                            Some(p) => out.push((p, abs)),
                            None => {
                                *wait = CrossWait::Absorb;
                                return Step::Request(Req::ApplyMiss(Op::Or, pa, pb));
                            }
                        },
                        (Some(p), None) | (None, Some(p)) => out.push((p, abs)),
                        (None, None) => {}
                    }
                    *wait = CrossWait::Build;
                    return Step::Request(Req::Build(*vnode, std::mem::take(out)));
                }
                Frame::Neg {
                    a,
                    vnode,
                    elems,
                    i,
                    out,
                    building,
                } => {
                    if *building {
                        let n = ret.take().expect("build result");
                        m.neg_cache[a.index()] = n.0;
                        m.neg_cache[n.index()] = a.0;
                        return Step::Complete(n);
                    }
                    if let Some(ns) = ret.take() {
                        out.push((m.element(elems.start + *i).0, ns));
                        *i += 1;
                    }
                    // Element loop on the memo fast path (literal flips and
                    // cached negations answer inline).
                    while elems.start + *i < elems.end {
                        let s = m.element(elems.start + *i).1;
                        match Self::negate_head(m, s) {
                            Some(ns) => {
                                out.push((m.element(elems.start + *i).0, ns));
                                *i += 1;
                            }
                            None => return Step::Request(Req::Negate(s)),
                        }
                    }
                    *building = true;
                    return Step::Request(Req::Build(*vnode, std::mem::take(out)));
                }
                Frame::Cond {
                    a,
                    vnode,
                    elems,
                    i,
                    wait,
                    out,
                } => {
                    let ctx = cond.as_mut().expect("condition context");
                    match std::mem::replace(wait, CondWait::Idle) {
                        CondWait::Idle => {}
                        CondWait::Prime => {
                            let np = ret.take().expect("conditioned prime");
                            let s = m.element(elems.start + *i).1;
                            match Self::condition_head(m, ctx, s) {
                                Some(ns) => {
                                    out.push((np, ns));
                                    *i += 1;
                                }
                                None => {
                                    *wait = CondWait::Sub(np);
                                    return Step::Request(Req::Condition(s));
                                }
                            }
                        }
                        CondWait::Sub(np) => {
                            out.push((np, ret.take().expect("conditioned sub")));
                            *i += 1;
                        }
                        CondWait::Build => {
                            let r = ret.take().expect("build result");
                            ctx.memo.insert(*a, r);
                            return Step::Complete(r);
                        }
                    }
                    // Element loop on the memo fast path (terminals,
                    // literals, and already-conditioned decisions inline).
                    while elems.start + *i < elems.end {
                        let p = m.element(elems.start + *i).0;
                        match Self::condition_head(m, ctx, p) {
                            Some(np) => {
                                let s = m.element(elems.start + *i).1;
                                match Self::condition_head(m, ctx, s) {
                                    Some(ns) => {
                                        out.push((np, ns));
                                        *i += 1;
                                    }
                                    None => {
                                        *wait = CondWait::Sub(np);
                                        return Step::Request(Req::Condition(s));
                                    }
                                }
                            }
                            None => {
                                *wait = CondWait::Prime;
                                return Step::Request(Req::Condition(p));
                            }
                        }
                    }
                    *wait = CondWait::Build;
                    return Step::Request(Req::Build(*vnode, std::mem::take(out)));
                }
                Frame::Build {
                    vnode,
                    groups,
                    gi,
                    pi,
                    acc,
                    compressed,
                } => {
                    if let Some(r) = ret.take() {
                        *acc = r;
                    }
                    loop {
                        if *gi == groups.len() {
                            let mut elems = std::mem::take(compressed);
                            let r = m.finish_decision(*vnode, &mut elems);
                            m.recycle_buf(elems);
                            return Step::Complete(r);
                        }
                        if *pi == 0 {
                            *acc = groups[*gi].0[0];
                            *pi = 1;
                        }
                        if *pi < groups[*gi].0.len() {
                            let p = groups[*gi].0[*pi];
                            *pi += 1;
                            return Step::Request(Req::Apply(Op::Or, *acc, p));
                        }
                        compressed.push((*acc, groups[*gi].1));
                        *gi += 1;
                        *pi = 0;
                    }
                }
            }
        }
    }

    /// The memo-consulting head of an apply: terminal/identity shortcuts,
    /// apply-cache and complement lookups, and the same-variable literal
    /// clash. Shared verbatim by the recursive fast path and the worklist,
    /// so both consult and fill the caches in the same order and count
    /// every apply invocation exactly once. Structural resolutions skip
    /// the head and the count: the ⊤-prime shortcut, and the pairs of a
    /// cross product whose sub is the absorbing constant (they issue no
    /// prime conjunction and no sub combination at all, only the one
    /// trailing `pa_abs ∨ pb_abs`, which does go through the head).
    /// `None` means the operation genuinely needs a frame
    /// ([`Engine::push_apply_frame`]).
    #[inline]
    fn apply_head(m: &mut SddManager, op: Op, a: SddId, b: SddId) -> Option<SddId> {
        m.stats.apply_calls += 1;
        // Terminal and identity shortcuts.
        match op {
            Op::And => {
                if a == FALSE || b == FALSE {
                    return Some(FALSE);
                }
                if a == TRUE {
                    return Some(b);
                }
                if b == TRUE || a == b {
                    return Some(a);
                }
            }
            Op::Or => {
                if a == TRUE || b == TRUE {
                    return Some(TRUE);
                }
                if a == FALSE {
                    return Some(b);
                }
                if b == FALSE || a == b {
                    return Some(a);
                }
            }
        }
        let key = apply_key(op, a, b);
        if let Some(r) = m.apply_cache.get(key) {
            m.stats.cache_hits += 1;
            return Some(SddId(r));
        }
        // Complement shortcut (a plain array read — avoid computing fresh
        // negations here, which could traverse deeply for no benefit).
        if m.neg_cache[a.index()] == b.0 {
            let r = op.absorbing();
            m.apply_cache.insert(key, r.0);
            return Some(r);
        }
        // Two literals of the same variable with different polarity
        // (equal nodes were handled above).
        if let (SddNode::Literal { var: va, .. }, SddNode::Literal { var: vb, .. }) =
            (m.node(a), m.node(b))
        {
            if va == vb {
                let r = op.absorbing();
                m.apply_cache.insert(key, r.0);
                return Some(r);
            }
        }
        None
    }

    /// The slow tail of an apply whose head missed: normalize the operands
    /// at their (memoized) lca and push the frame that computes the cross
    /// product. Must be preceded by [`Engine::apply_head`] on the same
    /// operands with no manager operations in between.
    fn push_apply_frame(&mut self, m: &mut SddManager, op: Op, a: SddId, b: SddId) {
        let key = apply_key(op, a, b);
        let va = m.respects(a).expect("non-terminal");
        let vb = m.respects(b).expect("non-terminal");
        if va == vb {
            let ea = Self::norm_elems(m, a, None, None);
            let eb = Self::norm_elems(m, b, None, None);
            let frame = Frame::cross(m, op, key, va, ea, eb);
            self.frames.push(frame);
            return;
        }
        let (l, a_at, b_at) = m.lca_sides(va, vb);
        if a_at == Some(Side::Left) || b_at == Some(Side::Left) {
            // A left-side operand normalizes to {(x, ⊤), (¬x, ⊥)}: the
            // negation(s) must be computed first (operand a before b, as
            // the recursion did).
            self.frames.push(Frame::Prep {
                op,
                key,
                l,
                a,
                a_at,
                b,
                b_at,
                na: None,
                nb: None,
                wait: PrepWait::Fresh,
            });
            return;
        }
        let ea = Self::norm_elems(m, a, a_at, None);
        let eb = Self::norm_elems(m, b, b_at, None);
        let frame = Frame::cross(m, op, key, l, ea, eb);
        self.frames.push(frame);
    }

    /// Begin an apply: the head answers what it can immediately; a miss
    /// pushes the frame that will finish it.
    fn start_apply(&mut self, m: &mut SddManager, op: Op, a: SddId, b: SddId) -> Option<SddId> {
        let r = Self::apply_head(m, op, a, b);
        if r.is_none() {
            self.push_apply_frame(m, op, a, b);
        }
        r
    }

    /// Normalize node `x` into an element list for the lca: its own arena
    /// range at the lca itself, `{(⊤, x)}` on the right, and
    /// `{(x, ⊤), (¬x, ⊥)}` on the left (negation supplied by the caller).
    /// No element data is copied in any case.
    fn norm_elems(m: &SddManager, x: SddId, side: Option<Side>, nx: Option<SddId>) -> Elems {
        match side {
            None => match m.node(x) {
                SddNode::Decision { elems, .. } => Elems::Arena(elems.start, elems.end),
                _ => unreachable!("lca-respecting operand is a decision"),
            },
            Some(Side::Right) => Elems::Inline {
                buf: [(TRUE, x), (FALSE, FALSE)],
                len: 1,
            },
            Some(Side::Left) => Elems::Inline {
                buf: [(x, TRUE), (nx.expect("negation prepared"), FALSE)],
                len: 2,
            },
        }
    }

    /// A pooled output buffer sized for the cross product of `ea × eb`.
    fn cross_buf(m: &mut SddManager, ea: &Elems, eb: &Elems) -> Vec<(SddId, SddId)> {
        let mut out = m.take_buf();
        out.reserve(ea.len() * eb.len());
        out
    }

    /// The memo-consulting head of a negation: terminals, literal flips
    /// and cached negations answer immediately; `None` means the decision
    /// needs a frame.
    #[inline]
    fn negate_head(m: &mut SddManager, a: SddId) -> Option<SddId> {
        match m.node(a) {
            SddNode::False => return Some(TRUE),
            SddNode::True => return Some(FALSE),
            SddNode::Literal { var, positive } => {
                let (v, p) = (*var, *positive);
                return Some(m.literal(v, !p));
            }
            SddNode::Decision { .. } => {}
        }
        let cached = m.neg_cache[a.index()];
        if cached != EMPTY_SLOT {
            return Some(SddId(cached));
        }
        None
    }

    /// Begin a negation: the head answers what it can immediately; a
    /// decision miss pushes the frame that will finish it.
    fn start_negate(&mut self, m: &mut SddManager, a: SddId) -> Option<SddId> {
        if let Some(r) = Self::negate_head(m, a) {
            return Some(r);
        }
        let SddNode::Decision { vnode, elems } = m.node(a) else {
            unreachable!()
        };
        let (vnode, elems) = (*vnode, elems.clone());
        let out = m.take_buf();
        self.frames.push(Frame::Neg {
            a,
            vnode,
            elems,
            i: 0,
            out,
            building: false,
        });
        None
    }

    /// The memo-consulting head of a conditioning step: terminals,
    /// untouched/pinned literals and memoized decisions answer
    /// immediately; `None` means the decision needs a frame.
    #[inline]
    fn condition_head(m: &SddManager, ctx: &CondCtx, a: SddId) -> Option<SddId> {
        match m.node(a) {
            SddNode::False | SddNode::True => return Some(a),
            SddNode::Literal { var, positive } => {
                if *var == ctx.var {
                    return Some(if *positive == ctx.value { TRUE } else { FALSE });
                }
                return Some(a);
            }
            SddNode::Decision { .. } => {}
        }
        ctx.memo.get(&a).copied()
    }

    /// Begin a conditioning step: the head answers what it can
    /// immediately; an unmemoized decision pushes the frame that will
    /// finish it.
    fn start_condition(&mut self, m: &mut SddManager, a: SddId) -> Option<SddId> {
        let ctx = self.cond.as_ref().expect("condition context");
        if let Some(r) = Self::condition_head(m, ctx, a) {
            return Some(r);
        }
        let SddNode::Decision { vnode, elems } = m.node(a) else {
            unreachable!()
        };
        let (vnode, elems) = (*vnode, elems.clone());
        let out = m.take_buf();
        self.frames.push(Frame::Cond {
            a,
            vnode,
            elems,
            i: 0,
            wait: CondWait::Idle,
            out,
        });
        None
    }

    /// Begin a canonical decision construction: drop ⊥ primes, group by
    /// sub. Without compression work the node is finished on the spot;
    /// otherwise a frame or-reduces each group's primes through the engine.
    /// The element buffer is adopted into the manager's pool either way.
    fn start_build(
        &mut self,
        m: &mut SddManager,
        vnode: VtreeNodeId,
        mut elems: Vec<(SddId, SddId)>,
    ) -> Option<SddId> {
        elems.retain(|&(p, _)| p != FALSE);
        if elems.is_empty() {
            m.recycle_buf(elems);
            return Some(FALSE);
        }
        elems.sort_unstable_by_key(|&(_, s)| s);
        // The common case — all subs already distinct — finishes on the
        // spot, without materializing per-group prime lists.
        if elems.windows(2).all(|w| w[0].1 != w[1].1) {
            let r = m.finish_decision(vnode, &mut elems);
            m.recycle_buf(elems);
            return Some(r);
        }
        let mut groups: Vec<(Vec<SddId>, SddId)> = Vec::new();
        for &(p, s) in &elems {
            match groups.last_mut() {
                Some((ps, sub)) if *sub == s => ps.push(p),
                _ => groups.push((vec![p], s)),
            }
        }
        let compressed = m.take_buf();
        m.recycle_buf(elems);
        self.frames.push(Frame::Build {
            vnode,
            groups,
            gi: 0,
            pi: 0,
            acc: FALSE,
            compressed,
        });
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolfunc::{families, VarSet};

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn vars(n: u32) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    fn balanced_mgr(n: u32) -> SddManager {
        SddManager::new(Vtree::balanced(&vars(n)).unwrap())
    }

    #[test]
    fn literal_ops() {
        let mut m = balanced_mgr(2);
        let x = m.literal(v(0), true);
        let nx = m.literal(v(0), false);
        assert_eq!(m.and(x, nx), FALSE);
        assert_eq!(m.or(x, nx), TRUE);
        assert_eq!(m.negate(x), nx);
        assert_eq!(m.and(x, x), x);
    }

    #[test]
    fn and_across_root() {
        let mut m = balanced_mgr(4);
        let x0 = m.literal(v(0), true);
        let x2 = m.literal(v(2), true);
        let g = m.and(x0, x2);
        assert_eq!(m.count_models(g), 4); // 2 free vars
        let f = m.to_boolfn(g);
        let expect = BoolFn::literal(v(0), true).and(&BoolFn::literal(v(2), true));
        assert!(f.equivalent(&expect));
    }

    #[test]
    fn canonicity_same_function_same_node() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for trial in 0..20 {
            let c = circuit::families::random_circuit(5, 12, &mut rng);
            let f = c.to_boolfn().unwrap();
            let mut m = balanced_mgr(5);
            let r1 = m.from_circuit(&c);
            let r2 = m.from_boolfn(&f);
            assert_eq!(r1, r2, "trial {trial}: canonicity violated");
            assert!(m.to_boolfn(r1).equivalent(&f), "trial {trial}: semantics");
        }
    }

    #[test]
    fn canonicity_across_vtrees_semantics_only() {
        // Different vtrees give different nodes but the same function.
        let f = families::parity(&vars(5));
        for vt in [
            Vtree::right_linear(&vars(5)).unwrap(),
            Vtree::left_linear(&vars(5)).unwrap(),
            Vtree::balanced(&vars(5)).unwrap(),
        ] {
            let mut m = SddManager::new(vt);
            let r = m.from_boolfn(&f);
            assert!(m.to_boolfn(r).equivalent(&f));
            assert_eq!(m.count_models(r), 16);
        }
    }

    #[test]
    fn negation_involution_and_semantics() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let f = BoolFn::random(VarSet::from_slice(&vars(6)), &mut rng);
        let mut m = balanced_mgr(6);
        let r = m.from_boolfn(&f);
        let nr = m.negate(r);
        assert_eq!(m.negate(nr), r);
        assert!(m.to_boolfn(nr).equivalent(&f.not()));
        assert_eq!(
            m.count_models(r) + m.count_models(nr),
            1 << 6,
            "models partition"
        );
    }

    #[test]
    fn condition_matches_kernel_restrict() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let f = BoolFn::random(VarSet::from_slice(&vars(5)), &mut rng);
        let mut m = balanced_mgr(5);
        let r = m.from_boolfn(&f);
        for var in vars(5) {
            for val in [false, true] {
                let c = m.condition(r, var, val);
                let expect = f.restrict(var, val);
                assert!(
                    m.to_boolfn(c).equivalent(&expect),
                    "condition on {var}={val}"
                );
            }
        }
    }

    #[test]
    fn counting_with_gaps() {
        // x3 alone in a 6-var manager: 2^5 models.
        let mut m = balanced_mgr(6);
        let x3 = m.literal(v(3), true);
        assert_eq!(m.count_models(x3), 32);
        assert_eq!(m.count_models(TRUE), 64);
        assert_eq!(m.count_models(FALSE), 0);
    }

    #[test]
    fn weighted_count_matches_kernel() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let f = BoolFn::random(VarSet::from_slice(&vars(7)), &mut rng);
        let vt = Vtree::balanced(&vars(7)).unwrap();
        let mut m = SddManager::new(vt);
        let r = m.from_boolfn(&f);
        let probs = [0.05, 0.25, 0.5, 0.75, 0.95, 0.33, 0.66];
        let a = m.probability(r, |u| probs[u.index()]);
        let b = f.probability(|u| probs[u.index()]);
        assert!((a - b).abs() < 1e-12, "sdd {a} vs kernel {b}");
    }

    #[test]
    fn disjointness_width_small_on_interleaved_vtree() {
        // D_n with the pairs (x_i, y_i) grouped: SDD width stays small.
        let n = 4;
        let (f, xs, ys) = families::disjointness(n);
        let mut interleaved = Vec::new();
        for i in 0..n {
            interleaved.push(xs[i]);
            interleaved.push(ys[i]);
        }
        let vt = Vtree::right_linear(&interleaved).unwrap();
        let mut m = SddManager::new(vt);
        let r = m.from_boolfn(&f);
        assert!(m.width(r) <= 6, "width {}", m.width(r));
        assert_eq!(m.count_models(r), 3u128.pow(n as u32));
    }

    #[test]
    fn size_and_width_zero_for_terminals_and_literals() {
        let mut m = balanced_mgr(3);
        assert_eq!(m.size(TRUE), 0);
        let x = m.literal(v(1), false);
        assert_eq!(m.size(x), 0);
        assert_eq!(m.width(x), 0);
    }

    #[test]
    fn apply_on_obdd_vtree_matches_obdd_counts() {
        // Right-linear vtree: SDDs degenerate to OBDD-like structures; model
        // counts must agree with the OBDD package.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let f = BoolFn::random(VarSet::from_slice(&vars(6)), &mut rng);
        let vt = Vtree::right_linear(&vars(6)).unwrap();
        let mut m = SddManager::new(vt);
        let r = m.from_boolfn(&f);
        let mut ob = obdd::Obdd::new(vars(6));
        let or = ob.from_boolfn(&f);
        assert_eq!(m.count_models(r), ob.count_models(or));
    }

    #[test]
    fn elements_are_stored_exactly_once_and_borrowed() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let f = BoolFn::random(VarSet::from_slice(&vars(6)), &mut rng);
        let mut m = balanced_mgr(6);
        let r = m.from_boolfn(&f);
        // Every decision's range resolves inside the arena, ranges are
        // disjoint per node, and the total arena length is the sum of all
        // interned decisions' element counts (each stored exactly once).
        let mut total = 0usize;
        for id in 0..m.num_allocated() {
            if let SddNode::Decision { elems, .. } = m.node(SddId(id as u32)) {
                assert!(elems.end as usize <= m.num_elements());
                assert!(elems.start < elems.end, "no empty decisions");
                total += elems.len();
                let slice = m.elements_of(SddId(id as u32));
                assert!(slice.windows(2).all(|w| w[0].0 < w[1].0), "sorted by prime");
            }
        }
        assert_eq!(total, m.num_elements(), "arena holds each element once");
        assert!(m.memory_bytes() > 0);
        let _ = r;
    }

    #[test]
    fn unique_table_probe_and_insert_counters_move() {
        let mut m = balanced_mgr(4);
        let before = m.apply_stats();
        assert_eq!(before.unique_inserts, 0);
        let x0 = m.literal(v(0), true);
        let x2 = m.literal(v(2), true);
        let g = m.and(x0, x2);
        let mid = m.apply_stats();
        assert!(mid.unique_inserts > 0, "a decision was interned");
        assert!(mid.unique_probes >= mid.unique_inserts);
        // The same apply again: pure cache hit, no interning.
        let g2 = m.and(x0, x2);
        assert_eq!(g, g2);
        let after = m.apply_stats();
        assert_eq!(after.unique_inserts, mid.unique_inserts);
        assert_eq!(after.cache_hits, mid.cache_hits + 1);
    }

    #[test]
    fn interning_survives_unique_table_growth() {
        // Enough distinct decisions to force several growth rounds, then
        // every one of them must still be found (canonicity: re-building an
        // equal decision returns the same id).
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 10u32;
        let mut m = balanced_mgr(n);
        let mut roots = Vec::new();
        for _ in 0..40 {
            let f = BoolFn::random(VarSet::from_slice(&vars(n)), &mut rng);
            roots.push((f.clone(), m.from_boolfn(&f)));
        }
        for (f, r) in roots {
            assert_eq!(m.from_boolfn(&f), r, "canonicity across table growth");
        }
    }

    /// Both engines build the same nodes in the same order: compiling a
    /// circuit through the public `and`/`or` (recursive fast path, spilling
    /// past its fuel) and with every apply forced through the frame machine
    /// gives the same root, the same node and arena counts and the same
    /// `ApplyStats`. Left-linear vtrees put most accumulators left of the
    /// lca, where the absorbing-sub skip fires on every product; the
    /// 120-variable clause chain is deep enough to spill the fast path.
    #[test]
    fn recursive_and_worklist_engines_build_identical_nodes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut cases: Vec<(circuit::Circuit, Vtree)> = Vec::new();
        for round in 0..24u32 {
            let n = 4 + round % 9;
            let c = circuit::families::random_circuit(n as usize, 3 * n as usize, &mut rng);
            let vt = match round % 3 {
                0 => Vtree::random(&vars(n), &mut rng).unwrap(),
                1 => Vtree::left_linear(&vars(n)).unwrap(),
                _ => Vtree::right_linear(&vars(n)).unwrap(),
            };
            cases.push((c, vt));
        }
        let deep = vars(120);
        for vt in [Vtree::left_linear(&deep), Vtree::right_linear(&deep)] {
            cases.push((circuit::families::clause_chain(&deep, 3), vt.unwrap()));
        }
        for (c, vt) in cases {
            let mut rec = SddManager::new(vt.clone());
            let r1 = rec.from_circuit(&c);
            let mut wl = SddManager::new(vt);
            let r2 = wl.compile_gates(&c, |m, op, a, b| m.apply_worklist(op, a, b));
            assert_eq!(r1, r2, "same root id");
            assert_eq!(rec.num_allocated(), wl.num_allocated());
            assert_eq!(rec.num_elements(), wl.num_elements());
            assert_eq!(rec.apply_stats(), wl.apply_stats());
            rec.validate_structure(r1).unwrap();
            assert_eq!(rec.count_models_exact(r1), wl.count_models_exact(r2));
        }
    }
}
