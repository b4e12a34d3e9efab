//! The smoothed arithmetic circuit: the one evaluator of a compiled SDD.
//!
//! An SDD is deterministic and decomposable, so once it is **smoothed**
//! every counting query is one bottom-up pass over a commutative semiring
//! (Darwiche's arithmetic-circuit view). [`Ac::build`] makes that circuit
//! explicit: it unfolds the SDD once into a DAG of `⊕`/`⊗` gates with one
//! shared leaf per literal and one shared, division-free smoothing
//! subcircuit `⊗ (w⁻ ⊕ w⁺)` per vtree node, stored in topological order —
//! the upward pass is a forward sweep, the downward pass (the derivative
//! of the count with respect to every literal weight) a reverse one.
//!
//! The graph is stored **CSR-style** — parallel `kinds`/`meta` arrays plus
//! one flat `children` array that per-gate `(start, end)` ranges tile — so
//! a circuit is four contiguous buffers with no per-gate allocation: the
//! fast layout for the sweeps and the snapshot layout alike.
//!
//! [`Ac::eval_lanes`] is the workspace's **one upward sweep**, over lane
//! columns ([`LaneSemiring`]); a single evaluation is its one-lane case.
//! The one-shot `evaluate` family of [`FrozenSdd`] ([`crate::eval`]) is an
//! unfold plus one sweep, and every `kb::KbSession` query is a sweep of the
//! base's circuit, or one of its two-pass forms [`Ac::marginals_lanes`]
//! and [`Ac::mpe_lanes`]; [`Ac::top_k`] walks the same gate order.
//!
//! No pass recurses on input-sized structure (the workspace's
//! **iterative-engine invariant**): the unfold walks decisions in
//! interning order (ascending [`SddId`] is topological), the sweeps are
//! indexed, and the MPE/top-k decoders walk with explicit stacks, so
//! 100k-variable circuits sweep on a default-size thread stack.

use crate::{FrozenSdd, SddId, SddNode};
use arith::{LaneSemiring, MaxPlus};
use vtree::fxhash::FxHashMap;
use vtree::{VarId, VtreeNodeId};

/// Index into the gate arrays of [`Ac`].
pub(crate) type AcId = u32;

/// Gate kinds (the `kinds` byte per gate).
pub(crate) const K_ZERO: u8 = 0;
/// A literal-weight leaf; `meta` = (dense var index, positive as 0/1).
pub(crate) const K_LEAF: u8 = 1;
/// `⊕` over a `children` range; `meta` = (start, end).
pub(crate) const K_ADD: u8 = 2;
/// `⊗` over a `children` range; `meta` = (start, end).
pub(crate) const K_MUL: u8 = 3;

/// The unfolded, smoothed arithmetic circuit of one compiled SDD root.
///
/// Gate ids are a topological order (children strictly below parents), so
/// evaluation is a single indexed sweep in either direction. Gate `0` is
/// the shared constant-zero gate. Variables are dense: variable `i` is the
/// `i`-th of the vtree's [`vtree::Vtree::vars`], and every weight table
/// the sweeps take is laid out in that order.
///
/// The circuit is plain owned data with no back-reference into the store
/// it was unfolded from (gate ids are its own dense ids), so a serving
/// base carries it into the `Send + Sync` tier unchanged, and a snapshot
/// persists the four buffers verbatim.
pub struct Ac {
    /// One kind byte per gate ([`K_ZERO`]…[`K_MUL`]).
    pub(crate) kinds: Vec<u8>,
    /// Per gate: leaf `(var, positive)`, or child range `(start, end)`.
    pub(crate) meta: Vec<(u32, u32)>,
    /// Flattened child lists; each `⊕`/`⊗` gate owns one contiguous range.
    pub(crate) children: Vec<AcId>,
    pub(crate) root: AcId,
    /// Per dense variable: the shared `(¬v, v)` leaf ids.
    pub(crate) leaves: Vec<(AcId, AcId)>,
}

/// Transient state while unfolding the SDD (see [`Ac::build`]).
struct Builder<'m> {
    sdd: &'m FrozenSdd,
    kinds: Vec<u8>,
    meta: Vec<(u32, u32)>,
    children: Vec<AcId>,
    /// Per vtree node: the shared smoothing subcircuit `⊗ (w⁻ ⊕ w⁺)`.
    gapc: Vec<AcId>,
    /// Per store node (indexed by [`SddId`]): a decision's unsmoothed
    /// `⊕ (prime ⊗ sub)` gate, once unfolded.
    rawc: Vec<AcId>,
    var_index: FxHashMap<VarId, u32>,
    leaves: Vec<(AcId, AcId)>,
    /// The factor list [`Builder::smoothed`] assembles, kept across calls
    /// so the unfold does not allocate one per element.
    factors: Vec<AcId>,
}

impl<'m> Builder<'m> {
    /// Push a childless gate (zero or leaf).
    fn push(&mut self, kind: u8, meta: (u32, u32)) -> AcId {
        let id = self.kinds.len() as AcId;
        self.kinds.push(kind);
        self.meta.push(meta);
        id
    }

    /// Push an `⊕`/`⊗` gate, appending its child list to the flat array.
    fn push_gate(&mut self, kind: u8, ch: &[AcId]) -> AcId {
        let start = self.children.len() as u32;
        self.children.extend_from_slice(ch);
        self.push(kind, (start, self.children.len() as u32))
    }

    /// AC gate computing `a`'s value over the scope of vtree node `scope`.
    fn scoped(&mut self, a: SddId, scope: VtreeNodeId) -> AcId {
        match self.sdd.node(a) {
            SddNode::False => 0,
            SddNode::True => self.gapc[scope.index()],
            SddNode::Literal { var, positive } => {
                let vi = self.var_index[var] as usize;
                let leaf = if *positive {
                    self.leaves[vi].1
                } else {
                    self.leaves[vi].0
                };
                let target = self.sdd.vtree().leaf_of_var(*var).expect("var in vtree");
                self.smoothed(leaf, scope, target)
            }
            SddNode::Decision { vnode, .. } => {
                let (vnode, raw) = (*vnode, self.rawc[a.index()]);
                self.smoothed(raw, scope, vnode)
            }
        }
    }

    /// Multiply `base` by the smoothing gaps of every subtree branched away
    /// from on the vtree walk `scope → target` ([`vtree::Vtree::gap_subtrees`]).
    fn smoothed(&mut self, base: AcId, scope: VtreeNodeId, target: VtreeNodeId) -> AcId {
        let mut factors = std::mem::take(&mut self.factors);
        factors.clear();
        factors.push(base);
        let gapc = &self.gapc;
        self.sdd
            .vtree()
            .gap_subtrees(scope, target, |t| factors.push(gapc[t.index()]));
        let id = if factors.len() == 1 {
            base
        } else {
            self.push_gate(K_MUL, &factors)
        };
        self.factors = factors;
        id
    }
}

impl Ac {
    /// Unfold the SDD rooted at `root` into its smoothed arithmetic
    /// circuit over all of the store's vtree variables. A serving base
    /// runs this once; every query afterwards is a sweep (or two) over the
    /// result.
    pub fn build(sdd: &FrozenSdd, root: SddId) -> Ac {
        let vt = sdd.vtree();
        let vars = vt.vars();
        let mut b = Builder {
            sdd,
            kinds: vec![K_ZERO],
            meta: vec![(0, 0)],
            children: Vec::new(),
            gapc: vec![0; vt.num_nodes()],
            rawc: vec![0; sdd.num_allocated()],
            var_index: vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u32))
                .collect(),
            leaves: Vec::with_capacity(vars.len()),
            factors: Vec::new(),
        };
        // Shared literal leaves, one pair per variable.
        for i in 0..vars.len() as u32 {
            let neg = b.push(K_LEAF, (i, 0));
            let pos = b.push(K_LEAF, (i, 1));
            b.leaves.push((neg, pos));
        }
        // Smoothing subcircuits, bottom-up over the vtree.
        for n in vt.bottom_up_order() {
            b.gapc[n.index()] = match vt.children(n) {
                None => {
                    let v = vt.leaf_var(n).expect("leaf");
                    let (neg, pos) = b.leaves[b.var_index[&v] as usize];
                    b.push_gate(K_ADD, &[neg, pos])
                }
                Some((l, r)) => {
                    let (gl, gr) = (b.gapc[l.index()], b.gapc[r.index()]);
                    b.push_gate(K_MUL, &[gl, gr])
                }
            };
        }
        // Decision nodes in ascending id order — the manager creates
        // children before parents, so this is a topological order.
        let mut decisions = sdd.reachable_decisions(root);
        decisions.sort_unstable();
        for d in decisions {
            let SddNode::Decision { vnode, .. } = sdd.node(d) else {
                unreachable!("reachable_decisions returns decisions");
            };
            let vnode = *vnode;
            let (lv, rv) = vt.children(vnode).expect("internal vnode");
            // The element slice is borrowed straight from the store's
            // arena — the unfold never clones element lists.
            let parts: Vec<AcId> = sdd
                .elements_of(d)
                .iter()
                .map(|&(p, s)| {
                    let pa = b.scoped(p, lv);
                    let sa = b.scoped(s, rv);
                    b.push_gate(K_MUL, &[pa, sa])
                })
                .collect();
            let raw = b.push_gate(K_ADD, &parts);
            b.rawc[d.index()] = raw;
        }
        let root_ac = b.scoped(root, vt.root());
        Ac {
            kinds: b.kinds,
            meta: b.meta,
            children: b.children,
            root: root_ac,
            leaves: b.leaves,
        }
    }

    /// Gates in the unfolded circuit.
    pub fn size(&self) -> usize {
        self.kinds.len()
    }

    /// The root gate: its column of a value table is the circuit's value.
    pub fn root(&self) -> usize {
        self.root as usize
    }

    /// Estimated resident bytes of the circuit's buffers.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.kinds.as_slice())
            + size_of_val(self.meta.as_slice())
            + size_of_val(self.children.as_slice())
            + size_of_val(self.leaves.as_slice())
    }

    /// The child slice of gate `id` (empty for zero/leaf gates).
    #[inline]
    fn ch(&self, id: usize) -> &[AcId] {
        match self.kinds[id] {
            K_ADD | K_MUL => {
                let (start, end) = self.meta[id];
                &self.children[start as usize..end as usize]
            }
            _ => &[],
        }
    }

    /// Upward pass over `lanes` weight rows at once — the workspace's only
    /// evaluator; a scalar evaluation is the one-lane case. `weights`
    /// holds lane columns at `var * lanes + l`; the value table is written
    /// into `vals` with gate columns at `gate * lanes + l`. Each lane runs
    /// the scalar op sequence of its own weights, children folded left to
    /// right, so a lane's values do not depend on the batch width. A gate
    /// starts from its first child column instead of folding it into the
    /// identity, which is exact for every carrier (`lse(-∞, x) = x`,
    /// `max(-∞, x) = x`, `0 + x = x`) and saves one ⊕-kernel per gate. The
    /// gate dispatch is paid once per gate, not once per lane. `vals` is
    /// cleared first and keeps its allocation across sweeps.
    ///
    /// For a carrier whose values own heap memory (`needs_drop`: `Nat`,
    /// `Rat`) only the root column is promised: a column goes to its last
    /// reader by move, and every other read column is reset to zero once
    /// its last parent has read it, so the sweep holds the live frontier
    /// of big numbers rather than one per gate. For the `f64` carriers the
    /// check is a compile-time `false` and the whole table stays; the
    /// readers of the full table take only `Copy` values.
    pub fn eval_lanes<S: LaneSemiring>(
        &self,
        s: &S,
        lanes: usize,
        weights: &[(S::Elem, S::Elem)],
        vals: &mut Vec<S::Elem>,
    ) {
        let n = self.kinds.len();
        vals.clear();
        vals.reserve_exact(n * lanes);
        let release = std::mem::needs_drop::<S::Elem>();
        // Readers left per gate; the root's count never reaches zero.
        let mut readers: Vec<u32> = Vec::new();
        if release {
            readers.resize(n, 0);
            for &c in &self.children {
                readers[c as usize] += 1;
            }
            readers[self.root as usize] = u32::MAX;
        }
        for id in 0..n {
            let (a, b) = self.meta[id];
            let start = vals.len();
            let kind = self.kinds[id];
            match kind {
                K_ZERO => vals.resize(start + lanes, s.zero()),
                K_LEAF => {
                    let base = a as usize * lanes;
                    if b == 1 {
                        vals.extend(weights[base..base + lanes].iter().map(|w| w.1.clone()));
                    } else {
                        vals.extend(weights[base..base + lanes].iter().map(|w| w.0.clone()));
                    }
                }
                _ => {
                    let ch = &self.children[a as usize..b as usize];
                    let Some((&c0, rest)) = ch.split_first() else {
                        let unit = if kind == K_ADD { s.zero() } else { s.one() };
                        vals.resize(start + lanes, unit);
                        continue;
                    };
                    let c0b = c0 as usize * lanes;
                    if release && readers[c0 as usize] == 1 {
                        for i in c0b..c0b + lanes {
                            let v = std::mem::replace(&mut vals[i], s.zero());
                            vals.push(v);
                        }
                    } else {
                        vals.extend_from_within(c0b..c0b + lanes);
                    }
                    let (below, col) = vals.split_at_mut(start);
                    if kind == K_ADD {
                        for &c in rest {
                            let cb = c as usize * lanes;
                            s.add_assign_lanes(col, &below[cb..cb + lanes]);
                        }
                    } else {
                        for &c in rest {
                            let cb = c as usize * lanes;
                            s.mul_assign_lanes(col, &below[cb..cb + lanes]);
                        }
                    }
                    if release {
                        for &c in ch {
                            let left = &mut readers[c as usize];
                            *left -= 1;
                            if *left == 0 {
                                let cb = c as usize * lanes;
                                s.zero_fill(&mut below[cb..cb + lanes]);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Downward pass over an [`Ac::eval_lanes`] value table: column `g` of
    /// the result is ∂(root)/∂(gate g), the semiring generalization of
    /// backpropagation. `⊕`-gates pass their derivative through; `⊗`-gates
    /// multiply it by the product of the *other* children's values,
    /// computed with prefix/suffix products so the pass stays linear even
    /// for wide gates. A gate's *first* parent contribution is written
    /// directly into its (still all-zero) derivative column instead of
    /// ⊕-folded into it, which is exact (`lse(-∞, x) = x` bit-for-bit) and
    /// removes one full ⊕-kernel per gate; on chain-shaped circuits, where
    /// almost every gate has exactly one parent, that is nearly the whole
    /// downward ⊕ cost. It reads every column of the table, so it takes
    /// only `Copy` carriers, whose upward sweep keeps the whole table.
    pub fn backprop_lanes<S: LaneSemiring>(
        &self,
        s: &S,
        lanes: usize,
        vals: &[S::Elem],
    ) -> Vec<S::Elem>
    where
        S::Elem: Copy,
    {
        let n = self.kinds.len();
        let mut dr: Vec<S::Elem> = vec![s.zero(); n * lanes];
        let rb = self.root as usize * lanes;
        s.one_fill(&mut dr[rb..rb + lanes]);
        // Per-gate "has a parent written here yet" flags: the first write
        // to a column is a copy, later writes ⊕-fold.
        let mut seen: Vec<bool> = vec![false; n];
        seen[self.root as usize] = true;
        // Scratch columns, allocated once for the whole sweep.
        let mut prefix: Vec<S::Elem> = Vec::new();
        let mut acc: Vec<S::Elem> = vec![s.zero(); lanes];
        let mut suffix: Vec<S::Elem> = vec![s.zero(); lanes];
        let mut other: Vec<S::Elem> = vec![s.zero(); lanes];
        let mut dother: Vec<S::Elem> = vec![s.zero(); lanes];
        for id in (0..n).rev() {
            match self.kinds[id] {
                K_ADD => {
                    // Children sit strictly below the gate, so the gate's
                    // derivative column and the child columns never alias.
                    let (below, d) = dr.split_at_mut(id * lanes);
                    let d = &d[..lanes];
                    for &c in self.ch(id) {
                        let cb = c as usize * lanes;
                        if seen[c as usize] {
                            s.add_assign_lanes(&mut below[cb..cb + lanes], d);
                        } else {
                            below[cb..cb + lanes].copy_from_slice(d);
                            seen[c as usize] = true;
                        }
                    }
                }
                K_MUL => {
                    let ch_range = {
                        let (start, end) = self.meta[id];
                        start as usize..end as usize
                    };
                    let (below, d) = dr.split_at_mut(id * lanes);
                    let d = &d[..lanes];
                    let ch = &self.children[ch_range];
                    match ch.len() {
                        0 => {}
                        1 => {
                            let c = ch[0] as usize;
                            let cb = c * lanes;
                            if seen[c] {
                                s.add_assign_lanes(&mut below[cb..cb + lanes], d);
                            } else {
                                below[cb..cb + lanes].copy_from_slice(d);
                                seen[c] = true;
                            }
                        }
                        2 => {
                            let (ca, cb2) = (ch[0] as usize, ch[1] as usize);
                            let (ab, bb) = (ca * lanes, cb2 * lanes);
                            if seen[ca] {
                                s.mul_lanes_into(&mut other, d, &vals[bb..bb + lanes]);
                                s.add_assign_lanes(&mut below[ab..ab + lanes], &other);
                            } else {
                                s.mul_lanes_into(
                                    &mut below[ab..ab + lanes],
                                    d,
                                    &vals[bb..bb + lanes],
                                );
                                seen[ca] = true;
                            }
                            if seen[cb2] {
                                s.mul_lanes_into(&mut other, d, &vals[ab..ab + lanes]);
                                s.add_assign_lanes(&mut below[bb..bb + lanes], &other);
                            } else {
                                s.mul_lanes_into(
                                    &mut below[bb..bb + lanes],
                                    d,
                                    &vals[ab..ab + lanes],
                                );
                                seen[cb2] = true;
                            }
                        }
                        k => {
                            prefix.clear();
                            s.one_fill(&mut acc);
                            for &c in ch {
                                prefix.extend_from_slice(&acc);
                                let cb = c as usize * lanes;
                                s.mul_assign_lanes(&mut acc, &vals[cb..cb + lanes]);
                            }
                            s.one_fill(&mut suffix);
                            for i in (0..k).rev() {
                                let c = ch[i] as usize;
                                let cb = c * lanes;
                                s.mul_lanes_into(
                                    &mut other,
                                    &prefix[i * lanes..(i + 1) * lanes],
                                    &suffix,
                                );
                                if seen[c] {
                                    s.mul_lanes_into(&mut dother, d, &other);
                                    s.add_assign_lanes(&mut below[cb..cb + lanes], &dother);
                                } else {
                                    s.mul_lanes_into(&mut below[cb..cb + lanes], d, &other);
                                    seen[c] = true;
                                }
                                s.mul_assign_lanes(&mut suffix, &vals[cb..cb + lanes]);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        dr
    }

    /// Two-pass marginals: the root column plus, per dense variable, the
    /// unnormalized `(m⁻, m⁺)` lane columns (pairs at `var * lanes + l`) —
    /// the total weight of models setting the variable false resp. true.
    /// Smoothness guarantees `m⁻ ⊕ m⁺ = root` for every variable. `vals`
    /// receives the upward value table (see [`Ac::eval_lanes`]).
    #[allow(clippy::type_complexity)]
    pub fn marginals_lanes<S: LaneSemiring>(
        &self,
        s: &S,
        lanes: usize,
        weights: &[(S::Elem, S::Elem)],
        vals: &mut Vec<S::Elem>,
    ) -> (Vec<S::Elem>, Vec<(S::Elem, S::Elem)>)
    where
        S::Elem: Copy,
    {
        self.eval_lanes(s, lanes, weights, vals);
        let dr = self.backprop_lanes(s, lanes, vals);
        let mut pairs = Vec::with_capacity(self.leaves.len() * lanes);
        for (i, &(neg, pos)) in self.leaves.iter().enumerate() {
            let (nb, pb) = (neg as usize * lanes, pos as usize * lanes);
            for l in 0..lanes {
                let (wn, wp) = &weights[i * lanes + l];
                pairs.push((s.mul(wn, &dr[nb + l]), s.mul(wp, &dr[pb + l])));
            }
        }
        let rb = self.root as usize * lanes;
        (vals[rb..rb + lanes].to_vec(), pairs)
    }

    /// Most probable explanation per lane: one [`MaxPlus`] sweep over
    /// **log**-weights (`log_weights` holds lane columns of log pairs at
    /// `var * lanes + l`, the [`Ac::eval_lanes`] layout), then per lane a
    /// descent from the root that follows the argmax child of every
    /// `⊕`-gate (and every child of every `⊗`-gate) to read off the
    /// witnessing assignment. A lane is `None` when no model has nonzero
    /// weight (root `-∞`). The returned log-weight is the witness's exact
    /// log-weight; each variable's polarity appears exactly once because
    /// the circuit is smooth and decomposable. Ties resolve to the last
    /// maximal child (`max_by`), and the sweep's values do not depend on
    /// the lane count, so a lane's witness does not either. `vals`
    /// receives the sweep's value table (see [`Ac::eval_lanes`]).
    pub fn mpe_lanes(
        &self,
        lanes: usize,
        log_weights: &[(f64, f64)],
        vals: &mut Vec<f64>,
    ) -> Vec<Option<(f64, Vec<bool>)>> {
        self.eval_lanes(&MaxPlus, lanes, log_weights, vals);
        (0..lanes)
            .map(|l| {
                let best = vals[self.root as usize * lanes + l];
                if best == f64::NEG_INFINITY {
                    return None;
                }
                let mut assignment: Vec<Option<bool>> = vec![None; self.leaves.len()];
                let mut stack = vec![self.root];
                while let Some(id) = stack.pop() {
                    let (a, b) = self.meta[id as usize];
                    match self.kinds[id as usize] {
                        K_ZERO => unreachable!("finite-valued gates have no Zero children"),
                        K_LEAF => {
                            let slot = &mut assignment[a as usize];
                            debug_assert!(
                                slot.is_none() || *slot == Some(b == 1),
                                "decomposability: one polarity per variable"
                            );
                            *slot = Some(b == 1);
                        }
                        K_ADD => {
                            let &arg = self.children[a as usize..b as usize]
                                .iter()
                                .max_by(|&&x, &&y| {
                                    vals[x as usize * lanes + l]
                                        .partial_cmp(&vals[y as usize * lanes + l])
                                        .expect("log-weights are never NaN")
                                })
                                .expect("decisions and gaps have children");
                            stack.push(arg);
                        }
                        _ => stack.extend_from_slice(&self.children[a as usize..b as usize]),
                    }
                }
                let witness = assignment
                    .into_iter()
                    .map(|b| b.expect("smoothness: every variable decided"))
                    .collect();
                Some((best, witness))
            })
            .collect()
    }

    /// The `k` heaviest models by log-weight, each as `(log-weight,
    /// assignment over the dense variables)`, heaviest first. The sweep
    /// carries a top-`k` list per gate: `⊕` merges its children's lists
    /// (determinism — branches share no model, so no deduplication is
    /// needed), `⊗` crosses them (decomposability — scopes are disjoint, so
    /// assignments union). Models of weight zero are never materialized.
    ///
    /// Partial assignments live in a **shared cell arena** (a literal, or
    /// the disjoint union of two earlier cells) and candidates carry only a
    /// cell index; the full assignments are decoded for the `k` survivors
    /// at the very end. Materializing an `n`-bit mask per candidate per
    /// gate — the previous representation — costs Θ(size · k · n) memory,
    /// which a 100k-variable chain turns into tens of gigabytes; the arena
    /// stays linear in the number of candidates ever produced.
    pub fn top_k(&self, log_weights: &[(f64, f64)], k: usize) -> Vec<(f64, Vec<bool>)> {
        if k == 0 {
            return Vec::new();
        }
        /// One arena cell of a partial assignment.
        enum Cell {
            Lit { var: u32, positive: bool },
            Join(u32, u32),
        }
        /// The empty partial assignment (the unit of `⊗`).
        const EMPTY: u32 = u32::MAX;
        let mut cells: Vec<Cell> = Vec::new();
        // A candidate: log-weight plus its assignment cell.
        type Cand = (f64, u32);
        let by_weight_desc =
            |x: &Cand, y: &Cand| y.0.partial_cmp(&x.0).expect("no NaN log-weights");
        let mut lists: Vec<Vec<Cand>> = Vec::with_capacity(self.kinds.len());
        for id in 0..self.kinds.len() {
            let (a, b) = self.meta[id];
            let l: Vec<Cand> = match self.kinds[id] {
                K_ZERO => Vec::new(),
                K_LEAF => {
                    let (wn, wp) = log_weights[a as usize];
                    let w = if b == 1 { wp } else { wn };
                    if w == f64::NEG_INFINITY {
                        Vec::new()
                    } else {
                        let c = cells.len() as u32;
                        cells.push(Cell::Lit {
                            var: a,
                            positive: b == 1,
                        });
                        vec![(w, c)]
                    }
                }
                K_ADD => {
                    let mut merged: Vec<Cand> = Vec::new();
                    for &c in &self.children[a as usize..b as usize] {
                        merged.extend_from_slice(&lists[c as usize]);
                    }
                    merged.sort_by(by_weight_desc);
                    merged.truncate(k);
                    merged
                }
                _ => {
                    let mut acc: Vec<Cand> = vec![(0.0, EMPTY)];
                    for &c in &self.children[a as usize..b as usize] {
                        let other = &lists[c as usize];
                        let mut out: Vec<Cand> = Vec::with_capacity(acc.len() * other.len());
                        for &(wa, ca) in &acc {
                            for &(wb, cb) in other {
                                let cell = if ca == EMPTY {
                                    cb
                                } else if cb == EMPTY {
                                    ca
                                } else {
                                    let id = cells.len() as u32;
                                    cells.push(Cell::Join(ca, cb));
                                    id
                                };
                                out.push((wa + wb, cell));
                            }
                        }
                        out.sort_by(by_weight_desc);
                        out.truncate(k);
                        acc = out;
                        if acc.is_empty() {
                            break;
                        }
                    }
                    acc
                }
            };
            lists.push(l);
        }
        // Decode the survivors: walk each candidate's cell tree (scopes are
        // disjoint, so every variable is assigned exactly once; smoothness
        // guarantees every variable is assigned at all).
        lists[self.root as usize]
            .iter()
            .map(|&(w, cell)| {
                let mut asg: Vec<Option<bool>> = vec![None; self.leaves.len()];
                if cell != EMPTY {
                    let mut stack = vec![cell];
                    while let Some(c) = stack.pop() {
                        match cells[c as usize] {
                            Cell::Lit { var, positive } => {
                                debug_assert!(
                                    asg[var as usize].is_none()
                                        || asg[var as usize] == Some(positive),
                                    "decomposability: one polarity per variable"
                                );
                                asg[var as usize] = Some(positive);
                            }
                            Cell::Join(a, b) => {
                                stack.push(a);
                                stack.push(b);
                            }
                        }
                    }
                }
                let assignment = asg
                    .into_iter()
                    .map(|b| b.expect("smoothness: every variable decided"))
                    .collect();
                (w, assignment)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SddManager;
    use arith::{BigUint, LogF64, Nat};
    use vtree::Vtree;

    /// The unfolded circuit of `chain_cnf(n)` over a right-linear vtree.
    fn chain(n: u32) -> Ac {
        let vars: Vec<VarId> = (0..n).map(VarId).collect();
        let mut m = SddManager::new(Vtree::right_linear(&vars).unwrap());
        let r = m.from_circuit(&cnf::families::chain_cnf(n).to_circuit());
        Ac::build(&m, r)
    }

    /// Gates some other gate reads.
    fn has_parent(ac: &Ac) -> Vec<bool> {
        let mut read = vec![false; ac.size()];
        for &c in &ac.children {
            read[c as usize] = true;
        }
        read
    }

    #[test]
    fn exact_sweeps_keep_the_root_and_release_every_read_column() {
        let n = 40;
        let ac = chain(n);
        let read = has_parent(&ac);
        for lanes in [1usize, 3] {
            let weights = vec![(BigUint::one(), BigUint::one()); n as usize * lanes];
            let mut vals = Vec::new();
            ac.eval_lanes(&Nat, lanes, &weights, &mut vals);
            assert_eq!(vals.len(), ac.size() * lanes);
            let rb = ac.root() * lanes;
            for l in 0..lanes {
                assert_eq!(vals[rb + l], cnf::families::chain_count(n));
            }
            for g in (0..ac.size()).filter(|&g| g != ac.root() && read[g]) {
                for l in 0..lanes {
                    assert!(
                        vals[g * lanes + l].is_zero(),
                        "gate {g} lane {l} outlived its last reader"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_sweeps_keep_a_root_that_another_gate_reads() {
        // The root literal's leaf also feeds its vtree leaf's smoothing gate.
        let mut m = SddManager::new(Vtree::right_linear(&[VarId(0)]).unwrap());
        let x = m.literal(VarId(0), true);
        let ac = Ac::build(&m, x);
        assert!(has_parent(&ac)[ac.root()]);
        let mut vals = Vec::new();
        ac.eval_lanes(&Nat, 1, &[(BigUint::one(), BigUint::one())], &mut vals);
        assert_eq!(vals[ac.root()], BigUint::one());
    }

    #[test]
    fn f64_sweeps_keep_every_column() {
        let ac = chain(40);
        let weights = vec![(0.25f64.ln(), 0.75f64.ln()); 40];
        let mut vals = Vec::new();
        ac.eval_lanes(&LogF64, 1, &weights, &mut vals);
        // Every gate's column is still its own function of its children's.
        for g in 0..ac.size() {
            let want = match ac.kinds[g] {
                K_ZERO => f64::NEG_INFINITY,
                K_LEAF => {
                    let (v, pos) = ac.meta[g];
                    let (wn, wp) = weights[v as usize];
                    if pos == 1 {
                        wp
                    } else {
                        wn
                    }
                }
                K_ADD => ac.ch(g).iter().fold(f64::NEG_INFINITY, |acc, &c| {
                    arith::log_sum_exp(acc, vals[c as usize])
                }),
                _ => ac.ch(g).iter().map(|&c| vals[c as usize]).sum(),
            };
            let got = vals[g];
            assert!(
                got == want || (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "gate {g}: {got} vs {want}"
            );
        }
    }
}
