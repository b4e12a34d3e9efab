//! The smoothed arithmetic circuit every knowledge-base query sweeps.
//!
//! The semiring engine (`sdd::eval`) walks the SDD *implicitly*, recomputing
//! smoothing products from vtree paths on every visit. Marginals and MPE
//! witnesses need more than a single bottom-up value: they need the
//! **derivative** of the weighted count with respect to every literal
//! weight (Darwiche's differential approach to inference), which requires a
//! downward pass over an *explicit* computation graph. [`Ac`] is that
//! graph: the SDD unfolded — once, when the base is frozen — into a plain
//! DAG of `⊕`/`⊗` nodes with one shared leaf per literal and shared
//! smoothing subcircuits per vtree node, stored in topological order so
//! the upward pass is a forward sweep and the downward pass a reverse
//! sweep.
//!
//! The graph is stored **CSR-style** — parallel `kinds`/`meta` arrays plus
//! one flat `children` array that per-gate `(start, end)` ranges tile — so
//! a circuit is four contiguous buffers with no per-gate allocation. That
//! is both the fast layout for the sweeps (no pointer chasing) and the
//! serialization layout: a snapshot writes the buffers as raw sections and
//! a load reads them straight back.
//!
//! The sweeps run over lane columns ([`LaneSemiring`]): a batch of weight
//! rows is evaluated per gate visit, and a single query is the one-lane
//! case of the same code. Every query of a `crate::KbSession` is one of:
//!
//! * [`Ac::eval_lanes`] in `LogF64` (weighted counts), `MaxPlus` over
//!   `{0, -∞}` weights (satisfiability — decomposability makes it one
//!   bottom-up sweep) or `Nat` (exact model counts);
//! * [`Ac::marginals_lanes`]: the upward sweep plus [`Ac::backprop_lanes`]
//!   in `LogF64` → every variable's unnormalized marginal pair;
//! * [`Ac::mpe_lanes`]: the upward sweep in `MaxPlus` plus an argmax
//!   descent → the most probable explanation *with* its witness;
//! * [`Ac::top_k`] — the same sweep over lists of partial models → the `k`
//!   heaviest models, each materialized as a complete assignment.
//!
//! Everything here honors the workspace's **iterative-engine invariant**:
//! the unfold walks decisions in interning order (children before parents
//! — ascending [`SddId`] is topological), the up/down passes are indexed
//! sweeps over the stored topological order, and the MPE/top-k decoders
//! walk with explicit stacks — no pass recurses on input-sized structure,
//! so 100k-variable circuits sweep on a default-size thread stack.

use arith::{LaneSemiring, MaxPlus};
use sdd::{SddId, SddManager, SddNode};
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
/// the shared constant-zero gate.
///
/// The circuit is plain owned data with no back-reference into the manager
/// it was unfolded from (gate ids are its own dense ids), so a
/// [`crate::FrozenKb`] carries it into the `Send + Sync` serving tier
/// unchanged, and a snapshot persists the four buffers verbatim.
pub(crate) struct Ac {
    /// One kind byte per gate ([`K_ZERO`]…[`K_MUL`]).
    pub(crate) kinds: Vec<u8>,
    /// Per gate: leaf `(var, positive)`, or child range `(start, end)`.
    pub(crate) meta: Vec<(u32, u32)>,
    /// Flattened child lists; each `⊕`/`⊗` gate owns one contiguous range.
    pub(crate) children: Vec<AcId>,
    pub(crate) root: AcId,
    /// Per dense variable (the vtree's variable order): the shared
    /// `(¬v, v)` leaf ids.
    pub(crate) leaves: Vec<(AcId, AcId)>,
}

/// Transient state while unfolding the SDD (see [`Ac::build`]).
struct Builder<'m> {
    mgr: &'m SddManager,
    kinds: Vec<u8>,
    meta: Vec<(u32, u32)>,
    children: Vec<AcId>,
    /// Per vtree node: the shared smoothing subcircuit `⊗ (w⁻ ⊕ w⁺)`.
    gapc: Vec<AcId>,
    /// Per decision node: its unsmoothed `⊕ (prime ⊗ sub)` gate.
    rawc: FxHashMap<SddId, AcId>,
    var_index: FxHashMap<VarId, u32>,
    leaves: Vec<(AcId, AcId)>,
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
        match self.mgr.node(a) {
            SddNode::False => 0,
            SddNode::True => self.gapc[scope.index()],
            SddNode::Literal { var, positive } => {
                let vi = self.var_index[var] as usize;
                let leaf = if *positive {
                    self.leaves[vi].1
                } else {
                    self.leaves[vi].0
                };
                let target = self.mgr.vtree().leaf_of_var(*var).expect("var in vtree");
                self.smoothed(leaf, scope, target)
            }
            SddNode::Decision { vnode, .. } => {
                let (vnode, raw) = (*vnode, self.rawc[&a]);
                self.smoothed(raw, scope, vnode)
            }
        }
    }

    /// Multiply `base` by the smoothing gaps of every subtree branched away
    /// from on the vtree walk `scope → target` ([`vtree::Vtree::gap_subtrees`]).
    fn smoothed(&mut self, base: AcId, scope: VtreeNodeId, target: VtreeNodeId) -> AcId {
        let mut factors = vec![base];
        let gapc = &self.gapc;
        self.mgr
            .vtree()
            .gap_subtrees(scope, target, |t| factors.push(gapc[t.index()]));
        if factors.len() == 1 {
            base
        } else {
            self.push_gate(K_MUL, &factors)
        }
    }
}

impl Ac {
    /// Unfold the SDD rooted at `root` into its smoothed arithmetic
    /// circuit. Runs once per knowledge base; every query afterwards is a
    /// sweep (or two) over the result.
    pub fn build(mgr: &SddManager, root: SddId) -> Ac {
        let vt = mgr.vtree();
        let vars = vt.vars();
        let mut b = Builder {
            mgr,
            kinds: vec![K_ZERO],
            meta: vec![(0, 0)],
            children: Vec::new(),
            gapc: vec![0; vt.num_nodes()],
            rawc: FxHashMap::default(),
            var_index: vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u32))
                .collect(),
            leaves: Vec::with_capacity(vars.len()),
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
        let mut decisions = mgr.reachable_decisions(root);
        decisions.sort_unstable();
        for d in decisions {
            let SddNode::Decision { vnode, .. } = mgr.node(d) else {
                unreachable!("reachable_decisions returns decisions");
            };
            let vnode = *vnode;
            let (lv, rv) = vt.children(vnode).expect("internal vnode");
            // The element slice is borrowed straight from the manager's
            // arena — the unfold never clones element lists.
            let parts: Vec<AcId> = mgr
                .elements_of(d)
                .iter()
                .map(|&(p, s)| {
                    let pa = b.scoped(p, lv);
                    let sa = b.scoped(s, rv);
                    b.push_gate(K_MUL, &[pa, sa])
                })
                .collect();
            let raw = b.push_gate(K_ADD, &parts);
            b.rawc.insert(d, raw);
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

    /// Upward pass over `lanes` weight rows at once — the circuit's only
    /// evaluator; a scalar query is the one-lane case. `weights` holds lane
    /// columns at `var * lanes + l`; the returned value table holds gate
    /// columns at `gate * lanes + l`. Each lane runs the scalar op sequence
    /// of its own weights, children folded left to right, so a lane's
    /// values do not depend on the batch width or on its neighbours. A
    /// gate copies its first child column instead of folding it into the
    /// identity (`add(zero, c₀)`, `mul(one, c₀)`), which is exact for every
    /// carrier this crate sweeps (`lse(-∞, x) = x`, `max(-∞, x) = x` and
    /// `0 + x = x` bit-for-bit, and exactly in `Nat`) and saves one
    /// ⊕-kernel per gate. The gate dispatch (kind match, CSR range walk,
    /// bounds checks) is paid once per gate, not once per gate per lane.
    /// The table is written into `vals`, which is cleared first and keeps
    /// its allocation, so a caller that sweeps repeatedly can hold one
    /// table for all its sweeps instead of allocating one per sweep.
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
        for id in 0..n {
            let (a, b) = self.meta[id];
            let start = vals.len();
            match self.kinds[id] {
                K_ZERO => vals.resize(start + lanes, s.zero()),
                K_LEAF => {
                    let base = a as usize * lanes;
                    if b == 1 {
                        vals.extend(weights[base..base + lanes].iter().map(|w| w.1.clone()));
                    } else {
                        vals.extend(weights[base..base + lanes].iter().map(|w| w.0.clone()));
                    }
                }
                K_ADD => {
                    let ch = &self.children[a as usize..b as usize];
                    match ch.split_first() {
                        None => vals.resize(start + lanes, s.zero()),
                        Some((&c0, rest)) => {
                            let c0b = c0 as usize * lanes;
                            vals.extend_from_within(c0b..c0b + lanes);
                            let (below, col) = vals.split_at_mut(start);
                            for &c in rest {
                                let cb = c as usize * lanes;
                                s.add_assign_lanes(col, &below[cb..cb + lanes]);
                            }
                        }
                    }
                }
                _ => {
                    let ch = &self.children[a as usize..b as usize];
                    match ch.split_first() {
                        None => vals.resize(start + lanes, s.one()),
                        Some((&c0, rest)) => {
                            let c0b = c0 as usize * lanes;
                            vals.extend_from_within(c0b..c0b + lanes);
                            let (below, col) = vals.split_at_mut(start);
                            for &c in rest {
                                let cb = c as usize * lanes;
                                s.mul_assign_lanes(col, &below[cb..cb + lanes]);
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
    /// downward ⊕ cost.
    pub fn backprop_lanes<S: LaneSemiring>(
        &self,
        s: &S,
        lanes: usize,
        vals: &[S::Elem],
    ) -> Vec<S::Elem> {
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
                            below[cb..cb + lanes].clone_from_slice(d);
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
                                below[cb..cb + lanes].clone_from_slice(d);
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
    ) -> (Vec<S::Elem>, Vec<(S::Elem, S::Elem)>) {
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
