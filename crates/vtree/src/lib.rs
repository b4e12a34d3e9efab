//! Variable trees (*vtrees*) for structured decomposability.
//!
//! A vtree for a variable set `Y` is a rooted binary tree whose leaves
//! correspond bijectively to the variables in `Y` (Bova & Szeider, §2.1;
//! Darwiche 2011). Vtrees underlie both sentential decision diagrams and the
//! canonical deterministic structured NNFs of the paper: every ∧-gate of a
//! structured circuit is *structured by* an internal vtree node, with the left
//! conjunct over the variables of the left subtree and the right conjunct over
//! those of the right subtree.
//!
//! This crate is the bottom of the workspace dependency stack, so it also
//! hosts the shared [`VarId`] newtype and the fast FxHash-style hasher used by
//! the hot hash tables across the workspace.

pub mod fxhash;
pub mod shape;

mod enumerate;

pub use enumerate::all_vtrees;
pub use shape::VtreeShape;

use std::fmt;

/// A globally scoped Boolean variable identifier.
///
/// Variables are shared across crates: the same `VarId` denotes the same
/// variable in truth tables, circuits, OBDDs, SDDs, and query lineages.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// Convenience constructor from a `usize` index.
    #[inline]
    pub fn new(i: usize) -> Self {
        VarId(i as u32)
    }

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Produce `n` fresh variables `x0..x(n-1)`.
pub fn fresh_vars(n: usize) -> Vec<VarId> {
    (0..n as u32).map(VarId).collect()
}

/// Index of a node inside a [`Vtree`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VtreeNodeId(pub u32);

impl VtreeNodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VtreeNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The payload of a vtree node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VtreeNodeKind {
    /// A leaf labelled with the variable it corresponds to.
    Leaf(VarId),
    /// An internal node with a left and right child.
    Internal {
        left: VtreeNodeId,
        right: VtreeNodeId,
    },
}

#[derive(Clone, Debug)]
struct VtreeNode {
    kind: VtreeNodeKind,
    parent: Option<VtreeNodeId>,
    depth: u32,
    /// Start of this subtree's leaves in [`Vtree::leaf_seq`] (subtree
    /// leaves are contiguous in inorder).
    leaf_start: u32,
    /// Number of leaves below (and including) this node.
    leaf_count: u32,
}

/// Which side of an internal node a descendant lies on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Errors raised by vtree construction and validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VtreeError {
    /// The variable list was empty.
    Empty,
    /// A variable occurs at more than one leaf.
    DuplicateVar(VarId),
    /// An explicit node arena (see [`Vtree::from_node_kinds`]) does not
    /// describe a rooted binary tree.
    Malformed(&'static str),
}

impl fmt::Display for VtreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VtreeError::Empty => write!(f, "vtree must have at least one leaf"),
            VtreeError::DuplicateVar(v) => write!(f, "variable {v} occurs at two leaves"),
            VtreeError::Malformed(what) => write!(f, "malformed vtree arena: {what}"),
        }
    }
}

impl std::error::Error for VtreeError {}

/// A rooted binary tree whose leaves are pairwise distinct variables.
///
/// Nodes are stored in an arena; ids are stable for the lifetime of the tree.
/// Construction precomputes, for every node `v`, the contiguous inorder leaf
/// range of the subtree rooted at `v` (the variable set `Y_v` the objects
/// `factors(F, Y_v)` and the structuredness checks are defined against) —
/// ranges into one shared leaf sequence, so the arena stays linear in the
/// variable count even for linear (chain-shaped) vtrees, where per-node
/// variable lists would cost Θ(n²) memory.
///
/// Nothing in this type recurses on the tree: construction, traversal,
/// rendering and conversion all use explicit stacks, so vtrees as deep as
/// the variable count (chain inputs) are handled on a default-size stack.
#[derive(Clone, Debug)]
pub struct Vtree {
    nodes: Vec<VtreeNode>,
    root: VtreeNodeId,
    /// Map from variable index to its leaf node (dense over the max VarId).
    leaf_of: Vec<Option<VtreeNodeId>>,
    /// The leaf variables in inorder (left-to-right); every node's subtree
    /// is a contiguous range of this sequence.
    leaf_seq: Vec<VarId>,
    /// All variables, sorted (the classical `Y_root` view).
    sorted_vars: Vec<VarId>,
    /// Binary-lifting ancestor tables: `up[k][v]` is `v`'s 2^k-th ancestor
    /// (saturating at the root), powering O(log n) [`Vtree::lca`] — the
    /// naive parent walk made every SDD apply pay Θ(depth), which is Θ(n)
    /// per apply on chain vtrees.
    up: Vec<Vec<VtreeNodeId>>,
}

impl Vtree {
    /// Build a vtree from a [`VtreeShape`].
    pub fn from_shape(shape: &VtreeShape) -> Result<Self, VtreeError> {
        // Iterative post-order over the shape (shapes are input-depth deep
        // on chain inputs); ids are assigned children-first, left subtree
        // fully before right, exactly like the former recursive builder.
        enum Walk<'a> {
            Enter(&'a VtreeShape),
            Exit,
        }
        let mut nodes: Vec<VtreeNode> = Vec::new();
        let mut built: Vec<VtreeNodeId> = Vec::new();
        let mut walk = vec![Walk::Enter(shape)];
        while let Some(w) = walk.pop() {
            match w {
                Walk::Enter(VtreeShape::Leaf(v)) => {
                    let id = VtreeNodeId(nodes.len() as u32);
                    nodes.push(VtreeNode {
                        kind: VtreeNodeKind::Leaf(*v),
                        parent: None,
                        depth: 0,
                        leaf_start: 0,
                        leaf_count: 1,
                    });
                    built.push(id);
                }
                Walk::Enter(VtreeShape::Node(l, r)) => {
                    walk.push(Walk::Exit);
                    walk.push(Walk::Enter(r));
                    walk.push(Walk::Enter(l));
                }
                Walk::Exit => {
                    let right = built.pop().expect("right child built");
                    let left = built.pop().expect("left child built");
                    let id = VtreeNodeId(nodes.len() as u32);
                    nodes.push(VtreeNode {
                        kind: VtreeNodeKind::Internal { left, right },
                        parent: None,
                        depth: 0,
                        leaf_start: 0,
                        leaf_count: 0,
                    });
                    built.push(id);
                }
            }
        }
        let root = built.pop().expect("shape has a root");
        let mut vt = Vtree {
            nodes,
            root,
            leaf_of: Vec::new(),
            leaf_seq: Vec::new(),
            sorted_vars: Vec::new(),
            up: Vec::new(),
        };
        vt.finish()?;
        Ok(vt)
    }

    /// Fill in parents, depths, leaf ranges and the variable→leaf map;
    /// validate.
    fn finish(&mut self) -> Result<(), VtreeError> {
        if self.nodes.is_empty() {
            return Err(VtreeError::Empty);
        }
        // Parents and depths via a DFS from the root.
        let mut stack = vec![(self.root, None::<VtreeNodeId>, 0u32)];
        while let Some((id, parent, depth)) = stack.pop() {
            self.nodes[id.index()].parent = parent;
            self.nodes[id.index()].depth = depth;
            if let VtreeNodeKind::Internal { left, right } = self.nodes[id.index()].kind {
                stack.push((left, Some(id), depth + 1));
                stack.push((right, Some(id), depth + 1));
            }
        }
        // Inorder leaf sequence and per-node contiguous leaf ranges, via an
        // enter/exit DFS (leaves get their inorder position; an internal
        // node spans from its left child's start over both children).
        enum Visit {
            Enter(VtreeNodeId),
            Exit(VtreeNodeId),
        }
        self.leaf_seq = Vec::new();
        let mut visits = vec![Visit::Enter(self.root)];
        while let Some(v) = visits.pop() {
            match v {
                Visit::Enter(id) => match self.nodes[id.index()].kind {
                    VtreeNodeKind::Leaf(var) => {
                        self.nodes[id.index()].leaf_start = self.leaf_seq.len() as u32;
                        self.nodes[id.index()].leaf_count = 1;
                        self.leaf_seq.push(var);
                    }
                    VtreeNodeKind::Internal { left, right } => {
                        visits.push(Visit::Exit(id));
                        visits.push(Visit::Enter(right));
                        visits.push(Visit::Enter(left));
                    }
                },
                Visit::Exit(id) => {
                    let VtreeNodeKind::Internal { left, right } = self.nodes[id.index()].kind
                    else {
                        unreachable!("only internal nodes get Exit visits")
                    };
                    self.nodes[id.index()].leaf_start = self.nodes[left.index()].leaf_start;
                    self.nodes[id.index()].leaf_count =
                        self.nodes[left.index()].leaf_count + self.nodes[right.index()].leaf_count;
                }
            }
        }
        self.sorted_vars = self.leaf_seq.clone();
        self.sorted_vars.sort_unstable();
        // Binary-lifting ancestors (root saturates to itself).
        let up0: Vec<VtreeNodeId> = (0..self.nodes.len())
            .map(|i| self.nodes[i].parent.unwrap_or(VtreeNodeId(i as u32)))
            .collect();
        let max_depth = self.nodes.iter().map(|n| n.depth).max().unwrap_or(0);
        let levels = (usize::BITS - (max_depth as usize).leading_zeros()).max(1) as usize;
        self.up = Vec::with_capacity(levels);
        self.up.push(up0);
        for k in 1..levels {
            let prev = &self.up[k - 1];
            let next: Vec<VtreeNodeId> = (0..self.nodes.len())
                .map(|i| prev[prev[i].index()])
                .collect();
            self.up.push(next);
        }
        let max_var = self
            .sorted_vars
            .last()
            .map(|v| v.index())
            .ok_or(VtreeError::Empty)?;
        self.leaf_of = vec![None; max_var + 1];
        for (i, n) in self.nodes.iter().enumerate() {
            if let VtreeNodeKind::Leaf(v) = n.kind {
                if self.leaf_of[v.index()].is_some() {
                    return Err(VtreeError::DuplicateVar(v));
                }
                self.leaf_of[v.index()] = Some(VtreeNodeId(i as u32));
            }
        }
        Ok(())
    }

    /// Rebuild a vtree from an explicit node arena — the untrusted-input
    /// constructor (snapshot loading): node `i` of the result has kind
    /// `kinds[i]`, ids are preserved exactly, and the arena is **fully
    /// validated** before anything is trusted. Accepts any arena that
    /// describes a rooted binary tree whose leaves carry pairwise
    /// distinct variables; everything else — a child index out of
    /// bounds, a node with two parents (shared substructure or a cycle),
    /// an unreachable node, the root below another node — is a typed
    /// [`VtreeError`], never a panic.
    pub fn from_node_kinds(
        kinds: Vec<VtreeNodeKind>,
        root: VtreeNodeId,
    ) -> Result<Self, VtreeError> {
        if kinds.is_empty() {
            return Err(VtreeError::Empty);
        }
        let n = kinds.len();
        if root.index() >= n {
            return Err(VtreeError::Malformed("root out of bounds"));
        }
        // Tree-ness: every child reference in bounds, every node except
        // the root the child of exactly one parent. In-degree 1 for all
        // non-root nodes plus reachability from the root rules out
        // cycles, sharing, and disconnected components in one pass.
        let mut indegree = vec![0u8; n];
        for k in &kinds {
            if let VtreeNodeKind::Internal { left, right } = *k {
                if left.index() >= n || right.index() >= n {
                    return Err(VtreeError::Malformed("child out of bounds"));
                }
                if left == right {
                    return Err(VtreeError::Malformed("node is both children of a parent"));
                }
                for c in [left, right] {
                    if indegree[c.index()] == 1 {
                        return Err(VtreeError::Malformed("node has two parents"));
                    }
                    indegree[c.index()] = 1;
                }
            }
        }
        if indegree[root.index()] != 0 {
            return Err(VtreeError::Malformed("root has a parent"));
        }
        let mut reached = 0usize;
        let mut stack = vec![root];
        let mut seen = vec![false; n];
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                // Unreachable with indegree ≤ 1, but cheap to keep.
                return Err(VtreeError::Malformed("node has two parents"));
            }
            seen[id.index()] = true;
            reached += 1;
            if let VtreeNodeKind::Internal { left, right } = kinds[id.index()] {
                stack.push(left);
                stack.push(right);
            }
        }
        if reached != n {
            return Err(VtreeError::Malformed("unreachable nodes in the arena"));
        }
        let nodes = kinds
            .into_iter()
            .map(|kind| VtreeNode {
                kind,
                parent: None,
                depth: 0,
                leaf_start: 0,
                leaf_count: 0,
            })
            .collect();
        let mut vt = Vtree {
            nodes,
            root,
            leaf_of: Vec::new(),
            leaf_seq: Vec::new(),
            sorted_vars: Vec::new(),
            up: Vec::new(),
        };
        vt.finish()?;
        Ok(vt)
    }

    /// A right-linear vtree over `vars` in the given order.
    ///
    /// Right-linear vtrees are exactly the vtrees of OBDDs respecting the
    /// variable order `vars` (Darwiche 2011; paper §3.2.2).
    pub fn right_linear(vars: &[VarId]) -> Result<Self, VtreeError> {
        if vars.is_empty() {
            return Err(VtreeError::Empty);
        }
        let mut shape = VtreeShape::Leaf(vars[vars.len() - 1]);
        for &v in vars[..vars.len() - 1].iter().rev() {
            shape = VtreeShape::Node(Box::new(VtreeShape::Leaf(v)), Box::new(shape));
        }
        Self::from_shape(&shape)
    }

    /// A left-linear vtree over `vars`: every *right* child is a leaf, and a
    /// postorder traversal of the right leaves yields `vars[1..]`.
    pub fn left_linear(vars: &[VarId]) -> Result<Self, VtreeError> {
        if vars.is_empty() {
            return Err(VtreeError::Empty);
        }
        let mut shape = VtreeShape::Leaf(vars[0]);
        for &v in &vars[1..] {
            shape = VtreeShape::Node(Box::new(shape), Box::new(VtreeShape::Leaf(v)));
        }
        Self::from_shape(&shape)
    }

    /// A balanced vtree over `vars` (recursive halving).
    pub fn balanced(vars: &[VarId]) -> Result<Self, VtreeError> {
        fn rec(vars: &[VarId]) -> VtreeShape {
            if vars.len() == 1 {
                VtreeShape::Leaf(vars[0])
            } else {
                let mid = vars.len() / 2;
                VtreeShape::Node(Box::new(rec(&vars[..mid])), Box::new(rec(&vars[mid..])))
            }
        }
        if vars.is_empty() {
            return Err(VtreeError::Empty);
        }
        Self::from_shape(&rec(vars))
    }

    /// A uniformly random vtree shape over a uniformly random permutation of
    /// `vars`.
    pub fn random<R: rand::Rng>(vars: &[VarId], rng: &mut R) -> Result<Self, VtreeError> {
        use rand::seq::SliceRandom;
        if vars.is_empty() {
            return Err(VtreeError::Empty);
        }
        let mut perm = vars.to_vec();
        perm.shuffle(rng);
        fn rec<R: rand::Rng>(vars: &[VarId], rng: &mut R) -> VtreeShape {
            if vars.len() == 1 {
                VtreeShape::Leaf(vars[0])
            } else {
                let cut = rng.gen_range(1..vars.len());
                VtreeShape::Node(
                    Box::new(rec(&vars[..cut], rng)),
                    Box::new(rec(&vars[cut..], rng)),
                )
            }
        }
        let shape = rec(&perm, rng);
        Self::from_shape(&shape)
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> VtreeNodeId {
        self.root
    }

    /// Total number of nodes (leaves + internal).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of variables (= leaves).
    pub fn num_vars(&self) -> usize {
        self.leaf_seq.len()
    }

    /// The node kind.
    #[inline]
    pub fn kind(&self, id: VtreeNodeId) -> &VtreeNodeKind {
        &self.nodes[id.index()].kind
    }

    /// Is `id` a leaf?
    #[inline]
    pub fn is_leaf(&self, id: VtreeNodeId) -> bool {
        matches!(self.nodes[id.index()].kind, VtreeNodeKind::Leaf(_))
    }

    /// The variable at a leaf (None for internal nodes).
    pub fn leaf_var(&self, id: VtreeNodeId) -> Option<VarId> {
        match self.nodes[id.index()].kind {
            VtreeNodeKind::Leaf(v) => Some(v),
            _ => None,
        }
    }

    /// Children of an internal node.
    pub fn children(&self, id: VtreeNodeId) -> Option<(VtreeNodeId, VtreeNodeId)> {
        match self.nodes[id.index()].kind {
            VtreeNodeKind::Internal { left, right } => Some((left, right)),
            _ => None,
        }
    }

    /// Parent of a node (None at the root).
    #[inline]
    pub fn parent(&self, id: VtreeNodeId) -> Option<VtreeNodeId> {
        self.nodes[id.index()].parent
    }

    /// Depth of a node (root has depth 0).
    #[inline]
    pub fn depth(&self, id: VtreeNodeId) -> u32 {
        self.nodes[id.index()].depth
    }

    /// The variable set `Y_v` below node `v`, in left-to-right (inorder)
    /// leaf order — a contiguous slice of the shared leaf sequence, so the
    /// arena stays linear-sized on deep vtrees. Wrap in a sorted set type
    /// (e.g. `boolfunc::VarSet`) where set semantics are needed.
    #[inline]
    pub fn vars_below(&self, id: VtreeNodeId) -> &[VarId] {
        let n = &self.nodes[id.index()];
        &self.leaf_seq[n.leaf_start as usize..(n.leaf_start + n.leaf_count) as usize]
    }

    /// All variables of the vtree, sorted.
    pub fn vars(&self) -> &[VarId] {
        &self.sorted_vars
    }

    /// The leaf node of a variable, if the variable occurs in this vtree.
    pub fn leaf_of_var(&self, v: VarId) -> Option<VtreeNodeId> {
        self.leaf_of.get(v.index()).copied().flatten()
    }

    /// Does this vtree contain variable `v`?
    pub fn contains_var(&self, v: VarId) -> bool {
        self.leaf_of_var(v).is_some()
    }

    /// Iterate over all node ids (arena order; children precede parents).
    pub fn node_ids(&self) -> impl Iterator<Item = VtreeNodeId> {
        (0..self.nodes.len() as u32).map(VtreeNodeId)
    }

    /// Iterate over internal node ids.
    pub fn internal_nodes(&self) -> impl Iterator<Item = VtreeNodeId> + '_ {
        self.node_ids().filter(|id| !self.is_leaf(*id))
    }

    /// Iterate over leaf node ids.
    pub fn leaves(&self) -> impl Iterator<Item = VtreeNodeId> + '_ {
        self.node_ids().filter(|id| self.is_leaf(*id))
    }

    /// Variables in left-to-right (inorder) leaf order.
    pub fn leaf_order(&self) -> Vec<VarId> {
        self.leaf_seq.clone()
    }

    /// Is `desc` in the subtree rooted at `anc` (inclusive)? O(1) via the
    /// inorder leaf ranges (a subtree's leaves are a contiguous range, and
    /// ranges of distinct nodes never coincide in a binary tree).
    pub fn is_descendant(&self, desc: VtreeNodeId, anc: VtreeNodeId) -> bool {
        let (d, a) = (&self.nodes[desc.index()], &self.nodes[anc.index()]);
        a.leaf_start <= d.leaf_start && d.leaf_start + d.leaf_count <= a.leaf_start + a.leaf_count
    }

    /// Lowest common ancestor of two nodes — O(log n) via binary lifting
    /// (the parent-pointer walk was Θ(depth), which made every SDD apply on
    /// a chain vtree pay Θ(n)).
    pub fn lca(&self, a: VtreeNodeId, b: VtreeNodeId) -> VtreeNodeId {
        if self.is_descendant(b, a) {
            return a;
        }
        if self.is_descendant(a, b) {
            return b;
        }
        // Lift `a` to the highest ancestor NOT containing `b`; its parent
        // is the lca.
        let mut a = a;
        for k in (0..self.up.len()).rev() {
            let anc = self.up[k][a.index()];
            if !self.is_descendant(b, anc) {
                a = anc;
            }
        }
        self.parent(a)
            .expect("distinct subtrees join below the root")
    }

    /// Which side of internal node `anc` contains `desc`?
    ///
    /// Returns `None` if `desc == anc`, if `anc` is a leaf, or if `desc` is
    /// not below `anc`.
    pub fn side_of(&self, anc: VtreeNodeId, desc: VtreeNodeId) -> Option<Side> {
        let (left, right) = self.children(anc)?;
        if self.is_descendant(desc, left) {
            Some(Side::Left)
        } else if self.is_descendant(desc, right) {
            Some(Side::Right)
        } else {
            None
        }
    }

    /// Every node with both children before their parent (reverse
    /// preorder) — the evaluation order of the bottom-up engines
    /// (`sdd::eval`'s smoothing-gap tables, `kb`'s circuit unfolding).
    pub fn bottom_up_order(&self) -> Vec<VtreeNodeId> {
        let mut order = Vec::with_capacity(self.num_nodes());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            order.push(n);
            if let Some((l, r)) = self.children(n) {
                stack.push(l);
                stack.push(r);
            }
        }
        order.reverse();
        order
    }

    /// Walk from `scope` down to `target` (a descendant-or-self of
    /// `scope`), visiting the root of every subtree branched *away* from —
    /// exactly the subtrees whose variables lie below `scope` but not
    /// below `target`. This is the smoothing walk shared by every
    /// gap-smoothed evaluation: the SDD evaluators in `sdd::eval`, and the
    /// `kb` unfold that bakes the smoothing into the arithmetic circuit
    /// serving sessions sweep.
    ///
    /// Panics if `target` is not below `scope`.
    pub fn gap_subtrees(
        &self,
        scope: VtreeNodeId,
        target: VtreeNodeId,
        mut visit: impl FnMut(VtreeNodeId),
    ) {
        let mut cur = scope;
        while cur != target {
            let (l, r) = self.children(cur).expect("target strictly below scope");
            match self.side_of(cur, target) {
                Some(Side::Left) => {
                    visit(r);
                    cur = l;
                }
                Some(Side::Right) => {
                    visit(l);
                    cur = r;
                }
                None => panic!("gap_subtrees: target not below scope"),
            }
        }
    }

    /// If this vtree is right-linear (every left child a leaf), the variable
    /// order it induces; otherwise `None`.
    pub fn linear_order(&self) -> Option<Vec<VarId>> {
        let mut order = Vec::with_capacity(self.num_vars());
        let mut cur = self.root;
        loop {
            match self.nodes[cur.index()].kind {
                VtreeNodeKind::Leaf(v) => {
                    order.push(v);
                    return Some(order);
                }
                VtreeNodeKind::Internal { left, right } => {
                    let VtreeNodeKind::Leaf(v) = self.nodes[left.index()].kind else {
                        return None;
                    };
                    order.push(v);
                    cur = right;
                }
            }
        }
    }

    /// Is this vtree right-linear?
    pub fn is_right_linear(&self) -> bool {
        self.linear_order().is_some()
    }

    /// Export as a [`VtreeShape`] (useful for re-rooting / transformation).
    pub fn to_shape(&self) -> VtreeShape {
        // Post-order over bottom_up_order: children are built before their
        // parent, so each internal node pops its finished subtrees.
        let mut shapes: Vec<Option<VtreeShape>> = vec![None; self.num_nodes()];
        for id in self.bottom_up_order() {
            let s = match self.nodes[id.index()].kind {
                VtreeNodeKind::Leaf(v) => VtreeShape::Leaf(v),
                VtreeNodeKind::Internal { left, right } => VtreeShape::node(
                    shapes[left.index()].take().expect("child shape built"),
                    shapes[right.index()].take().expect("child shape built"),
                ),
            };
            shapes[id.index()] = Some(s);
        }
        shapes[self.root.index()].take().expect("root shape built")
    }
}

impl fmt::Display for Vtree {
    /// Nested-parenthesis rendering, e.g. `((x0 x1) x2)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        enum Tok {
            Node(VtreeNodeId),
            Text(&'static str),
        }
        let mut stack = vec![Tok::Node(self.root)];
        while let Some(t) = stack.pop() {
            match t {
                Tok::Text(s) => f.write_str(s)?,
                Tok::Node(id) => match self.nodes[id.index()].kind {
                    VtreeNodeKind::Leaf(v) => write!(f, "{v}")?,
                    VtreeNodeKind::Internal { left, right } => {
                        f.write_str("(")?;
                        stack.push(Tok::Text(")"));
                        stack.push(Tok::Node(right));
                        stack.push(Tok::Text(" "));
                        stack.push(Tok::Node(left));
                    }
                },
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(n: usize) -> Vec<VarId> {
        fresh_vars(n)
    }

    #[test]
    fn right_linear_order_roundtrip() {
        let vs = vars(5);
        let vt = Vtree::right_linear(&vs).unwrap();
        assert_eq!(vt.linear_order().unwrap(), vs);
        assert!(vt.is_right_linear());
        assert_eq!(vt.num_vars(), 5);
        assert_eq!(vt.num_nodes(), 9);
    }

    #[test]
    fn left_linear_is_not_right_linear() {
        let vs = vars(4);
        let vt = Vtree::left_linear(&vs).unwrap();
        assert!(!vt.is_right_linear());
        assert_eq!(vt.leaf_order(), vs);
    }

    #[test]
    fn single_leaf_is_both() {
        let vs = vars(1);
        let vt = Vtree::right_linear(&vs).unwrap();
        assert!(vt.is_right_linear());
        assert_eq!(vt.num_nodes(), 1);
        assert_eq!(vt.root(), VtreeNodeId(0));
    }

    #[test]
    fn balanced_vars_below() {
        let vs = vars(7);
        let vt = Vtree::balanced(&vs).unwrap();
        assert_eq!(vt.vars(), &vs[..]);
        let (l, r) = vt.children(vt.root()).unwrap();
        assert_eq!(vt.vars_below(l), &vs[..3]);
        assert_eq!(vt.vars_below(r), &vs[3..]);
    }

    #[test]
    fn lca_and_sides() {
        let vs = vars(4);
        let vt = Vtree::balanced(&vs).unwrap(); // ((x0 x1) (x2 x3))
        let l0 = vt.leaf_of_var(vs[0]).unwrap();
        let l3 = vt.leaf_of_var(vs[3]).unwrap();
        assert_eq!(vt.lca(l0, l3), vt.root());
        assert_eq!(vt.side_of(vt.root(), l0), Some(Side::Left));
        assert_eq!(vt.side_of(vt.root(), l3), Some(Side::Right));
        let l1 = vt.leaf_of_var(vs[1]).unwrap();
        let inner = vt.lca(l0, l1);
        assert_ne!(inner, vt.root());
        assert!(vt.is_descendant(inner, vt.root()));
        assert!(!vt.is_descendant(vt.root(), inner));
    }

    #[test]
    fn bottom_up_order_puts_children_first() {
        let vt = Vtree::balanced(&vars(6)).unwrap();
        let order = vt.bottom_up_order();
        assert_eq!(order.len(), vt.num_nodes());
        let pos = |n: VtreeNodeId| order.iter().position(|&m| m == n).unwrap();
        for n in vt.node_ids() {
            if let Some((l, r)) = vt.children(n) {
                assert!(pos(l) < pos(n) && pos(r) < pos(n), "child before parent");
            }
        }
    }

    #[test]
    fn gap_subtrees_are_exactly_the_off_path_subtrees() {
        let vs = vars(4);
        let vt = Vtree::balanced(&vs).unwrap(); // ((x0 x1) (x2 x3))
        let l0 = vt.leaf_of_var(vs[0]).unwrap();
        let mut gaps = Vec::new();
        vt.gap_subtrees(vt.root(), l0, |t| gaps.push(t));
        // Walking root → x0 branches away (x2 x3), then x1.
        let skipped: Vec<Vec<VarId>> = gaps.iter().map(|&t| vt.vars_below(t).to_vec()).collect();
        assert_eq!(skipped, vec![vec![vs[2], vs[3]], vec![vs[1]]]);
        // Walking to itself branches away nothing.
        let mut none = Vec::new();
        vt.gap_subtrees(l0, l0, |t| none.push(t));
        assert!(none.is_empty());
    }

    #[test]
    fn duplicate_var_rejected() {
        let v = VarId(0);
        let shape = VtreeShape::Node(Box::new(VtreeShape::Leaf(v)), Box::new(VtreeShape::Leaf(v)));
        assert_eq!(
            Vtree::from_shape(&shape).unwrap_err(),
            VtreeError::DuplicateVar(v)
        );
    }

    #[test]
    fn random_vtree_valid() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let vs = vars(9);
        for _ in 0..20 {
            let vt = Vtree::random(&vs, &mut rng).unwrap();
            assert_eq!(vt.num_vars(), 9);
            assert_eq!(vt.vars(), &vs[..]);
            assert_eq!(vt.num_nodes(), 17);
        }
    }

    #[test]
    fn display_nested() {
        let vs = vars(3);
        let vt = Vtree::right_linear(&vs).unwrap();
        assert_eq!(vt.to_string(), "(x0 (x1 x2))");
    }

    #[test]
    fn shape_roundtrip() {
        let vs = vars(6);
        let vt = Vtree::balanced(&vs).unwrap();
        let vt2 = Vtree::from_shape(&vt.to_shape()).unwrap();
        assert_eq!(vt.to_string(), vt2.to_string());
    }

    #[test]
    fn from_node_kinds_roundtrips_ids_exactly() {
        let vs = vars(6);
        for vt in [
            Vtree::balanced(&vs).unwrap(),
            Vtree::right_linear(&vs).unwrap(),
            Vtree::left_linear(&vs).unwrap(),
        ] {
            let kinds: Vec<VtreeNodeKind> = vt.node_ids().map(|id| vt.kind(id).clone()).collect();
            let back = Vtree::from_node_kinds(kinds, vt.root()).unwrap();
            assert_eq!(back.root(), vt.root());
            assert_eq!(back.num_nodes(), vt.num_nodes());
            for id in vt.node_ids() {
                assert_eq!(back.kind(id), vt.kind(id));
                assert_eq!(back.parent(id), vt.parent(id));
                assert_eq!(back.depth(id), vt.depth(id));
                assert_eq!(back.vars_below(id), vt.vars_below(id));
            }
            assert_eq!(back.to_string(), vt.to_string());
        }
    }

    #[test]
    fn from_node_kinds_rejects_malformed_arenas() {
        use VtreeNodeKind as K;
        let leaf = |i: u32| K::Leaf(VarId(i));
        let node = |l: u32, r: u32| K::Internal {
            left: VtreeNodeId(l),
            right: VtreeNodeId(r),
        };
        let m = |kinds: Vec<K>, root: u32| Vtree::from_node_kinds(kinds, VtreeNodeId(root));
        assert_eq!(m(vec![], 0).unwrap_err(), VtreeError::Empty);
        // Root out of bounds.
        assert!(matches!(m(vec![leaf(0)], 5), Err(VtreeError::Malformed(_))));
        // Child out of bounds.
        assert!(matches!(
            m(vec![leaf(0), node(0, 9)], 1),
            Err(VtreeError::Malformed(_))
        ));
        // Shared child (DAG, not a tree).
        assert!(matches!(
            m(vec![leaf(0), node(0, 0), node(1, 0)], 2),
            Err(VtreeError::Malformed(_))
        ));
        // Root below another node.
        assert!(matches!(
            m(vec![leaf(0), leaf(1), node(0, 1)], 0),
            Err(VtreeError::Malformed(_))
        ));
        // Unreachable extra node.
        assert!(matches!(
            m(vec![leaf(0), leaf(1), node(0, 1), leaf(2)], 2),
            Err(VtreeError::Malformed(_))
        ));
        // Self-loop.
        assert!(matches!(
            m(vec![leaf(0), node(1, 0)], 1),
            Err(VtreeError::Malformed(_))
        ));
        // Duplicate variables still come back as DuplicateVar.
        assert_eq!(
            m(vec![leaf(3), leaf(3), node(0, 1)], 2).unwrap_err(),
            VtreeError::DuplicateVar(VarId(3))
        );
    }

    #[test]
    fn leaf_order_matches_inorder() {
        let vs = vars(5);
        let vt = Vtree::balanced(&vs).unwrap();
        assert_eq!(vt.leaf_order(), vs);
    }
}
