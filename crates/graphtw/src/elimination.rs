//! Elimination orders: widths, heuristics, and lower bounds.
//!
//! Treewidth equals the minimum, over all vertex elimination orders, of the
//! maximum number of higher-ordered neighbors encountered when vertices are
//! eliminated in order (each elimination turning the neighborhood into a
//! clique). The heuristics below are the standard min-degree and min-fill
//! rules; the MMD bound is the classical degeneracy lower bound.
//!
//! Min-fill keeps every alive vertex's fill count — the number of
//! non-adjacent pairs in its neighborhood — current under the two steps of
//! an elimination of `v`, rather than recounting it (Θ(deg²) probes per
//! count, which a degree-800 hub pays on every elimination of a neighbor):
//!
//! * **adding a fill edge `{a, b}`** (`a, b ∈ N(v)`, not adjacent), with
//!   `c = |N(a) ∩ N(b)|`: the new pairs `{b, x}` in `N(a)` are non-adjacent
//!   unless `x ∈ N(b)`, so `fill[a] += |N(a)| − c` and likewise for `b`; each
//!   common neighbor `w` loses its non-adjacent pair `{a, b}`, so
//!   `fill[w] −= 1`. The intersection walks the smaller neighborhood.
//! * **deleting `v`**: `N(v)` is a clique by now, so the pairs `{v, x}` a
//!   neighbor `a` loses are non-adjacent exactly for `x ∈ N(a) ∖ N[v]`:
//!   `fill[a] −= |N(a)| − |N(v)|`. No other vertex changes.
//!
//! The maintained counts equal the recounted ones after every elimination
//! (the unit tests assert this each round), and the greedy driver pops the
//! same `(score, vertex)` minimum as before, so the orders are the ones a
//! full recount per round would pick.

use crate::graph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vtree::fxhash::FxHashSet;

/// A permutation of the vertices `0..n`, eliminated left to right.
pub type EliminationOrder = Vec<u32>;

/// The greedy elimination rules.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rule {
    MinDegree,
    MinFill,
}

/// Dynamic adjacency structure for elimination simulations.
struct ElimState {
    adj: Vec<FxHashSet<u32>>,
    alive: Vec<bool>,
    /// Maintained fill counts of the alive vertices; empty unless tracked.
    fill: Vec<usize>,
    /// Vertices whose degree or fill count the last elimination changed
    /// (repeats allowed; may include the eliminated vertex).
    touched: Vec<u32>,
    /// Reused buffer for the eliminated vertex's neighborhood.
    nbrs: Vec<u32>,
}

impl ElimState {
    fn new(g: &Graph, track_fill: bool) -> Self {
        let adj = (0..g.num_vertices() as u32)
            .map(|u| g.neighbors(u).iter().copied().collect())
            .collect();
        let mut st = ElimState {
            adj,
            alive: vec![true; g.num_vertices()],
            fill: Vec::new(),
            touched: Vec::new(),
            nbrs: Vec::new(),
        };
        if track_fill {
            st.fill = (0..g.num_vertices() as u32)
                .map(|v| st.fill_count(v))
                .collect();
        }
        st
    }

    /// Eliminate `v`: connect its surviving neighbors into a clique, remove it.
    /// Returns the degree of `v` at elimination time. Maintained fill counts
    /// follow the two update rules of the module doc.
    fn eliminate(&mut self, v: u32) -> usize {
        let mut ns = std::mem::take(&mut self.nbrs);
        ns.clear();
        ns.extend(self.adj[v as usize].iter().copied());
        self.touched.clear();
        self.touched.extend_from_slice(&ns);
        let track = !self.fill.is_empty();
        for (i, &a) in ns.iter().enumerate() {
            for &b in &ns[i + 1..] {
                if self.adj[a as usize].contains(&b) {
                    continue;
                }
                if track {
                    self.count_fill_edge(a, b);
                }
                self.adj[a as usize].insert(b);
                self.adj[b as usize].insert(a);
            }
        }
        for &a in &ns {
            if track {
                self.fill[a as usize] -= self.adj[a as usize].len() - ns.len();
            }
            self.adj[a as usize].remove(&v);
        }
        self.adj[v as usize].clear();
        self.alive[v as usize] = false;
        let deg = ns.len();
        self.nbrs = ns;
        deg
    }

    /// Update the fill counts for the edge `{a, b}` about to be added.
    fn count_fill_edge(&mut self, a: u32, b: u32) {
        let ElimState {
            adj, fill, touched, ..
        } = self;
        let (na, nb) = (&adj[a as usize], &adj[b as usize]);
        let (small, large) = if na.len() <= nb.len() {
            (na, nb)
        } else {
            (nb, na)
        };
        let mut common = 0;
        for &w in small {
            if large.contains(&w) {
                common += 1;
                fill[w as usize] -= 1;
                touched.push(w);
            }
        }
        fill[a as usize] += na.len() - common;
        fill[b as usize] += nb.len() - common;
    }

    /// The fill count of `v`, recounted from scratch.
    fn fill_count(&self, v: u32) -> usize {
        let ns: Vec<u32> = self.adj[v as usize].iter().copied().collect();
        let mut fill = 0;
        for (i, &a) in ns.iter().enumerate() {
            for &b in &ns[i + 1..] {
                if !self.adj[a as usize].contains(&b) {
                    fill += 1;
                }
            }
        }
        fill
    }

    fn score(&self, rule: Rule, v: u32) -> usize {
        match rule {
            Rule::MinDegree => self.adj[v as usize].len(),
            Rule::MinFill => self.fill[v as usize],
        }
    }
}

/// The width of an elimination order: the maximum elimination-time degree.
pub fn width_of_order(g: &Graph, order: &[u32]) -> usize {
    assert_eq!(
        order.len(),
        g.num_vertices(),
        "order must cover all vertices"
    );
    let mut st = ElimState::new(g, false);
    let mut width = 0;
    for &v in order {
        width = width.max(st.eliminate(v));
    }
    width
}

/// Min-degree heuristic: always eliminate a vertex of minimum current degree.
pub fn min_degree_order(g: &Graph) -> EliminationOrder {
    greedy_order(g, Rule::MinDegree)
}

/// Min-fill heuristic: always eliminate a vertex adding the fewest fill edges.
pub fn min_fill_order(g: &Graph) -> EliminationOrder {
    greedy_order(g, Rule::MinFill)
}

/// Greedy elimination by minimum `(score, vertex)`, via a lazy binary heap:
/// stale entries (score changed since push) are skipped on pop. The scores
/// are never recounted: degrees are the adjacency sizes, and fill counts are
/// kept current by [`ElimState::eliminate`] under the module doc's two rules
/// (a fill edge `{a, b}` moves `a`, `b` and their common neighbors; deleting
/// `v` moves `N(v)`). An elimination reports the vertices it touched, and
/// only those whose score changed are re-pushed. Every alive vertex thus
/// always has a heap entry carrying its current score, so the first valid
/// pop is the global minimum under the same tie-breaking — the orders are
/// exactly those of a full rescan per round, at near-linear cost on sparse
/// graphs and without the per-round Θ(deg²) recount around a hub.
fn greedy_order(g: &Graph, rule: Rule) -> EliminationOrder {
    let n = g.num_vertices();
    let mut st = ElimState::new(g, rule == Rule::MinFill);
    let mut current: Vec<usize> = (0..n as u32).map(|v| st.score(rule, v)).collect();
    let mut heap: BinaryHeap<Reverse<(usize, u32)>> = (0..n as u32)
        .map(|v| Reverse((current[v as usize], v)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let Reverse((s, v)) = heap.pop().expect("an alive vertex remains");
        if !st.alive[v as usize] || s != current[v as usize] {
            continue; // dead or stale entry
        }
        st.eliminate(v);
        order.push(v);
        #[cfg(test)]
        if rule == Rule::MinFill {
            for u in (0..n as u32).filter(|&u| st.alive[u as usize]) {
                assert_eq!(st.fill[u as usize], st.fill_count(u), "fill of {u}");
            }
        }
        for &u in &st.touched {
            if !st.alive[u as usize] {
                continue;
            }
            let s = st.score(rule, u);
            if s != current[u as usize] {
                current[u as usize] = s;
                heap.push(Reverse((s, u)));
            }
        }
    }
    order
}

/// Maximum-minimum-degree (degeneracy) lower bound on treewidth:
/// `tw(G) >= max over subgraphs H of (min degree of H)`, computed by
/// repeatedly deleting a minimum-degree vertex. The minimum comes from a
/// lazy heap of `(degree, vertex)` entries, re-pushed as deletions lower
/// the neighbors' degrees, so the loop is near-linear rather than a full
/// rescan per round.
pub fn mmd_lower_bound(g: &Graph) -> usize {
    let n = g.num_vertices();
    let mut deg: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
    let mut alive = vec![true; n];
    let mut heap: BinaryHeap<Reverse<(usize, u32)>> = (0..n as u32)
        .map(|v| Reverse((deg[v as usize], v)))
        .collect();
    let mut bound = 0;
    while let Some(Reverse((d, v))) = heap.pop() {
        if !alive[v as usize] || d != deg[v as usize] {
            continue; // dead or stale entry
        }
        bound = bound.max(d);
        alive[v as usize] = false;
        for &a in g.neighbors(v) {
            if alive[a as usize] {
                deg[a as usize] -= 1;
                heap.push(Reverse((deg[a as usize], a)));
            }
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Reference min-fill: every round recounts every alive vertex's fill on
    /// plain sorted sets and takes the minimum `(fill, vertex)` — no heap,
    /// no maintained counts.
    fn naive_min_fill(g: &Graph) -> Vec<u32> {
        let n = g.num_vertices();
        let mut adj: Vec<BTreeSet<u32>> = (0..n as u32)
            .map(|u| g.neighbors(u).iter().copied().collect())
            .collect();
        let mut alive = vec![true; n];
        let fill = |adj: &[BTreeSet<u32>], v: u32| {
            let ns: Vec<u32> = adj[v as usize].iter().copied().collect();
            let mut f = 0;
            for (i, &a) in ns.iter().enumerate() {
                f += ns[i + 1..]
                    .iter()
                    .filter(|&b| !adj[a as usize].contains(b))
                    .count();
            }
            f
        };
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let v = (0..n as u32)
                .filter(|&v| alive[v as usize])
                .min_by_key(|&v| (fill(&adj, v), v))
                .expect("some vertex alive");
            let ns: Vec<u32> = adj[v as usize].iter().copied().collect();
            for &a in &ns {
                adj[a as usize].remove(&v);
                for &b in &ns {
                    if a != b {
                        adj[a as usize].insert(b);
                    }
                }
            }
            adj[v as usize].clear();
            alive[v as usize] = false;
            order.push(v);
        }
        order
    }

    /// Reference MMD bound: a full rescan for the minimum degree per round.
    fn naive_mmd(g: &Graph) -> usize {
        let n = g.num_vertices();
        let mut adj: Vec<BTreeSet<u32>> = (0..n as u32)
            .map(|u| g.neighbors(u).iter().copied().collect())
            .collect();
        let mut alive = vec![true; n];
        let mut bound = 0;
        for _ in 0..n {
            let v = (0..n as u32)
                .filter(|&v| alive[v as usize])
                .min_by_key(|&v| adj[v as usize].len())
                .expect("some vertex alive");
            bound = bound.max(adj[v as usize].len());
            let ns: Vec<u32> = adj[v as usize].iter().copied().collect();
            for a in ns {
                adj[a as usize].remove(&v);
            }
            adj[v as usize].clear();
            alive[v as usize] = false;
        }
        bound
    }

    /// A star whose `leaves` leaves each carry a pendant path of length
    /// `tail` and, on every third leaf, a triangle.
    fn hub_star(leaves: usize, tail: usize) -> Graph {
        let mut g = Graph::new(1);
        for i in 0..leaves {
            let leaf = g.add_vertex();
            g.add_edge(0, leaf);
            let mut prev = leaf;
            for _ in 0..tail {
                let t = g.add_vertex();
                g.add_edge(prev, t);
                prev = t;
            }
            if i % 3 == 0 {
                let (x, y) = (g.add_vertex(), g.add_vertex());
                g.add_edge(leaf, x);
                g.add_edge(leaf, y);
                g.add_edge(x, y);
            }
        }
        g
    }

    /// The primal graph of the DNF lineage of `R(x), S(x, y)` over `xs`
    /// values with `ys` partners each: an OR hub wired to one AND gate per
    /// `(a, b)`, which reads the variables `R(a)` and `S(a, b)`.
    fn rs_lineage(xs: usize, ys: usize) -> Graph {
        let mut g = Graph::new(1);
        for _ in 0..xs {
            let r = g.add_vertex();
            for _ in 0..ys {
                let and = g.add_vertex();
                let s = g.add_vertex();
                g.add_edge(0, and);
                g.add_edge(and, r);
                g.add_edge(and, s);
            }
        }
        g
    }

    /// One graph of the oracle families, picked by `family` and sized by
    /// `size`; `seed` drives the random ones.
    fn family_graph(family: u32, size: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => {
                let p = rng.gen_range(0.05..0.5);
                Graph::random_gnp(size + 2, p, &mut rng)
            }
            1 => Graph::grid(2 + size % 4, 2 + size / 4),
            2 => Graph::band(size + 2, 1 + size % 4),
            3 => Graph::complete_binary_tree(2 + size % 4),
            4 => Graph::cycle(size + 3),
            5 => hub_star(size + 1, seed as usize % 3),
            _ => rs_lineage(1 + size % 4, 1 + size / 4),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn min_fill_matches_naive_reference(family in 0u32..7, size in 0usize..16, seed: u64) {
            let g = family_graph(family, size, seed);
            prop_assert_eq!(min_fill_order(&g), naive_min_fill(&g));
        }

        #[test]
        fn mmd_matches_naive_rescan(family in 0u32..7, size in 0usize..16, seed: u64) {
            let g = family_graph(family, size, seed);
            prop_assert_eq!(mmd_lower_bound(&g), naive_mmd(&g));
        }
    }

    #[test]
    fn hub_orders_match_reference() {
        for g in [hub_star(40, 2), rs_lineage(8, 5)] {
            assert_eq!(min_fill_order(&g), naive_min_fill(&g));
            assert_eq!(mmd_lower_bound(&g), naive_mmd(&g));
        }
    }

    #[test]
    fn path_has_width_one() {
        let g = Graph::path(8);
        let o = min_degree_order(&g);
        assert_eq!(width_of_order(&g, &o), 1);
        let o = min_fill_order(&g);
        assert_eq!(width_of_order(&g, &o), 1);
    }

    #[test]
    fn cycle_has_width_two() {
        let g = Graph::cycle(9);
        assert_eq!(width_of_order(&g, &min_fill_order(&g)), 2);
        assert_eq!(mmd_lower_bound(&g), 2);
    }

    #[test]
    fn complete_graph_width() {
        let g = Graph::complete(6);
        assert_eq!(width_of_order(&g, &min_degree_order(&g)), 5);
        assert_eq!(mmd_lower_bound(&g), 5);
    }

    #[test]
    fn grid_heuristics_reasonable() {
        let g = Graph::grid(4, 4);
        let w = width_of_order(&g, &min_fill_order(&g));
        assert!(w >= 4, "4x4 grid treewidth is 4, got {w}");
        assert!(w <= 6, "min-fill should be close to optimal, got {w}");
        assert!(mmd_lower_bound(&g) >= 2);
    }

    #[test]
    fn bad_order_still_measured() {
        // Eliminating the center of a star first yields width n-1.
        let mut g = Graph::new(5);
        for v in 1..5 {
            g.add_edge(0, v);
        }
        assert_eq!(width_of_order(&g, &[0, 1, 2, 3, 4]), 4);
        assert_eq!(width_of_order(&g, &[1, 2, 3, 4, 0]), 1);
    }

    #[test]
    #[should_panic(expected = "order must cover")]
    fn partial_order_rejected() {
        let g = Graph::path(3);
        width_of_order(&g, &[0, 1]);
    }

    #[test]
    fn band_graph_width_equals_band() {
        let g = Graph::band(12, 3);
        let o: Vec<u32> = (0..12).collect();
        assert_eq!(width_of_order(&g, &o), 3);
    }
}
