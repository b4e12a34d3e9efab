//! Answer oracles that share no code with the SDD path.
//!
//! * Band and chain bases (`⋀ᵢ xᵢ ∨ … ∨ x_{i+w-1}`, the chain is `w = 2`)
//!   are read as an automaton over variables in index order whose state is
//!   the length of the trailing run of zeros: a run of `w` zeros is the only
//!   way to violate the formula. Forward-backward over it gives the
//!   partition function, marginals, conditional queries and `P(e)`;
//!   Viterbi gives the MPE weight; the same automaton over `BigUint`
//!   counts models exactly.
//! * Lineages are checked with `query::prob::safe_probability` on
//!   hierarchical CQs, a closed form for the self-join inequality query,
//!   world enumeration for `uh(k)` and brute force for small databases.

use arith::BigUint;
use query::{Cq, Database, RelId, Schema};

/// Evidence pin of one variable, with the session's `condition` semantics:
/// asserting both polarities contradicts the variable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pin {
    Free,
    Pos,
    Neg,
    Both,
}

/// The oracle's copy of one session over a band base: linear weights,
/// evidence pins, and the evidence in assertion order.
#[derive(Clone, Debug)]
pub struct BandState {
    pub w: usize,
    pub weights: Vec<(f64, f64)>,
    pub pins: Vec<Pin>,
    pub evidence: Vec<(usize, bool)>,
}

fn apply_pin(pair: (f64, f64), pin: Pin) -> (f64, f64) {
    match pin {
        Pin::Free => pair,
        Pin::Pos => (0.0, pair.1),
        Pin::Neg => (pair.0, 0.0),
        Pin::Both => (0.0, 0.0),
    }
}

/// `ln` of the weighted count of assignments without a run of `w` zeros,
/// variable `i` weighted `pair(i) = (w⁻, w⁺)`. Linear arithmetic with a
/// per-step rescale, so 2,000-variable chains neither underflow nor pay
/// for log-sum-exp. `-∞` when no assignment has nonzero weight.
pub fn log_partition(n: usize, w: usize, pair: impl Fn(usize) -> (f64, f64)) -> f64 {
    let mut a = vec![0.0; w];
    let mut b = vec![0.0; w];
    a[0] = 1.0;
    let mut log_scale = 0.0;
    for i in 0..n {
        let (w0, w1) = pair(i);
        b[0] = w1 * a.iter().sum::<f64>();
        for r in 1..w {
            b[r] = w0 * a[r - 1];
        }
        let m = b.iter().copied().fold(0.0, f64::max);
        if m == 0.0 {
            return f64::NEG_INFINITY;
        }
        for x in b.iter_mut() {
            *x /= m;
        }
        log_scale += m.ln();
        std::mem::swap(&mut a, &mut b);
    }
    log_scale + a.iter().sum::<f64>().ln()
}

/// Exact model count of `band_cnf(n, w)` by the same automaton.
pub fn band_count(n: usize, w: usize) -> BigUint {
    let mut a = vec![BigUint::zero(); w];
    a[0] = BigUint::one();
    for _ in 0..n {
        let mut b = vec![BigUint::zero(); w];
        b[0] = a.iter().fold(BigUint::zero(), |acc, x| acc.add(x));
        b[1..w].clone_from_slice(&a[..(w - 1)]);
        a = b;
    }
    a.iter().fold(BigUint::zero(), |acc, x| acc.add(x))
}

impl BandState {
    /// A fresh session over `n` variables: weights `(1, 1)`, no evidence.
    pub fn new(n: usize, w: usize) -> BandState {
        BandState {
            w,
            weights: vec![(1.0, 1.0); n],
            pins: vec![Pin::Free; n],
            evidence: Vec::new(),
        }
    }

    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Assert literals exactly as `KbSession::condition` does.
    pub fn condition(&mut self, lits: &[(usize, bool)]) {
        for &(v, b) in lits {
            let next = match (self.pins[v], b) {
                (Pin::Pos, true) | (Pin::Neg, false) | (Pin::Both, _) => continue,
                (Pin::Free, true) => Pin::Pos,
                (Pin::Free, false) => Pin::Neg,
                (Pin::Pos, false) | (Pin::Neg, true) => Pin::Both,
            };
            self.pins[v] = next;
            self.evidence.push((v, b));
        }
    }

    pub fn retract(&mut self) {
        self.pins.iter_mut().for_each(|p| *p = Pin::Free);
        self.evidence.clear();
    }

    pub fn set_probability(&mut self, v: usize, p: f64) {
        self.weights[v] = (1.0 - p, p);
    }

    /// Weight pair of `v` with evidence applied, then `extra` literals pinned
    /// on top (a literal keeps only its own polarity's weight).
    fn pair(&self, v: usize, structural: bool, extra: &[(usize, bool)]) -> (f64, f64) {
        let base = if structural {
            (1.0, 1.0)
        } else {
            self.weights[v]
        };
        let mut p = apply_pin(base, self.pins[v]);
        for &(u, b) in extra {
            if u == v {
                p = if b { (0.0, p.1) } else { (p.0, 0.0) };
            }
        }
        p
    }

    fn log_z(&self, structural: bool, with_pins: bool, extra: &[(usize, bool)]) -> f64 {
        log_partition(self.n(), self.w, |i| {
            if with_pins {
                self.pair(i, structural, extra)
            } else {
                self.weights[i]
            }
        })
    }

    /// `ln W(F ∧ e)` — the `logw` answer.
    pub fn log_weight(&self) -> f64 {
        self.log_z(false, true, &[])
    }

    /// `P(e)` — the `pe` answer.
    pub fn prob_evidence(&self) -> f64 {
        (self.log_z(false, true, &[]) - self.log_z(false, false, &[])).exp()
    }

    /// `P(lits | F ∧ e)` — the `query` answer — given `denom = ln W(F ∧ e)`;
    /// `None` when the evidence has no model of nonzero weight.
    pub fn query_given(&self, denom: f64, lits: &[(usize, bool)]) -> Option<f64> {
        if denom == f64::NEG_INFINITY {
            return None;
        }
        Some((self.log_z(false, true, lits) - denom).exp())
    }

    /// Does some model satisfy the evidence (weights ignored)?
    pub fn consistent(&self) -> bool {
        self.log_z(true, true, &[]) > f64::NEG_INFINITY
    }

    /// Would asserting `lits` keep the evidence satisfiable?
    pub fn consistent_with(&self, lits: &[(usize, bool)]) -> bool {
        let mut next = self.clone();
        next.condition(lits);
        next.consistent()
    }

    /// Does `F ∧ e` entail the clause `⋁ lits`?
    pub fn entails(&self, clause: &[(usize, bool)]) -> bool {
        let negated: Vec<(usize, bool)> = clause.iter().map(|&(v, b)| (v, !b)).collect();
        self.log_z(true, true, &negated) == f64::NEG_INFINITY
    }

    /// Posterior `P(xᵢ = 1)` for every variable by forward-backward, in
    /// variable index order; `None` when the evidence is inconsistent.
    pub fn marginals(&self) -> Option<Vec<f64>> {
        let (n, w) = (self.n(), self.w);
        let pair = |i: usize| self.pair(i, false, &[]);
        let mut alpha = vec![0.0; (n + 1) * w];
        alpha[0] = 1.0;
        for i in 0..n {
            let (w0, w1) = pair(i);
            let (cur, next) = alpha.split_at_mut((i + 1) * w);
            let a = &cur[i * w..];
            let b = &mut next[..w];
            b[0] = w1 * a.iter().sum::<f64>();
            for r in 1..w {
                b[r] = w0 * a[r - 1];
            }
            let m = b.iter().copied().fold(0.0, f64::max);
            if m == 0.0 {
                return None;
            }
            b.iter_mut().for_each(|x| *x /= m);
        }
        let mut beta = vec![0.0; (n + 1) * w];
        beta[n * w..].iter_mut().for_each(|x| *x = 1.0);
        for i in (0..n).rev() {
            let (w0, w1) = pair(i);
            let (cur, next) = beta.split_at_mut((i + 1) * w);
            let b = &mut cur[i * w..];
            let nb = &next[..w];
            for r in 0..w {
                b[r] = w1 * nb[0] + if r + 1 < w { w0 * nb[r + 1] } else { 0.0 };
            }
            let m = b.iter().copied().fold(0.0, f64::max);
            if m == 0.0 {
                return None;
            }
            b.iter_mut().for_each(|x| *x /= m);
        }
        (0..n)
            .map(|i| {
                let (w0, w1) = pair(i);
                let a = &alpha[i * w..(i + 1) * w];
                let nb = &beta[(i + 1) * w..(i + 2) * w];
                let one = a.iter().sum::<f64>() * w1 * nb[0];
                let zero: f64 = (0..w - 1).map(|r| a[r] * w0 * nb[r + 1]).sum();
                let total = one + zero;
                (total > 0.0).then(|| one / total)
            })
            .collect()
    }

    /// The MPE log-weight by Viterbi (`-∞` when inconsistent).
    pub fn mpe_log_weight(&self) -> f64 {
        let w = self.w;
        let mut best = vec![f64::NEG_INFINITY; w];
        best[0] = 0.0;
        let mut next = vec![f64::NEG_INFINITY; w];
        for i in 0..self.n() {
            let (w0, w1) = self.pair(i, false, &[]);
            let top = best.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            next[0] = top + w1.ln();
            for r in 1..w {
                next[r] = best[r - 1] + w0.ln();
            }
            std::mem::swap(&mut best, &mut next);
        }
        best.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Log-weight of a complete assignment (bits in variable index order)
    /// when it satisfies the formula and the evidence; `None` otherwise.
    pub fn witness_log_weight(&self, bits: &[bool]) -> Option<f64> {
        let mut run = 0;
        let mut total = 0.0;
        for (i, &b) in bits.iter().enumerate() {
            run = if b { 0 } else { run + 1 };
            if run >= self.w {
                return None;
            }
            let (w0, w1) = self.pair(i, false, &[]);
            total += if b { w1.ln() } else { w0.ln() };
        }
        (bits.len() == self.n() && total > f64::NEG_INFINITY).then_some(total)
    }
}

/// `P(Q)` of a hierarchical self-join-free CQ by its safe plan.
pub fn safe(cq: &Cq, db: &Database) -> f64 {
    query::prob::safe_probability(cq, db).expect("hierarchical self-join-free CQ")
}

/// `P(S(x,y), S(x',y'), x ≠ x')`: the query fails exactly when the present
/// `S` tuples share one first argument (or none is present), so
/// `P = 1 − Π_x q_x − Σ_x (1 − q_x) Π_{x'≠x} q_{x'}` with `q_x` the
/// probability that no tuple with first argument `x` is present.
pub fn sjoin_inequality(db: &Database, s: RelId) -> f64 {
    let mut groups: Vec<(u64, f64)> = Vec::new();
    for &t in db.tuples_of(s) {
        let x = db.tuple(t).args[0];
        let miss = 1.0 - db.prob(t);
        match groups.iter_mut().find(|(g, _)| *g == x) {
            Some((_, q)) => *q *= miss,
            None => groups.push((x, miss)),
        }
    }
    let none: f64 = groups.iter().map(|(_, q)| q).product();
    let one_group: f64 = (0..groups.len())
        .map(|i| {
            let others: f64 = groups
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, (_, q))| q)
                .product();
            (1.0 - groups[i].1) * others
        })
        .sum();
    1.0 - none - one_group
}

/// `P(uh(k))` over the complete database on domain `[n]`: enumerate the
/// worlds of the unary relations `R` and `T`; given them, the pairs
/// `(l, m)` fail independently, and each pair's failure probability sums
/// the `2^k` states of its `S₁(l,m) … S_k(l,m)` tuples that satisfy no
/// disjunct.
pub fn uh(db: &Database, schema: &Schema, k: usize, n: usize) -> f64 {
    let prob = |rel: &str, args: &[u64]| {
        let r = schema.by_name(rel).expect("uh relation");
        db.prob(db.lookup(r, args).expect("complete database"))
    };
    let s_names: Vec<String> = (1..=k).map(|i| format!("S{i}")).collect();
    let mut fail = 0.0;
    for world in 0u64..(1 << (2 * n)) {
        let r_in = |l: usize| world >> l & 1 == 1;
        let t_in = |m: usize| world >> (n + m) & 1 == 1;
        let mut weight = 1.0;
        for l in 0..n {
            let pr = prob("R", &[l as u64 + 1]);
            weight *= if r_in(l) { pr } else { 1.0 - pr };
            let pt = prob("T", &[l as u64 + 1]);
            weight *= if t_in(l) { pt } else { 1.0 - pt };
        }
        let mut all_fail = 1.0;
        for l in 0..n {
            for m in 0..n {
                let args = [l as u64 + 1, m as u64 + 1];
                let ps: Vec<f64> = s_names.iter().map(|s| prob(s, &args)).collect();
                let mut pair_fail = 0.0;
                for state in 0u32..(1 << k) {
                    let s = |i: usize| state >> i & 1 == 1;
                    let holds = (r_in(l) && s(0))
                        || (0..k - 1).any(|i| s(i) && s(i + 1))
                        || (s(k - 1) && t_in(m));
                    if !holds {
                        pair_fail += (0..k)
                            .map(|i| if s(i) { ps[i] } else { 1.0 - ps[i] })
                            .product::<f64>();
                    }
                }
                all_fail *= pair_fail;
            }
        }
        fail += weight * all_fail;
    }
    1.0 - fail
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force over all assignments of a small band.
    fn brute(st: &BandState) -> (f64, Vec<f64>, f64) {
        let n = st.n();
        let (mut z, mut ones, mut best) = (0.0, vec![0.0; n], f64::NEG_INFINITY);
        for m in 0u32..(1 << n) {
            let bits: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            if let Some(lw) = st.witness_log_weight(&bits) {
                let wgt = lw.exp();
                z += wgt;
                best = best.max(lw);
                for i in 0..n {
                    if bits[i] {
                        ones[i] += wgt;
                    }
                }
            }
        }
        (z, ones.iter().map(|o| o / z).collect(), best)
    }

    #[test]
    fn automaton_matches_brute_force() {
        let mut st = BandState::new(9, 3);
        st.set_probability(2, 0.3);
        st.set_probability(5, 0.8);
        st.condition(&[(4, false), (7, true)]);
        let (z, marg, best) = brute(&st);
        assert!((st.log_weight() - z.ln()).abs() < 1e-12);
        for (a, b) in st.marginals().unwrap().iter().zip(&marg) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((st.mpe_log_weight() - best).abs() < 1e-12);
        let q = st
            .query_given(st.log_weight(), &[(0, true), (8, false)])
            .unwrap();
        let mut pinned = st.clone();
        pinned.condition(&[(0, true), (8, false)]);
        assert!((q - brute(&pinned).0 / z).abs() < 1e-12);
    }

    #[test]
    fn entailment_and_consistency() {
        let mut st = BandState::new(6, 2);
        st.condition(&[(2, false)]);
        assert!(st.entails(&[(1, true)]), "x2 = 0 forces x1 and x3");
        assert!(!st.entails(&[(0, true)]));
        assert!(st.consistent());
        assert!(!st.consistent_with(&[(3, false)]));
    }

    #[test]
    fn counts_match_the_chain_recurrence() {
        assert_eq!(band_count(30, 2), cnf::families::chain_count(30));
        assert_eq!(band_count(4, 3).to_u64(), Some(13));
    }
}
