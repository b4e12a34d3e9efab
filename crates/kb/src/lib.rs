//! The knowledge-base serving layer: **compile once, answer many queries**.
//!
//! The point of paying for a treewidth-bounded SDD compilation (Bova &
//! Szeider, PODS'17) is that everything afterwards is polynomial in the
//! compiled size. This crate turns a compiled SDD into a long-lived,
//! shareable serving base that answers the full classical query menu
//! without ever recompiling. There is exactly one query path:
//!
//! 1. [`KnowledgeBase`] is the **builder**: it adopts a compilation (or
//!    compiles one), unfolds its arithmetic circuit ([`sdd::ac::Ac`])
//!    once, takes literal weights and optional evidence to bake in, and
//!    runs no query of its own.
//! 2. [`KnowledgeBase::freeze`] moves the SDD and the circuit into an
//!    immutable, `Send + Sync` [`FrozenKb`] slab.
//! 3. [`FrozenKb::session`] opens a [`KbSession`] per serving thread,
//!    which answers every query:
//!    * [`KbSession::condition`] / [`KbSession::retract`] — evidence,
//!      pinned in weight space;
//!    * [`KbSession::marginal`] / [`KbSession::all_marginals`] — posterior
//!      marginals of every variable from one two-pass (upward + downward)
//!      sweep of the unfolded arithmetic circuit;
//!    * [`KbSession::mpe`] — the most probable explanation under the
//!      [`arith::MaxPlus`] semiring, with an argmax-decoded, *verified*
//!      witness assignment;
//!    * [`KbSession::enumerate_models`] — the top-`k` models by weight;
//!    * [`KbSession::entails`] — clause entailment by pinning the clause's
//!      negation;
//!    * [`KbSession::query`] / [`KbSession::probability_of_evidence`] /
//!      [`KbSession::count_models`] — conditional probabilities and exact
//!      counts under the current evidence;
//!    * the `*_batch` forms, which answer many evidence sets in one
//!      lane-parallel sweep.
//!
//! Numeric queries run in log space ([`arith::LogF64`]) so 10k-variable
//! weighted counts cannot underflow. Every session query is a sweep of the
//! unfolded arithmetic circuit, linear in its size — `LogF64` for weighted
//! counts and marginals, `MaxPlus` for MPE and (over `{0, -∞}` weights)
//! consistency and entailment, `Nat` for exact counts — with a scalar
//! query as the one-lane case of the batched sweep. Answers that depend
//! only on the session's weights and evidence (`ln W`, the consistency
//! verdict, the marginals table) are memoized until the next change.
//! Either way the compilation is paid exactly once — `exp_kb` (E14)
//! measures warm session marginals against recompile-per-query.
//!
//! **Depth contract:** every engine under this crate — compilation, the
//! circuit unfold, and the circuit sweeps — is worklist-iterative
//! (explicit heap-allocated stacks), so bases over chain-deep diagrams
//! serve on a *default-size* thread stack at any variable count; this
//! crate's own stress test drives a 100k-variable chain end to end on an
//! ordinary test thread. For such sizes, compile with
//! `CompilerBuilder::exact_counts(false)`: the up-front exact `BigUint`
//! count is quadratic at chain scale, and sessions answer counting
//! queries on demand anyway.
//!
//! ```
//! use kb::KnowledgeBase;
//! use sentential_core::Compiler;
//! use std::sync::Arc;
//! use vtree::VarId;
//!
//! let f = cnf::CnfFormula::from_dimacs("p cnf 3 2\n1 2 0\n-2 3 0\n").unwrap();
//! let kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).unwrap();
//! let frozen = Arc::new(kb.freeze());
//! let mut s = frozen.session();
//! assert_eq!(s.count_models().to_u128(), Some(4));
//!
//! // Condition on x2 and the model set shrinks — no recompilation.
//! s.condition(&[(VarId(1), true)]).unwrap();
//! assert_eq!(s.count_models().to_u128(), Some(2));
//! let m = s.marginal(VarId(2)).unwrap();
//! assert!((m - 1.0).abs() < 1e-12, "x2 is forced by x2's clause");
//! ```

mod frozen;
mod posture;
mod snapshot;

pub use frozen::{FrozenKb, KbSession};

use crate::posture::{dense, Posture};
use boolfunc::Assignment;
use circuit::Circuit;
use cnf::CnfFormula;
use sdd::ac::Ac;
use sdd::eval::EvalCacheStats;
use sdd::{SddId, SddManager};
use sentential_core::compiler::Compilation;
use sentential_core::{CnfCompilation, CompileError, CompileReport, Compiler, CountReport};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use vtree::fxhash::FxHashMap;
use vtree::VarId;

/// A literal: `(variable, polarity)` — the workspace-wide encoding shared
/// with `cnf::Lit` and `circuit::Clause`.
pub type Lit = (VarId, bool);

/// Failures of knowledge-base queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KbError {
    /// The knowledge base has no model of nonzero weight under the current
    /// evidence — the formula is unsatisfiable, the evidence contradicts
    /// it, or every consistent model has weight 0.
    Inconsistent,
    /// The variable is not covered by the compiled vtree.
    UnknownVariable(VarId),
    /// A weight is unusable by the log-space serving layer: negative, NaN,
    /// or (for the `set_probability` setters) outside `[0, 1]`.
    InvalidWeight(VarId),
}

impl fmt::Display for KbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbError::Inconsistent => {
                write!(f, "no model of nonzero weight under the current evidence")
            }
            KbError::UnknownVariable(v) => {
                write!(f, "variable {v} is not part of the knowledge base")
            }
            KbError::InvalidWeight(v) => {
                write!(
                    f,
                    "variable {v} was given a weight the serving layer cannot \
                     carry (negative, non-finite, or a probability outside [0, 1])"
                )
            }
        }
    }
}

impl std::error::Error for KbError {}

/// Failures constructing a knowledge base from a formula or circuit.
#[derive(Debug)]
pub enum KbBuildError {
    /// The compilation itself failed.
    Compile(CompileError),
    /// The input carries a weight the serving layer cannot adopt
    /// (negative or NaN — see [`KbError::InvalidWeight`]).
    Weight(VarId),
}

impl fmt::Display for KbBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbBuildError::Compile(e) => write!(f, "compilation failed: {e}"),
            KbBuildError::Weight(v) => write!(
                f,
                "variable {v} carries a negative or non-finite weight; \
                 the log-space serving layer needs nonnegative weights"
            ),
        }
    }
}

impl std::error::Error for KbBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KbBuildError::Compile(e) => Some(e),
            KbBuildError::Weight(_) => None,
        }
    }
}

impl From<CompileError> for KbBuildError {
    fn from(e: CompileError) -> Self {
        KbBuildError::Compile(e)
    }
}

/// Where a knowledge base's compiled SDD came from, carrying the original
/// compilation report for provenance.
#[derive(Debug)]
pub enum KbProvenance {
    /// Compiled from a circuit by [`Compiler::compile`].
    Circuit(CompileReport),
    /// Compiled from a CNF formula by [`Compiler::compile_cnf`].
    Cnf(CountReport),
    /// Adopted from a caller-supplied manager/root pair.
    Raw,
}

/// One model, as returned by [`KbSession::mpe`] and
/// [`KbSession::enumerate_models`]: a complete assignment over the
/// knowledge base's variables plus its log-weight.
#[must_use]
#[derive(Clone, Debug)]
pub struct Model {
    /// The assignment (covers every variable of the knowledge base).
    pub assignment: Assignment,
    /// `ln` of the model's weight (the product of its literal weights) —
    /// log space, so it is meaningful even where the plain weight would
    /// underflow `f64`.
    pub log_weight: f64,
}

impl Model {
    /// The model's weight, `exp(log_weight)` — may underflow to 0 for very
    /// large variable counts; prefer [`Model::log_weight`] there.
    pub fn weight(&self) -> f64 {
        self.log_weight.exp()
    }
}

/// What one session query cost, snapshotted per query (counters are
/// deltas, not session lifetime totals).
#[must_use]
#[derive(Copy, Clone, Debug, Default)]
pub struct KbQueryStats {
    /// Circuit traffic of the query, in gates × lanes per sweep pass (a
    /// two-pass query counts both passes): `lookups` is what the query
    /// needed, `hits` what a session memo served, `recomputed` what was
    /// actually swept.
    pub eval: EvalCacheStats,
    /// Estimated resident bytes of the shared base
    /// ([`FrozenKb::memory_bytes`]: slab plus circuit) — constant per
    /// base, since no query ever interns a node.
    pub mem_bytes: usize,
    /// Wall-clock time of the query.
    pub duration: Duration,
    /// Whether a session memo answered the whole query, with no sweep
    /// (`hits > 0` and `recomputed == 0`): a repeated marginal, log-weight
    /// or consistency verdict with no weight or evidence change between.
    pub memo_hit: bool,
    /// Batch width of the query: how many evidence/weight rows one sweep
    /// answered. Scalar queries report 1; the `*_batch` session queries
    /// report their lane count, so throughput telemetry can divide the
    /// duration into a per-lane latency.
    pub lanes: usize,
}

/// The query kinds telemetry labels per-query families with
/// (`kb_query_us{kind="marginal"}` and friends).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    Condition,
    Retract,
    Consistent,
    LogWeight,
    ProbEvidence,
    Query,
    Marginal,
    AllMarginals,
    Mpe,
    TopK,
    Entails,
    Count,
    QueryBatch,
    MarginalBatch,
    AllMarginalsBatch,
    MpeBatch,
}

impl QueryKind {
    /// Every kind, in `QueryKind::index` order.
    pub const ALL: [QueryKind; 16] = [
        QueryKind::Condition,
        QueryKind::Retract,
        QueryKind::Consistent,
        QueryKind::LogWeight,
        QueryKind::ProbEvidence,
        QueryKind::Query,
        QueryKind::Marginal,
        QueryKind::AllMarginals,
        QueryKind::Mpe,
        QueryKind::TopK,
        QueryKind::Entails,
        QueryKind::Count,
        QueryKind::QueryBatch,
        QueryKind::MarginalBatch,
        QueryKind::AllMarginalsBatch,
        QueryKind::MpeBatch,
    ];

    /// The `kind` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryKind::Condition => "condition",
            QueryKind::Retract => "retract",
            QueryKind::Consistent => "consistent",
            QueryKind::LogWeight => "logw",
            QueryKind::ProbEvidence => "pe",
            QueryKind::Query => "query",
            QueryKind::Marginal => "marginal",
            QueryKind::AllMarginals => "marginals",
            QueryKind::Mpe => "mpe",
            QueryKind::TopK => "topk",
            QueryKind::Entails => "entails",
            QueryKind::Count => "count",
            QueryKind::QueryBatch => "query_batch",
            QueryKind::MarginalBatch => "marginal_batch",
            QueryKind::AllMarginalsBatch => "marginals_batch",
            QueryKind::MpeBatch => "mpe_batch",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// The builder of a serving base: one compiled SDD plus the weight table
/// and evidence to freeze in.
///
/// Construct from a finished compilation ([`KnowledgeBase::compile`],
/// [`KnowledgeBase::compile_cnf`], [`KnowledgeBase::from_compilation`],
/// [`KnowledgeBase::from_cnf_compilation`]) or adopt a raw manager/root
/// pair ([`KnowledgeBase::new`]). Weights default to `(1, 1)` per variable
/// — counting semantics, under which a marginal is the fraction of models
/// and the MPE an arbitrary model — and become probabilistic through
/// [`KnowledgeBase::set_probability`] / [`KnowledgeBase::set_weights`].
/// The builder answers no queries: [`KnowledgeBase::freeze`] it and open
/// [`FrozenKb::session`]s. It unfolds the root's arithmetic circuit once,
/// when it is constructed: its own consistency check sweeps that circuit,
/// and the frozen base serves it.
pub struct KnowledgeBase {
    mgr: SddManager,
    root: SddId,
    /// The unfolded circuit of `root`, moved into the frozen base.
    ac: Ac,
    vars: Vec<VarId>,
    var_index: FxHashMap<VarId, usize>,
    /// The weights and evidence to freeze in.
    posture: Posture,
    provenance: KbProvenance,
}

impl fmt::Debug for KnowledgeBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KnowledgeBase")
            .field("vars", &self.vars.len())
            .field("sdd_size", &self.mgr.size(self.root))
            .field("evidence", &self.posture.evidence)
            .finish_non_exhaustive()
    }
}

impl KnowledgeBase {
    /// Adopt a compiled SDD and unfold its circuit. Weights start at
    /// `(1, 1)` (counting semantics).
    pub fn new(mgr: SddManager, root: SddId) -> Self {
        let vars: Vec<VarId> = mgr.vtree().vars().to_vec();
        let var_index = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i))
            .collect::<FxHashMap<_, _>>();
        KnowledgeBase {
            ac: Ac::build(&mgr, root),
            mgr,
            root,
            posture: Posture::new(vars.len()),
            vars,
            var_index,
            provenance: KbProvenance::Raw,
        }
    }

    /// Adopt a circuit compilation (see [`Compiler::compile`]).
    pub fn from_compilation(c: Compilation) -> Self {
        let mut kb = KnowledgeBase::new(c.sdd, c.root);
        kb.provenance = KbProvenance::Circuit(c.report);
        kb
    }

    /// Adopt a CNF compilation, taking the literal weights of `f` (exact
    /// rationals, rounded to `f64` for the serving layer; unweighted
    /// variables keep `(1, 1)`). Errors with [`KbBuildError::Weight`] when
    /// `f` carries a weight the log-space layer cannot adopt (the DIMACS
    /// dialects accept negative rationals; this serving layer does not).
    pub fn from_cnf_compilation(c: CnfCompilation, f: &CnfFormula) -> Result<Self, KbBuildError> {
        let mut kb = KnowledgeBase::new(c.sdd, c.root);
        if f.is_weighted() {
            for (v, (wn, wp)) in f.weighted_vars() {
                if kb.var_index.contains_key(&v) {
                    kb.set_weights(v, wn.to_f64(), wp.to_f64())
                        .map_err(|_| KbBuildError::Weight(v))?;
                }
            }
        }
        kb.provenance = KbProvenance::Cnf(c.report);
        Ok(kb)
    }

    /// Compile `circuit` with `compiler` into a builder.
    pub fn compile(compiler: &Compiler, circuit: &Circuit) -> Result<Self, KbBuildError> {
        Ok(KnowledgeBase::from_compilation(compiler.compile(circuit)?))
    }

    /// Compile the CNF formula `f` with `compiler` into a builder,
    /// adopting `f`'s literal weights.
    pub fn compile_cnf(compiler: &Compiler, f: &CnfFormula) -> Result<Self, KbBuildError> {
        KnowledgeBase::from_cnf_compilation(compiler.compile_cnf(f)?, f)
    }

    /// The variables served by this knowledge base (the vtree's variables).
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// The underlying SDD manager (read-only).
    pub fn sdd(&self) -> &SddManager {
        &self.mgr
    }

    /// The compiled root.
    pub fn root(&self) -> SddId {
        self.root
    }

    /// Elements in the compiled SDD.
    pub fn sdd_size(&self) -> usize {
        self.mgr.size(self.root)
    }

    /// Where the SDD came from, with its compilation report.
    pub fn provenance(&self) -> &KbProvenance {
        &self.provenance
    }

    /// Set `P(v = 1) = p` (weights `(1 - p, p)`). Errors with
    /// [`KbError::InvalidWeight`] when `p` is outside `[0, 1]` or NaN.
    pub fn set_probability(&mut self, v: VarId, p: f64) -> Result<(), KbError> {
        self.set_weights(v, 1.0 - p, p)
    }

    /// Set the weight pair `(w⁻, w⁺)` of `v`. Weights must be nonnegative
    /// and finite (the serving layer works in log space); anything else
    /// errors with [`KbError::InvalidWeight`].
    pub fn set_weights(&mut self, v: VarId, neg: f64, pos: f64) -> Result<(), KbError> {
        let &i = self.var_index.get(&v).ok_or(KbError::UnknownVariable(v))?;
        self.posture.set_weights(i, v, neg, pos)
    }

    /// The current weight pair `(w⁻, w⁺)` of `v`.
    pub fn weights_of(&self, v: VarId) -> Option<(f64, f64)> {
        self.var_index.get(&v).map(|&i| self.posture.weights[i])
    }

    /// Record evidence to freeze into the base: each `(v, b)` pins
    /// `v := b` in every session opened on the frozen base (a session's
    /// `retract` returns to this evidence, never below it). Nothing is
    /// restricted — the pins only enter the weight tables — but the call
    /// still checks that `F ∧ e` has a model, by the sessions' structural
    /// sweep of the unfolded circuit.
    /// Evidence accumulates across calls; asserting both polarities of a
    /// variable makes the base inconsistent. Either way an inconsistent
    /// base is reported as [`KbError::Inconsistent`], with the evidence
    /// retained.
    pub fn condition(&mut self, lits: &[Lit]) -> Result<(), KbError> {
        for (&lit, (i, _)) in lits.iter().zip(dense(&self.var_index, lits)?) {
            self.posture.assert(i, lit);
        }
        if frozen::satisfiable(&self.ac, &self.posture, &[], &mut Vec::new()) {
            Ok(())
        } else {
            Err(KbError::Inconsistent)
        }
    }

    /// The asserted evidence literals, in assertion order.
    pub fn evidence(&self) -> &[Lit] {
        &self.posture.evidence
    }

    /// Freeze this builder into its immutable serving form: the circuit
    /// unfolded at construction and the manager's slabs move into the
    /// [`FrozenKb`] without copying or unfolding again. Current weights
    /// and evidence are frozen in — sessions start from this exact state.
    pub fn freeze(self) -> FrozenKb {
        FrozenKb {
            sdd: Arc::new(self.mgr.freeze()),
            root: self.root,
            vars: self.vars,
            var_index: self.var_index,
            posture: self.posture,
            ac: self.ac,
            provenance: self.provenance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolfunc::VarSet;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// `(x0 ∨ x1) ∧ (¬x1 ∨ x2)` with distinct probabilities — small enough
    /// to cross-check every query by enumeration.
    pub(crate) fn demo_builder() -> (KnowledgeBase, CnfFormula, Vec<f64>) {
        let f = CnfFormula::from_clauses(
            3,
            vec![
                vec![(v(0), true), (v(1), true)],
                vec![(v(1), false), (v(2), true)],
            ],
        );
        let probs = vec![0.3, 0.6, 0.8];
        let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).unwrap();
        for (i, &p) in probs.iter().enumerate() {
            kb.set_probability(v(i as u32), p).unwrap();
        }
        (kb, f, probs)
    }

    /// The demo base, frozen, with one session open on it.
    fn demo_session() -> (KbSession, CnfFormula, Vec<f64>) {
        let (kb, f, probs) = demo_builder();
        (Arc::new(kb.freeze()).session(), f, probs)
    }

    /// Brute-force `Σ weight` over models of `f ∧ lits` under `probs`.
    pub(crate) fn brute_weight(f: &CnfFormula, probs: &[f64], lits: &[Lit]) -> f64 {
        let vars = VarSet::from_slice(&f.all_vars());
        (0..1u64 << probs.len())
            .map(|i| Assignment::from_index(&vars, i))
            .filter(|a| f.eval(a) && lits.iter().all(|&(v, b)| a.get(v) == Some(b)))
            .map(|a| {
                probs
                    .iter()
                    .enumerate()
                    .map(|(j, &p)| {
                        if a.get(v(j as u32)) == Some(true) {
                            p
                        } else {
                            1.0 - p
                        }
                    })
                    .product::<f64>()
            })
            .sum()
    }

    /// Brute-force model count of `f ∧ lits`.
    fn brute_count(f: &CnfFormula, lits: &[Lit]) -> u128 {
        let vars = VarSet::from_slice(&f.all_vars());
        (0..1u64 << f.num_vars())
            .map(|i| Assignment::from_index(&vars, i))
            .filter(|a| f.eval(a) && lits.iter().all(|&(v, b)| a.get(v) == Some(b)))
            .count() as u128
    }

    #[test]
    fn weighted_count_and_evidence_probability_match_brute_force() {
        let (mut s, f, probs) = demo_session();
        let w = brute_weight(&f, &probs, &[]);
        assert!((s.weighted_count() - w).abs() < 1e-12);

        s.condition(&[(v(1), true)]).unwrap();
        let we = brute_weight(&f, &probs, &[(v(1), true)]);
        assert!((s.weighted_count() - we).abs() < 1e-12);
        let pe = s.probability_of_evidence().unwrap();
        assert!((pe - we / w).abs() < 1e-12);
        assert_eq!(s.evidence(), &[(v(1), true)]);

        s.retract();
        assert!((s.weighted_count() - w).abs() < 1e-12);
        assert!(s.evidence().is_empty());
    }

    #[test]
    fn marginals_match_brute_force_with_and_without_evidence() {
        let (mut s, f, probs) = demo_session();
        for &e in &[None, Some((v(0), false))] {
            let evidence: Vec<Lit> = e.into_iter().collect();
            if let Some(lit) = e {
                s.condition(&[lit]).unwrap();
            }
            let denom = brute_weight(&f, &probs, &evidence);
            for i in 0..3u32 {
                let mut lits = evidence.clone();
                lits.push((v(i), true));
                let expect = brute_weight(&f, &probs, &lits) / denom;
                let got = s.marginal(v(i)).unwrap();
                assert!(
                    (got - expect).abs() < 1e-12,
                    "marginal x{i} with evidence {evidence:?}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn conditional_query_is_a_ratio_of_brute_weights() {
        let (mut s, f, probs) = demo_session();
        s.condition(&[(v(2), true)]).unwrap();
        let got = s.query(&[(v(0), true), (v(1), false)]).unwrap();
        let expect = brute_weight(&f, &probs, &[(v(2), true), (v(0), true), (v(1), false)])
            / brute_weight(&f, &probs, &[(v(2), true)]);
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
        // The temporary pinning restored the weights.
        let again = s.query(&[(v(0), true), (v(1), false)]).unwrap();
        assert!((again - got).abs() < 1e-15);
    }

    #[test]
    fn mpe_is_the_heaviest_model_and_enumeration_is_sorted_and_complete() {
        let (mut s, f, probs) = demo_session();
        let count = f.count_models_brute() as usize;
        let models = s.enumerate_models(count + 3);
        assert_eq!(models.len(), count, "every model, nothing else");
        for m in &models {
            assert!(f.eval(&m.assignment), "enumerated model satisfies f");
        }
        for w in models.windows(2) {
            assert!(w[0].log_weight >= w[1].log_weight, "sorted by weight");
        }
        let total: f64 = models.iter().map(Model::weight).sum();
        assert!((total - brute_weight(&f, &probs, &[])).abs() < 1e-12);

        let mpe = s.mpe().unwrap();
        assert!((mpe.log_weight - models[0].log_weight).abs() < 1e-12);
        assert!(f.eval(&mpe.assignment));
    }

    #[test]
    fn mpe_respects_evidence() {
        let (mut s, f, _) = demo_session();
        // The globally best model has x1 = 1 (p = 0.6 > 0.4 and it frees
        // x0); force the other branch.
        s.condition(&[(v(1), false)]).unwrap();
        let mpe = s.mpe().unwrap();
        assert_eq!(mpe.assignment.get(v(1)), Some(false));
        assert!(f.eval(&mpe.assignment));
        assert_eq!(
            mpe.assignment.get(v(0)),
            Some(true),
            "x0 forced by clause 1"
        );
    }

    #[test]
    fn entailment_by_negation_pinning() {
        let (mut s, _, _) = demo_session();
        // Neither clause variable alone is entailed …
        assert!(!s.entails(&[(v(0), true)]).unwrap());
        // … but the clauses themselves are, as is any tautological clause.
        assert!(s.entails(&[(v(0), true), (v(1), true)]).unwrap());
        assert!(s.entails(&[(v(1), false), (v(2), true)]).unwrap());
        assert!(s.entails(&[(v(0), true), (v(0), false)]).unwrap());
        assert!(s
            .entails(&[(v(2), false), (v(0), true), (v(2), true)])
            .unwrap());
        // Duplicate literals don't change the answer.
        assert!(!s.entails(&[(v(0), true), (v(0), true)]).unwrap());
        // Under evidence x1, the unit clause x2 becomes entailed.
        s.condition(&[(v(1), true)]).unwrap();
        assert!(s.entails(&[(v(2), true)]).unwrap());
        assert!(!s.entails(&[(v(0), true)]).unwrap());
        // Clauses mentioning the evidence variable itself: the asserted
        // polarity is trivially entailed …
        assert!(s.entails(&[(v(1), true)]).unwrap());
        assert!(s.entails(&[(v(1), true), (v(0), true)]).unwrap());
        // … and a falsified literal contributes nothing: ¬x1 ∨ x2 reduces
        // to x2 (entailed), ¬x1 ∨ x0 to x0 (not entailed).
        assert!(s.entails(&[(v(1), false), (v(2), true)]).unwrap());
        assert!(!s.entails(&[(v(1), false)]).unwrap());
        assert!(!s.entails(&[(v(1), false), (v(0), true)]).unwrap());
        // The empty clause is entailed only by an inconsistent base.
        assert!(!s.entails(&[]).unwrap());
        // An inconsistent base entails everything, evidence vars included.
        let _ = s.condition(&[(v(1), false)]);
        assert!(s.entails(&[(v(1), false)]).unwrap());
        assert!(s.entails(&[]).unwrap());
    }

    #[test]
    fn counts_shift_under_evidence_and_contradiction_is_detected() {
        let (mut s, f, _) = demo_session();
        assert_eq!(s.count_models().to_u128(), Some(brute_count(&f, &[])));
        s.condition(&[(v(1), true)]).unwrap();
        assert_eq!(
            s.count_models().to_u128(),
            Some(brute_count(&f, &[(v(1), true)]))
        );
        // Contradictory evidence: structurally inconsistent, every numeric
        // query reports it, and retract() recovers.
        assert_eq!(s.condition(&[(v(1), false)]), Err(KbError::Inconsistent));
        assert!(!s.is_consistent());
        assert!(s.count_models().is_zero());
        assert!(matches!(s.mpe(), Err(KbError::Inconsistent)));
        assert!(s.enumerate_models(5).is_empty());
        assert!(s.entails(&[]).unwrap(), "⊥ entails everything");
        s.retract();
        assert!(s.is_consistent());
        assert_eq!(s.count_models().to_u128(), Some(brute_count(&f, &[])));
    }

    #[test]
    fn unknown_variables_are_rejected() {
        let (mut kb, _, _) = demo_builder();
        let ghost = v(17);
        assert_eq!(
            kb.condition(&[(ghost, true)]),
            Err(KbError::UnknownVariable(ghost))
        );
        assert_eq!(
            kb.set_probability(ghost, 0.5),
            Err(KbError::UnknownVariable(ghost))
        );
        let mut s = Arc::new(kb.freeze()).session();
        assert_eq!(
            s.condition(&[(ghost, true)]),
            Err(KbError::UnknownVariable(ghost))
        );
        assert_eq!(s.marginal(ghost), Err(KbError::UnknownVariable(ghost)));
        assert_eq!(
            s.entails(&[(ghost, true)]),
            Err(KbError::UnknownVariable(ghost))
        );
        assert_eq!(
            s.set_probability(ghost, 0.5),
            Err(KbError::UnknownVariable(ghost))
        );
    }

    /// The builder's `condition` only records pins, yet keeps the verdicts:
    /// a consistent assertion is `Ok`, one that leaves `F ∧ e` without a
    /// model is `Inconsistent` (evidence retained), and a repeat of a
    /// recorded literal is not recorded twice.
    #[test]
    fn builder_condition_records_pins_and_reports_inconsistency() {
        let (mut kb, f, probs) = demo_builder();
        kb.condition(&[(v(1), true), (v(1), true)]).unwrap();
        assert_eq!(kb.evidence(), &[(v(1), true)]);
        let frozen = Arc::new(kb.freeze());
        assert_eq!(frozen.evidence(), &[(v(1), true)]);
        let mut s = frozen.session();
        let expect = brute_weight(&f, &probs, &[(v(1), true)]);
        assert!((s.weighted_count() - expect).abs() < 1e-12);

        // x1 ∧ ¬x2 falsifies the second clause: no model, no apply needed
        // to see it.
        let (mut kb, _, _) = demo_builder();
        assert_eq!(
            kb.condition(&[(v(1), true), (v(2), false)]),
            Err(KbError::Inconsistent)
        );
        assert_eq!(kb.evidence(), &[(v(1), true), (v(2), false)]);
        // Both polarities of one variable: inconsistent as well.
        let (mut kb, _, _) = demo_builder();
        kb.condition(&[(v(0), true)]).unwrap();
        assert_eq!(kb.condition(&[(v(0), false)]), Err(KbError::Inconsistent));
        let mut s = Arc::new(kb.freeze()).session();
        assert!(!s.is_consistent());
        assert!(s.count_models().is_zero());
    }

    #[test]
    fn per_query_stats_do_not_accumulate() {
        let (mut s, _, _) = demo_session();
        let _ = s.weighted_count();
        let first = s.last_query();
        assert!(first.eval.lookups >= first.eval.hits);
        assert!(first.eval.recomputed > 0, "first evaluation sweeps");
        let _ = s.weighted_count();
        assert_eq!(
            s.last_query().eval.recomputed,
            0,
            "second evaluation with unchanged weights is a memo hit"
        );
        s.condition(&[(v(1), true)]).unwrap();
        let _ = s.weighted_count();
        let after = s.last_query();
        assert!(
            after.eval.recomputed > 0 && after.eval.recomputed <= first.eval.recomputed,
            "one pin costs at most one sweep: {} of {}",
            after.eval.recomputed,
            first.eval.recomputed
        );
    }

    #[test]
    fn unusable_weights_are_errors_not_panics() {
        // The DIMACS dialects happily parse negative rational weights; the
        // log-space serving layer must reject them with a typed error.
        let f = CnfFormula::from_dimacs("p cnf 2 1\nc p weight 1 -1/2 0\n1 2 0\n").unwrap();
        assert!(matches!(
            KnowledgeBase::compile_cnf(&Compiler::new(), &f),
            Err(KbBuildError::Weight(x)) if x == v(0)
        ));
        // Programmatic misuse is a typed error too.
        let (mut kb, _, _) = demo_builder();
        assert_eq!(
            kb.set_weights(v(0), -1.0, 0.5),
            Err(KbError::InvalidWeight(v(0)))
        );
        assert_eq!(
            kb.set_weights(v(0), f64::NAN, 0.5),
            Err(KbError::InvalidWeight(v(0)))
        );
        assert_eq!(
            kb.set_probability(v(0), 1.5),
            Err(KbError::InvalidWeight(v(0)))
        );
        // Zero weights are fine (hard evidence by weight).
        kb.set_weights(v(0), 0.0, 1.0).unwrap();
        assert_eq!(kb.weights_of(v(0)), Some((0.0, 1.0)));
        let mut s = Arc::new(kb.freeze()).session();
        assert!((s.marginal(v(0)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn query_preserves_the_marginals_memo() {
        let (mut s, _, _) = demo_session();
        let before = s.marginal(v(0)).unwrap();
        let _ = s.query(&[(v(1), true)]).unwrap();
        // The pin/restore inside query() left the weights identical, so
        // this marginal must be a memo hit (no recomputation at all).
        let after = s.marginal(v(0)).unwrap();
        assert_eq!(before, after);
        assert!(s.last_query().memo_hit, "memo carried across query()");
        assert_eq!(s.last_query().eval.recomputed, 0);
    }

    #[test]
    fn counting_semantics_by_default() {
        // No weights set: marginal = fraction of models, count semantics.
        let f = CnfFormula::from_clauses(2, vec![vec![(v(0), true), (v(1), true)]]);
        let kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).unwrap();
        let mut s = Arc::new(kb.freeze()).session();
        // 3 models; x0 true in 2 of them.
        let m = s.marginal(v(0)).unwrap();
        assert!((m - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.count_models().to_u128(), Some(3));
    }
}
