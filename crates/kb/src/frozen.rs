//! The frozen serving tier: **one compiled base, many concurrent readers**.
//!
//! [`crate::KnowledgeBase::freeze`] turns a builder into a [`FrozenKb`] —
//! the read-only serving form built on the immutable [`FrozenSdd`] slab
//! plus the unfolded arithmetic circuit ([`Ac`]) — which is `Send + Sync`
//! and shared via [`Arc`]. A compiled base is always frozen before it
//! answers anything, and a slab is only ever read.
//!
//! * [`FrozenKb::session`] hands out a [`KbSession`] per serving thread: a
//!   thin handle holding its own copy of the base's weights and evidence,
//!   the log-weights, and a few epoch-stamped memos. Every query is one
//!   lane sweep of the shared circuit ([`Ac::eval_lanes`] and its two-pass
//!   forms), with a scalar query as the one-lane case: weighted counts and
//!   `query` in `LogF64`, consistency and entailment in `MaxPlus` over
//!   `{0, -∞}` weights (the Boolean semiring — decomposability makes
//!   satisfiability one bottom-up sweep), exact counts in `Nat`, marginals
//!   and MPE through the up+down and argmax forms. The `*_batch` forms run
//!   the same sweeps over chunks of [`LANE_CHUNK`] lanes.
//! * Session [`KbSession::condition`] / [`KbSession::retract`] are pure
//!   weight-space operations (an asserted literal zeroes the opposing
//!   polarity) — no node is ever interned, so any number of sessions
//!   condition independently over one slab.
//!
//! Evidence frozen into the base stays asserted in every session; a
//! session's own evidence is local to it and [`KbSession::retract`]
//! restores the frozen baseline, never less.

use crate::ac::Ac;
use crate::posture::{dense, Posture};
use crate::{KbError, KbProvenance, KbQueryStats, Lit, Model, QueryKind};
use arith::{log_sum_exp, BigUint, LaneSemiring, LogF64, MaxPlus, Nat};
use boolfunc::Assignment;
use sdd::eval::EvalCacheStats;
use sdd::{FrozenSdd, SddId};
use std::sync::Arc;
use std::time::Instant;
use vtree::fxhash::FxHashMap;
use vtree::VarId;

/// Lane width of every `*_batch` sweep: a batch of `B` evidence sets runs
/// as `⌈B / LANE_CHUNK⌉` sweeps of at most this many lanes. A sweep's
/// value table is gates × lanes × 8 bytes, so an unchunked 64-lane sweep
/// of a 76k-gate circuit writes 39 MB and runs slower per lane than 16-lane
/// chunks, whose 9.7 MB table stays closer to cache; 8- and 32-lane chunks
/// both measured slower than 16.
const LANE_CHUNK: usize = 16;

/// Literals asserted in one lane on top of the session's evidence, as
/// `(dense variable, polarity)` pairs.
type LanePins = Vec<(usize, bool)>;

/// The lanes of a scalar query: one, asserting nothing beyond the evidence.
const ONE_LANE: [&[(usize, bool)]; 1] = [&[]];

/// Var-major lane columns for one sweep: `cols[i * W + l]` is dense
/// variable `i` in lane `l`, namely `base(i)` with lane `l`'s asserted
/// literals zeroing their opposite polarities (repeated assertions
/// compose, so opposing ones zero both).
fn lane_columns<E: Clone, P: AsRef<[(usize, bool)]>>(
    n: usize,
    base: impl Fn(usize) -> (E, E),
    zero: &E,
    lanes: &[P],
) -> Vec<(E, E)> {
    let w = lanes.len();
    let mut cols = Vec::with_capacity(n * w);
    for i in 0..n {
        cols.extend(std::iter::repeat_n(base(i), w));
    }
    for (l, pins) in lanes.iter().enumerate() {
        for &(i, b) in pins.as_ref() {
            let c = &mut cols[i * w + l];
            if b {
                c.0 = zero.clone();
            } else {
                c.1 = zero.clone();
            }
        }
    }
    cols
}

/// The read-only serving form of a [`crate::KnowledgeBase`]: the frozen
/// SDD slab plus everything a query needs (weights and evidence, the
/// unfolded arithmetic circuit, provenance). `Send + Sync`; share with [`Arc`] and
/// open one [`KbSession`] per serving thread.
pub struct FrozenKb {
    pub(crate) sdd: Arc<FrozenSdd>,
    pub(crate) root: SddId,
    pub(crate) vars: Vec<VarId>,
    pub(crate) var_index: FxHashMap<VarId, usize>,
    pub(crate) posture: Posture,
    pub(crate) ac: Ac,
    pub(crate) provenance: KbProvenance,
}

/// Compile-time proof that the frozen tier is shareable: this never runs,
/// it just fails to compile if any field loses `Send + Sync`.
#[allow(dead_code)]
fn frozen_kb_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<FrozenKb>();
    assert_send_sync::<Arc<FrozenKb>>();
    // A session is owned by one serving thread but may be *moved* to it.
    assert_send::<KbSession>();
}

impl FrozenKb {
    /// The variables served by this knowledge base.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// The shared frozen slab.
    pub fn sdd(&self) -> &FrozenSdd {
        &self.sdd
    }

    /// The compiled (unconditioned) root.
    pub fn root(&self) -> SddId {
        self.root
    }

    /// Elements in the compiled SDD.
    pub fn sdd_size(&self) -> usize {
        self.sdd.size(self.root)
    }

    /// Gates in the unfolded arithmetic circuit.
    pub fn unfolded_size(&self) -> usize {
        self.ac.size()
    }

    /// The evidence frozen into the base (asserted in every session).
    pub fn evidence(&self) -> &[Lit] {
        &self.posture.evidence
    }

    /// The frozen weight pair `(w⁻, w⁺)` of `v`.
    pub fn weights_of(&self, v: VarId) -> Option<(f64, f64)> {
        self.var_index.get(&v).map(|&i| self.posture.weights[i])
    }

    /// Where the SDD came from, with its compilation report.
    pub fn provenance(&self) -> &KbProvenance {
        &self.provenance
    }

    /// Estimated resident bytes of the base: the shared SDD store's node
    /// table and element arena ([`sdd::FrozenSdd::memory_bytes`]; the
    /// compile-time tables were dropped at freeze) plus the unfolded
    /// circuit every query sweeps.
    pub fn memory_bytes(&self) -> usize {
        self.sdd.memory_bytes() + self.ac.memory_bytes()
    }

    /// Publish this base's boot-time telemetry: size gauges
    /// (`kb_vars{kb}`, `kb_sdd_size{kb}`, `kb_ac_gates{kb}`,
    /// `kb_mem_bytes{kb}`) plus — when the base still carries its
    /// compilation provenance — the full compile-time families (stage
    /// timings, the paper's widths, kernel apply counters) via the
    /// report's `publish`. Sessions never run apply, so a serving
    /// process's kernel apply/unique-table metrics come entirely from
    /// here. Snapshot-loaded bases have [`KbProvenance::Raw`] provenance
    /// and publish sizes only.
    pub fn publish_boot_metrics(&self, reg: &obs::MetricsRegistry, id: usize) {
        let id_s = id.to_string();
        let kb_label = [("kb", id_s.as_str())];
        reg.gauge("kb_vars", &kb_label).set(self.vars.len() as f64);
        reg.gauge("kb_sdd_size", &kb_label)
            .set(self.sdd_size() as f64);
        reg.gauge("kb_ac_gates", &kb_label)
            .set(self.unfolded_size() as f64);
        reg.gauge("kb_mem_bytes", &kb_label)
            .set(self.memory_bytes() as f64);
        match &self.provenance {
            KbProvenance::Circuit(report) => report.publish(reg),
            KbProvenance::Cnf(report) => report.publish(reg),
            KbProvenance::Raw => {}
        }
    }

    /// Open a private serving session, initialized to the frozen weights
    /// and evidence. Cheap enough to hand one to every serving thread;
    /// sessions never contend.
    pub fn session(self: &Arc<Self>) -> KbSession {
        let ln = |&(wn, wp): &(f64, f64)| (wn.ln(), wp.ln());
        KbSession {
            kb: Arc::clone(self),
            posture: self.posture.clone(),
            log_weights: self.posture.weights.iter().map(ln).collect(),
            epoch: 0,
            memo: Memos::default(),
            table: Vec::new(),
            last_query: KbQueryStats::default(),
            eval_scratch: EvalCacheStats::default(),
            lanes_scratch: 1,
            obs: None,
        }
    }
}

/// Answers derived from a session's weights and evidence, each stamped
/// with the session epoch it was computed at and valid only at that epoch.
#[derive(Default)]
struct Memos {
    /// `ln W(F)`.
    prior: Option<(u64, f64)>,
    /// `ln W(F ∧ e)`.
    posterior: Option<(u64, f64)>,
    /// Whether `F ∧ e` has a model.
    consistent: Option<(u64, bool)>,
    /// The posterior marginals table.
    marginals: Option<(u64, Result<Vec<f64>, KbError>)>,
}

/// The memoized value if it was computed at `epoch`.
fn at<T: Copy>(memo: Option<(u64, T)>, epoch: u64) -> Option<T> {
    memo.filter(|&(e, _)| e == epoch).map(|(_, v)| v)
}

/// One serving thread's handle on a shared [`FrozenKb`]: session-local
/// weights and evidence as dense per-variable tables, and epoch-stamped
/// memos of the answers that depend on nothing else — the one
/// implementation of every query.
pub struct KbSession {
    kb: Arc<FrozenKb>,
    /// Session-local weights and evidence: a copy of the frozen base's,
    /// which [`KbSession::set_weights`] and [`KbSession::condition`]
    /// diverge per session. Its evidence list is the frozen evidence
    /// followed by the session's own.
    posture: Posture,
    /// `ln` of the posture's weights: the rows every numeric sweep starts
    /// from.
    log_weights: Vec<(f64, f64)>,
    /// Bumped by every change to the posture.
    epoch: u64,
    memo: Memos,
    /// The value table every `f64` sweep writes: sweeps reuse it instead
    /// of allocating a table each, and it grows to the widest sweep so far
    /// (at most [`LANE_CHUNK`] lanes), so its final size does not depend
    /// on the order in which batch widths arrive, and a session that only
    /// sweeps one lane (a base compiled to answer one probability) never
    /// reserves sixteen.
    table: Vec<f64>,
    last_query: KbQueryStats,
    /// Sweep traffic of the running query, accumulated inside
    /// [`KbSession::tracked`].
    eval_scratch: EvalCacheStats,
    /// Scratch batch width the `*_batch` queries set inside
    /// [`KbSession::tracked`] (scalar queries leave it at 1); feeds
    /// [`KbQueryStats::lanes`] and the per-lane latency telemetry.
    lanes_scratch: usize,
    /// Telemetry attachment ([`KbSession::attach_obs`]); `None` keeps the
    /// query path free of instrumentation work.
    obs: Option<SessionObs>,
}

/// Pre-resolved telemetry handles for one query kind — resolved once per
/// session so the per-query path records through lock-free atomics.
struct KindHandles {
    queries: obs::Counter,
    latency_us: obs::Histogram,
    eval_lookups: obs::Counter,
    eval_hits: obs::Counter,
    eval_recomputed: obs::Counter,
    memo_hits: obs::Counter,
    /// Total lanes served by batch queries of this kind.
    batch_lanes: obs::Counter,
    /// Per-lane latency of batch queries: duration divided by batch width.
    lane_us: obs::Histogram,
}

/// A session's telemetry attachment: the registry it publishes to, the
/// optional slow-query log, and handles cached lazily per query kind.
struct SessionObs {
    registry: Arc<obs::MetricsRegistry>,
    slow: Option<Arc<obs::SlowLog>>,
    kinds: [Option<KindHandles>; QueryKind::ALL.len()],
}

impl SessionObs {
    fn new(registry: Arc<obs::MetricsRegistry>, slow: Option<Arc<obs::SlowLog>>) -> SessionObs {
        SessionObs {
            registry,
            slow,
            kinds: std::array::from_fn(|_| None),
        }
    }

    fn kind(&mut self, k: QueryKind) -> &KindHandles {
        let i = k.index();
        if self.kinds[i].is_none() {
            let kind = [("kind", k.as_str())];
            self.kinds[i] = Some(KindHandles {
                queries: self.registry.counter("kb_queries_total", &kind),
                latency_us: self.registry.histogram("kb_query_us", &kind),
                eval_lookups: self.registry.counter("kb_eval_lookups_total", &kind),
                eval_hits: self.registry.counter("kb_eval_hits_total", &kind),
                eval_recomputed: self.registry.counter("kb_eval_recomputed_total", &kind),
                memo_hits: self.registry.counter("kb_memo_hits_total", &kind),
                batch_lanes: self.registry.counter("kb_batch_lanes_total", &kind),
                lane_us: self.registry.histogram("kb_lane_us", &kind),
            });
        }
        self.kinds[i].as_ref().expect("just initialized")
    }
}

impl KbSession {
    /// The shared base this session serves.
    pub fn kb(&self) -> &Arc<FrozenKb> {
        &self.kb
    }

    /// The variables served by this session.
    pub fn vars(&self) -> &[VarId] {
        &self.kb.vars
    }

    /// Cost of the most recent query (`mem_bytes` reports the shared
    /// base).
    pub fn last_query(&self) -> KbQueryStats {
        self.last_query
    }

    /// The session's evidence literals, in assertion order (on top of the
    /// frozen base's own evidence).
    pub fn evidence(&self) -> &[Lit] {
        &self.posture.evidence[self.kb.posture.evidence.len()..]
    }

    /// The session's current weight pair `(w⁻, w⁺)` of `v`.
    pub fn weights_of(&self, v: VarId) -> Option<(f64, f64)> {
        self.kb.var_index.get(&v).map(|&i| self.posture.weights[i])
    }

    // ------------------------------------------------------------------
    // Weights (session-local)
    // ------------------------------------------------------------------

    /// Set `P(v = 1) = p` for this session only.
    pub fn set_probability(&mut self, v: VarId, p: f64) -> Result<(), KbError> {
        self.set_weights(v, 1.0 - p, p)
    }

    /// Set the weight pair `(w⁻, w⁺)` of `v` for this session only — other
    /// sessions over the same [`FrozenKb`] are unaffected.
    pub fn set_weights(&mut self, v: VarId, neg: f64, pos: f64) -> Result<(), KbError> {
        let &i = self
            .kb
            .var_index
            .get(&v)
            .ok_or(KbError::UnknownVariable(v))?;
        self.posture.set_weights(i, v, neg, pos)?;
        self.log_weights[i] = (neg.ln(), pos.ln());
        self.epoch += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Evidence (weight-space only — nothing is interned)
    // ------------------------------------------------------------------

    /// Assert evidence literals: each `(v, b)` pins `v := b` by zeroing
    /// `v`'s opposing weight — purely in weight space, so concurrent
    /// sessions condition independently over one shared slab. Evidence
    /// accumulates across calls; asserting both polarities of a variable
    /// makes the session inconsistent (and the call returns
    /// [`KbError::Inconsistent`], with the evidence retained — use
    /// [`KbSession::retract`] to recover).
    pub fn condition(&mut self, lits: &[Lit]) -> Result<(), KbError> {
        let pins = dense(&self.kb.var_index, lits)?;
        self.tracked(QueryKind::Condition, |s| {
            for (&lit, (i, _)) in lits.iter().zip(pins) {
                if s.posture.assert(i, lit) {
                    s.epoch += 1;
                }
            }
            if s.consistent() {
                Ok(())
            } else {
                Err(KbError::Inconsistent)
            }
        })
    }

    /// Drop the session's evidence, restoring the **frozen baseline** (the
    /// base's own evidence stays asserted — it is part of the slab's
    /// identity, not this session's state).
    pub fn retract(&mut self) {
        self.tracked(QueryKind::Retract, |s| {
            let base = &s.kb.posture;
            if s.posture.evidence.len() > base.evidence.len() {
                s.posture.evidence.truncate(base.evidence.len());
                s.posture.allowed.clone_from(&base.allowed);
                s.epoch += 1;
            }
        })
    }

    /// Does the formula have a model consistent with the evidence?
    /// (Structural: ignores weights — a model whose weight is 0 still
    /// counts. The numeric queries additionally fail with
    /// [`KbError::Inconsistent`] when every such model weighs nothing.
    /// `&mut` because the verdict is memoized in the session.)
    pub fn is_consistent(&mut self) -> bool {
        self.tracked(QueryKind::Consistent, |s| s.consistent())
    }

    fn consistent(&mut self) -> bool {
        if let Some(c) = at(self.memo.consistent, self.epoch) {
            self.served(1);
            return c;
        }
        let c = self.satisfiable(&[]);
        self.memo.consistent = Some((self.epoch, c));
        c
    }

    // ------------------------------------------------------------------
    // Numeric queries (log-space, memoized)
    // ------------------------------------------------------------------

    /// `ln W(F ∧ e)`: the log weighted model count under the current
    /// evidence (`-∞` when inconsistent). The underflow-safe primitive the
    /// probability queries are ratios of.
    pub fn log_weight(&mut self) -> f64 {
        self.tracked(QueryKind::LogWeight, |s| s.posterior())
    }

    /// `W(F ∧ e)` in the linear domain — underflows to 0 where
    /// [`KbSession::log_weight`] would not.
    pub fn weighted_count(&mut self) -> f64 {
        self.log_weight().exp()
    }

    /// `P(e) = W(F ∧ e) / W(F)`: how much of the prior weight the evidence
    /// retained. Errors when the formula itself carries no weight. When
    /// neither count is memoized, both come from one two-lane sweep.
    pub fn probability_of_evidence(&mut self) -> Result<f64, KbError> {
        self.tracked(QueryKind::ProbEvidence, |s| {
            let epoch = s.epoch;
            let (prior, post) =
                if at(s.memo.prior, epoch).is_none() && at(s.memo.posterior, epoch).is_none() {
                    let cols: Vec<(f64, f64)> = (0..s.kb.vars.len())
                        .flat_map(|i| [s.log_weights[i], s.posterior_pair(i)])
                        .collect();
                    let roots = s.sweep_roots(&LogF64, 2, &cols);
                    s.memo.prior = Some((epoch, roots[0]));
                    s.memo.posterior = Some((epoch, roots[1]));
                    (roots[0], roots[1])
                } else {
                    (s.prior(), s.posterior())
                };
            if prior == f64::NEG_INFINITY {
                return Err(KbError::Inconsistent);
            }
            Ok((post - prior).exp())
        })
    }

    /// `P(⋀ lits | F ∧ e)`: the conditional probability of a conjunction
    /// of literals given the formula and current evidence — one sweep with
    /// the literals asserted in the lane's columns, the memoized `ln W(F ∧
    /// e)` as denominator (computed in a second lane of the same sweep when
    /// stale). Weights and evidence are untouched, so every memo survives.
    pub fn query(&mut self, lits: &[Lit]) -> Result<f64, KbError> {
        let pins = dense(&self.kb.var_index, lits)?;
        self.tracked(QueryKind::Query, |s| s.conditionals(&[pins]).map(|p| p[0]))
    }

    /// Answer `queries.len()` conjunction queries in lane sweeps of at
    /// most `LANE_CHUNK` lanes: lane `l` computes exactly
    /// `self.query(&queries[l])`, **bit-identically** — the same columns,
    /// the same per-lane op sequence, the same denominator. Per-lane
    /// errors follow the scalar path: an unknown variable in lane `l`'s
    /// literals yields `Err(UnknownVariable)` for that lane only; an
    /// inconsistent session yields `Err(Inconsistent)` in every remaining
    /// lane.
    pub fn query_batch(&mut self, queries: &[Vec<Lit>]) -> Vec<Result<f64, KbError>> {
        self.batch(QueryKind::QueryBatch, queries, |s, lanes| {
            match s.conditionals(lanes) {
                Ok(ps) => ps.into_iter().map(Ok).collect(),
                Err(e) => vec![Err(e); lanes.len()],
            }
        })
    }

    /// `P(v = 1 | F ∧ e)`: one posterior marginal. The first marginal
    /// after a weight or evidence change runs the two-pass sweep and
    /// memoizes all of them, so a scan over variables costs one sweep.
    pub fn marginal(&mut self, v: VarId) -> Result<f64, KbError> {
        let i = *self
            .kb
            .var_index
            .get(&v)
            .ok_or(KbError::UnknownVariable(v))?;
        Ok(self.marginals_table(QueryKind::Marginal)?[i])
    }

    /// All posterior marginals `P(v = 1 | F ∧ e)`, in vtree variable
    /// order, from one upward + downward sweep of the unfolded circuit.
    pub fn all_marginals(&mut self) -> Result<Vec<(VarId, f64)>, KbError> {
        let table = self.marginals_table(QueryKind::AllMarginals)?.clone();
        Ok(self.kb.vars.iter().copied().zip(table).collect())
    }

    fn marginals_table(&mut self, kind: QueryKind) -> Result<&Vec<f64>, KbError> {
        self.tracked(kind, |s| {
            if matches!(&s.memo.marginals, Some((e, _)) if *e == s.epoch) {
                s.served(2);
                return;
            }
            let table = s.marginal_tables(&ONE_LANE).pop().expect("one lane");
            s.memo.marginals = Some((s.epoch, table));
        });
        match &self.memo.marginals.as_ref().expect("just set").1 {
            Ok(table) => Ok(table),
            Err(e) => Err(e.clone()),
        }
    }

    /// `P(v = 1 | F ∧ e ∧ e_l)` for each evidence set `e_l` — lane `l`
    /// answers exactly what the scalar loop `condition(&e_l); marginal(v);
    /// retract-to-here` would, **bit-identically**, from lane-parallel
    /// up+down sweeps of the arithmetic circuit. The session's own pins and
    /// memo are untouched. An unknown `v` fails every lane.
    pub fn marginal_batch(&mut self, v: VarId, evidence: &[Vec<Lit>]) -> Vec<Result<f64, KbError>> {
        let Some(&i) = self.kb.var_index.get(&v) else {
            return vec![Err(KbError::UnknownVariable(v)); evidence.len()];
        };
        self.batch(QueryKind::MarginalBatch, evidence, |s, lanes| {
            s.marginal_tables(lanes)
                .into_iter()
                .map(|r| r.map(|t| t[i]))
                .collect()
        })
    }

    /// All posterior marginals under each evidence set — the batched
    /// [`KbSession::all_marginals`], one table per lane (see
    /// [`KbSession::marginal_batch`] for the per-lane contract).
    pub fn all_marginals_batch(
        &mut self,
        evidence: &[Vec<Lit>],
    ) -> Vec<Result<Vec<(VarId, f64)>, KbError>> {
        self.batch(QueryKind::AllMarginalsBatch, evidence, |s, lanes| {
            s.marginal_tables(lanes)
                .into_iter()
                .map(|r| r.map(|t| s.kb.vars.iter().copied().zip(t).collect()))
                .collect()
        })
    }

    /// The most probable explanation: the model of maximum weight
    /// consistent with the current evidence, found by a [`arith::MaxPlus`]
    /// sweep with argmax back-pointers and **verified** before it is
    /// returned (see [`KbSession::mpe_batch`]; any violation is a bug and
    /// panics).
    pub fn mpe(&mut self) -> Result<Model, KbError> {
        self.tracked(QueryKind::Mpe, |s| {
            s.mpe_models(&ONE_LANE).pop().expect("one lane")
        })
    }

    /// The most probable explanation under each evidence set — lane `l`
    /// answers exactly what the scalar loop `condition(&evidence[l]);
    /// mpe(); retract-to-here` would, **bit-identically in both the score
    /// and the decoded witness** (`Ac::mpe_lanes` resolves `⊕`-gate ties
    /// by the same last-maximal-child rule at every width). The session's
    /// own pins and memo are untouched. Per lane: an unknown evidence
    /// variable is that lane's error; a `-∞` maximum (no model under the
    /// merged pins) is `Inconsistent`; otherwise the witness satisfies the
    /// circuit, agrees with every pin, and reproduces the maximum weight.
    /// All three checks ride on ONE extra [`arith::MaxPlus`] sweep over
    /// witness-pinned columns: under a complete assignment the circuit's
    /// only possible model is the witness, so the pinned root is the
    /// witness's weight if it is a model whose literals all carry weight
    /// (a literal against a pin carries `-∞`), and `-∞` otherwise.
    pub fn mpe_batch(&mut self, evidence: &[Vec<Lit>]) -> Vec<Result<Model, KbError>> {
        self.batch(QueryKind::MpeBatch, evidence, |s, lanes| {
            s.mpe_models(lanes)
        })
    }

    /// The `k` heaviest models consistent with the current evidence,
    /// heaviest first (fewer than `k` when the model set is smaller; empty
    /// when inconsistent). Each returned model satisfies the SDD —
    /// determinism guarantees the list has no duplicates.
    pub fn enumerate_models(&mut self, k: usize) -> Vec<Model> {
        self.tracked(QueryKind::TopK, |s| {
            let _sp = obs::span("ac_topk");
            let weights = s.posterior_columns(&ONE_LANE);
            s.swept(1);
            s.kb.ac
                .top_k(&weights, k)
                .into_iter()
                .map(|(log_weight, polarity)| {
                    let assignment = Assignment::from_pairs(
                        s.kb.vars.iter().copied().zip(polarity.iter().copied()),
                    );
                    debug_assert!(s.kb.sdd.eval(s.kb.root, &assignment));
                    Model {
                        assignment,
                        log_weight,
                    }
                })
                .collect()
        })
    }

    // ------------------------------------------------------------------
    // Structural queries (weight-free, but still apply-free)
    // ------------------------------------------------------------------

    /// Does `F ∧ e` entail the clause `⋁ lits`? Exactly when `F ∧ e ∧
    /// ⋀ ¬lit` has no model — one structural sweep with the negated
    /// literals asserted. Pin conflicts do the case analysis for free: a
    /// clause literal the evidence satisfies, or a complementary pair
    /// within the clause, zero both polarities of that variable and the
    /// sweep finds no model. An empty clause is entailed exactly when the
    /// session is inconsistent.
    pub fn entails(&mut self, clause: &[Lit]) -> Result<bool, KbError> {
        let negated: LanePins = dense(&self.kb.var_index, clause)?
            .into_iter()
            .map(|(i, b)| (i, !b))
            .collect();
        self.tracked(QueryKind::Entails, |s| Ok(!s.satisfiable(&negated)))
    }

    /// The exact number of models of `F ∧ e` over all variables
    /// ([`arith::BigUint`] — no overflow at any size): one `Nat` sweep of
    /// the (smoothed) circuit under `(0, 1)`-pinned weights.
    pub fn count_models(&mut self) -> BigUint {
        self.tracked(QueryKind::Count, |s| {
            let _sp = obs::span("nat_sweep");
            let zero = BigUint::zero();
            let cols = lane_columns(
                s.kb.vars.len(),
                |i| s.posture.masked(i, (BigUint::one(), BigUint::one()), &zero),
                &zero,
                &ONE_LANE,
            );
            s.swept(1);
            let mut vals = Vec::new();
            s.kb.ac.eval_lanes(&Nat, 1, &cols, &mut vals);
            vals.swap_remove(s.kb.ac.root as usize)
        })
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The evidence-adjusted log-weight pair of dense variable `i`.
    fn posterior_pair(&self, i: usize) -> (f64, f64) {
        self.posture
            .masked(i, self.log_weights[i], &f64::NEG_INFINITY)
    }

    /// `LogF64` lane columns: the posterior weights with each lane's pins.
    fn posterior_columns<P: AsRef<[(usize, bool)]>>(&self, lanes: &[P]) -> Vec<(f64, f64)> {
        lane_columns(
            self.kb.vars.len(),
            |i| self.posterior_pair(i),
            &f64::NEG_INFINITY,
            lanes,
        )
    }

    /// Account one sweep pass over `lanes` lanes: needed and swept.
    fn swept(&mut self, lanes: usize) {
        let gates = (self.kb.ac.size() * lanes) as u64;
        self.eval_scratch.lookups += gates;
        self.eval_scratch.recomputed += gates;
    }

    /// Account `lanes` lanes of one pass that a memo answered.
    fn served(&mut self, lanes: usize) {
        let gates = (self.kb.ac.size() * lanes) as u64;
        self.eval_scratch.lookups += gates;
        self.eval_scratch.hits += gates;
    }

    /// One upward sweep over `lanes`-wide columns; the root column.
    fn sweep_roots<S: LaneSemiring<Elem = f64>>(
        &mut self,
        s: &S,
        lanes: usize,
        cols: &[(f64, f64)],
    ) -> Vec<f64> {
        self.swept(lanes);
        let _sp = obs::span("ac_sweep");
        self.kb.ac.eval_lanes(s, lanes, cols, &mut self.table);
        let root = self.kb.ac.root as usize * lanes;
        self.table[root..root + lanes].to_vec()
    }

    /// `ln W(F)`, memoized.
    fn prior(&mut self) -> f64 {
        if let Some(w) = at(self.memo.prior, self.epoch) {
            self.served(1);
            return w;
        }
        let cols = self.log_weights.clone();
        let w = self.sweep_roots(&LogF64, 1, &cols)[0];
        self.memo.prior = Some((self.epoch, w));
        w
    }

    /// `ln W(F ∧ e)`, memoized.
    fn posterior(&mut self) -> f64 {
        if let Some(w) = at(self.memo.posterior, self.epoch) {
            self.served(1);
            return w;
        }
        let cols = self.posterior_columns(&ONE_LANE);
        let w = self.sweep_roots(&LogF64, 1, &cols)[0];
        self.memo.posterior = Some((self.epoch, w));
        w
    }

    /// Does `F ∧ e ∧ ⋀ pins` have a model? One `MaxPlus` sweep over
    /// `{0, -∞}` columns — the Boolean semiring, where a smooth
    /// decomposable circuit evaluates to `0` exactly when some model
    /// survives the pins.
    fn satisfiable(&mut self, pins: &[(usize, bool)]) -> bool {
        let inf = f64::NEG_INFINITY;
        let cols = lane_columns(
            self.kb.vars.len(),
            |i| self.posture.masked(i, (0.0, 0.0), &inf),
            &inf,
            &[pins],
        );
        self.sweep_roots(&MaxPlus, 1, &cols)[0] != inf
    }

    /// `P(⋀ pins_l | F ∧ e)` per lane, in sweeps of at most
    /// `LANE_CHUNK` lanes; a stale `ln W(F ∧ e)` rides along as one more
    /// lane. `Err(Inconsistent)` when `W(F ∧ e) = 0`.
    fn conditionals<P: AsRef<[(usize, bool)]>>(
        &mut self,
        lanes: &[P],
    ) -> Result<Vec<f64>, KbError> {
        let memo = at(self.memo.posterior, self.epoch);
        if memo == Some(f64::NEG_INFINITY) {
            self.served(1);
            return Err(KbError::Inconsistent);
        }
        let mut all: Vec<&[(usize, bool)]> = lanes.iter().map(AsRef::as_ref).collect();
        if memo.is_none() {
            all.push(&[]);
        }
        let mut roots = Vec::with_capacity(all.len());
        for chunk in all.chunks(LANE_CHUNK) {
            let cols = self.posterior_columns(chunk);
            roots.extend(self.sweep_roots(&LogF64, chunk.len(), &cols));
        }
        let denom = match memo {
            Some(w) => {
                self.served(1);
                w
            }
            None => {
                let w = roots.pop().expect("denominator lane");
                self.memo.posterior = Some((self.epoch, w));
                w
            }
        };
        if denom == f64::NEG_INFINITY {
            return Err(KbError::Inconsistent);
        }
        Ok(roots.into_iter().map(|n| (n - denom).exp()).collect())
    }

    /// Posterior marginal tables per lane (evidence plus the lane's pins),
    /// in vtree variable order, in up+down sweeps of at most
    /// `LANE_CHUNK` lanes. A lane without a model of nonzero weight is
    /// `Inconsistent`.
    fn marginal_tables<P: AsRef<[(usize, bool)]>>(
        &mut self,
        lanes: &[P],
    ) -> Vec<Result<Vec<f64>, KbError>> {
        let n = self.kb.vars.len();
        let mut out = Vec::with_capacity(lanes.len());
        for chunk in lanes.chunks(LANE_CHUNK) {
            let w = chunk.len();
            let cols = self.posterior_columns(chunk);
            self.swept(2 * w);
            let (total, pairs) = {
                let _sp = obs::span("ac_marginals");
                self.kb
                    .ac
                    .marginals_lanes(&LogF64, w, &cols, &mut self.table)
            };
            out.extend((0..w).map(|l| {
                if total[l] == f64::NEG_INFINITY {
                    return Err(KbError::Inconsistent);
                }
                Ok((0..n)
                    .map(|i| {
                        let (mn, mp) = pairs[i * w + l];
                        (mp - log_sum_exp(mn, mp)).exp()
                    })
                    .collect())
            }));
        }
        out
    }

    /// The verified MPE model per lane, in sweeps of at most
    /// `LANE_CHUNK` lanes (see [`KbSession::mpe_batch`] for the checks).
    fn mpe_models<P: AsRef<[(usize, bool)]>>(
        &mut self,
        lanes: &[P],
    ) -> Vec<Result<Model, KbError>> {
        let mut out = Vec::with_capacity(lanes.len());
        for chunk in lanes.chunks(LANE_CHUNK) {
            let w = chunk.len();
            let mut cols = self.posterior_columns(chunk);
            self.swept(w);
            let decoded = {
                let _sp = obs::span("ac_mpe");
                self.kb.ac.mpe_lanes(w, &cols, &mut self.table)
            };
            // Pin every decoded lane to its own witness and sweep once more.
            for (l, lane) in decoded.iter().enumerate() {
                let Some((_, polarity)) = lane else { continue };
                for (i, &b) in polarity.iter().enumerate() {
                    let c = &mut cols[i * w + l];
                    if b {
                        c.0 = f64::NEG_INFINITY;
                    } else {
                        c.1 = f64::NEG_INFINITY;
                    }
                }
            }
            let reweighed = self.sweep_roots(&MaxPlus, w, &cols);
            out.extend(decoded.into_iter().zip(reweighed).map(|(lane, reweighed)| {
                let (best, polarity) = lane.ok_or(KbError::Inconsistent)?;
                assert!(
                    reweighed.is_finite() && (reweighed - best).abs() <= 1e-9 * best.abs().max(1.0),
                    "MPE witness must satisfy the circuit and its pins and reproduce the \
                     maximum: re-evaluated {reweighed}, swept {best}"
                );
                let assignment = Assignment::from_pairs(self.kb.vars.iter().copied().zip(polarity));
                debug_assert!(
                    self.kb.sdd.eval(self.kb.root, &assignment),
                    "MPE witness must satisfy the compiled SDD"
                );
                Ok(Model {
                    assignment,
                    log_weight: best,
                })
            }));
        }
        out
    }

    /// Run a batch query: resolve each lane's evidence to dense pins (an
    /// unknown variable is that lane's error, and the lane sweeps with no
    /// pins of its own), answer every lane with `body`, and put the lane
    /// errors back in place.
    fn batch<T>(
        &mut self,
        kind: QueryKind,
        sets: &[Vec<Lit>],
        body: impl FnOnce(&mut Self, &[&[(usize, bool)]]) -> Vec<Result<T, KbError>>,
    ) -> Vec<Result<T, KbError>> {
        if sets.is_empty() {
            return Vec::new();
        }
        self.tracked(kind, |s| {
            s.lanes_scratch = sets.len();
            let pins: Vec<Result<LanePins, KbError>> =
                sets.iter().map(|e| dense(&s.kb.var_index, e)).collect();
            let lanes: Vec<&[(usize, bool)]> =
                pins.iter().map(|p| p.as_deref().unwrap_or(&[])).collect();
            let answers = body(s, &lanes);
            pins.into_iter()
                .zip(answers)
                .map(|(p, a)| p.and(a))
                .collect()
        })
    }

    /// Attach telemetry: per-query latency/hit-rate families land in
    /// `registry` (labelled by [`QueryKind`]), and — when `slow` is given
    /// — every query is traced, with the worst retained in the slow log.
    /// Handles are resolved here and cached, so the per-query cost is a
    /// handful of relaxed atomic ops.
    pub fn attach_obs(
        &mut self,
        registry: Arc<obs::MetricsRegistry>,
        slow: Option<Arc<obs::SlowLog>>,
    ) {
        self.obs = Some(SessionObs::new(registry, slow));
    }

    /// Run a query body, snapshotting its cost into
    /// [`KbSession::last_query`] and — when telemetry is attached —
    /// publishing it under `kind` and tracing it for the slow log.
    fn tracked<T>(&mut self, kind: QueryKind, body: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = Instant::now();
        self.eval_scratch = EvalCacheStats::default();
        self.lanes_scratch = 1;
        if self.obs.as_ref().is_some_and(|o| o.slow.is_some()) {
            obs::trace_begin(kind.as_str());
        }
        let out = body(self);
        let eval = self.eval_scratch;
        self.last_query = KbQueryStats {
            eval,
            mem_bytes: self.kb.memory_bytes(),
            duration: t0.elapsed(),
            memo_hit: eval.hits > 0 && eval.recomputed == 0,
            lanes: self.lanes_scratch,
        };
        if let Some(o) = self.obs.as_mut() {
            let q = &self.last_query;
            let h = o.kind(kind);
            h.queries.inc();
            h.latency_us.record_duration_us(q.duration);
            h.eval_lookups.add(q.eval.lookups);
            h.eval_hits.add(q.eval.hits);
            h.eval_recomputed.add(q.eval.recomputed);
            if q.memo_hit {
                h.memo_hits.inc();
            }
            if matches!(
                kind,
                QueryKind::QueryBatch
                    | QueryKind::MarginalBatch
                    | QueryKind::AllMarginalsBatch
                    | QueryKind::MpeBatch
            ) {
                h.batch_lanes.add(q.lanes as u64);
                h.lane_us
                    .record_duration_us(q.duration / q.lanes.max(1) as u32);
            }
            if obs::trace_active() {
                obs::trace_note("eval_lookups", q.eval.lookups);
                obs::trace_note("eval_recomputed", q.eval.recomputed);
                obs::trace_note("memo_hit", u64::from(q.memo_hit));
                if let (Some(rec), Some(slow)) = (obs::trace_end(), &o.slow) {
                    if slow.would_admit(rec.total) {
                        slow.offer(rec);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{brute_weight, demo_builder};
    use crate::KnowledgeBase;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// The shared `(x0 ∨ x1) ∧ (¬x1 ∨ x2)` fixture, as a builder.
    fn demo_kb() -> KnowledgeBase {
        crate::tests::demo_builder().0
    }

    /// Each `mpe_batch` lane must match the scalar `condition; mpe` loop
    /// bit-for-bit (score *and* witness), with per-lane error isolation:
    /// a poisoned lane errs alone, its neighbors answer normally.
    #[test]
    fn mpe_batch_lanes_match_the_scalar_loop_with_error_isolation() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut s = frozen.session();
        let batch: Vec<Vec<Lit>> = vec![
            vec![],
            vec![(v(1), true)],
            vec![(v(0), false), (v(2), true)],
            vec![(v(9), true)],                // unknown variable
            vec![(v(0), true), (v(0), false)], // contradiction
            vec![(v(2), false)],
        ];
        let got = s.mpe_batch(&batch);
        assert_eq!(got.len(), batch.len());
        for (l, e) in batch.iter().enumerate() {
            let mut lane = frozen.session();
            let want = match lane.condition(e) {
                Err(err) => Err(err),
                Ok(()) => lane.mpe(),
            };
            match (&got[l], &want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g.log_weight.to_bits(), w.log_weight.to_bits(), "lane {l}");
                    assert_eq!(g.assignment, w.assignment, "lane {l}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "lane {l}"),
                (g, w) => panic!("lane {l}: batched {g:?} vs scalar {w:?}"),
            }
        }
        // The batch left the session's own posture untouched.
        assert!(s.evidence().is_empty());
        assert_eq!(s.last_query().lanes, batch.len());
    }

    #[test]
    fn evidence_frozen_into_the_base_persists_across_session_retract() {
        let (mut kb, f, probs) = demo_builder();
        kb.condition(&[(v(2), true)]).unwrap();
        let expect = brute_weight(&f, &probs, &[(v(2), true)]);
        let frozen = Arc::new(kb.freeze());
        assert_eq!(frozen.evidence(), &[(v(2), true)]);
        let mut s = frozen.session();
        let baseline = s.weighted_count();
        assert!((baseline - expect).abs() < 1e-12, "{baseline} vs {expect}");
        // A session conditions further, retracts, and lands back on the
        // frozen baseline — not the unconditioned formula.
        s.condition(&[(v(1), false)]).unwrap();
        let deeper = brute_weight(&f, &probs, &[(v(2), true), (v(1), false)]);
        assert!((s.weighted_count() - deeper).abs() < 1e-12);
        s.retract();
        assert_eq!(s.weighted_count().to_bits(), baseline.to_bits());
        assert!(s.evidence().is_empty());
    }

    #[test]
    fn sessions_condition_independently_over_one_slab() {
        let (kb, f, probs) = demo_builder();
        let frozen = Arc::new(kb.freeze());
        let mut a = frozen.session();
        let mut b = frozen.session();
        a.condition(&[(v(1), true)]).unwrap();
        b.condition(&[(v(1), false)]).unwrap();
        // Each session sees its own posterior.
        for (s, lit) in [(&mut a, (v(1), true)), (&mut b, (v(1), false))] {
            let expect = brute_weight(&f, &probs, &[lit]);
            assert!((s.weighted_count() - expect).abs() < 1e-12);
        }
        // x1 forces x2, leaving x0 free: 2 models. ¬x1 forces x0, leaving
        // x2 free: 2 models.
        assert_eq!(a.count_models().to_u128(), Some(2));
        assert_eq!(b.count_models().to_u128(), Some(2));
    }

    #[test]
    fn session_weight_changes_stay_session_local() {
        let (kb, f, mut probs) = demo_builder();
        let frozen = Arc::new(kb.freeze());
        let mut a = frozen.session();
        let mut b = frozen.session();
        let before = b.log_weight();
        a.set_probability(v(0), 0.99).unwrap();
        assert_ne!(a.log_weight().to_bits(), before.to_bits());
        assert_eq!(b.log_weight().to_bits(), before.to_bits());
        assert_eq!(frozen.weights_of(v(0)), Some((0.7, 0.3)));
        // And the session's answers are those of the changed weights.
        probs[0] = 0.99;
        let total = brute_weight(&f, &probs, &[]);
        assert!((a.weighted_count() - total).abs() < 1e-12);
        let m2 = brute_weight(&f, &probs, &[(v(2), true)]) / total;
        assert!((a.marginal(v(2)).unwrap() - m2).abs() < 1e-12);
    }

    #[test]
    fn memory_bytes_parity_with_the_mutable_manager() {
        let kb = demo_kb();
        let mutable = kb.sdd().memory_bytes();
        let frozen = Arc::new(kb.freeze());
        let slab = frozen.sdd().memory_bytes();
        assert!(slab > 0);
        // Freezing moves the slabs (exact-length allocations), so the
        // frozen slab never exceeds the mutable manager.
        assert!(
            slab <= mutable,
            "frozen slab {slab} vs mutable manager {mutable}"
        );
        // The base's total is the slab plus the circuit its queries sweep.
        let total = frozen.memory_bytes();
        assert_eq!(total, slab + frozen.ac.memory_bytes());
        assert!(total > slab);
        let mut s = frozen.session();
        let _ = s.log_weight();
        assert_eq!(s.last_query().mem_bytes, total);
    }

    /// The memo-hit flag separates an answer a memo served from a real
    /// sweep, and a weight change invalidates every memo.
    #[test]
    fn memo_hit_flag_distinguishes_the_fast_path() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut s = frozen.session();
        let _ = s.marginal(v(0)).unwrap();
        assert!(!s.last_query().memo_hit, "first marginal runs the sweep");
        let _ = s.marginal(v(1)).unwrap();
        assert!(s.last_query().memo_hit, "second marginal is a memo hit");
        s.set_probability(v(0), 0.5).unwrap();
        let _ = s.marginal(v(1)).unwrap();
        assert!(
            !s.last_query().memo_hit,
            "weight change invalidates the memo"
        );
        let _ = s.log_weight();
        assert!(!s.last_query().memo_hit, "first log-weight runs the sweep");
        let _ = s.log_weight();
        assert!(s.last_query().memo_hit, "second log-weight is a memo hit");
        let _ = s.query(&[(v(1), true)]).unwrap();
        assert!(!s.last_query().memo_hit, "a query sweeps its numerator");
    }

    /// An attached registry sees exact per-kind totals, the trace pipeline
    /// feeds the slow log, and answers stay bit-identical to an
    /// uninstrumented session.
    #[test]
    fn attached_obs_records_queries_and_slow_traces() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut plain = frozen.session();
        let mut s = frozen.session();
        let registry = Arc::new(obs::MetricsRegistry::new());
        let slow = Arc::new(obs::SlowLog::new(4));
        s.attach_obs(Arc::clone(&registry), Some(Arc::clone(&slow)));

        assert_eq!(s.log_weight().to_bits(), plain.log_weight().to_bits());
        for i in 0..3u32 {
            assert_eq!(
                s.marginal(v(i)).map(f64::to_bits),
                plain.marginal(v(i)).map(f64::to_bits)
            );
        }
        let _ = s.mpe().unwrap();

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("kb_queries_total", &[("kind", "logw")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("kb_queries_total", &[("kind", "marginal")]),
            Some(3)
        );
        assert_eq!(
            snap.counter_value("kb_queries_total", &[("kind", "mpe")]),
            Some(1)
        );
        // Two of the three marginals were memo hits.
        assert_eq!(
            snap.counter_value("kb_memo_hits_total", &[("kind", "marginal")]),
            Some(2)
        );
        let lat = snap
            .histogram_value("kb_query_us", &[("kind", "marginal")])
            .expect("latency histogram exists");
        assert_eq!(lat.count, 3);
        // The sweep traffic is published per kind.
        let lookups = snap
            .counter_value("kb_eval_lookups_total", &[("kind", "logw")])
            .expect("eval family exists");
        assert!(lookups > 0);

        // Every query was traced; the slow log retained the worst with
        // stage breakdowns and renders single-line JSON.
        assert!(!slow.is_empty());
        let worst = slow.worst();
        assert!(worst.len() <= slow.capacity());
        let rec = &worst[0];
        assert!(slow.get(rec.id).is_some());
        let json = rec.to_json();
        assert!(json.contains("\"label\":\"") && !json.contains('\n'));
        assert!(rec.notes.iter().any(|(k, _)| *k == "memo_hit"));
    }

    /// `query_batch` lane `l` must be bit-identical to `query` on lane
    /// `l`'s literals — including error lanes, repeated pins, and lanes
    /// whose conjunction has zero weight.
    #[test]
    fn query_batch_is_bit_identical_to_the_scalar_query_per_lane() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut s = frozen.session();
        s.condition(&[(v(2), true)]).unwrap();
        let queries: Vec<Vec<Lit>> = vec![
            vec![],
            vec![(v(0), true)],
            vec![(v(0), false), (v(1), true)],
            vec![(v(1), true), (v(1), false)], // contradictory pins: P = 0
            vec![(v(0), true), (v(0), true)],  // repeated pin
            vec![(v(7), true)],                // unknown variable lane
            vec![(v(2), false)],               // against the evidence: P = 0
        ];
        let batch = s.query_batch(&queries);
        assert_eq!(s.last_query().lanes, queries.len());
        for (l, q) in queries.iter().enumerate() {
            assert_eq!(
                batch[l].as_ref().map(|p| p.to_bits()),
                s.query(q).as_ref().map(|p| p.to_bits()),
                "lane {l} ({q:?})"
            );
        }
        assert_eq!(s.last_query().lanes, 1, "scalar queries report one lane");
        assert!(s.query_batch(&[]).is_empty());
    }

    /// Batched marginals lane `l` must be bit-identical to the scalar
    /// loop `condition(e_l); marginal(v)` on a fresh session — and leave
    /// the batching session's own evidence untouched.
    #[test]
    fn marginal_batches_are_bit_identical_to_the_scalar_loop_per_lane() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut s = frozen.session();
        s.condition(&[(v(2), true)]).unwrap();
        let evidence: Vec<Vec<Lit>> = vec![
            vec![],
            vec![(v(0), true)],
            vec![(v(1), false)],
            vec![(v(0), false), (v(1), false)], // zero weight under x2
            vec![(v(9), true)],                 // unknown variable lane
            vec![(v(2), true)],                 // repeats the session pin
        ];
        let before = s.evidence().to_vec();
        let tables = s.all_marginals_batch(&evidence);
        assert_eq!(s.last_query().lanes, evidence.len());
        let singles = s.marginal_batch(v(1), &evidence);
        assert_eq!(s.evidence(), before, "batching leaves the session pins");
        for (l, e) in evidence.iter().enumerate() {
            // Scalar comparator: a fresh session with the same script.
            let mut f = frozen.session();
            f.condition(&[(v(2), true)]).unwrap();
            let scalar = match f.condition(e) {
                Ok(()) => f.all_marginals(),
                Err(err) => Err(err),
            };
            match (&tables[l], &scalar) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.len(), want.len());
                    for ((gv, gp), (wv, wp)) in got.iter().zip(want) {
                        assert_eq!(gv, wv);
                        assert_eq!(gp.to_bits(), wp.to_bits(), "lane {l} ({e:?}) var {gv}");
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "lane {l} ({e:?})"),
                (a, b) => panic!("lane {l} ({e:?}): batch {a:?} vs scalar {b:?}"),
            }
            assert_eq!(
                singles[l]
                    .as_ref()
                    .map(|p| p.to_bits())
                    .map_err(Clone::clone),
                tables[l]
                    .as_ref()
                    .map(|t| t.iter().find(|(var, _)| *var == v(1)).unwrap().1.to_bits())
                    .map_err(Clone::clone),
                "marginal_batch extracts the all_marginals_batch column"
            );
        }
        // Unknown target variable fails every lane.
        let bad = s.marginal_batch(v(42), &evidence);
        assert!(bad
            .iter()
            .all(|r| matches!(r, Err(KbError::UnknownVariable(x)) if *x == v(42))));
        assert!(s.all_marginals_batch(&[]).is_empty());
    }
}
