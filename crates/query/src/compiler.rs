//! The end-to-end query-compilation facade: UCQ(≠) + database → lineage
//! circuit → [`sentential_core::Compiler`] → SDD → probability, one call,
//! with the same timed report the circuit pipeline produces.
//!
//! ```
//! use query::{families, QueryCompiler};
//!
//! let (q, schema) = families::two_atom_hierarchical();
//! let r = schema.by_name("R").unwrap();
//! let s = schema.by_name("S").unwrap();
//! let mut db = query::Database::new(schema);
//! db.insert(r, vec![1], 0.5);
//! db.insert(s, vec![1, 1], 0.5);
//!
//! let answer = QueryCompiler::new().probability(&q, &db).unwrap();
//! assert!((answer.probability - 0.25).abs() < 1e-12);
//! println!("{}", answer.report.unwrap());
//! ```

use crate::ast::{QueryError, Ucq};
use crate::eval::ucq_holds;
use crate::lineage::lineage_circuit;
use crate::schema::Database;
use sentential_core::{CompileError, CompileOptions, CompileReport, Compiler, Route};
use std::fmt;
use vtree::VarId;

/// Failures of the query-compilation facade.
#[derive(Debug)]
pub enum QueryCompileError {
    /// The query does not fit the database's schema.
    Query(QueryError),
    /// The lineage circuit failed to compile.
    Compile(CompileError),
    /// The lineage is constant — no tuple influences the query — so there
    /// is no SDD to serve ([`QueryCompiler::knowledge_base`] only;
    /// `probability` answers `holds as f64` directly).
    ConstantLineage {
        /// Whether the query holds regardless of the tuples.
        holds: bool,
    },
}

impl fmt::Display for QueryCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryCompileError::Query(e) => write!(f, "invalid query: {e}"),
            QueryCompileError::Compile(e) => write!(f, "lineage compilation failed: {e}"),
            QueryCompileError::ConstantLineage { holds } => {
                write!(
                    f,
                    "constant lineage (query {} regardless of tuples): nothing to serve",
                    if *holds { "holds" } else { "fails" }
                )
            }
        }
    }
}

impl std::error::Error for QueryCompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryCompileError::Query(e) => Some(e),
            QueryCompileError::Compile(e) => Some(e),
            QueryCompileError::ConstantLineage { .. } => None,
        }
    }
}

impl From<QueryError> for QueryCompileError {
    fn from(e: QueryError) -> Self {
        QueryCompileError::Query(e)
    }
}

impl From<CompileError> for QueryCompileError {
    fn from(e: CompileError) -> Self {
        QueryCompileError::Compile(e)
    }
}

/// What a query compilation produced: the probability plus everything the
/// pipeline measured along the way.
#[derive(Debug)]
pub struct QueryAnswer {
    /// `P(Q)` over the tuple-independent database.
    pub probability: f64,
    /// Gates in the lineage circuit.
    pub lineage_gates: usize,
    /// Tuple variables appearing in the lineage.
    pub lineage_vars: usize,
    /// The circuit-compilation report; `None` when the lineage is constant
    /// (no tuple variable influences the query) and compilation was skipped.
    pub report: Option<CompileReport>,
}

impl QueryAnswer {
    /// Width of the tree decomposition used on the lineage, when the
    /// Lemma-1 vtree strategy ran.
    pub fn treewidth(&self) -> Option<usize> {
        self.report.as_ref().and_then(|r| r.treewidth)
    }
}

/// A query-compilation session: a [`Compiler`] plus the lineage plumbing.
///
/// The default configuration uses the apply route (lineages routinely
/// exceed the truth-table kernel cap) over Lemma-1 vtrees; use
/// [`QueryCompiler::with_options`] or [`QueryCompiler::with_compiler`] for
/// anything else.
#[derive(Clone, Debug)]
pub struct QueryCompiler {
    compiler: Compiler,
}

impl Default for QueryCompiler {
    fn default() -> Self {
        QueryCompiler {
            compiler: Compiler::builder().route(Route::Apply).build(),
        }
    }
}

impl QueryCompiler {
    /// The default session (apply route, Lemma-1 vtrees).
    pub fn new() -> Self {
        Self::default()
    }

    /// A session with explicit circuit-compilation options.
    pub fn with_options(opts: CompileOptions) -> Self {
        QueryCompiler {
            compiler: Compiler::with_options(opts),
        }
    }

    /// A session around an existing configured [`Compiler`].
    pub fn with_compiler(compiler: Compiler) -> Self {
        QueryCompiler { compiler }
    }

    /// The underlying circuit compiler.
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// `P(Q)` over `db`: validate the query, build the lineage circuit,
    /// compile it to an SDD, and weight-count it with the tuple marginals.
    pub fn probability(&self, q: &Ucq, db: &Database) -> Result<QueryAnswer, QueryCompileError> {
        q.validate(db.schema())?;
        let lineage = lineage_circuit(q, db);
        let lineage_vars = lineage.vars().len();
        if lineage_vars == 0 {
            // Constant lineage: the query's truth does not depend on any
            // tuple (e.g. the empty database).
            let p = if ucq_holds(q, db, &|_| false) {
                1.0
            } else {
                0.0
            };
            return Ok(QueryAnswer {
                probability: p,
                lineage_gates: lineage.size(),
                lineage_vars,
                report: None,
            });
        }
        let compiled = self.compiler.compile(&lineage)?;
        // The vtree covers only the variables appearing in the lineage;
        // tuples never used by any match do not affect the probability.
        let probability = compiled.probability(|v: VarId| db.prob_of_var(v));
        Ok(QueryAnswer {
            probability,
            lineage_gates: lineage.size(),
            lineage_vars,
            report: Some(compiled.report),
        })
    }

    /// Compile `q`'s lineage over `db` **once** and hand back the
    /// [`kb::KnowledgeBase`] builder for it: each variable is one tuple,
    /// weighted by its marginal probability. Freeze the builder and open
    /// [`kb::KbSession`]s, and the probabilistic-database layer gets
    /// conditioning ("given that this tuple is (not) in the database…"),
    /// posterior tuple marginals, MPE ("the most probable world where the
    /// query holds"), and top-k world enumeration for free — repeated
    /// queries never recompile the lineage.
    ///
    /// A session's `log_weight` is `ln P(Q)`; conditioning it on tuples
    /// and re-reading it answers `ln P(Q ∧ evidence)`, and
    /// `probability_of_evidence` the ratio `P(Q ∧ evidence) / P(Q)`.
    ///
    /// Errors with [`QueryCompileError::ConstantLineage`] when no tuple
    /// influences the query (nothing to serve — the probability is 0 or 1).
    pub fn knowledge_base(
        &self,
        q: &Ucq,
        db: &Database,
    ) -> Result<kb::KnowledgeBase, QueryCompileError> {
        q.validate(db.schema())?;
        let lineage = lineage_circuit(q, db);
        if lineage.vars().is_empty() {
            let holds = ucq_holds(q, db, &|_| false);
            return Err(QueryCompileError::ConstantLineage { holds });
        }
        let compiled = self.compiler.compile(&lineage)?;
        let mut base = kb::KnowledgeBase::from_compilation(compiled);
        for v in base.vars().to_vec() {
            base.set_probability(v, db.prob_of_var(v))
                .expect("lineage vars are vtree vars");
        }
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Cq, Term};
    use crate::families;
    use crate::prob;
    use crate::schema::Schema;
    use sentential_core::{ResolvedRoute, TwBackend, VtreeStrategy};

    fn hierarchical_db() -> (Ucq, Database) {
        let (q, schema) = families::two_atom_hierarchical();
        let r = schema.by_name("R").unwrap();
        let s = schema.by_name("S").unwrap();
        let mut db = Database::new(schema);
        for l in 1..=3u64 {
            db.insert(r, vec![l], 0.4 + 0.1 * l as f64);
            for m in 1..=2u64 {
                db.insert(s, vec![l, m], 0.3 + 0.1 * m as f64);
            }
        }
        (q, db)
    }

    #[test]
    fn matches_brute_force() {
        let (q, db) = hierarchical_db();
        let brute = prob::brute_force_probability(&q, &db);
        let answer = QueryCompiler::new().probability(&q, &db).unwrap();
        assert!((answer.probability - brute).abs() < 1e-10);
        let report = answer.report.unwrap();
        assert_eq!(report.route, ResolvedRoute::Apply);
        assert!(report.treewidth.is_some());
        assert_eq!(answer.lineage_vars, db.num_tuples());
    }

    #[test]
    fn unique_table_probes_stay_near_the_lookup_floor() {
        // Deterministic counters on a fixed apply-bound compile: uh(1) over
        // the complete 4×4 database interns ~10⁵ decisions that differ
        // mostly in their primes, which the unique table's slot function
        // must spread (indexing by the hash's low bits alone took ~210
        // probes per insert here).
        let (q, schema) = families::uh(1);
        let db = families::uh_complete_db(&schema, 1, 4, 0.5);
        let ans = QueryCompiler::new().probability(&q, &db).unwrap();
        let apply = ans.report.unwrap().apply;
        assert!(apply.unique_inserts > 0);
        let per_insert = apply.unique_probes as f64 / apply.unique_inserts as f64;
        assert!(per_insert <= 32.0, "{per_insert:.1} probes per insert");
    }

    #[test]
    fn empty_database_short_circuits() {
        let (q, schema) = families::two_atom_hierarchical();
        let db = Database::new(schema);
        let answer = QueryCompiler::new().probability(&q, &db).unwrap();
        assert_eq!(answer.probability, 0.0);
        assert!(answer.report.is_none());
    }

    #[test]
    fn rejects_schema_violations() {
        let mut schema = Schema::new();
        let r = schema.add_relation("R", 1);
        let db = Database::new(schema);
        let bad = Ucq::single(Cq::new(
            vec![Atom {
                rel: r,
                args: vec![Term::Var(0), Term::Var(1)],
            }],
            vec![],
        ));
        assert!(matches!(
            QueryCompiler::new().probability(&bad, &db),
            Err(QueryCompileError::Query(_))
        ));
    }

    #[test]
    fn knowledge_base_serves_the_lineage_without_recompiling() {
        let (q, db) = hierarchical_db();
        let brute = prob::brute_force_probability(&q, &db);
        let base = QueryCompiler::new().knowledge_base(&q, &db).unwrap();
        let t = base.vars()[0];
        let frozen = std::sync::Arc::new(base.freeze());
        let mut s = frozen.session();
        // ln W(lineage) = ln P(Q).
        assert!((s.weighted_count() - brute).abs() < 1e-10);

        // Condition on the first tuple being present: compare against the
        // brute-force P(Q ∧ t) over all worlds containing t.
        let brute_with_t = {
            use crate::schema::TupleId;
            let n = db.num_tuples();
            let mut total = 0.0;
            for mask in 0..(1u64 << n) {
                if mask >> t.index() & 1 == 0 {
                    continue; // worlds without t
                }
                let present = |tid: TupleId| mask >> tid.0 & 1 == 1;
                if ucq_holds(&q, &db, &present) {
                    let mut p = 1.0;
                    for i in 0..n {
                        let pt = db.prob(TupleId(i as u32));
                        p *= if mask >> i & 1 == 1 { pt } else { 1.0 - pt };
                    }
                    total += p;
                }
            }
            total
        };
        s.condition(&[(t, true)]).unwrap();
        let conditional = s.probability_of_evidence().unwrap();
        // The session's weighted count is W(Q ∧ t) = P(Q ∧ t), and P(e)
        // is its share of the prior weight W(Q) = P(Q).
        assert!(
            (s.weighted_count() - brute_with_t).abs() < 1e-10,
            "{} vs {brute_with_t}",
            s.weighted_count()
        );
        assert!((conditional - brute_with_t / brute).abs() < 1e-10);

        // MPE: the most probable world where the query holds.
        let mpe = s.mpe().unwrap();
        assert_eq!(mpe.assignment.get(t), Some(true));

        s.retract();
        assert!((s.weighted_count() - brute).abs() < 1e-10);
    }

    #[test]
    fn knowledge_base_rejects_constant_lineages() {
        let (q, schema) = families::two_atom_hierarchical();
        let db = Database::new(schema);
        assert!(matches!(
            QueryCompiler::new().knowledge_base(&q, &db),
            Err(QueryCompileError::ConstantLineage { holds: false })
        ));
    }

    #[test]
    fn custom_strategies_reach_the_lineage() {
        let (q, db) = hierarchical_db();
        let brute = prob::brute_force_probability(&q, &db);
        let session = QueryCompiler::with_compiler(
            Compiler::builder()
                .tw_backend(TwBackend::MinFill)
                .vtree_strategy(VtreeStrategy::Balanced)
                .route(Route::Semantic)
                .build(),
        );
        let answer = session.probability(&q, &db).unwrap();
        assert!((answer.probability - brute).abs() < 1e-10);
        let report = answer.report.unwrap();
        assert_eq!(report.route, ResolvedRoute::Semantic);
        assert!(report.treewidth.is_none(), "balanced vtree: no Lemma 1");
        assert!(report.fw.is_some());
    }
}
