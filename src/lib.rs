//! # sentential
//!
//! A reproduction of **Bova & Szeider, "Circuit Treewidth, Sentential
//! Decision, and Query Compilation" (PODS 2017)** as a Rust workspace:
//! a truth-table kernel with the paper's *factor* combinatorics, circuits
//! with structuredness/determinism analysis, treewidth machinery, OBDD and
//! SDD packages built from scratch, the paper's `C_{F,T}`/`S_{F,T}`
//! canonical compilers behind a configurable
//! [`Compiler`](sentential_core::Compiler) session API, and a
//! probabilistic-database layer whose [`QueryCompiler`](query::QueryCompiler)
//! facade takes a UCQ(≠) and a database to a probability in one call.
//!
//! ## Crate map
//!
//! | Re-export | Contents |
//! |---|---|
//! | [`arith`] | dependency-free exact arithmetic: `BigUint`, `Rational`, the `Semiring` trait the counting engine is generic over |
//! | [`boolfunc`] | truth tables, cofactors, **factors** (Def. 1–2), rectangles, communication matrices, function families (`D_n`, `H^i_{k,n}`, `ISA_n`, …) |
//! | [`cnf`] | DIMACS frontend (classic + weighted dialects), CNF→circuit routes, primal/incidence graphs, clause families |
//! | [`vtree`] | variable trees, enumeration, `VarId` |
//! | [`graphtw`] | treewidth/pathwidth (exact + heuristic), (nice) tree decompositions |
//! | [`circuit`] | circuits, NNF, Tseitin, primal graphs, structure checks, families |
//! | [`obdd`] | reduced OBDDs: apply, counting, width, order search |
//! | [`sdd`] | SDDs: apply, canonicity, counting, the paper's SDD width, apply-stats report hooks |
//! | [`sentential_core`] | the paper: Lemma 1 vtrees, `C_{F,T}` (Thm 3), `S_{F,T}` (Thm 4), bounds, ctw tooling, Appendix A — behind the [`Compiler`](sentential_core::Compiler) session API (strategy enums [`TwBackend`](sentential_core::TwBackend) / [`VtreeStrategy`](sentential_core::VtreeStrategy) / [`Route`](sentential_core::Route) / [`GraphKind`](sentential_core::GraphKind), unified [`CompileError`](sentential_core::CompileError), timed [`CompileReport`](sentential_core::CompileReport)) |
//! | [`kb`] | the serving layer: the [`KnowledgeBase`](kb::KnowledgeBase) builder compiles once and freezes into a shared [`FrozenKb`](kb::FrozenKb); each [`KbSession`](kb::KbSession) on it answers conditioning, marginals, MPE, top-k enumeration, entailment and exact counts over the cached SDD |
//! | [`query`] | probabilistic databases, UCQ(≠), lineages, inversions — behind the [`QueryCompiler`](query::QueryCompiler) facade (and [`QueryCompiler::knowledge_base`](query::QueryCompiler::knowledge_base) for the serving layer) |
//!
//! ## Quickstart: circuits
//!
//! ```
//! use sentential::prelude::*;
//!
//! // A bounded-treewidth circuit family member …
//! let vars: Vec<VarId> = (0..8).map(VarId).collect();
//! let c = circuit::families::clause_chain(&vars, 2);
//!
//! // … compiled by the paper's pipeline: tree decomposition → Lemma-1
//! // vtree → canonical deterministic structured NNF + canonical SDD.
//! // `Compiler` is a configured session; every strategy is an enum knob.
//! let compiled = Compiler::builder()
//!     .tw_backend(TwBackend::Auto)        // exact ≤ limit, else heuristic
//!     .vtree_strategy(VtreeStrategy::Lemma1)
//!     .route(Route::Auto)                 // semantic ≤ kernel cap, else apply
//!     .build()
//!     .compile(&c)
//!     .unwrap();
//! assert!(compiled
//!     .sdd
//!     .to_boolfn(compiled.root)
//!     .equivalent(&c.to_boolfn().unwrap()));
//!
//! // Linear-size guarantee (Theorem 4): |S_{F,T}| = O(sdw · n), and the
//! // report carries every width the paper defines plus stage timings.
//! let n = c.vars().len();
//! let report = &compiled.report;
//! assert!(compiled.sdd_size() <= sentential_core::bounds::thm4_size(report.sdw, n));
//! ```
//!
//! ## Quickstart: queries
//!
//! ```
//! use sentential::prelude::*;
//!
//! let (q, schema) = query::families::two_atom_hierarchical();
//! let r = schema.by_name("R").unwrap();
//! let s = schema.by_name("S").unwrap();
//! let mut db = Database::new(schema);
//! db.insert(r, vec![1], 0.5);
//! db.insert(s, vec![1, 1], 0.5);
//!
//! // UCQ + database → lineage → SDD → probability, one call.
//! let answer = QueryCompiler::new().probability(&q, &db).unwrap();
//! assert!((answer.probability - 0.25).abs() < 1e-12);
//! ```

pub use arith;
pub use boolfunc;
pub use circuit;
pub use cnf;
pub use graphtw;
pub use kb;
pub use obdd;
pub use obs;
pub use query;
pub use sdd;
pub use sentential_core;
pub use serve;
pub use snap;
pub use vtree;

/// Everything most programs need, one `use` away.
pub mod prelude {
    pub use arith::{BigUint, Rational, Semiring};
    pub use boolfunc::{Assignment, BoolFn, VarSet};
    pub use circuit::{self, Circuit, CircuitBuilder};
    pub use cnf::{self, CnfFormula};
    pub use graphtw::{self, Graph};
    pub use kb::{self, FrozenKb, KbError, KbSession, KnowledgeBase};
    pub use obdd::Obdd;
    pub use query::{self, Database, QueryCompiler, Schema, Ucq};
    pub use sdd::{FrozenSdd, SddManager};
    pub use sentential_core::{
        self, CompileError, CompileOptions, CompileReport, Compiler, CompilerBuilder, CountReport,
        GraphKind, Route, TwBackend, Validation, VtreeStrategy,
    };
    pub use serve::{self, KbServer};
    pub use vtree::{VarId, Vtree};
}
