//! The paper's contribution: factor-based compilation of bounded-treewidth
//! circuits into canonical deterministic structured NNFs and SDDs.
//!
//! Bova & Szeider, *Circuit Treewidth, Sentential Decision, and Query
//! Compilation* (PODS 2017). The pipeline is:
//!
//! ```text
//! circuit C (treewidth k)
//!   └─ primal graph → (nice) tree decomposition        [graphtw]
//!        └─ vtree T with fw(F, T) ≤ 2^{(k+2)·2^{k+1}}  [Lemma 1, vtree_extract]
//!             ├─ C_{F,T}: canonical det. structured NNF, size O(fiw·n)  [Thm 3, cft]
//!             └─ S_{F,T}: canonical SDD, size O(sdw·n)                  [Thm 4, sft]
//! ```
//!
//! Modules:
//! * [`implicants`] — factorized implicants (Definition 3) and the induced
//!   disjoint rectangle covers (Lemmas 2, 3, 5);
//! * [`mod@cft`] — the `C_{F,T}` construction and factorized implicant width
//!   (Definition 4, Theorem 3);
//! * [`mod@sft`] — the `S_{F,T}` canonical SDD construction and SDD width
//!   (Definition 5, Theorem 4, Lemma 6);
//! * [`vtree_extract`] — Lemma 1: vtrees from nice tree decompositions, at
//!   the circuit level and at the raw graph level
//!   ([`vtree_from_graph_with`]), the seam the CNF pipeline enters with
//!   primal graphs of formulas;
//! * [`mod@mc`] — exact CNF model counting
//!   ([`Compiler::compile_cnf`](compiler::Compiler::compile_cnf)):
//!   primal treewidth → vtree → SDD → `BigUint`/`Rational` semiring counts;
//! * [`mod@compiler`] — the unified [`Compiler`] session API: configurable
//!   strategies ([`TwBackend`], [`VtreeStrategy`], [`Route`]), a unified
//!   [`CompileError`], and timed [`CompileReport`]s;
//! * `pipeline` (tests only) — Result 1 end to end through a
//!   [`Compiler`] session;
//! * [`bounds`] — every numeric bound in the paper, as checkable functions;
//! * [`ctw`] — circuit-treewidth tooling (Result 2, constructive substitute);
//! * [`isa`] — Appendix A: the `ISA_n` vtree and its polynomial SDD;
//! * [`vtree_search`] — practical vtree minimization (the flexibility the
//!   paper credits for SDD compilers beating OBDD packages).

pub mod bounds;
pub mod cft;
pub mod compiler;
pub mod ctw;
pub mod implicants;
pub mod isa;
pub mod mc;
#[cfg(test)]
mod pipeline;
pub mod sft;
pub mod vtree_extract;
pub mod vtree_search;

pub use cft::{cft, min_fiw, CftResult};
pub use compiler::{
    Compilation, CompileError, CompileOptions, CompileReport, Compiler, CompilerBuilder, GraphKind,
    GraphProbe, ResolvedGraph, ResolvedRoute, Route, StageTimings, TwBackend, Validation,
    VtreeStrategy,
};
pub use implicants::VtreeFactors;
pub use mc::{CnfCompilation, CountReport, CountTimings};
pub use sft::{min_sdw, sft, SftResult};
pub use vtree_extract::{vtree_from_circuit, vtree_from_circuit_with, vtree_from_graph_with};
