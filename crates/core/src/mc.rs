//! Exact model counting over CNF inputs: [`Compiler::compile_cnf`].
//!
//! The workload "Compilation and Fast Model Counting beyond CNF" frames as
//! canonical for width-bounded compilation: a DIMACS formula comes in, its
//! **primal treewidth** drives the same Lemma-1 vtree extraction the
//! circuit pipeline uses (via [`vtree_from_graph_with`] — the session's
//! [`TwBackend`] applies unchanged), the clause-tree
//! circuit compiles bottom-up into a canonical SDD, and the semiring engine
//! reads off the **exact** model count ([`arith::BigUint`] — no `u128`
//! overflow) and, for weighted inputs, the exact weighted count
//! ([`arith::Rational`]).
//!
//! ```
//! use sentential_core::Compiler;
//!
//! let f = cnf::CnfFormula::from_dimacs("p cnf 3 2\n1 2 0\n-2 3 0\n").unwrap();
//! let counted = Compiler::new().compile_cnf(&f).unwrap();
//! assert_eq!(counted.count().unwrap().to_u128(), Some(4));
//! println!("{}", counted.report);
//! ```

use crate::compiler::{
    CompileError, Compiler, GraphKind, GraphProbe, ResolvedGraph, TwBackend, Validation,
};
use crate::vtree_extract::{vtree_from_graph_with, ExtractStats};
use arith::{BigUint, Rational};
use boolfunc::{Assignment, BoolFn, VarSet};
use cnf::CnfFormula;
use sdd::{ApplyStats, SddId, SddManager};
use std::fmt;
use std::time::{Duration, Instant};
use vtree::Vtree;

/// Variable-count cap under which the report also carries the semantic
/// widths `fw`/`fiw` (they need the truth-table kernel; the counting
/// pipeline itself has no such cap).
pub const SEMANTIC_WIDTHS_MAX_VARS: usize = 16;

/// Wall-clock time per counting-pipeline stage.
#[derive(Copy, Clone, Debug, Default)]
pub struct CountTimings {
    /// Primal graph, decomposition, vtree extraction.
    pub vtree: Duration,
    /// Clause-tree circuit + bottom-up SDD compilation.
    pub sdd: Duration,
    /// Semiring evaluation (exact count, exact weighted count).
    pub count: Duration,
    /// Output checking (per the session's `Validation`).
    pub validate: Duration,
    /// End-to-end.
    pub total: Duration,
}

/// Everything a CNF counting run measured: the formula's shape, the
/// decomposition actually used, the paper's widths, the compiled SDD's
/// size, and the exact results. `Display` renders a human-readable block.
#[must_use]
#[derive(Clone, Debug)]
pub struct CountReport {
    /// Declared variables.
    pub num_vars: usize,
    /// Clauses.
    pub num_clauses: usize,
    /// The graph actually decomposed (after resolving
    /// [`GraphKind::Auto`]).
    pub graph: ResolvedGraph,
    /// Every decomposition probe the run actually performed, in order.
    /// Explicit graph kinds record one entry; [`GraphKind::Auto`] records
    /// which graphs it really decomposed — when the primal probe reports
    /// width ≤ 1 (already minimal), the incidence probe is skipped and
    /// does not appear here.
    pub probes: Vec<GraphProbe>,
    /// Width of the decomposition of [`CountReport::graph`] (exact under
    /// small / `Exact` backends, heuristic otherwise) — the treewidth
    /// upper bound the run certified for that graph.
    pub treewidth: usize,
    /// Nodes in the nice tree decomposition.
    pub nice_nodes: usize,
    /// `fw(F, T)` (Definition 2) — kernel-sized formulas only.
    pub fw: Option<usize>,
    /// `fiw(F, T)` (Definition 4) — kernel-sized formulas only.
    pub fiw: Option<usize>,
    /// `sdw(F, T)` (Definition 5) of the compiled SDD.
    pub sdw: usize,
    /// Elements in the compiled SDD.
    pub sdd_size: usize,
    /// Nodes allocated by the SDD manager.
    pub sdd_nodes: usize,
    /// Apply/cache counters from the bottom-up compilation.
    pub apply: ApplyStats,
    /// Estimated resident bytes of the SDD manager — node table, element
    /// arena, unique table and caches ([`SddManager::memory_bytes`]); the
    /// committed perf trajectory for the upcoming manager-GC work.
    pub mem_bytes: usize,
    /// The exact model count over all declared variables — `None` when
    /// the session disabled the counting stage
    /// (`CompilerBuilder::exact_counts(false)`; serving sessions count on
    /// demand instead). Always exact when present: the counting paths run
    /// on `BigUint`, never on a saturating machine integer.
    pub count: Option<BigUint>,
    /// The exact weighted count, when the formula carries weights and the
    /// counting stage ran.
    pub weighted: Option<Rational>,
    /// Per-stage wall-clock timings.
    pub timings: CountTimings,
}

impl CountReport {
    /// Publish the run into telemetry: one `compile_runs_total{lane="cnf"}`
    /// tick, stage wall-clock into `compile_stage_us{lane,stage}` histograms,
    /// the certified widths into `compile_width{param}` histograms (and
    /// `compile_last_width{param}` gauges), and the kernel's apply counters
    /// via [`ApplyStats::publish`]. This is what long-running servers scrape
    /// to notice a workload drifting into a width regime the paper's bounds
    /// say will blow up.
    pub fn publish(&self, reg: &obs::MetricsRegistry) {
        let lane = [("lane", "cnf")];
        reg.counter("compile_runs_total", &lane).inc();
        for (stage, d) in [
            ("vtree", self.timings.vtree),
            ("sdd", self.timings.sdd),
            ("count", self.timings.count),
            ("validate", self.timings.validate),
            ("total", self.timings.total),
        ] {
            reg.histogram("compile_stage_us", &[("lane", "cnf"), ("stage", stage)])
                .record_duration_us(d);
        }
        let widths = [
            ("tw", Some(self.treewidth)),
            ("fw", self.fw),
            ("fiw", self.fiw),
            ("sdw", Some(self.sdw)),
        ];
        for (param, w) in widths {
            if let Some(w) = w {
                reg.histogram("compile_width", &[("param", param)])
                    .record(w as u64);
                reg.gauge("compile_last_width", &[("param", param)])
                    .set(w as f64);
            }
        }
        self.apply.publish(reg);
        reg.gauge("sdd_mem_bytes", &[]).set(self.mem_bytes as f64);
    }
}

impl fmt::Display for CountReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.count {
            Some(c) => writeln!(
                f,
                "counted {} vars, {} clauses in {:.2?}: {} models",
                self.num_vars, self.num_clauses, self.timings.total, c,
            )?,
            None => writeln!(
                f,
                "compiled {} vars, {} clauses in {:.2?} (counting stage disabled)",
                self.num_vars, self.num_clauses, self.timings.total,
            )?,
        }
        if let Some(w) = &self.weighted {
            writeln!(f, "  weighted count {w}")?;
        }
        write!(f, "  {} tw {}", self.graph, self.treewidth)?;
        match (self.fw, self.fiw) {
            (Some(fw), Some(fiw)) => writeln!(f, "  fw {fw}  fiw {fiw}  sdw {}", self.sdw)?,
            _ => writeln!(f, "  sdw {}", self.sdw)?,
        }
        writeln!(
            f,
            "  SDD {} elements ({} nodes allocated, ~{} KiB, {} applies, {} cache hits)",
            self.sdd_size,
            self.sdd_nodes,
            self.mem_bytes / 1024,
            self.apply.apply_calls,
            self.apply.cache_hits
        )?;
        write!(
            f,
            "  stages: vtree {:.2?} | sdd {:.2?} | count {:.2?} | validate {:.2?}",
            self.timings.vtree, self.timings.sdd, self.timings.count, self.timings.validate,
        )
    }
}

/// A counted CNF formula: the vtree shaped by its primal treewidth, the
/// canonical SDD, and the [`CountReport`]. The manager is kept alive so
/// callers can run further queries (conditioning, other semirings) against
/// the compiled form.
pub struct CnfCompilation {
    /// The vtree the compilation was structured by.
    pub vtree: Vtree,
    /// Manager holding the compiled SDD.
    pub sdd: SddManager,
    /// Root of the compiled SDD.
    pub root: SddId,
    /// Shape, widths, sizes, counts, timings.
    pub report: CountReport,
}

impl fmt::Debug for CnfCompilation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CnfCompilation")
            .field("root", &self.root)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl CnfCompilation {
    /// The exact model count over all declared variables (`None` when the
    /// session disabled the counting stage).
    pub fn count(&self) -> Option<&BigUint> {
        self.report.count.as_ref()
    }

    /// The exact weighted count (`None` for unweighted formulas).
    pub fn weighted(&self) -> Option<&Rational> {
        self.report.weighted.as_ref()
    }
}

impl Compiler {
    /// Count a CNF formula exactly: primal graph → [`TwBackend`]
    /// decomposition → Lemma-1 vtree → bottom-up SDD → semiring counts,
    /// validated per the session's [`Validation`] level,
    /// everything timed.
    ///
    /// The count is over all `num_vars` declared variables (DIMACS
    /// semantics: a declared variable in no clause doubles the count). For
    /// weighted formulas the report additionally carries the exact
    /// [`Rational`] weighted count.
    pub fn compile_cnf(&self, f: &CnfFormula) -> Result<CnfCompilation, CompileError> {
        let t_total = Instant::now();
        if f.num_vars() == 0 {
            return Err(CompileError::NoVariables);
        }

        // Vtree stage: the formula's primal or incidence graph through the
        // session's decomposition backend — the same seam the circuit
        // pipeline uses (clause vertices ride along as auxiliary vertices).
        let t_vtree = Instant::now();
        let (vtree, stats, graph, probes) = self.cnf_vtree(f)?;
        let vtree_time = t_vtree.elapsed();

        // SDD stage: bottom-up apply over the direct clause-tree circuit.
        let t_sdd = Instant::now();
        let circuit = f.to_circuit();
        let mut mgr = SddManager::new(vtree.clone());
        let root = mgr.from_circuit(&circuit);
        let sdw = mgr.width(root);
        let sdd_time = t_sdd.elapsed();

        // Counting stage: the semiring engine, exactly (skippable — exact
        // bignum arithmetic is quadratic at chain scale, and serving
        // sessions count on demand).
        let t_count = Instant::now();
        let exact_counts = self.options().exact_counts;
        let count = exact_counts.then(|| mgr.count_models_exact(root));
        let weighted = (exact_counts && f.is_weighted())
            .then(|| mgr.weighted_count_exact(root, |v| f.weight(v)));
        let count_time = t_count.elapsed();

        // Validation stage (same levels as the circuit pipeline).
        let t_validate = Instant::now();
        match self.options().validation {
            Validation::None => {}
            Validation::Basic => mgr.validate_structure(root)?,
            Validation::Full => mgr.validate(root)?,
        }
        let validate_time = t_validate.elapsed();

        // Semantic widths for the report, where the kernel is cheap.
        let (fw, fiw) = if f.num_vars() as usize <= SEMANTIC_WIDTHS_MAX_VARS {
            let vars = VarSet::from_slice(&f.all_vars());
            let kernel =
                BoolFn::from_fn(vars.clone(), |i| f.eval(&Assignment::from_index(&vars, i)));
            let cft = crate::cft::cft(&kernel, &vtree);
            (Some(boolfunc::factor_width(&kernel, &vtree)), Some(cft.fiw))
        } else {
            (None, None)
        };

        let report = CountReport {
            num_vars: f.num_vars() as usize,
            num_clauses: f.num_clauses(),
            graph,
            probes,
            treewidth: stats.treewidth,
            nice_nodes: stats.nice_nodes,
            fw,
            fiw,
            sdw,
            sdd_size: mgr.size(root),
            sdd_nodes: mgr.num_allocated(),
            apply: mgr.apply_stats(),
            mem_bytes: mgr.memory_bytes(),
            count,
            weighted,
            timings: CountTimings {
                vtree: vtree_time,
                sdd: sdd_time,
                count: count_time,
                validate: validate_time,
                total: t_total.elapsed(),
            },
        };

        Ok(CnfCompilation {
            vtree,
            sdd: mgr,
            root,
            report,
        })
    }

    /// Resolve the session's [`GraphKind`] and extract the Lemma-1 vtree
    /// from the chosen graph, recording every decomposition probe that
    /// actually ran. Under [`GraphKind::Auto`] the primal graph is probed
    /// first; a primal width ≤ 1 is already minimal (the incidence width
    /// cannot beat it on a nonempty formula), so the incidence probe is
    /// **skipped** there instead of decomposing both graphs. Otherwise the
    /// smaller reported width wins (ties go to primal — fewer vertices, no
    /// auxiliary clause nodes); when the `Exact` backend cannot afford one
    /// of the graphs, the other is used alone.
    fn cnf_vtree(
        &self,
        f: &CnfFormula,
    ) -> Result<(Vtree, ExtractStats, ResolvedGraph, Vec<GraphProbe>), CompileError> {
        let exact = self.options().tw_backend == TwBackend::Exact;
        match self.options().graph_kind {
            GraphKind::Primal => {
                let g = f.primal_graph();
                if exact {
                    self.ensure_exact_feasible(&g)?;
                }
                let (vt, st) = vtree_from_graph_with(&g, &f.primal_vars(), Vec::new(), |g| {
                    self.decompose_graph(g)
                })?;
                let probes = vec![GraphProbe {
                    graph: ResolvedGraph::Primal,
                    width: st.treewidth,
                }];
                Ok((vt, st, ResolvedGraph::Primal, probes))
            }
            GraphKind::Incidence => {
                let g = f.incidence_graph();
                if exact {
                    self.ensure_exact_feasible(&g)?;
                }
                let (vt, st) = vtree_from_graph_with(&g, &f.incidence_vars(), Vec::new(), |g| {
                    self.decompose_graph(g)
                })?;
                let probes = vec![GraphProbe {
                    graph: ResolvedGraph::Incidence,
                    width: st.treewidth,
                }];
                Ok((vt, st, ResolvedGraph::Incidence, probes))
            }
            GraphKind::Auto => {
                let gp = f.primal_graph();
                let p_ok = !exact || self.exact_feasible(&gp);
                let dp = p_ok.then(|| self.decompose_graph(&gp));
                let mut probes = Vec::new();
                if let Some((wp, _)) = &dp {
                    probes.push(GraphProbe {
                        graph: ResolvedGraph::Primal,
                        width: *wp,
                    });
                }
                // Width ≤ 1 cannot be improved on: the incidence graph of
                // a formula with at least one edge-inducing clause has
                // width ≥ 1 itself, so skip its decomposition entirely.
                let primal_is_minimal = matches!(&dp, Some((wp, _)) if *wp <= 1);
                let mut di = None;
                if !primal_is_minimal {
                    let gi = f.incidence_graph();
                    let i_ok = !exact || self.exact_feasible(&gi);
                    if !p_ok && !i_ok {
                        self.ensure_exact_feasible(&gp)?;
                    }
                    if i_ok {
                        let d = self.decompose_graph(&gi);
                        probes.push(GraphProbe {
                            graph: ResolvedGraph::Incidence,
                            width: d.0,
                        });
                        di = Some((gi, d));
                    }
                }
                let use_incidence = match (&dp, &di) {
                    (Some((wp, _)), Some((_, (wi, _)))) => wi < wp,
                    (None, Some(_)) => true,
                    _ => false,
                };
                if use_incidence {
                    let (gi, d) = di.expect("incidence chosen");
                    let (vt, st) =
                        vtree_from_graph_with(&gi, &f.incidence_vars(), Vec::new(), move |_| d)?;
                    Ok((vt, st, ResolvedGraph::Incidence, probes))
                } else {
                    let d = dp.expect("primal chosen");
                    let (vt, st) =
                        vtree_from_graph_with(&gp, &f.primal_vars(), Vec::new(), move |_| d)?;
                    Ok((vt, st, ResolvedGraph::Primal, probes))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::families;

    #[test]
    fn counts_the_chain_exactly() {
        for n in [1u32, 2, 5, 12] {
            let f = families::chain_cnf(n);
            let counted = Compiler::new().compile_cnf(&f).unwrap();
            assert_eq!(
                *counted.count().unwrap(),
                families::chain_count(n),
                "n = {n}"
            );
            assert_eq!(counted.report.treewidth, usize::from(n > 1));
            assert_eq!(counted.report.graph, ResolvedGraph::Primal);
        }
    }

    #[test]
    fn beyond_u128_chain_counts_exactly() {
        let n = 200u32;
        let counted = Compiler::new()
            .compile_cnf(&families::chain_cnf(n))
            .unwrap();
        assert_eq!(*counted.count().unwrap(), families::chain_count(n));
        assert_eq!(
            counted.count().unwrap().to_u128(),
            None,
            "the whole point: past 2^128"
        );
        assert!(counted.report.fw.is_none(), "no kernel at 200 vars");
    }

    #[test]
    fn declared_but_unused_variables_double_the_count() {
        let f = CnfFormula::from_clauses(4, vec![vec![(vtree::VarId(0), true)]]);
        let counted = Compiler::new().compile_cnf(&f).unwrap();
        assert_eq!(counted.count().unwrap().to_u128(), Some(8)); // 1 × 2^3
    }

    #[test]
    fn contradiction_and_tautology() {
        let mut bot = CnfFormula::new(3);
        bot.add_clause(vec![]);
        let counted = Compiler::new().compile_cnf(&bot).unwrap();
        assert!(counted.count().unwrap().is_zero());

        let top = CnfFormula::new(3);
        let counted = Compiler::new().compile_cnf(&top).unwrap();
        assert_eq!(counted.count().unwrap().to_u128(), Some(8));

        assert!(matches!(
            Compiler::new().compile_cnf(&CnfFormula::new(0)),
            Err(CompileError::NoVariables)
        ));
    }

    #[test]
    fn weighted_count_is_exact() {
        // chain over 3 vars, every literal weight 1/2: weighted count =
        // count / 2^3 = 5/8.
        let mut f = families::chain_cnf(3);
        let half = Rational::parse("1/2").unwrap();
        for v in f.all_vars() {
            f.set_weight(v, half.clone(), half.clone());
        }
        let counted = Compiler::new().compile_cnf(&f).unwrap();
        assert_eq!(counted.weighted(), Some(&Rational::parse("5/8").unwrap()));
    }

    #[test]
    fn semantic_widths_appear_on_kernel_sized_inputs() {
        let f = families::band_cnf(8, 3);
        let counted = Compiler::new().compile_cnf(&f).unwrap();
        let r = &counted.report;
        assert!(r.fw.is_some() && r.fiw.is_some());
        assert!(r.sdw >= 1);
        let shown = r.to_string();
        assert!(shown.contains("primal tw"), "{shown}");
        assert!(shown.contains("models"), "{shown}");
    }

    #[test]
    fn every_backend_counts_the_same() {
        use crate::compiler::TwBackend;
        let f = families::band_cnf(10, 3);
        let expect = BigUint::from_u64(f.count_models_brute());
        for backend in [
            TwBackend::Exact,
            TwBackend::MinFill,
            TwBackend::MinDegree,
            TwBackend::Auto,
        ] {
            let counted = Compiler::builder()
                .tw_backend(backend)
                .build()
                .compile_cnf(&f)
                .unwrap();
            assert_eq!(*counted.count().unwrap(), expect, "{backend}");
        }
    }

    #[test]
    fn every_graph_kind_counts_the_same() {
        use crate::compiler::GraphKind;
        // One long clause plus a chain — long clauses are where the
        // incidence graph beats the primal clique.
        let mut f = families::chain_cnf(10);
        f.add_clause((0..10).map(|i| (vtree::VarId(i), true)).collect());
        let expect = BigUint::from_u64(f.count_models_brute());
        for kind in [GraphKind::Primal, GraphKind::Incidence, GraphKind::Auto] {
            let counted = Compiler::builder()
                .graph_kind(kind)
                .build()
                .compile_cnf(&f)
                .unwrap();
            assert_eq!(*counted.count().unwrap(), expect, "{kind}");
        }
    }

    #[test]
    fn auto_graph_kind_picks_the_smaller_width() {
        use crate::compiler::GraphKind;
        // A single clause over all variables: primal = K_n (width n-1),
        // incidence = a star (width 1). Auto must take the star.
        let n = 9u32;
        let f =
            CnfFormula::from_clauses(n, vec![(0..n).map(|i| (vtree::VarId(i), true)).collect()]);
        let counted = Compiler::builder()
            .graph_kind(GraphKind::Auto)
            .build()
            .compile_cnf(&f)
            .unwrap();
        assert_eq!(counted.report.graph, ResolvedGraph::Incidence);
        assert!(
            counted.report.treewidth < n as usize - 1,
            "incidence width {} must beat the primal clique",
            counted.report.treewidth
        );
        assert_eq!(counted.count().unwrap().to_u128(), Some((1 << n) - 1));
        let shown = counted.report.to_string();
        assert!(shown.contains("incidence tw"), "{shown}");
        // Both probes ran (primal width > 1), in primal-first order.
        assert_eq!(counted.report.probes.len(), 2);
        assert_eq!(counted.report.probes[0].graph, ResolvedGraph::Primal);
        assert_eq!(counted.report.probes[0].width, n as usize - 1);
        assert_eq!(counted.report.probes[1].graph, ResolvedGraph::Incidence);
        assert_eq!(
            counted.report.probes[1].width, counted.report.treewidth,
            "the chosen probe's width is the certified one"
        );

        // On the chain (treewidth 1 already) Auto keeps the primal graph.
        let counted = Compiler::builder()
            .graph_kind(GraphKind::Auto)
            .build()
            .compile_cnf(&families::chain_cnf(12))
            .unwrap();
        assert_eq!(counted.report.graph, ResolvedGraph::Primal);
    }

    #[test]
    fn auto_skips_the_incidence_probe_when_primal_width_is_minimal() {
        use crate::compiler::GraphKind;
        // Chain: primal width 1 — already minimal, so Auto must decompose
        // only the primal graph (the ROADMAP's width-probe item) …
        let counted = Compiler::builder()
            .graph_kind(GraphKind::Auto)
            .build()
            .compile_cnf(&families::chain_cnf(12))
            .unwrap();
        assert_eq!(
            counted.report.probes,
            vec![GraphProbe {
                graph: ResolvedGraph::Primal,
                width: 1
            }],
            "one probe only: the incidence decomposition was skipped"
        );
        assert_eq!(*counted.count().unwrap(), families::chain_count(12));
        // … and explicit graph kinds record exactly their one probe.
        let counted = Compiler::new()
            .compile_cnf(&families::chain_cnf(8))
            .unwrap();
        assert_eq!(counted.report.probes.len(), 1);
        assert_eq!(counted.report.probes[0].graph, ResolvedGraph::Primal);
    }

    #[test]
    fn counting_stage_can_be_disabled() {
        let f = families::chain_cnf(10);
        let compiled = Compiler::builder()
            .exact_counts(false)
            .build()
            .compile_cnf(&f)
            .unwrap();
        assert!(compiled.count().is_none());
        assert!(compiled.weighted().is_none());
        let shown = compiled.report.to_string();
        assert!(shown.contains("counting stage disabled"), "{shown}");
        // The compiled SDD still answers counting queries on demand.
        assert_eq!(
            compiled.sdd.count_models_exact(compiled.root),
            families::chain_count(10)
        );
    }

    #[test]
    fn incidence_route_respects_exact_backend_caps() {
        use crate::compiler::GraphKind;
        // 20 vars + 19 clauses = 39 incidence vertices > the exact cap,
        // while the primal graph (20 vertices) is fine: explicit Incidence
        // errors, Auto falls back to primal.
        let f = families::chain_cnf(20);
        let err = Compiler::builder()
            .tw_backend(TwBackend::Exact)
            .graph_kind(GraphKind::Incidence)
            .build()
            .compile_cnf(&f)
            .unwrap_err();
        assert!(matches!(err, CompileError::ExactTreewidthIntractable(_)));
        let counted = Compiler::builder()
            .tw_backend(TwBackend::Exact)
            .graph_kind(GraphKind::Auto)
            .build()
            .compile_cnf(&f)
            .unwrap();
        assert_eq!(counted.report.graph, ResolvedGraph::Primal);
        assert_eq!(*counted.count().unwrap(), families::chain_count(20));
    }
}
