//! The `compile_suite` workload: the paper's query-compilation path
//! (`QueryCompiler::knowledge_base` → `freeze` → `P(Q)`) plus the CNF lane
//! (`Compiler::compile_cnf` → exact count), over a fixed mix of
//! decomposition-bound and apply-bound inputs whose tuple probabilities
//! come from the seed.
//!
//! The traced run replays the same inputs through the public functions of
//! each crate in the order the pipeline calls them (`query` lineage,
//! `core` vtree extraction around the `graphtw` decomposition, `sdd`
//! apply and validation, `kb` freeze and evaluation), so each layer gets
//! a span of its own.

use crate::oracle;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::{peak_rss_mb, Report};
use arith::BigUint;
use cnf::CnfFormula;
use graphtw::Graph;
use kb::KnowledgeBase;
use query::{families, Database, QueryCompiler, Schema, Ucq};
use sdd::SddManager;
use sentential_core::Compiler;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Graphs up to this many vertices get exact treewidth — the default
/// `exact_tw_limit` of the compiler the query facade uses.
const EXACT_TW_LIMIT: usize = 16;

/// Families the per-layer split is reported by.
pub const FAMILIES: [&str; 4] = ["hier", "sjoin", "uh", "cnf"];

enum Check {
    Safe,
    SafeUnion,
    SjoinInequality,
    Uh { k: usize, n: usize },
}

enum Kind {
    Lineage {
        q: Ucq,
        schema: Schema,
        db: Database,
        check: Check,
    },
    Cnf {
        f: CnfFormula,
        n: usize,
        w: usize,
    },
}

pub struct Input {
    name: &'static str,
    family: &'static str,
    kind: Kind,
}

#[derive(Clone, Debug)]
enum Answer {
    Prob(f64),
    Count(BigUint),
}

/// `R(x), S(x, y)` with `xs` values of `x`, each with one `R` tuple and
/// `fanout` `S` tuples.
fn hierarchical_db(
    rng: &mut Rng,
    schema: &Schema,
    xs: u64,
    fanout: u64,
    r: &str,
    s: &str,
) -> Database {
    let mut db = Database::new(schema.clone());
    add_hierarchical(rng, &mut db, schema, xs, fanout, r, s);
    db
}

fn add_hierarchical(
    rng: &mut Rng,
    db: &mut Database,
    schema: &Schema,
    xs: u64,
    fanout: u64,
    r: &str,
    s: &str,
) {
    let (r, s) = (
        schema.by_name(r).expect("unary relation"),
        schema.by_name(s).expect("binary relation"),
    );
    for x in 1..=xs {
        db.insert(r, vec![x], rng.prob(0.05, 0.95));
        for y in 1..=fanout {
            db.insert(s, vec![x, y], rng.prob(0.05, 0.95));
        }
    }
}

/// The complete database of `uh(k)` on domain `[n]`, in the tuple order of
/// `query::families::uh_complete_db`, with seeded probabilities.
fn uh_db(rng: &mut Rng, schema: &Schema, k: usize, n: u64) -> Database {
    let mut db = Database::new(schema.clone());
    let (r, t) = (
        schema.by_name("R").expect("R"),
        schema.by_name("T").expect("T"),
    );
    for l in 1..=n {
        db.insert(r, vec![l], rng.prob(0.05, 0.95));
    }
    for m in 1..=n {
        db.insert(t, vec![m], rng.prob(0.05, 0.95));
    }
    for i in 1..=k {
        let s = schema.by_name(&format!("S{i}")).expect("S_i");
        for l in 1..=n {
            for m in 1..=n {
                db.insert(s, vec![l, m], rng.prob(0.05, 0.95));
            }
        }
    }
    db
}

/// The suite. Database shapes are fixed, so SDD sizes do not depend on the
/// seed; the seed draws every tuple probability.
pub fn inputs(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for (name, xs) in [("hier_500", 100), ("hier_1000", 200)] {
        let (q, schema) = families::two_atom_hierarchical();
        let db = hierarchical_db(&mut rng, &schema, xs, 4, "R", "S");
        out.push(Input {
            name,
            family: "hier",
            kind: Kind::Lineage {
                q,
                schema,
                db,
                check: Check::Safe,
            },
        });
    }
    {
        let (q, schema) = families::disconnected_hierarchical_union();
        let mut db = hierarchical_db(&mut rng, &schema, 50, 4, "R", "S");
        add_hierarchical(&mut rng, &mut db, &schema, 50, 4, "T", "W");
        out.push(Input {
            name: "union_500",
            family: "hier",
            kind: Kind::Lineage {
                q,
                schema,
                db,
                check: Check::SafeUnion,
            },
        });
    }
    {
        let (q, schema) = families::sjoin_inequality_query();
        let s = schema.by_name("S").expect("S");
        let mut db = Database::new(schema.clone());
        for x in 1..=6 {
            for y in 1..=5 {
                db.insert(s, vec![x, y], rng.prob(0.05, 0.95));
            }
        }
        out.push(Input {
            name: "sjoin_neq_30",
            family: "sjoin",
            kind: Kind::Lineage {
                q,
                schema,
                db,
                check: Check::SjoinInequality,
            },
        });
    }
    for (name, k, n) in [("uh1_n3", 1, 3), ("uh1_n4", 1, 4), ("uh2_n3", 2, 3)] {
        let (q, schema) = families::uh(k);
        let db = uh_db(&mut rng, &schema, k, n as u64);
        out.push(Input {
            name,
            family: "uh",
            kind: Kind::Lineage {
                q,
                schema,
                db,
                check: Check::Uh { k, n },
            },
        });
    }
    for (name, n, w) in [("band_2000_3", 2000, 3), ("band_200_6", 200, 6)] {
        out.push(Input {
            name,
            family: "cnf",
            kind: Kind::Cnf {
                f: cnf::families::band_cnf(n as u32, w as u32),
                n,
                w,
            },
        });
    }
    out
}

/// One input through the public pipeline. Returns the answer and the SDD
/// size in elements.
fn compile_one(input: &Input) -> Result<(Answer, usize), String> {
    match &input.kind {
        Kind::Lineage { q, db, .. } => {
            let base = QueryCompiler::new()
                .knowledge_base(q, db)
                .map_err(|e| format!("{}: {e}", input.name))?;
            let frozen = Arc::new(base.freeze());
            let p = frozen.session().log_weight().exp();
            Ok((Answer::Prob(p), frozen.sdd_size()))
        }
        Kind::Cnf { f, .. } => {
            let c = Compiler::new()
                .compile_cnf(f)
                .map_err(|e| format!("{}: {e}", input.name))?;
            let count = c
                .report
                .count
                .clone()
                .ok_or("compile_cnf skipped its count")?;
            Ok((Answer::Count(count), c.report.sdd_size))
        }
    }
}

/// The oracle's answer for one input.
fn expected(input: &Input) -> Answer {
    match &input.kind {
        Kind::Lineage {
            q,
            schema,
            db,
            check,
        } => Answer::Prob(match check {
            Check::Safe => oracle::safe(&q.cqs[0], db),
            Check::SafeUnion => {
                1.0 - (1.0 - oracle::safe(&q.cqs[0], db)) * (1.0 - oracle::safe(&q.cqs[1], db))
            }
            Check::SjoinInequality => oracle::sjoin_inequality(db, schema.by_name("S").expect("S")),
            Check::Uh { k, n } => oracle::uh(db, schema, *k, *n),
        }),
        Kind::Cnf { n, w, .. } => Answer::Count(oracle::band_count(*n, *w)),
    }
}

/// Databases small enough for brute force over all worlds get that check
/// on top of their own oracle.
const BRUTE_FORCE_MAX_TUPLES: usize = 20;

fn matches(input: &Input, got: &Answer, want: &Answer) -> Result<(), String> {
    match (got, want) {
        (Answer::Prob(g), Answer::Prob(w)) => {
            if (g - w).abs() > 1e-9 * w.abs().max(1.0) {
                return Err(format!("{}: P(Q) = {g}, oracle says {w}", input.name));
            }
            if let Kind::Lineage { q, db, .. } = &input.kind {
                if db.num_tuples() <= BRUTE_FORCE_MAX_TUPLES {
                    let b = query::prob::brute_force_probability(q, db);
                    if (g - b).abs() > 1e-9 {
                        return Err(format!("{}: P(Q) = {g}, brute force says {b}", input.name));
                    }
                }
            }
            Ok(())
        }
        (Answer::Count(g), Answer::Count(w)) if g == w => Ok(()),
        _ => Err(format!(
            "{}: answer {got:?} differs from oracle {want:?}",
            input.name
        )),
    }
}

/// The untraced run: time input generation (the set-up), then compile the
/// whole suite pass after pass until `seconds` have elapsed.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut gen_s = Vec::new();
    let mut suite = Vec::new();
    for _ in 0..25 {
        let t = Instant::now();
        suite = std::hint::black_box(inputs(seed));
        gen_s.push(t.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let mut pass_s = Vec::new();
    let mut lat_ms = Vec::new();
    let mut answers: Vec<Vec<(Answer, usize)>> = Vec::new();
    while pass_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t_pass = Instant::now();
        let mut pass = Vec::with_capacity(suite.len());
        for input in &suite {
            let t = Instant::now();
            pass.push(std::hint::black_box(compile_one(input)?));
            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        pass_s.push(t_pass.elapsed().as_secs_f64());
        answers.push(pass);
    }
    let rss = peak_rss_mb("self").unwrap_or(0.0);

    // Checks, after timing.
    let mut correct = true;
    let wants: Vec<Answer> = suite.iter().map(expected).collect();
    for pass in &answers {
        for ((input, (got, _)), want) in suite.iter().zip(pass).zip(&wants) {
            if let Err(e) = matches(input, got, want) {
                eprintln!("perfbench: wrong answer: {e}");
                correct = false;
            }
        }
        if pass.iter().map(|a| a.1).ne(answers[0].iter().map(|a| a.1)) {
            eprintln!("perfbench: SDD sizes differ between passes");
            correct = false;
        }
    }
    let sdd_size: usize = answers[0].iter().map(|a| a.1).sum();
    let (tail_pct, tail_ms) = stats::tail(&lat_ms);
    eprintln!(
        "perfbench: compile_suite {} passes ({:?} s), {} input compilations, latency tail is p{tail_pct:.1}",
        pass_s.len(),
        pass_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        lat_ms.len()
    );
    Ok(Report {
        correct,
        attempted: lat_ms.len() as u64,
        failed: 0,
        metrics: vec![
            ("setup_s".into(), stats::median(&gen_s)),
            ("compile_s".into(), stats::median(&pass_s)),
            ("sdd_size".into(), sdd_size as f64),
            ("peak_rss_mb".into(), rss),
            ("lat_p50_ms".into(), stats::median(&lat_ms)),
            ("lat_p99_ms".into(), tail_ms),
            (
                "answers_per_s".into(),
                suite.len() as f64 / stats::median(&pass_s),
            ),
        ],
    })
}

/// What one traced replay of an input produced besides its spans.
struct Replayed {
    answer: Answer,
    sdd_size: usize,
    lineage_gates: usize,
    width: usize,
    apply: sdd::ApplyStats,
    mem_bytes: usize,
    ac_gates: usize,
}

/// `graphtw::treewidth` at the compiler's exact limit, one span per
/// heuristic so min-fill and min-degree are timed apart.
fn decompose(tr: &mut Tracer, g: &Graph, width: &mut usize) -> (usize, Vec<u32>) {
    let (w, order) = tr.span("graphtw.decompose", |tr| {
        let n = g.num_vertices();
        if n == 0 || n <= EXACT_TW_LIMIT {
            return tr.span("graphtw.exact", |_| graphtw::treewidth(g, EXACT_TW_LIMIT));
        }
        let (w1, o1) = tr.span("graphtw.min_fill", |_| {
            let o = graphtw::min_fill_order(g);
            (graphtw::width_of_order(g, &o), o)
        });
        let (w2, o2) = tr.span("graphtw.min_degree", |_| {
            let o = graphtw::min_degree_order(g);
            (graphtw::width_of_order(g, &o), o)
        });
        if w1 <= w2 {
            (w1, o1)
        } else {
            (w2, o2)
        }
    });
    *width = w;
    (w, order)
}

fn replay_one(tr: &mut Tracer, input: &Input) -> Result<Replayed, String> {
    let name = input.name;
    let mut width = 0;
    match &input.kind {
        Kind::Lineage { q, db, .. } => {
            let c = tr.span("query.lineage", |_| {
                q.validate(db.schema())
                    .map(|_| query::lineage_circuit(q, db))
            });
            let c = c.map_err(|e| format!("{name}: {e}"))?;
            let (vtree, _) = tr
                .span("core.vtree_extract", |tr| {
                    sentential_core::vtree_from_circuit_with(&c, |g| decompose(tr, g, &mut width))
                })
                .map_err(|e| format!("{name}: {e}"))?;
            let (mgr, root) = tr.span("sdd.apply", |_| {
                let mut mgr = SddManager::new(vtree);
                let root = mgr.from_circuit(&c);
                std::hint::black_box(mgr.width(root));
                (mgr, root)
            });
            tr.span("sdd.validate", |_| mgr.validate_structure(root))
                .map_err(|e| format!("{name}: {e}"))?;
            let (sdd_size, apply, mem_bytes) =
                (mgr.size(root), mgr.apply_stats(), mgr.memory_bytes());
            let base = tr.span("kb.build", |_| {
                let mut base = KnowledgeBase::new(mgr, root);
                for v in base.vars().to_vec() {
                    base.set_probability(v, db.prob_of_var(v))
                        .expect("lineage vars are vtree vars");
                }
                base
            });
            let frozen = tr.span("kb.freeze", |_| Arc::new(base.freeze()));
            let p = tr.span("kb.eval", |_| frozen.session().log_weight().exp());
            Ok(Replayed {
                answer: Answer::Prob(p),
                sdd_size,
                lineage_gates: c.size(),
                width,
                apply,
                mem_bytes,
                ac_gates: frozen.unfolded_size(),
            })
        }
        Kind::Cnf { f, .. } => {
            let (vtree, _) = tr
                .span("core.vtree_extract", |tr| {
                    let g = f.primal_graph();
                    sentential_core::vtree_from_graph_with(&g, &f.primal_vars(), Vec::new(), |g| {
                        decompose(tr, g, &mut width)
                    })
                })
                .map_err(|e| format!("{name}: {e}"))?;
            let (mgr, root) = tr.span("sdd.apply", |_| {
                let circuit = f.to_circuit();
                let mut mgr = SddManager::new(vtree);
                let root = mgr.from_circuit(&circuit);
                std::hint::black_box(mgr.width(root));
                (mgr, root)
            });
            let count = tr.span("sdd.count_exact", |_| mgr.count_models_exact(root));
            tr.span("sdd.validate", |_| mgr.validate_structure(root))
                .map_err(|e| format!("{name}: {e}"))?;
            Ok(Replayed {
                answer: Answer::Count(count),
                sdd_size: mgr.size(root),
                lineage_gates: 0,
                width,
                apply: mgr.apply_stats(),
                mem_bytes: mgr.memory_bytes(),
                ac_gates: 0,
            })
        }
    }
}

fn replay(tr: &mut Tracer, suite: &[Input]) -> Result<(Duration, Vec<Replayed>), String> {
    let start = Instant::now();
    let mut out = Vec::with_capacity(suite.len());
    for (i, input) in suite.iter().enumerate() {
        tr.set_unit(i as u64);
        out.push(tr.span("input", |tr| replay_one(tr, input))?);
    }
    Ok((start.elapsed(), out))
}

/// The traced run: one public-pipeline pass for reference sizes, then
/// untraced/traced replay pairs until `seconds` have elapsed. Layer times
/// are medians over the traced replays.
pub fn run_traced(seed: u64, seconds: f64, spans_path: &std::path::Path) -> Result<Report, String> {
    let suite = inputs(seed);
    let reference: Vec<(Answer, usize)> =
        suite.iter().map(compile_one).collect::<Result<_, _>>()?;
    let max_degree = suite
        .iter()
        .filter_map(|i| match &i.kind {
            Kind::Lineage { q, db, .. } => {
                let (g, _) = query::lineage_circuit(q, db).primal_graph();
                (0..g.num_vertices() as u32).map(|u| g.degree(u)).max()
            }
            Kind::Cnf { .. } => None,
        })
        .max()
        .unwrap_or(0);
    let family_of = |unit: u64| suite[unit as usize].family;
    let wants: Vec<Answer> = suite.iter().map(expected).collect();

    let start = Instant::now();
    let mut rounds: Vec<Vec<(String, f64)>> = Vec::new();
    let mut correct = true;
    let mut last_tracer = None;
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (untraced, _) = replay(&mut Tracer::new(false), &suite)?;
        let mut tr = Tracer::new(true);
        let (traced, out) = replay(&mut tr, &suite)?;
        for (((input, r), (piped, want_size)), want) in
            suite.iter().zip(&out).zip(&reference).zip(&wants)
        {
            if r.sdd_size != *want_size {
                eprintln!(
                    "perfbench: {}: replay built {} elements, the pipeline {want_size}",
                    input.name, r.sdd_size
                );
                correct = false;
            }
            if let Err(e) = matches(input, &r.answer, want).and(matches(input, piped, want)) {
                eprintln!("perfbench: wrong answer: {e}");
                correct = false;
            }
        }
        let sum = |name: &str| stats::sum(&tr.durations_ms(name));
        let fam =
            |name: &str, f: &str| stats::sum(&tr.durations_ms_where(name, |u| family_of(u) == f));
        let calls: u64 = out.iter().map(|r| r.apply.apply_calls).sum();
        let hits: u64 = out.iter().map(|r| r.apply.cache_hits).sum();
        let probes: u64 = out.iter().map(|r| r.apply.unique_probes).sum();
        let inserts: u64 = out.iter().map(|r| r.apply.unique_inserts).sum();
        let mut m: Vec<(String, f64)> = vec![
            ("query.lineage_ms".into(), sum("query.lineage")),
            (
                "query.lineage_gates".into(),
                out.iter().map(|r| r.lineage_gates).sum::<usize>() as f64,
            ),
            ("circuit.primal_max_degree".into(), max_degree as f64),
            ("graphtw.decompose_ms".into(), sum("graphtw.decompose")),
            ("graphtw.min_fill_ms".into(), sum("graphtw.min_fill")),
            ("graphtw.min_degree_ms".into(), sum("graphtw.min_degree")),
            (
                "graphtw.width".into(),
                out.iter().map(|r| r.width).max().unwrap_or(0) as f64,
            ),
            (
                "core.vtree_extract_ms".into(),
                tr.total_self_ms("core.vtree_extract"),
            ),
            ("sdd.apply_ms".into(), sum("sdd.apply")),
            ("sdd.apply_calls".into(), calls as f64),
            (
                "sdd.apply_cache_hit_ratio".into(),
                hits as f64 / calls.max(1) as f64,
            ),
            (
                "sdd.unique_probes_per_insert".into(),
                probes as f64 / inserts.max(1) as f64,
            ),
            ("sdd.validate_ms".into(), sum("sdd.validate")),
            ("sdd.count_exact_ms".into(), sum("sdd.count_exact")),
            (
                "sdd.mem_bytes".into(),
                out.iter().map(|r| r.mem_bytes).sum::<usize>() as f64,
            ),
            ("kb.build_ms".into(), sum("kb.build")),
            ("kb.freeze_ms".into(), sum("kb.freeze")),
            ("kb.eval_ms".into(), sum("kb.eval")),
            (
                "kb.ac_gates".into(),
                out.iter().map(|r| r.ac_gates).sum::<usize>() as f64,
            ),
            ("trace.replay_ms".into(), traced.as_secs_f64() * 1e3),
            (
                "trace.coverage".into(),
                tr.coverage(traced.as_nanos() as u64),
            ),
            (
                "trace.overhead_pct".into(),
                100.0 * (traced.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64(),
            ),
        ];
        for f in FAMILIES {
            m.push((
                format!("graphtw.decompose_ms.{f}"),
                fam("graphtw.decompose", f),
            ));
            m.push((format!("sdd.apply_ms.{f}"), fam("sdd.apply", f)));
        }
        rounds.push(m);
        last_tracer = Some(tr);
    }
    if let Some(tr) = &last_tracer {
        tr.write_jsonl(spans_path)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    }
    Ok(Report {
        correct,
        attempted: (rounds.len() * suite.len()) as u64,
        failed: 0,
        metrics: crate::median_rounds(&rounds),
    })
}
