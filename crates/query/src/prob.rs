//! Query probability, seven ways.
//!
//! `P(Q)` over a tuple-independent database is the weighted model count of
//! the lineage (paper §1). Routes, from reference to paper:
//!
//! 1. [`brute_force_probability`] — enumerate subdatabases (reference);
//! 2. [`safe_probability`] — lifted independent-join/project plan for
//!    hierarchical self-join-free CQs (the PTIME side of the dichotomy);
//! 3. [`probability_via_obdd`] — compile the lineage to an OBDD, then WMC;
//! 4. [`probability_via_sdd`] — compile to an SDD over a balanced vtree;
//! 5. [`probability_via_pipeline`] — the paper's route: Lemma-1 vtree from a
//!    tree decomposition of the lineage circuit, then SDD;
//! 6. [`probability_via_cft`] — the `C_{F,T}` deterministic structured NNF
//!    with a single linear d-DNNF counting pass (no diagram manager);
//! 7. [`probability_via_sdd_exact`] — route 4 evaluated in the exact
//!    `Rational` semiring: tuple probabilities embed into `Rational`
//!    losslessly (`f64`s are dyadic), so the answer carries no rounding at
//!    all — the reference the `f64` routes are checked against.
//!
//! A Monte-Carlo estimator ([`monte_carlo_probability`]) rounds things out.

use crate::ast::{Cq, Ucq};
use crate::eval::ucq_holds;
use crate::lineage::lineage_circuit;
use crate::schema::{Database, TupleId};
use vtree::fxhash::FxHashMap;
use vtree::VarId;

/// Reference: enumerate all subdatabases (≤ 24 tuples).
pub fn brute_force_probability(q: &Ucq, db: &Database) -> f64 {
    let n = db.num_tuples();
    assert!(n <= 24, "brute force capped at 24 tuples");
    let mut total = 0.0;
    for mask in 0..(1u64 << n) {
        let present = |t: TupleId| mask >> t.0 & 1 == 1;
        if ucq_holds(q, db, &present) {
            let mut p = 1.0;
            for t in 0..n {
                let pt = db.prob(TupleId(t as u32));
                p *= if mask >> t & 1 == 1 { pt } else { 1.0 - pt };
            }
            total += p;
        }
    }
    total
}

/// OBDD route: lineage circuit → OBDD (tuple-insertion order) → WMC.
pub fn probability_via_obdd(q: &Ucq, db: &Database) -> f64 {
    let c = lineage_circuit(q, db);
    let order: Vec<VarId> = db.vars();
    if order.is_empty() {
        // No tuples: the query holds iff it matches the empty database.
        return if ucq_holds(q, db, &|_| false) {
            1.0
        } else {
            0.0
        };
    }
    let mut m = obdd::Obdd::new(order);
    let root = m.from_circuit(&c);
    m.probability(root, |v| db.prob_of_var(v))
}

/// The lineage compiled to an SDD over a balanced vtree — or the constant
/// truth value when the database has no tuples (the lineage mentions no
/// variables). Shared by the f64 and exact SDD routes.
enum CompiledLineage {
    Constant(bool),
    Sdd(Box<sdd::SddManager>, sdd::SddId),
}

fn lineage_sdd(q: &Ucq, db: &Database) -> CompiledLineage {
    let vars = db.vars();
    if vars.is_empty() {
        return CompiledLineage::Constant(ucq_holds(q, db, &|_| false));
    }
    let c = lineage_circuit(q, db);
    let vt = vtree::Vtree::balanced(&vars).expect("nonempty");
    let mut m = sdd::SddManager::new(vt);
    let root = m.from_circuit(&c);
    CompiledLineage::Sdd(Box::new(m), root)
}

/// SDD route with a balanced vtree over the tuple variables.
pub fn probability_via_sdd(q: &Ucq, db: &Database) -> f64 {
    match lineage_sdd(q, db) {
        CompiledLineage::Constant(holds) => {
            if holds {
                1.0
            } else {
                0.0
            }
        }
        CompiledLineage::Sdd(m, root) => m.probability(root, |v| db.prob_of_var(v)),
    }
}

/// The exact route: the same balanced-vtree SDD as
/// [`probability_via_sdd`], evaluated in the `Rational` semiring
/// (`sdd::FrozenSdd::probability_exact`). Every `f64` tuple probability is
/// a dyadic rational, so `Rational::from_f64` embeds the database exactly
/// and the result is the *true* probability of the specified database —
/// no rounding anywhere on the route.
pub fn probability_via_sdd_exact(q: &Ucq, db: &Database) -> arith::Rational {
    use arith::Rational;
    match lineage_sdd(q, db) {
        CompiledLineage::Constant(holds) => {
            if holds {
                Rational::one()
            } else {
                Rational::zero()
            }
        }
        CompiledLineage::Sdd(m, root) => {
            m.probability_exact(root, |v| Rational::from_f64(db.prob_of_var(v)))
        }
    }
}

/// The paper's pipeline: lineage circuit → tree decomposition → Lemma-1
/// vtree → SDD → WMC, through the [`crate::QueryCompiler`] facade. Returns
/// the probability and the treewidth used (0 for constant lineages).
pub fn probability_via_pipeline(q: &Ucq, db: &Database) -> (f64, usize) {
    let answer = crate::QueryCompiler::new()
        .probability(q, db)
        .expect("query fits its own schema");
    (answer.probability, answer.treewidth().unwrap_or(0))
}

/// The d-DNNF route: the paper's `C_{F,T}` output is deterministic and
/// decomposable *by construction*, so its weighted model count is one linear
/// pass over the circuit — no diagram manager needed (paper §1's motivating
/// tractability). Returns `None` when the lineage exceeds the truth-table
/// kernel cap (the C_{F,T} construction is semantic).
pub fn probability_via_cft(q: &Ucq, db: &Database) -> Option<f64> {
    let c = lineage_circuit(q, db);
    if c.vars().is_empty() {
        return Some(if ucq_holds(q, db, &|_| false) {
            1.0
        } else {
            0.0
        });
    }
    let f = c.to_boolfn().ok()?;
    let (vt, _) = sentential_core::vtree_from_circuit(&c, 16).ok()?;
    let cft = sentential_core::cft(&f, &vt);
    let scope = boolfunc::VarSet::from_slice(&db.vars());
    Some(cft.circuit.wmc_ddnnf(&scope, |v| {
        let p = db.prob_of_var(v);
        (1.0 - p, p)
    }))
}

/// Monte-Carlo estimate with `samples` draws.
pub fn monte_carlo_probability<R: rand::Rng>(
    q: &Ucq,
    db: &Database,
    samples: usize,
    rng: &mut R,
) -> f64 {
    let n = db.num_tuples();
    let mut hits = 0usize;
    for _ in 0..samples {
        let mut mask = 0u64;
        for t in 0..n {
            if rng.gen_bool(db.prob(TupleId(t as u32))) {
                mask |= 1 << t;
            }
        }
        if ucq_holds(q, db, &|t| mask >> t.0 & 1 == 1) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

/// Lifted (extensional) evaluation for **hierarchical self-join-free CQs**:
/// independent join over connected components, independent project on root
/// variables. Returns `None` when no safe plan step applies (the query is
/// unsafe, or not self-join-free).
pub fn safe_probability(cq: &Cq, db: &Database) -> Option<f64> {
    if !cq.self_join_free() {
        return None;
    }
    let domain = db.active_domain();
    safe_rec(cq, db, &domain)
}

fn safe_rec(cq: &Cq, db: &Database, domain: &[u64]) -> Option<f64> {
    if !cq.neq.is_empty() {
        return None; // inequalities are outside this plan's scope
    }
    // Ground query: product over (distinct) matched tuples.
    let vars = cq.vars();
    if vars.is_empty() {
        let mut p = 1.0;
        let mut seen: Vec<TupleId> = Vec::new();
        for atom in &cq.atoms {
            let consts: Vec<u64> = atom
                .args
                .iter()
                .map(|t| match t {
                    crate::ast::Term::Const(c) => *c,
                    crate::ast::Term::Var(_) => unreachable!("ground query"),
                })
                .collect();
            match db.lookup(atom.rel, &consts) {
                None => return Some(0.0),
                Some(t) => {
                    if !seen.contains(&t) {
                        seen.push(t);
                        p *= db.prob(t);
                    }
                }
            }
        }
        return Some(p);
    }
    // Independent join: split into variable-connected components.
    let comps = components(cq);
    if comps.len() > 1 {
        let mut p = 1.0;
        for comp in comps {
            p *= safe_rec(&comp, db, domain)?;
        }
        return Some(p);
    }
    // Independent project on a root variable (occurs in every atom).
    let root = vars
        .iter()
        .copied()
        .find(|&v| cq.atoms.iter().all(|a| a.vars().contains(&v)))?;
    let mut q_miss = 1.0;
    for &c in domain {
        let grounded = substitute(cq, root, c);
        let pc = safe_rec(&grounded, db, domain)?;
        q_miss *= 1.0 - pc;
    }
    Some(1.0 - q_miss)
}

/// Variable-connected components of a CQ (atoms sharing variables).
fn components(cq: &Cq) -> Vec<Cq> {
    let n = cq.atoms.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    for i in 0..n {
        for j in i + 1..n {
            let vi = cq.atoms[i].vars();
            let vj = cq.atoms[j].vars();
            if vi.iter().any(|v| vj.contains(v)) {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                parent[a] = b;
            }
        }
    }
    let mut groups: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    for i in 0..n {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    groups
        .into_values()
        .map(|idxs| Cq {
            atoms: idxs.iter().map(|&i| cq.atoms[i].clone()).collect(),
            neq: Vec::new(),
        })
        .collect()
}

/// Substitute constant `c` for variable `v`.
fn substitute(cq: &Cq, v: u32, c: u64) -> Cq {
    use crate::ast::Term;
    Cq {
        atoms: cq
            .atoms
            .iter()
            .map(|a| crate::ast::Atom {
                rel: a.rel,
                args: a
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Var(u) if *u == v => Term::Const(c),
                        other => *other,
                    })
                    .collect(),
            })
            .collect(),
        neq: cq.neq.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    fn random_db_probs<R: rand::Rng>(db: &mut Database, rng: &mut R) {
        for t in 0..db.num_tuples() {
            let tuple = db.tuple(TupleId(t as u32)).clone();
            let p = rng.gen_range(0.05..0.95);
            db.insert(tuple.rel, tuple.args, p);
        }
    }

    #[test]
    fn all_routes_agree_on_hierarchical_query() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (q, schema) = families::two_atom_hierarchical();
        let r = schema.by_name("R").unwrap();
        let s = schema.by_name("S").unwrap();
        let mut db = Database::new(schema);
        for l in 1..=3u64 {
            db.insert(r, vec![l], 0.5);
            for m in 1..=2u64 {
                db.insert(s, vec![l, m], 0.5);
            }
        }
        random_db_probs(&mut db, &mut rng);
        let brute = brute_force_probability(&q, &db);
        let viao = probability_via_obdd(&q, &db);
        let vias = probability_via_sdd(&q, &db);
        let (viap, _) = probability_via_pipeline(&q, &db);
        let viac = probability_via_cft(&q, &db).expect("small lineage");
        let safe = safe_probability(&q.cqs[0], &db).expect("hierarchical is safe");
        for (label, p) in [
            ("obdd", viao),
            ("sdd", vias),
            ("pipeline", viap),
            ("cft-ddnnf", viac),
            ("safe", safe),
        ] {
            assert!((p - brute).abs() < 1e-10, "{label}: {p} vs brute {brute}");
        }
    }

    #[test]
    fn all_routes_agree_on_inversion_query() {
        let (q, schema) = families::uh(1);
        let db = families::uh_complete_db(&schema, 1, 2, 0.3);
        let brute = brute_force_probability(&q, &db);
        let viao = probability_via_obdd(&q, &db);
        let vias = probability_via_sdd(&q, &db);
        let (viap, _) = probability_via_pipeline(&q, &db);
        for (label, p) in [("obdd", viao), ("sdd", vias), ("pipeline", viap)] {
            assert!((p - brute).abs() < 1e-10, "{label}: {p} vs brute {brute}");
        }
        // uh(1) is not safe for the lifted plan.
        assert!(safe_probability(&q.cqs[0], &db).is_none() || q.cqs.len() > 1);
    }

    #[test]
    fn qrst_unsafe_for_lifted_plan() {
        let (q, schema) = families::qrst();
        let r = schema.by_name("R").unwrap();
        let s = schema.by_name("S").unwrap();
        let t = schema.by_name("T").unwrap();
        let mut db = Database::new(schema);
        for l in 1..=2u64 {
            db.insert(r, vec![l], 0.4);
            db.insert(t, vec![l], 0.6);
            for m in 1..=2u64 {
                db.insert(s, vec![l, m], 0.5);
            }
        }
        assert!(
            safe_probability(&q.cqs[0], &db).is_none(),
            "q_RST has no safe plan"
        );
        // But compilation still gets the right answer.
        let brute = brute_force_probability(&q, &db);
        let viao = probability_via_obdd(&q, &db);
        assert!((brute - viao).abs() < 1e-10);
    }

    /// The exact `Rational` route agrees with every `f64` route (within
    /// eps), and — the exactness guarantee — is *identical* as a rational
    /// no matter which vtree structured the SDD.
    #[test]
    fn exact_route_agrees_and_is_structure_independent() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (q, schema) = families::two_atom_hierarchical();
        let r = schema.by_name("R").unwrap();
        let s = schema.by_name("S").unwrap();
        let mut db = Database::new(schema);
        for l in 1..=3u64 {
            db.insert(r, vec![l], 0.5);
            for m in 1..=2u64 {
                db.insert(s, vec![l, m], 0.5);
            }
        }
        random_db_probs(&mut db, &mut rng);

        let exact = probability_via_sdd_exact(&q, &db);
        let brute = brute_force_probability(&q, &db);
        assert!(
            (exact.to_f64() - brute).abs() < 1e-10,
            "exact {exact} vs brute {brute}"
        );
        for (label, p) in [
            ("obdd", probability_via_obdd(&q, &db)),
            ("sdd", probability_via_sdd(&q, &db)),
            ("pipeline", probability_via_pipeline(&q, &db).0),
        ] {
            assert!(
                (p - exact.to_f64()).abs() < 1e-10,
                "{label}: {p} vs {exact}"
            );
        }

        // Recompute over the *pipeline's* Lemma-1 vtree: a different SDD,
        // the same exact rational — bit-for-bit.
        let c = lineage_circuit(&q, &db);
        let compiled = sentential_core::Compiler::new()
            .compile(&c)
            .expect("lineage compiles");
        let via_lemma1 = compiled.sdd.probability_exact(compiled.root, |v| {
            arith::Rational::from_f64(db.prob_of_var(v))
        });
        assert_eq!(via_lemma1, exact, "exact WMC is structure-independent");
    }

    #[test]
    fn empty_database_exact_route() {
        let (q, schema) = families::two_atom_hierarchical();
        let db = Database::new(schema);
        assert_eq!(probability_via_sdd_exact(&q, &db), arith::Rational::zero());
    }

    #[test]
    fn monte_carlo_in_the_ballpark() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let (q, schema) = families::two_atom_hierarchical();
        let r = schema.by_name("R").unwrap();
        let s = schema.by_name("S").unwrap();
        let mut db = Database::new(schema);
        db.insert(r, vec![1], 0.7);
        db.insert(s, vec![1, 1], 0.8);
        let exact = brute_force_probability(&q, &db);
        let est = monte_carlo_probability(&q, &db, 20_000, &mut rng);
        assert!((est - exact).abs() < 0.02, "MC {est} vs exact {exact}");
    }

    #[test]
    fn empty_database_handled() {
        let (q, schema) = families::two_atom_hierarchical();
        let db = Database::new(schema);
        assert_eq!(probability_via_obdd(&q, &db), 0.0);
        assert_eq!(probability_via_sdd(&q, &db), 0.0);
        assert_eq!(probability_via_pipeline(&q, &db).0, 0.0);
    }
}
