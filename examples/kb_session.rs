//! A knowledge-base serving session — the walkthrough for `crates/kb`.
//!
//! The expensive step (treewidth-bounded SDD compilation) runs **once**;
//! the `KnowledgeBase` builder freezes the result into a shareable slab,
//! and a `KbSession` on it answers a whole menu of queries against the
//! cached diagram: weighted counts, evidence conditioning, posterior
//! marginals (one up/down sweep for all of them), the most probable
//! explanation with a verified witness, top-k model enumeration, and
//! clause entailment — never recompiling, re-evaluating only the cones a
//! weight or evidence change dirtied.
//!
//! Run: `cargo run --example kb_session`

use sentential::prelude::*;
use std::sync::Arc;

fn main() {
    // A small diagnosis-flavored weighted CNF: two failure causes, a noisy
    // sensor, and an alarm wired to the sensor.
    //   x1 = pump-worn      (prior 0.3)
    //   x2 = valve-stuck    (prior 0.2)
    //   x3 = sensor-high    (noisy: triggered by either fault)
    //   x4 = alarm          (follows the sensor)
    let dimacs = "\
c diagnosis toy
p cnf 4 4
c p weight 1 0.3 0
c p weight -1 0.7 0
c p weight 2 0.2 0
c p weight -2 0.8 0
c p weight 3 0.6 0
c p weight -3 0.4 0
c p weight 4 0.5 0
c p weight -4 0.5 0
-1 3 0
-2 3 0
-3 4 0
-4 3 0
";
    let f = CnfFormula::from_dimacs(dimacs).expect("well-formed DIMACS");

    // Compile once (any Compiler configuration works — the KB rides on the
    // session API), freeze, then serve from a session.
    let kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).expect("compiles");
    let frozen = Arc::new(kb.freeze());
    println!(
        "compiled: {} SDD elements over {} vars, unfolded into {} arithmetic gates\n",
        frozen.sdd_size(),
        frozen.vars().len(),
        frozen.unfolded_size()
    );
    let mut kb = frozen.session();

    // Prior marginals: one two-pass sweep computes all of them.
    println!("prior marginals P(v = 1):");
    for (v, p) in kb.all_marginals().expect("consistent") {
        println!("  {v}: {p:.4}");
    }

    // Evidence arrives: the alarm is ringing. Conditioning pins the
    // literal weights (the shared SDD is never touched) — every later
    // query is now a posterior.
    kb.condition(&[(VarId(3), true)])
        .expect("alarm is possible");
    println!("\nevidence: alarm = true  (P(e) = {:.4})", {
        let p: f64 = kb.probability_of_evidence().expect("consistent");
        p
    });
    println!("posterior marginals:");
    for (v, p) in kb.all_marginals().expect("consistent") {
        println!("  {v}: {p:.4}");
    }

    // The most probable explanation of the alarm, with a verified witness.
    let mpe = kb.mpe().expect("consistent");
    println!("\nMPE (log-weight {:.4}):", mpe.log_weight);
    for &v in kb.vars() {
        println!("  {v} = {}", mpe.assignment.get(v).unwrap());
    }

    // The three heaviest worlds, enumerated straight off the diagram.
    println!("\ntop-3 worlds given the alarm:");
    for m in kb.enumerate_models(3) {
        let bits: String = kb
            .vars()
            .iter()
            .map(|&v| {
                if m.assignment.get(v).unwrap() {
                    '1'
                } else {
                    '0'
                }
            })
            .collect();
        println!("  {bits}  (weight {:.4})", m.weight());
    }

    // Entailment by pinning the negated clause: the alarm forces
    // the sensor (clause ¬x4 ∨ x3), but neither fault is entailed.
    assert!(kb.entails(&[(VarId(2), true)]).unwrap());
    assert!(!kb.entails(&[(VarId(0), true)]).unwrap());
    println!("\nentailed: sensor-high;  not entailed: pump-worn");

    // Exact structural counting rides along (BigUint — any size).
    println!(
        "models consistent with the alarm: {} of {}",
        kb.count_models(),
        1u32 << 4
    );

    // What did the last query cost? Per-query stats never accumulate; a
    // repeated weighted count is served by the session's memo, no sweep.
    let _ = kb.weighted_count();
    let stats = kb.last_query();
    println!(
        "\nlast query: {} circuit gates needed, {} answered from a memo, {} swept ({:?})",
        stats.eval.lookups, stats.eval.hits, stats.eval.recomputed, stats.duration
    );

    // Retract and the session is back to the prior — still no recompile.
    kb.retract();
    let prior_back = kb.marginal(VarId(0)).expect("consistent");
    println!("after retract, P(pump-worn) = {prior_back:.4} again");
}
