//! Batched evaluation — the walkthrough for the batch-first serving core.
//!
//! One circuit sweep can answer **many** queries: the batched session
//! APIs (`query_batch`, `marginal_batch`, `all_marginals_batch`) take a
//! slice of evidence sets — one per *lane* — and run a single
//! lane-parallel sweep where every gate visit processes all lanes over
//! contiguous columns. Gate dispatch and memory traversal are paid once
//! per batch, the log-space kernels run as packed SIMD lanes, and every
//! lane's answer is **bit-identical** to the scalar loop it replaces
//! (the lanes run the exact same per-lane operation sequence).
//!
//! The wire protocol carries the same shape: protocol 3's
//! `batch <kb> <cmd> ; <cmd> ; …` submits N sub-commands as one
//! seq-tagged job, and an all-query batch is answered by one
//! `query_batch` sweep on the owning shard.
//!
//! Run: `cargo run --example kb_batch`

use kb::Lit;
use sentential::prelude::*;
use serve::{parse_request, Request};
use std::sync::Arc;

fn main() {
    // Compile once: the diagnosis toy from the kb_session example.
    //   x1 = pump-worn (0.3)   x2 = valve-stuck (0.2)
    //   x3 = sensor-high       x4 = alarm
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
    let kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).expect("compiles");

    // Freeze, then open one serving session for the whole batch.
    let frozen: Arc<FrozenKb> = Arc::new(kb.freeze());
    let mut session = frozen.session();

    // Four clients, four evidence sets — one batch. Each lane is an
    // independent query; a contradictory lane fails alone.
    let batch: Vec<Vec<Lit>> = vec![
        vec![],                                   // the prior
        vec![(VarId(3), true)],                   // alarm rings
        vec![(VarId(3), true), (VarId(0), true)], // alarm + worn pump
        vec![(VarId(2), false)],                  // sensor quiet
    ];

    // P(evidence) for all lanes, one sweep over the SDD slab.
    println!("query_batch — P(e) per lane, one sweep:");
    for (l, p) in session.query_batch(&batch).into_iter().enumerate() {
        println!(
            "  lane {l}: P({:?}) = {:.4}",
            batch[l],
            p.expect("consistent")
        );
    }

    // Posterior P(pump-worn | e) for all lanes, one up+down sweep over
    // the arithmetic circuit — and bit-identical to the scalar loop.
    println!("\nmarginal_batch — P(pump-worn | e) per lane:");
    let lanes = session.marginal_batch(VarId(0), &batch);
    for (l, (p, e)) in lanes.iter().zip(&batch).enumerate() {
        let p = p.as_ref().expect("consistent");
        let mut scalar = frozen.session();
        scalar.condition(e).expect("consistent");
        let want = scalar.marginal(VarId(0)).expect("consistent");
        assert_eq!(p.to_bits(), want.to_bits(), "lane ≡ scalar loop");
        println!("  lane {l}: {p:.4}  (≡ scalar loop, to the bit)");
    }

    // The full marginal table per lane, still one sweep.
    println!("\nall_marginals_batch — every variable, every lane:");
    for (l, table) in session.all_marginals_batch(&batch).iter().enumerate() {
        let row: Vec<String> = table
            .as_ref()
            .expect("consistent")
            .iter()
            .map(|(v, p)| format!("{v}={p:.3}"))
            .collect();
        println!("  lane {l}: {}", row.join(" "));
    }

    // What did the batch cost? The stats row reports the lane count and
    // the per-lane telemetry feeds kb_batch_lanes_total / kb_lane_us.
    let stats = session.last_query();
    println!(
        "\nlast batch: {} lanes, {} gates × lanes swept, {:?} total",
        stats.lanes, stats.eval.recomputed, stats.duration
    );

    // The same batch over the wire: protocol 3's `batch` verb — one
    // request line, one seq-tagged response block, sub-answers in order.
    // (`pe` is the wire spelling of the empty-evidence prior; an
    // all-`query` batch is served by one `query_batch` sweep.)
    let server = KbServer::new(vec![Arc::clone(&frozen)], 1);
    let mut client = server.client();
    let line = "batch 0 pe ; query 4 ; query 4 1 ; query -3";
    println!("\nwire round-trip: {line}");
    match parse_request(line)
        .expect("well-formed")
        .expect("not a comment")
    {
        Request::Batch { kb, cmds } => {
            client.submit_batch(kb, cmds).expect("valid kb id");
        }
        other => panic!("unexpected {other:?}"),
    }
    for (seq, answer) in client.sync() {
        println!("  {seq} {answer}");
    }

    for stats in server.shutdown() {
        println!("{}", stats.render());
    }
}
