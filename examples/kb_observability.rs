//! The telemetry tier — freeze a base, serve a query mix through the
//! shard pool, **scrape** the pool's Prometheus metrics, and inspect the
//! worst query in the slow log.
//!
//! Every tier publishes into `crates/obs`: the compiler's stage timings
//! and the paper's width parameters (tw/fw/fiw/sdw) land as histograms
//! and gauges at boot, every `KbSession` query bumps a per-kind latency
//! histogram and its sweep-traffic counters, and each shard worker records
//! its request/queue-wait/coalescing counters in the same shard registry —
//! one merged scrape for the whole pool. When a slow log is attached, each query also assembles a
//! trace (stage spans + counters) and the N worst are retained for
//! post-hoc inspection, `trace <id>` on the wire.
//!
//! Run: `cargo run --example kb_observability`

use sentential::prelude::*;
use serve::Command;
use std::sync::Arc;

fn main() {
    // Freeze: compile the width-2 band family, weight it, freeze. The
    // compile report (stages, widths, apply-cache counters) is published
    // into a boot registry keyed by kb id.
    let f = cnf::families::band_cnf(40, 2);
    let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).expect("band CNF compiles");
    for i in 0..40u32 {
        kb.set_probability(VarId(i), 0.25 + 0.5 * f64::from(i % 3) / 2.0)
            .unwrap();
    }
    let frozen = Arc::new(kb.freeze());
    let boot = obs::MetricsRegistry::new();
    frozen.publish_boot_metrics(&boot, 0);

    // Serve: two replicas over two shards, a mixed query batch. Sessions
    // inside the pool record per-kind latencies into their shard's
    // registry and offer every traced query to the shared slow log.
    let kbs = vec![Arc::clone(&frozen), Arc::clone(&frozen)];
    let server = KbServer::new(kbs, 2);
    let mut client = server.client();
    for r in 0..2 {
        client.submit(r, Command::Marginal(VarId(5))).unwrap();
        client.submit(r, Command::AllMarginals).unwrap();
        client.submit(r, Command::Mpe).unwrap();
        client.submit(r, Command::LogWeight).unwrap();
    }
    let answered = client.sync().len();
    println!("served {answered} queries across 2 shards\n");

    // Scrape: one Prometheus text exposition for the whole pool — boot
    // families merged with every shard registry (serve_* counters per
    // shard among them) plus a shard="all" roll-up.
    let text = client.metrics_text(Some(&boot.snapshot()));
    println!("--- metrics scrape (elided) ---");
    for line in text.lines() {
        if line.starts_with("compile_last_width")
            || line.starts_with("kb_query_us_count")
            || line.starts_with("serve_requests_total")
            || line.starts_with("serve_queue_wait_us_total")
        {
            println!("{line}");
        }
    }

    // Inspect: the slow log keeps the worst traces pool-wide, slowest
    // first; each one is addressable by id (the wire's `trace <id>`).
    let worst = client.slow_traces();
    let head = worst.first().expect("the batch left traces");
    println!("\n--- slowest of {} retained traces ---", worst.len());
    println!("{}", head.to_json());
    assert_eq!(
        client.trace(head.id).map(|t| t.to_json()),
        Some(head.to_json())
    );
    server.shutdown();
}
