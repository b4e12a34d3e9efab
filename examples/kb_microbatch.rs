//! Cross-client micro-batching — the walkthrough for the adaptive batch
//! window in the shard server.
//!
//! A shard worker that answers jobs one at a time pays a full circuit
//! sweep per query even when eight clients are hammering the same frozen
//! base with compatible work. Opening a micro-batch window changes the
//! dequeue step: on pulling a `query`/`marginal` job the worker keeps
//! draining compatible jobs — same command family, same base (or
//! baseline replicas of the same slab) — waiting up to the window for
//! stragglers, then answers the whole group through **one** lane-parallel
//! sweep and fans the answers back out, each tagged with its own
//! client's sequence number. A poisoned lane (unknown variable, say)
//! errs alone; its groupmates still get their answers. With the window
//! at the default zero the dequeue path is exactly the old one-job loop.
//!
//! Run: `cargo run --release --example kb_microbatch`

use sentential::prelude::*;
use serve::Command;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;
const ROUNDS: usize = 32;
const N: u32 = 24;

/// Deterministic prior for variable `i` (the bench family's shape).
fn prior(i: usize) -> f64 {
    0.2 + 0.6 * ((i * 7) % 10) as f64 / 10.0
}

/// The conjunction client `c` asks in round `j` — distinct polarities and
/// variables per (client, round) so coalesced lanes carry distinct work.
fn literal(c: usize, j: usize) -> (VarId, bool) {
    (
        VarId(((5 * c + 3 * j + 1) % N as usize) as u32),
        (c + j).is_multiple_of(2),
    )
}

fn main() {
    // Compile once, freeze once: every client serves from the same
    // immutable slab through its own baseline session.
    let f = cnf::families::chain_cnf(N);
    let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).expect("compiles");
    for i in 0..N as usize {
        kb.set_probability(VarId(i as u32), prior(i))
            .expect("known var");
    }
    let slab: Arc<FrozenKb> = Arc::new(kb.freeze());

    // ONE shard worker with a 5 ms batch window: all four clients' jobs
    // land in the same queue, so the worker sees cross-client groups.
    let server = KbServer::with_batch_window(vec![Arc::clone(&slab)], 1, Duration::from_millis(5));

    // Scalar reference for the assertions below: a private session on the
    // same slab answers the same questions one at a time. Floats cross the
    // wire through Rust's shortest-round-trip `Display`, so string
    // equality is bit equality of the underlying `f64`s.
    let mut oracle = slab.session();

    // Four concurrent clients, each on its own forked handle with its own
    // sequence space. Every client pipelines its whole round burst before
    // collecting, which is what gives the window groups to coalesce.
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let mut handle = server.client();
            scope.spawn(move || {
                let mut seqs = Vec::with_capacity(ROUNDS);
                for j in 0..ROUNDS {
                    let q = vec![literal(c, j)];
                    seqs.push(handle.submit(0, Command::Query(q)).expect("live server"));
                }
                let answers = handle.sync();
                assert_eq!(answers.len(), ROUNDS);
                for ((seq, line), want) in answers.iter().zip(&seqs) {
                    assert_eq!(seq, want, "answers demux by the handle's own seq");
                    assert!(line.starts_with("ok "), "client {c}: {line}");
                }
                println!("client {c}: {ROUNDS} pipelined queries answered in order");
            });
        }
    });

    // Every windowed answer is bit-identical to the scalar session.
    let mut check = server.client();
    for c in 0..CLIENTS {
        for j in 0..ROUNDS {
            check
                .submit(0, Command::Query(vec![literal(c, j)]))
                .expect("live server");
        }
    }
    for (i, (_, line)) in check.sync().into_iter().enumerate() {
        let (c, j) = (i / ROUNDS, i % ROUNDS);
        let want = format!("ok {}", oracle.query(&[literal(c, j)]).expect("known var"));
        assert_eq!(line, want, "client {c} round {j}");
    }

    // The shard's own ledger shows what the window bought: most of the
    // 128 concurrent jobs rode a coalesced group instead of paying their
    // own sweep.
    let stats = serve::ShardStats::merged(&check.stats());
    println!(
        "\nshard ledger: served {} | coalesced {} | window wait {} us",
        stats.served,
        stats.coalesced,
        stats.window_wait.as_micros()
    );
    assert!(
        stats.coalesced > 0,
        "concurrent pipelined clients must coalesce"
    );
    server.shutdown();
}
