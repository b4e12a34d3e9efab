//! End-to-end server smoke: one frozen base replicated across shards must
//! answer a concurrent query batch **bit-identically** to a sequential
//! scalar session — floats travel the wire through Rust's
//! shortest-round-trip `Display`, so string equality here is bit equality
//! of the underlying `f64`s — and those answers are anchored to
//! brute-force enumeration of the chain's worlds.

use kb::KnowledgeBase;
use sentential_core::Compiler;
use serve::{parse_request, Command, KbServer, Request};
use std::sync::Arc;
use std::time::Duration;
use vtree::VarId;

fn v(i: u32) -> VarId {
    VarId(i)
}

/// Deterministic prior of variable `i` (the bench's shape).
fn prior(i: usize) -> f64 {
    0.2 + 0.6 * ((i * 7) % 10) as f64 / 10.0
}

fn chain_kb(n: u32) -> KnowledgeBase {
    let f = cnf::families::chain_cnf(n);
    let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).unwrap();
    for i in 0..n as usize {
        kb.set_probability(v(i as u32), prior(i)).unwrap();
    }
    kb
}

/// Brute force over all `2^n` worlds of the chain `⋀ (xᵢ ∨ xᵢ₊₁)` that
/// satisfy `lits`: their total weight under the fixture priors, and their
/// number.
fn brute_chain(n: u32, lits: &[(VarId, bool)]) -> (f64, u64) {
    let (mut weight, mut count) = (0.0, 0);
    for mask in 0u64..1 << n {
        let bit = |i: u32| mask >> i & 1 == 1;
        if (1..n).any(|i| !bit(i - 1) && !bit(i)) || lits.iter().any(|&(x, b)| bit(x.0) != b) {
            continue;
        }
        count += 1;
        weight += (0..n)
            .map(|i| {
                let p = prior(i as usize);
                if bit(i) {
                    p
                } else {
                    1.0 - p
                }
            })
            .product::<f64>();
    }
    (weight, count)
}

/// The float an `ok <x>` answer line carries, checked against `want`.
fn assert_ok_close(line: &str, want: f64) {
    let got: f64 = line
        .strip_prefix("ok ")
        .and_then(|x| x.parse().ok())
        .unwrap_or_else(|| panic!("not an ok float: {line:?}"));
    assert!(
        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
        "{line:?} vs brute force {want}"
    );
}

#[test]
fn replicated_shards_answer_bit_identically_to_the_sequential_path() {
    const N: u32 = 16;
    const REPLICAS: usize = 8;
    let frozen = Arc::new(chain_kb(N).freeze());
    let kbs: Vec<Arc<kb::FrozenKb>> = (0..REPLICAS).map(|_| Arc::clone(&frozen)).collect();
    let server = KbServer::new(kbs, 4);
    let mut client = server.client();
    assert_eq!(server.num_shards(), 4);
    assert_eq!(server.num_kbs(), REPLICAS);

    // Fire the whole batch before collecting anything: every replica gets
    // a marginal, a conjunction query, a log-weight, and a count, all
    // in flight at once across the 4 shard workers.
    let mut expected = Vec::new();
    let mut seqs = Vec::new();
    for r in 0..REPLICAS {
        let m = v((3 + 5 * r as u32) % N);
        let q = [(v((7 * r as u32 + 1) % N), r % 2 == 0)];
        seqs.push(client.submit(r, Command::Marginal(m)).unwrap());
        seqs.push(client.submit(r, Command::Query(q.to_vec())).unwrap());
        seqs.push(client.submit(r, Command::LogWeight).unwrap());
        seqs.push(client.submit(r, Command::Count).unwrap());
        expected.push((m, q));
    }
    let responses = client.sync();
    assert_eq!(responses.len(), 4 * REPLICAS);

    // The sequential reference answers the same queries on one scalar
    // session; brute force anchors every answer.
    let mut scalar = frozen.session();
    let (total, models) = brute_chain(N, &[]);
    let mut iter = responses.into_iter();
    for (r, &(m, q)) in expected.iter().enumerate() {
        let (s0, a_marginal) = iter.next().unwrap();
        let (_, a_query) = iter.next().unwrap();
        let (_, a_logw) = iter.next().unwrap();
        let (_, a_count) = iter.next().unwrap();
        assert_eq!(s0, seqs[4 * r]);
        assert_eq!(a_marginal, format!("ok {}", scalar.marginal(m).unwrap()));
        assert_eq!(a_query, format!("ok {}", scalar.query(&q).unwrap()));
        assert_eq!(a_logw, format!("ok {}", scalar.log_weight()));
        assert_eq!(a_count, format!("ok {models}"));
        assert_ok_close(&a_marginal, brute_chain(N, &[(m, true)]).0 / total);
        assert_ok_close(&a_query, brute_chain(N, &q).0 / total);
        assert_ok_close(&a_logw, total.ln());
    }

    // Per-shard stats cover the whole batch, and the merged roll-up sums
    // every shard.
    let stats = client.stats();
    assert_eq!(stats.len(), 4);
    let served: u64 = stats.iter().map(|s| s.served).sum();
    assert_eq!(served, 4 * REPLICAS as u64);
    assert!(stats.iter().all(|s| s.kbs == REPLICAS / 4));
    assert!(stats.iter().any(|s| s.eval_lookups > 0));
    let merged = serve::ShardStats::merged(&stats);
    assert_eq!(merged.served, served);
    assert_eq!(merged.kbs, REPLICAS);
    let final_stats = server.shutdown();
    assert_eq!(final_stats.len(), 4);
}

#[test]
fn session_state_is_sticky_per_replica() {
    let frozen = Arc::new(chain_kb(16).freeze());
    let kbs = vec![Arc::clone(&frozen), Arc::clone(&frozen)];
    let server = KbServer::new(kbs, 2);
    let mut client = server.client();

    // Replica 0 asserts evidence; replica 1 must stay at the baseline.
    client
        .submit(0, Command::Condition(vec![(v(2), true)]))
        .unwrap();
    client.submit(0, Command::LogWeight).unwrap();
    client.submit(1, Command::LogWeight).unwrap();
    let responses = client.sync();
    assert_eq!(responses[0].1, "ok");
    let (conditioned, baseline) = (&responses[1].1, &responses[2].1);
    assert_ok_close(conditioned, brute_chain(16, &[(v(2), true)]).0.ln());
    assert_ok_close(baseline, brute_chain(16, &[]).0.ln());
    assert_ne!(conditioned, baseline);

    // Retract restores the frozen baseline on the conditioned replica.
    client.submit(0, Command::Retract).unwrap();
    client.submit(0, Command::LogWeight).unwrap();
    let responses = client.sync();
    assert_eq!(&responses[1].1, baseline);
    server.shutdown();
}

#[test]
fn wire_protocol_round_trips_through_parse_and_answer() {
    let frozen = Arc::new(chain_kb(8).freeze());
    let server = KbServer::new(vec![frozen], 1);
    let mut client = server.client();
    let script = [
        "kb 0 marginal 3",
        "kb 0 condition 2 -5",
        "kb 0 consistent",
        "kb 0 count",
        "kb 0 entails 2",
        "kb 0 mpe",
        "kb 0 top 3",
        "kb 0 pe",
        "kb 0 retract",
        "kb 0 setp 1 0.5",
        "kb 0 marginals",
    ];
    for line in script {
        match parse_request(line).unwrap().unwrap() {
            Request::Query { kb, cmd } => {
                client.submit(kb, cmd).unwrap();
            }
            other => panic!("unexpected request {other:?}"),
        }
    }
    let responses = client.sync();
    assert_eq!(responses.len(), script.len());
    for (i, (_, resp)) in responses.iter().enumerate() {
        assert!(
            resp.starts_with("ok"),
            "script line {:?} answered {resp:?}",
            script[i]
        );
    }
    // Evidence asserted over the wire really bites: x2 entailed after
    // `condition 2`.
    assert_eq!(responses[4].1, "ok true");
    // Bad kb ids surface as submit errors, not worker panics; `reject`
    // answers such a request under the next seq.
    let err = client.submit(7, Command::LogWeight).unwrap_err();
    let seq = script.len() as u64;
    assert_eq!(client.reject(&err), seq);
    assert_eq!(client.sync(), [(seq, format!("err {err}"))]);
    server.shutdown();
}

#[test]
fn pool_metrics_cover_kernel_kb_and_serve_families() {
    let frozen = Arc::new(chain_kb(12).freeze());

    // Boot-time families (compile stages, widths, per-kb sizes) come from
    // the base; per-query families from the shard sessions.
    let boot = obs::MetricsRegistry::new();
    frozen.publish_boot_metrics(&boot, 0);

    let kbs = vec![Arc::clone(&frozen), Arc::clone(&frozen)];
    let server = KbServer::new(kbs, 2);
    let mut client = server.client();
    for r in 0..2 {
        client.submit(r, Command::Marginal(v(3))).unwrap();
        client.submit(r, Command::AllMarginals).unwrap();
        client.submit(r, Command::LogWeight).unwrap();
    }
    let text = client.metrics_text(Some(&boot.snapshot()));

    // Kernel tier (apply/unique-table, published from compile provenance).
    assert!(text.contains("sdd_apply_calls_total"), "{text}");
    // Compile tier: stage timings and the paper's width parameters (the
    // chain base compiles on the CNF lane).
    assert!(
        text.contains("compile_stage_us_count{lane=\"cnf\""),
        "{text}"
    );
    assert!(text.contains("compile_last_width{param=\"sdw\"}"), "{text}");
    // Kb tier: per-kind latency histograms and sweep-traffic counters.
    assert!(
        text.contains("kb_query_us_count{kind=\"marginal\"}"),
        "{text}"
    );
    assert!(text.contains("kb_query_us_count{kind=\"logw\"}"), "{text}");
    assert!(
        text.contains("kb_eval_lookups_total{kind=\"logw\"}"),
        "{text}"
    );
    assert!(text.contains("kb_vars{kb=\"0\"}"), "{text}");
    // Serve tier: per-shard families plus the shard="all" roll-up.
    assert!(
        text.contains("serve_requests_total{shard=\"0\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("serve_requests_total{shard=\"1\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("serve_requests_total{shard=\"all\"} 6"),
        "{text}"
    );
    assert!(text.contains("serve_kbs{shard=\"all\"} 2"), "{text}");
    assert!(
        text.contains("serve_queue_wait_us_total{shard=\"all\"}"),
        "{text}"
    );

    // Prometheus shape: every family gets exactly one TYPE line even with
    // several label sets.
    assert_eq!(
        text.matches("# TYPE serve_requests_total counter").count(),
        1,
        "{text}"
    );
    server.shutdown();
}

#[test]
fn slow_log_retains_traces_that_the_trace_verb_can_look_up() {
    let frozen = Arc::new(chain_kb(12).freeze());
    let server = KbServer::new(vec![frozen], 1);
    let mut client = server.client();
    for _ in 0..4 {
        client.submit(0, Command::AllMarginals).unwrap();
        client.submit(0, Command::Mpe).unwrap();
    }
    let _ = client.sync();

    let worst = client.slow_traces();
    assert!(
        !worst.is_empty(),
        "queries must leave traces in the pool log"
    );
    // Slowest-first ordering, and every retained trace is addressable.
    for pair in worst.windows(2) {
        assert!(pair[0].total >= pair[1].total);
    }
    let head = &worst[0];
    let fetched = client.trace(head.id).expect("retained trace by id");
    assert_eq!(fetched.id, head.id);
    assert_eq!(fetched.to_json(), head.to_json());
    // Labels are the wire-level query kinds; stages carry timings.
    assert!(worst
        .iter()
        .all(|t| t.label == "marginals" || t.label == "mpe"));
    assert!(client.trace(u64::MAX).is_none());
    server.shutdown();
}

/// A coalesced cross-client group must answer every member bit-identically
/// to the scalar (window-off) path, and a poisoned lane — one naming an
/// unknown variable — must err alone: the seven lanes around it keep
/// their exact scalar answers (including the zero-weight contradiction).
#[test]
fn coalesced_groups_isolate_poisoned_lanes_bit_identically() {
    const N: u32 = 16;
    let frozen = Arc::new(chain_kb(N).freeze());

    // Eight single-query requests: lane 3 is poisoned (it names a variable
    // the base has never heard of), lane 6 is a contradiction (weight 0).
    let requests: Vec<Vec<(VarId, bool)>> = vec![
        vec![(v(0), true)],
        vec![(v(2), false), (v(5), true)],
        vec![(v(7), true)],
        vec![(v(99), true)], // poisoned: unknown variable
        vec![(v(9), false)],
        vec![(v(11), true), (v(1), true)],
        vec![(v(4), true), (v(4), false)], // contradiction: weight zero
        vec![(v(14), false)],
    ];

    // Scalar oracle: the same wire requests through a window-off pool.
    let scalar = KbServer::new(vec![Arc::clone(&frozen)], 1);
    let mut scalar_client = scalar.client();
    for q in &requests {
        scalar_client.submit(0, Command::Query(q.clone())).unwrap();
    }
    let scalar_lines: Vec<String> = scalar_client.sync().into_iter().map(|(_, l)| l).collect();
    scalar.shutdown();
    assert!(scalar_lines[3].starts_with("err"), "{:?}", scalar_lines[3]);
    assert_eq!(scalar_lines[6], "ok 0", "contradiction has weight zero");

    // Windowed pool, one shard: each request arrives on its own client
    // handle, so the group the worker coalesces spans eight clients.
    let server =
        KbServer::with_batch_window(vec![Arc::clone(&frozen)], 1, Duration::from_millis(200));
    let mut handles: Vec<_> = requests.iter().map(|_| server.client()).collect();
    for (h, q) in handles.iter_mut().zip(&requests) {
        h.submit(0, Command::Query(q.clone())).unwrap();
    }
    let grouped: Vec<String> = handles
        .iter_mut()
        .map(|h| {
            let (seq, line) = h.recv().expect("answer per client");
            assert_eq!(seq, 0, "each handle has a private sequence space");
            line
        })
        .collect();
    assert_eq!(grouped, scalar_lines);

    // The window really grouped across clients (the healthy lanes around
    // the poisoned ones rode one sweep).
    let mut control = server.client();
    let stats = control.stats();
    let merged = serve::ShardStats::merged(&stats);
    assert_eq!(merged.served, requests.len() as u64);
    assert!(
        merged.coalesced > 0,
        "window open + eight queued clients must coalesce"
    );
    let text = control.metrics_text(None);
    assert!(
        text.contains("serve_coalesced_total{shard=\"all\"}"),
        "{text}"
    );
    assert!(
        text.contains("serve_batch_depth_count{shard=\"0\"}"),
        "{text}"
    );
    assert!(
        text.contains("serve_window_wait_us_total{shard=\"all\"}"),
        "{text}"
    );
    server.shutdown();
}

/// Forked client handles have private sequence spaces and reply channels:
/// interleaved submissions over one shard pool never leak answers across
/// handles, and cross-kb groups (replicas of one slab at baseline posture)
/// stay bit-identical to the scalar path.
#[test]
fn concurrent_client_handles_demux_their_own_answers() {
    const N: u32 = 16;
    let frozen = Arc::new(chain_kb(N).freeze());
    let kbs = vec![Arc::clone(&frozen), Arc::clone(&frozen)];
    let server = KbServer::with_batch_window(kbs, 1, Duration::from_millis(100));
    let mut alice = server.client();
    let mut bob = server.client();

    // Alice queries kb 0, Bob queries kb 1 (a replica of the same slab):
    // both sides use the same sequence numbers on purpose.
    let mut scalar = frozen.session();
    let total = brute_chain(N, &[]).0;
    let (mut queries_alice, mut queries_bob) = (Vec::new(), Vec::new());
    let mut expect_alice = Vec::new();
    let mut expect_bob = Vec::new();
    for i in 0..6u32 {
        let qa = [(v(i), true)];
        let qb = [(v(i + 8), false)];
        alice.submit(0, Command::Query(qa.to_vec())).unwrap();
        bob.submit(1, Command::Query(qb.to_vec())).unwrap();
        expect_alice.push(format!("ok {}", scalar.query(&qa).unwrap()));
        expect_bob.push(format!("ok {}", scalar.query(&qb).unwrap()));
        queries_alice.push(qa);
        queries_bob.push(qb);
    }
    let got_bob: Vec<String> = bob.sync().into_iter().map(|(_, l)| l).collect();
    let got_alice: Vec<String> = alice.sync().into_iter().map(|(_, l)| l).collect();
    assert_eq!(got_alice, expect_alice);
    assert_eq!(got_bob, expect_bob);
    for (line, q) in got_alice.iter().zip(&queries_alice) {
        assert_ok_close(line, brute_chain(N, q).0 / total);
    }
    for (line, q) in got_bob.iter().zip(&queries_bob) {
        assert_ok_close(line, brute_chain(N, q).0 / total);
    }
    assert_eq!(alice.outstanding(), 0);
    assert_eq!(bob.outstanding(), 0);
    server.shutdown();
}

#[test]
fn batch_requests_answer_bit_identically_to_the_scalar_wire() {
    let frozen = Arc::new(chain_kb(16).freeze());
    let server = KbServer::new(vec![Arc::clone(&frozen)], 2);
    let mut client = server.client();

    // An all-`query` batch (the lane-parallel fast path) must render the
    // exact lines the same sub-commands produce when submitted one by one.
    let line = "batch 0 query 1 -2 ; query 5 ; query 3 9 -11 ; query -16";
    let Some(Request::Batch { kb, cmds }) = parse_request(line).unwrap() else {
        panic!("batch line must parse as a batch request");
    };
    let scalar_seqs: Vec<u64> = cmds
        .iter()
        .map(|c| client.submit(kb, c.clone()).unwrap())
        .collect();
    let batch_seq = client.submit_batch(kb, cmds.clone()).unwrap();
    let responses = client.sync();
    assert_eq!(responses.len(), scalar_seqs.len() + 1);
    let batch_line = &responses
        .iter()
        .find(|(s, _)| *s == batch_seq)
        .expect("batch response present")
        .1;
    let mut expected = format!("ok batch {}", cmds.len());
    for &s in &scalar_seqs {
        expected.push_str(" ; ");
        expected.push_str(&responses.iter().find(|(q, _)| *q == s).unwrap().1);
    }
    assert_eq!(batch_line, &expected);

    // A heterogeneous batch runs sequentially on the owning session, so
    // mid-batch state changes bite the later sub-commands.
    let line = "batch 0 logw ; condition 2 ; logw ; query 7 ; retract ; logw";
    let Some(Request::Batch { kb, cmds }) = parse_request(line).unwrap() else {
        panic!("mixed batch line must parse");
    };
    client.submit_batch(kb, cmds).unwrap();
    let responses = client.sync();
    let mut scalar = frozen.session();
    let base = scalar.log_weight();
    scalar.condition(&[(v(1), true)]).unwrap();
    let conditioned = scalar.log_weight();
    let q = scalar.query(&[(v(6), true)]).unwrap();
    assert_eq!(
        responses[0].1,
        format!("ok batch 6 ; ok {base} ; ok ; ok {conditioned} ; ok {q} ; ok ; ok {base}")
    );
    let (total, _) = brute_chain(16, &[]);
    let (given, _) = brute_chain(16, &[(v(1), true)]);
    assert_ok_close(&format!("ok {base}"), total.ln());
    assert_ok_close(&format!("ok {conditioned}"), given.ln());
    assert_ok_close(
        &format!("ok {q}"),
        brute_chain(16, &[(v(1), true), (v(6), true)]).0 / given,
    );

    // Batch stats: one request served per batch, eval cost aggregated.
    let stats = client.stats();
    let merged = serve::ShardStats::merged(&stats);
    assert_eq!(merged.served, 4 + 2);
    assert!(merged.eval_lookups > 0);
    assert!(merged.busy > std::time::Duration::ZERO);
    server.shutdown();
}

/// The `stats` view and the scrape are two readings of one set of books:
/// per shard, every `serve_*` row equals its `ShardStats` field; the
/// `shard="all"` rows equal `ShardStats::merged`; and the eval counters and
/// busy time equal the sessions' `kb_eval_*_total` and `kb_query_us`
/// families summed over kinds (the scrape merges those over shards).
#[test]
fn shard_stats_and_the_scrape_read_the_same_books() {
    const N: u32 = 16;
    let frozen = Arc::new(chain_kb(N).freeze());
    let kbs: Vec<Arc<kb::FrozenKb>> = (0..4).map(|_| Arc::clone(&frozen)).collect();
    let server = KbServer::with_batch_window(kbs, 2, Duration::from_millis(200));
    let mut client = server.client();
    // Scalar lines, a mixed batch and an all-query batch. The `setp` runs
    // no sweep, so it adds nothing to the eval counters or busy time — even
    // right after a query on the same session.
    let script = [
        "kb 0 count",
        "kb 1 entails 2",
        "kb 2 logw",
        "kb 3 mpe",
        "kb 3 setp 1 0.3",
        "batch 0 logw ; condition 2 ; count ; retract",
        "batch 1 query 1 ; query 2 -3 ; query 5",
    ];
    for line in script {
        match parse_request(line).unwrap().unwrap() {
            Request::Query { kb, cmd } => client.submit(kb, cmd),
            Request::Batch { kb, cmds } => client.submit_batch(kb, cmds),
            other => panic!("unexpected request {other:?}"),
        }
        .unwrap();
    }
    // Pipelined queries over the four replicas: the window coalesces them.
    for i in 0..16u32 {
        let q = vec![(v(i % N), i % 3 != 0)];
        client.submit(i as usize % 4, Command::Query(q)).unwrap();
    }
    let answers = client.sync();
    assert_eq!(answers.len(), script.len() + 16);
    assert!(
        answers.iter().all(|(_, l)| l.starts_with("ok")),
        "{answers:?}"
    );

    let stats = client.stats();
    let merged = serve::ShardStats::merged(&stats);
    assert!(merged.coalesced > 0, "the window must have coalesced");
    let text = client.metrics_text(None);
    let row = |family: &str, shard: &str| -> f64 {
        let key = format!("{family}{{shard=\"{shard}\"}} ");
        let line = text.lines().find_map(|l| l.strip_prefix(&key));
        line.unwrap_or_else(|| panic!("no {key} in\n{text}"))
            .parse()
            .unwrap()
    };
    let over_kinds = |family: &str| -> f64 {
        let key = format!("{family}{{kind=");
        let rows = text.lines().filter(|l| l.starts_with(&key));
        rows.map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
            .sum()
    };
    for (s, shard) in stats
        .iter()
        .map(|s| (s, s.shard.to_string()))
        .chain([(&merged, "all".to_string())])
    {
        assert_eq!(row("serve_requests_total", &shard), s.served as f64);
        assert_eq!(row("serve_coalesced_total", &shard), s.coalesced as f64);
        assert_eq!(row("serve_kbs", &shard), s.kbs as f64);
        let us = |d: Duration| d.as_micros() as f64;
        assert_eq!(row("serve_busy_us_total", &shard), us(s.busy));
        assert_eq!(row("serve_queue_wait_us_total", &shard), us(s.queue_wait));
        assert_eq!(row("serve_window_wait_us_total", &shard), us(s.window_wait));
    }
    assert_eq!(merged.served, script.len() as u64 + 16);
    assert_eq!(
        over_kinds("kb_eval_lookups_total"),
        merged.eval_lookups as f64
    );
    assert_eq!(over_kinds("kb_eval_hits_total"), merged.eval_hits as f64);
    assert_eq!(
        over_kinds("kb_eval_recomputed_total"),
        merged.eval_recomputed as f64
    );
    assert_eq!(
        over_kinds("kb_query_us_sum"),
        merged.busy.as_micros() as f64
    );
    server.shutdown();
}
