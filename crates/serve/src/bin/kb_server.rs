//! `kb-server` — compile once (or load a snapshot), freeze, serve
//! line-delimited queries from stdin or a TCP socket across a shard pool.
//!
//! ```text
//! kb-server [--shards N] [--replicas R] [--batch-window MICROS]
//!           [--listen ADDR] [--snapshot PATH]... SPEC...
//!
//! SPEC:  path/to/file.cnf   a (weighted) DIMACS CNF file
//!        chain:N            the treewidth-1 chain family, N variables
//!        band:N:W           the width-W band family, N variables
//!        snap:PATH          a saved snapshot artifact (kb::FrozenKb::save)
//! ```
//!
//! `--snapshot PATH` is sugar for a `snap:PATH` spec: the base boots
//! straight from disk — a validated read of the frozen slab and circuit,
//! no compilation — which is the cold-start path the `exp_snap` benchmark
//! measures. Each base is pinned to shard `id % shards`. `--replicas R`
//! registers every loaded base `R` times (ids `kbs*r + i`): replicas share
//! one slab via `Arc`, so a hot base serves from several shards at the
//! cost of one session's caches per replica — no SDD is copied.
//!
//! `--batch-window MICROS` (default 0: off) opens the adaptive micro-batch
//! window: a shard worker dequeuing a `query`/`marginal` job waits up to
//! that long for compatible jobs — across connections — and answers the
//! group as one lane sweep, bit-identically to the scalar path.
//!
//! TCP connections are served concurrently (protocol v4): each gets its
//! own conversation with a private sequence space over the shared shard
//! pool, so two clients' jobs interleave in the shard queues and coalesce
//! when the window is open. `quit` from any client stops the server.
//! `--listen` reports the address it bound (`--listen 127.0.0.1:0` picks a
//! free port) on stderr as `kb-server: listening on ADDR …`.
//!
//! A conversation is two threads: one reads and submits requests, the
//! other writes each answer the moment its shard finishes it — a lone
//! request is answered without any follow-up line. The writer takes every
//! reply already queued and sends them as one buffer, so a pipelined burst
//! leaves in one `write`; every accepted socket runs with `TCP_NODELAY`,
//! so that write is not held back waiting for the client's ACK. Stdin mode
//! runs the same two threads. A request line is capped at
//! [`MAX_LINE_BYTES`]; a longer one is answered `<seq> err line too long …`
//! and skipped, and the connection serves on.
//!
//! Every conversation opens with a versioned banner so clients can check
//! compatibility before sending anything:
//!
//! ```text
//! hello kb-server protocol 4 snap 1 obs 1
//! ```
//!
//! Protocol (one request per line, and every request line takes a seq:
//! answers are `<seq> ok …` / `<seq> err …` and may arrive out of order,
//! but the `err` of a line that reached no shard — it did not parse, or
//! names no loaded base — follows every earlier answer; `sync` is a
//! barrier: `synced` follows every answer to an earlier request and
//! precedes every later one; `stats` prints per-shard counters plus an
//! `all …` merged line, and `metrics` dumps the pool-wide telemetry in
//! Prometheus text format, both behind the same barrier so they count
//! every earlier request; `slow` / `trace <id>` inspect the slow-query log
//! as single-line JSON, `save <id> <path>` persists a base's frozen state
//! as a snapshot; `quit` stops the server and EOF ends the conversation,
//! each after writing every outstanding answer):
//!
//! ```text
//! kb <id> marginal <var> | marginals | mpe | top <k> | query <lit>… |
//!         logw | pe | count | entails <lit>… | consistent |
//!         condition <lit>… | retract | setp <var> <p>
//! batch <id> <cmd> ; <cmd> ; …
//! save <id> <path>
//! metrics | slow | trace <id>
//! ```
//!
//! `batch` carries N sub-commands (the same grammar as after `kb <id>`,
//! `;`-separated) and is answered as one seq-tagged block —
//! `<seq> ok batch <n> ; <sub> ; …`. An all-`query` batch runs as a
//! single lane-parallel sweep on the owning shard.
//!
//! Variables are 1-based on the wire, literal sign is polarity (DIMACS).

use kb::{FrozenKb, KnowledgeBase};
use obs::{MetricsRegistry, MetricsSnapshot};
use sentential_core::Compiler;
use serve::{
    parse_request, ClientHandle, KbServer, ProtocolError, Reply, Request, ShardStats,
    MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: kb-server [--shards N] [--replicas R] [--batch-window MICROS] \
         [--listen ADDR] [--snapshot PATH]... SPEC...\n\
         SPEC: path.cnf | chain:N | band:N:W | snap:PATH"
    );
    std::process::exit(2);
}

/// Compile one SPEC into a frozen base (serving posture: the up-front
/// exact count is skipped — sessions count on demand), or load it straight
/// from a snapshot artifact.
fn load(spec: &str) -> Result<FrozenKb, String> {
    if let Some(path) = spec.strip_prefix("snap:") {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        return FrozenKb::load(BufReader::new(file)).map_err(|e| format!("{path}: {e}"));
    }
    let compiler = Compiler::builder().exact_counts(false).build();
    let f = if let Some(n) = spec.strip_prefix("chain:") {
        let n: u32 = n.parse().map_err(|_| format!("bad chain spec {spec:?}"))?;
        cnf::families::chain_cnf(n)
    } else if let Some(nw) = spec.strip_prefix("band:") {
        let (n, w) = nw
            .split_once(':')
            .ok_or_else(|| format!("bad band spec {spec:?} (want band:N:W)"))?;
        cnf::families::band_cnf(
            n.parse().map_err(|_| format!("bad band n in {spec:?}"))?,
            w.parse().map_err(|_| format!("bad band w in {spec:?}"))?,
        )
    } else {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        cnf::CnfFormula::from_dimacs(&text).map_err(|e| format!("{spec}: {e}"))?
    };
    let kb = KnowledgeBase::compile_cnf(&compiler, &f).map_err(|e| format!("{spec}: {e}"))?;
    Ok(kb.freeze())
}

/// Persist base `kb`'s frozen state (the `save` verb). Session-local
/// evidence and weights live in the shards and are *not* captured — a
/// snapshot is the base, not one client's view of it.
fn save_kb(kbs: &[Arc<FrozenKb>], kb: usize, path: &str) -> Result<(), String> {
    let base = kbs
        .get(kb)
        .ok_or_else(|| format!("kb {kb} not loaded ({} available)", kbs.len()))?;
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BufWriter::new(file);
    base.save(&mut out).map_err(|e| format!("{path}: {e}"))?;
    out.flush().map_err(|e| format!("{path}: {e}"))?;
    Ok(())
}

/// What one read from a conversation's input produced.
enum Input {
    /// A request line is in the buffer.
    Line,
    /// The line ran past [`MAX_LINE_BYTES`]; it was skipped through its
    /// newline, so the next read starts on the next request.
    TooLong,
    /// End of input.
    Eof,
}

/// Read the next request line into `buf`, holding at most
/// [`MAX_LINE_BYTES`] of it (plus the newline).
fn read_request_line(input: &mut dyn BufRead, buf: &mut Vec<u8>) -> std::io::Result<Input> {
    buf.clear();
    let n = Read::take(&mut *input, MAX_LINE_BYTES as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(Input::Eof);
    }
    if buf.last() == Some(&b'\n') || n <= MAX_LINE_BYTES {
        return Ok(Input::Line);
    }
    input.skip_until(b'\n')?;
    Ok(Input::TooLong)
}

/// One protocol conversation: read requests from `input` on this thread
/// while a writer thread streams the replies to `output`. Returns `false`
/// when the client asked the server to quit. Each conversation runs over
/// its own [`ClientHandle`], so concurrent connections have private
/// sequence spaces and never steal each other's answers. On `quit` or EOF
/// every outstanding answer is written before this returns.
fn converse(
    mut client: ClientHandle,
    kbs: &[Arc<FrozenKb>],
    boot: &MetricsSnapshot,
    input: &mut dyn BufRead,
    output: &mut (dyn Write + Send),
) -> std::io::Result<bool> {
    let (notes, replies) = client.take_replies();
    std::thread::scope(|s| {
        let writer = s.spawn(move || write_replies(&replies, output));
        let served = read_requests(&mut client, &notes, kbs, boot, input);
        // Hang up: the reply channel disconnects once the answers still in
        // flight are in, and the writer returns after writing them.
        drop(client);
        drop(notes);
        let written = writer.join().expect("reply writer panicked");
        let keep_serving = served?;
        written?;
        Ok(keep_serving)
    })
}

/// The reading half of a conversation: parse each line, submit queries to
/// the shards and queue every front-end line on the writer's channel.
/// `sync`, `stats` and `metrics` are barriers behind the requests read
/// before them.
fn read_requests(
    client: &mut ClientHandle,
    notes: &mpsc::Sender<Reply>,
    kbs: &[Arc<FrozenKb>],
    boot: &MetricsSnapshot,
    input: &mut dyn BufRead,
) -> std::io::Result<bool> {
    // A failed send means the writer is gone (the client hung up); reading
    // on until EOF is all that is left to do. A note takes no seq: `None`.
    let note = |after: u64, text: String| -> Option<Result<u64, String>> {
        let _ = notes.send(Reply::Note { after, text });
        None
    };
    note(
        0,
        format!(
            "hello kb-server protocol {PROTOCOL_VERSION} snap {} obs {}\n",
            snap::FORMAT_VERSION,
            obs::OBS_VERSION
        ),
    );
    // Seqs taken so far. They are handed out 0, 1, 2, …, so a barrier at
    // `submitted` follows exactly the earlier requests' answers.
    let mut submitted = 0u64;
    let mut line = Vec::new();
    loop {
        let request = match read_request_line(input, &mut line)? {
            Input::Eof => return Ok(true),
            Input::TooLong => Err(ProtocolError::LineTooLong),
            Input::Line => parse_request(&String::from_utf8_lossy(&line)),
        };
        let sent = match request {
            Ok(None) => None,
            Ok(Some(Request::Quit)) => return Ok(false),
            Ok(Some(Request::Sync)) => note(submitted, "synced\n".into()),
            Ok(Some(Request::Stats)) => {
                let stats = client.shard_stats();
                let mut rows: Vec<String> = stats.iter().map(ShardStats::render).collect();
                rows.push(ShardStats::render_merged(&stats));
                note(submitted, rows.join("\n") + "\n")
            }
            Ok(Some(Request::Metrics)) => note(submitted, client.metrics_text(Some(boot))),
            Ok(Some(Request::Slow)) => {
                let worst = client.slow_traces();
                let mut text = String::new();
                if worst.is_empty() {
                    text.push_str("slow-log empty\n");
                }
                for t in worst {
                    text.push_str(&t.to_json());
                    text.push('\n');
                }
                note(0, text)
            }
            Ok(Some(Request::Trace(id))) => note(
                0,
                match client.trace(id) {
                    Some(t) => format!("{}\n", t.to_json()),
                    None => format!("err trace {id} not retained\n"),
                },
            ),
            Ok(Some(Request::Save { kb, path })) => note(
                0,
                match save_kb(kbs, kb, &path) {
                    Ok(()) => format!("saved {path}\n"),
                    Err(e) => format!("err {e}\n"),
                },
            ),
            Ok(Some(Request::Query { kb, cmd })) => Some(client.submit(kb, cmd)),
            Ok(Some(Request::Batch { kb, cmds })) => Some(client.submit_batch(kb, cmds)),
            Err(e) => Some(Err(e.to_string())),
        };
        // Every request line takes a seq. A rejected line's `err` takes the
        // next one and, like a barrier, follows every earlier answer.
        if let Some(sent) = sent {
            submitted = 1 + sent.unwrap_or_else(|why| {
                note(submitted, String::new());
                client.reject(why)
            });
        }
    }
}

/// The writing half of a conversation. Blocks on the reply channel, takes
/// every reply already queued behind the one that woke it, and writes the
/// lot as one buffer (`<seq> <answer>` lines and front-end notes) with one
/// flush — a pipelined burst leaves as one `write`. A note waits until
/// every answer below its barrier is written, and answers at or past the
/// barrier wait behind the note. Returns when the channel disconnects.
fn write_replies(replies: &mpsc::Receiver<Reply>, out: &mut dyn Write) -> std::io::Result<()> {
    let mut buf = Vec::new();
    let mut written = 0u64;
    // Notes whose barrier is not reached yet, in arrival order.
    let mut notes: VecDeque<(u64, String)> = VecDeque::new();
    // Answers received but not yet admitted by the front note's barrier.
    let mut held: Vec<(u64, String)> = Vec::new();
    while let Ok(first) = replies.recv() {
        let mut next = Some(first);
        while let Some(reply) = next {
            match reply {
                Reply::Answer(seq, line) => held.push((seq, line)),
                Reply::Note { after, text } => notes.push_back((after, text)),
            }
            loop {
                let limit = notes.front().map_or(u64::MAX, |&(after, _)| after);
                for (seq, line) in held.extract_if(.., |(seq, _)| *seq < limit) {
                    writeln!(buf, "{seq} {line}")?;
                    written += 1;
                }
                // Answers below a barrier are the only ones written while
                // it waits, so counting them tells when it is reached.
                match notes.front() {
                    Some(&(after, _)) if written >= after => {
                        let (_, text) = notes.pop_front().expect("front note");
                        buf.extend_from_slice(text.as_bytes());
                    }
                    _ => break,
                }
            }
            next = replies.try_recv().ok();
        }
        out.write_all(&buf)?;
        out.flush()?;
        buf.clear();
    }
    Ok(())
}

fn main() {
    let mut shards = 4usize;
    let mut replicas = 1usize;
    let mut batch_window = Duration::ZERO;
    let mut listen: Option<String> = None;
    let mut specs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shards" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => shards = v,
                _ => usage(),
            },
            "--replicas" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => replicas = v,
                _ => usage(),
            },
            "--batch-window" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => batch_window = Duration::from_micros(v),
                None => usage(),
            },
            "--listen" => match args.next() {
                Some(v) => listen = Some(v),
                None => usage(),
            },
            "--snapshot" => match args.next() {
                Some(v) => specs.push(format!("snap:{v}")),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => specs.push(a),
        }
    }
    if specs.is_empty() {
        usage();
    }

    let mut kbs = Vec::new();
    for spec in &specs {
        match load(spec) {
            Ok(kb) => kbs.push(Arc::new(kb)),
            Err(e) => {
                eprintln!("kb-server: {e}");
                std::process::exit(1);
            }
        }
    }
    let base = kbs.len();
    for _ in 1..replicas {
        for i in 0..base {
            kbs.push(Arc::clone(&kbs[i]));
        }
    }
    for (i, kb) in kbs.iter().enumerate() {
        eprintln!(
            "kb {i} ({}): vars={} sdd={} gates={} mem_bytes={} shard={}",
            specs[i % base],
            kb.vars().len(),
            kb.sdd_size(),
            kb.unfolded_size(),
            kb.memory_bytes(),
            i % shards,
        );
    }

    // Boot-time telemetry: compile/load reports and per-kb sizes land in a
    // registry snapshotted once — per-query families live in the shard
    // registries and are merged in by `metrics_text`. Only the unique
    // bases publish (replicas share slabs; re-publishing would duplicate
    // the gauges under the replica's id).
    let boot_registry = MetricsRegistry::new();
    for (i, kb) in kbs.iter().take(base).enumerate() {
        kb.publish_boot_metrics(&boot_registry, i);
    }
    let boot = boot_registry.snapshot();

    // The shard pool takes ownership of one Arc per base; this second list
    // serves the front-end `save` verb.
    let kbs_for_save = Arc::new(kbs.clone());
    let boot = Arc::new(boot);
    let server = KbServer::with_batch_window(kbs, shards, batch_window);
    match listen {
        None => {
            let mut input = std::io::stdin().lock();
            let mut output = std::io::stdout();
            if let Err(e) = converse(
                server.client(),
                &kbs_for_save,
                &boot,
                &mut input,
                &mut output,
            ) {
                eprintln!("kb-server: {e}");
            }
        }
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("kb-server: bind {addr}: {e}");
                    std::process::exit(1);
                }
            };
            // The bound address, not the argument: `--listen 127.0.0.1:0`
            // picks a free port and this line is how a caller learns it.
            let bound = match listener.local_addr() {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("kb-server: {addr}: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "kb-server: listening on {bound} (batch window {} us)",
                batch_window.as_micros()
            );
            // Connections are served concurrently over one shard pool:
            // the accept thread forks one ClientHandle per connection and
            // hands it to a conversation thread. A `quit` from any client
            // signals the main thread, which shuts the pool down (the
            // process exit then tears the accept loop down with it).
            let (quit_tx, quit_rx) = mpsc::channel::<()>();
            let accept_client = server.client();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    match conn {
                        Ok(stream) => {
                            let peer = stream.peer_addr().ok();
                            // Replies leave as soon as they are written:
                            // with Nagle on, a reply split over two writes
                            // waits for the client's (delayed) ACK.
                            if let Err(e) = stream.set_nodelay(true) {
                                eprintln!("kb-server: {peer:?}: {e}");
                            }
                            let handle = accept_client.fork();
                            let kbs = Arc::clone(&kbs_for_save);
                            let boot = Arc::clone(&boot);
                            let quit = quit_tx.clone();
                            std::thread::spawn(move || {
                                let mut input = BufReader::new(match stream.try_clone() {
                                    Ok(s) => s,
                                    Err(e) => {
                                        eprintln!("kb-server: {e}");
                                        return;
                                    }
                                });
                                let mut output = stream;
                                match converse(handle, &kbs, &boot, &mut input, &mut output) {
                                    Ok(true) => eprintln!("kb-server: {peer:?} disconnected"),
                                    Ok(false) => {
                                        let _ = quit.send(());
                                    }
                                    Err(e) => eprintln!("kb-server: {peer:?}: {e}"),
                                }
                            });
                        }
                        Err(e) => eprintln!("kb-server: accept: {e}"),
                    }
                }
            });
            let _ = quit_rx.recv();
        }
    }
    for s in server.shutdown() {
        eprintln!("{}", s.render());
    }
}
