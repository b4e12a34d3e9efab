//! The sharded serving front-end over frozen knowledge bases.
//!
//! The PODS'17 regime is compile-once/answer-many; [`kb::FrozenKb`] made
//! the compiled artifact `Send + Sync`. This crate adds the operational
//! tier on top: [`KbServer`] loads N frozen bases, pins each to a shard of
//! a thread pool (one worker thread per shard, one private
//! [`kb::KbSession`] per base), and pipelines line-delimited requests
//! through the shards — the submitting thread keeps reading input while
//! workers answer in parallel, and every response carries its request's
//! sequence number so clients reassemble order themselves.
//!
//! Routing is deterministic — base `i` lives on shard `i % threads` — so
//! session state (evidence asserted via `condition`, session-local
//! weights) stays consistent: all requests against one base execute on the
//! one session that owns it, in submission order. To spread *stateless*
//! traffic over one hot base, register the same `Arc<FrozenKb>` several
//! times ([`KbServer::new`] takes the list by value; the `kb-server`
//! binary's `--replicas` flag does exactly this): replicas share the slab,
//! so extra entries cost one session's caches each, not a copy of the SDD.
//!
//! The wire protocol ([`parse_request`]) is one request per line,
//! DIMACS-flavored (1-based variables, sign = polarity), answered as
//! `<seq> ok …` / `<seq> err …` — see the `kb-server` binary or
//! `examples/kb_server.rs` at the workspace root for the end-to-end loop.

use kb::{FrozenKb, KbSession, Lit, Model};
use obs::{MetricsRegistry, MetricsSnapshot, SlowLog, TraceRecord};
use std::fmt;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vtree::VarId;

/// Version of the line protocol spoken here, reported by the `kb-server`
/// hello banner alongside [`snap::FORMAT_VERSION`]. Bump when a verb
/// changes shape. Version 2 added the observability verbs (`metrics`,
/// `slow`, `trace <id>`) and the queue-wait / merged-line extensions of
/// `stats`. Version 3 added the `batch` request form (`batch <kb>
/// <cmd> ; <cmd> ; …`, answered as one `ok batch <n> ; …` block).
/// Version 4 made `kb-server` connections concurrent (each conversation
/// gets its own sequence space) and added the adaptive micro-batch window
/// (`--batch-window`), with its coalescing counters appended to the
/// `stats` lines (`coalesced`, `window_wait_us`).
pub const PROTOCOL_VERSION: u32 = 4;

/// Most lanes one coalesced cross-client group packs into a single sweep
/// (the batched kernels' sweet spot — the widest batch the benches gate).
pub const MAX_COALESCE_LANES: usize = 64;

/// Traces retained per server in the slow-query log (the N worst).
pub const SLOW_LOG_CAPACITY: usize = 32;

/// Longest request line a front-end accepts, newline excluded. A 64-query
/// `batch` line is ~2 KB; anything past this cap is answered with
/// [`ProtocolError::LineTooLong`] and skipped through its newline.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Why one protocol line was rejected. [`parse_request`] returns this
/// instead of a bare string so front-ends can react to *what* went wrong
/// (and tests can assert it); its [`fmt::Display`] is the wire rendering.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolError {
    /// A literal token was not a signed integer.
    BadLiteral(String),
    /// Literal `0` — the DIMACS terminator, not a variable.
    ZeroLiteral,
    /// A variable token was not a positive integer (variables are 1-based
    /// on the wire).
    BadVariable(String),
    /// A numeric argument (kb id, `top` k) did not parse.
    BadNumber(String),
    /// A `setp` probability token did not parse as a float.
    BadProbability(String),
    /// A `setp` probability parsed but is NaN or infinite — rejected at
    /// the protocol edge, before any session sees it.
    NonFiniteProbability(String),
    /// The `kb <id> …` tail was not a known command.
    UnknownCommand(String),
    /// A verb is missing a required argument (the payload names the
    /// expected shape, e.g. `trace <id>`).
    MissingArgument(&'static str),
    /// The line as a whole fit no request shape.
    Unparseable(String),
    /// The line ran past [`MAX_LINE_BYTES`] before its newline.
    LineTooLong,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadLiteral(t) => {
                write!(f, "bad literal {t:?} (want a signed 1-based variable)")
            }
            ProtocolError::ZeroLiteral => {
                write!(f, "literal 0 is the DIMACS terminator, not a variable")
            }
            ProtocolError::BadVariable(t) => {
                write!(f, "bad variable {t:?} (want a 1-based index)")
            }
            ProtocolError::BadNumber(t) => write!(f, "bad number {t:?}"),
            ProtocolError::BadProbability(t) => write!(f, "bad probability {t:?}"),
            ProtocolError::NonFiniteProbability(t) => {
                write!(f, "probability {t:?} is not finite")
            }
            ProtocolError::UnknownCommand(t) => write!(f, "unknown command {t:?}"),
            ProtocolError::MissingArgument(want) => {
                write!(f, "missing argument (want {want})")
            }
            ProtocolError::Unparseable(t) => write!(f, "unparseable request {t:?}"),
            ProtocolError::LineTooLong => {
                write!(f, "line too long (limit {MAX_LINE_BYTES} bytes)")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// One query against one knowledge base, as carried by the wire protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `marginal <var>` — posterior `P(v = 1)`.
    Marginal(VarId),
    /// `marginals` — all posterior marginals, in vtree variable order.
    AllMarginals,
    /// `mpe` — most probable explanation (log-weight + assignment bits).
    Mpe,
    /// `top <k>` — the `k` heaviest models.
    Top(usize),
    /// `query <lit>…` — conditional probability of a conjunction.
    Query(Vec<Lit>),
    /// `logw` — `ln W(F ∧ e)`.
    LogWeight,
    /// `pe` — probability of the asserted evidence.
    ProbEvidence,
    /// `count` — exact model count under the evidence.
    Count,
    /// `entails <lit>…` — clause entailment.
    Entails(Vec<Lit>),
    /// `consistent` — does a model satisfy the evidence?
    Consistent,
    /// `condition <lit>…` — assert evidence (session-local).
    Condition(Vec<Lit>),
    /// `retract` — drop session evidence back to the frozen baseline.
    Retract,
    /// `setp <var> <p>` — session-local `P(v = 1) = p`.
    SetProbability(VarId, f64),
}

/// One parsed input line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `kb <id> <command…>` — routed to the shard owning base `id`.
    Query { kb: usize, cmd: Command },
    /// `batch <id> <command…> ; <command…> ; …` — N sub-commands against
    /// one base, routed together and answered as a single seq-tagged
    /// `ok batch <n> ; <sub> ; …` block. All-`query` batches run as one
    /// lane-parallel [`kb::KbSession::query_batch`] sweep.
    Batch { kb: usize, cmds: Vec<Command> },
    /// `save <id> <path>` — persist base `id` as a snapshot artifact
    /// ([`kb::FrozenKb::save`]). Handled by the front-end that owns the
    /// base list, not by the shard pool.
    Save { kb: usize, path: String },
    /// `stats` — per-shard counters plus the merged all-shards line.
    Stats,
    /// `metrics` — Prometheus text exposition of every registry the
    /// server aggregates (kernel, kb, serve families).
    Metrics,
    /// `slow` — the slow-query log, worst first, one JSON trace per line.
    Slow,
    /// `trace <id>` — one retained trace by id, as single-line JSON.
    Trace(u64),
    /// `sync` — a barrier: `synced` follows every answer to an earlier
    /// request.
    Sync,
    /// `quit` — shut the server down.
    Quit,
}

/// Parse a DIMACS-style literal token: `"3"` is variable 3 positive,
/// `"-3"` negative. Variables are 1-based on the wire ([`VarId`] is
/// 0-based internally, matching the DIMACS reader); a magnitude past
/// `u32::MAX` names no variable and is rejected, never truncated.
fn parse_lit(tok: &str) -> Result<Lit, ProtocolError> {
    let n: i64 = tok
        .parse()
        .map_err(|_| ProtocolError::BadLiteral(tok.into()))?;
    if n == 0 {
        return Err(ProtocolError::ZeroLiteral);
    }
    let var = u32::try_from(n.unsigned_abs()).map_err(|_| ProtocolError::BadLiteral(tok.into()))?;
    Ok((VarId(var - 1), n > 0))
}

fn parse_var(tok: &str) -> Result<VarId, ProtocolError> {
    let n: u32 = tok
        .parse()
        .map_err(|_| ProtocolError::BadVariable(tok.into()))?;
    if n == 0 {
        return Err(ProtocolError::BadVariable(tok.into()));
    }
    Ok(VarId(n - 1))
}

fn parse_lits(toks: &[&str]) -> Result<Vec<Lit>, ProtocolError> {
    toks.iter().map(|t| parse_lit(t)).collect()
}

/// Parse the command tail shared by `kb <id> …` and each `;`-separated
/// segment of `batch <id> …`.
fn parse_command(rest: &[&str]) -> Result<Command, ProtocolError> {
    Ok(match rest {
        ["marginal", v] => Command::Marginal(parse_var(v)?),
        ["marginals"] => Command::AllMarginals,
        ["mpe"] => Command::Mpe,
        ["top", k] => Command::Top(
            k.parse()
                .map_err(|_| ProtocolError::BadNumber((*k).into()))?,
        ),
        ["query", lits @ ..] if !lits.is_empty() => Command::Query(parse_lits(lits)?),
        ["logw"] => Command::LogWeight,
        ["pe"] => Command::ProbEvidence,
        ["count"] => Command::Count,
        ["entails", lits @ ..] => Command::Entails(parse_lits(lits)?),
        ["consistent"] => Command::Consistent,
        ["condition", lits @ ..] if !lits.is_empty() => Command::Condition(parse_lits(lits)?),
        ["retract"] => Command::Retract,
        ["setp", v, p] => {
            let var = parse_var(v)?;
            let prob: f64 = p
                .parse()
                .map_err(|_| ProtocolError::BadProbability((*p).into()))?;
            // NaN/±inf would otherwise travel all the way into a
            // session's weight table before being rejected there —
            // the protocol edge is the right place to stop them.
            if !prob.is_finite() {
                return Err(ProtocolError::NonFiniteProbability((*p).into()));
            }
            Command::SetProbability(var, prob)
        }
        _ => return Err(ProtocolError::UnknownCommand(rest.join(" "))),
    })
}

/// Parse one protocol line. Empty lines and `#` comments parse to `None`;
/// rejected lines carry the typed reason.
pub fn parse_request(line: &str) -> Result<Option<Request>, ProtocolError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.as_slice() {
        [] => Ok(None),
        [c, ..] if c.starts_with('#') => Ok(None),
        ["stats"] => Ok(Some(Request::Stats)),
        ["metrics"] => Ok(Some(Request::Metrics)),
        ["slow"] => Ok(Some(Request::Slow)),
        ["trace", id] => Ok(Some(Request::Trace(
            id.parse()
                .map_err(|_| ProtocolError::BadNumber((*id).into()))?,
        ))),
        ["trace"] => Err(ProtocolError::MissingArgument("trace <id>")),
        ["sync"] => Ok(Some(Request::Sync)),
        ["quit"] => Ok(Some(Request::Quit)),
        ["save", id, path] => Ok(Some(Request::Save {
            kb: id
                .parse()
                .map_err(|_| ProtocolError::BadNumber((*id).into()))?,
            path: (*path).into(),
        })),
        ["kb", id, rest @ ..] => {
            let kb: usize = id
                .parse()
                .map_err(|_| ProtocolError::BadNumber((*id).into()))?;
            Ok(Some(Request::Query {
                kb,
                cmd: parse_command(rest)?,
            }))
        }
        ["batch", id, rest @ ..] => {
            let kb: usize = id
                .parse()
                .map_err(|_| ProtocolError::BadNumber((*id).into()))?;
            // `;` tokens separate sub-commands. Any bad segment rejects
            // the whole line — a batch is answered atomically, so it must
            // parse atomically too.
            let mut cmds = Vec::new();
            for seg in rest.split(|t| *t == ";") {
                if seg.is_empty() {
                    return Err(ProtocolError::MissingArgument(
                        "batch <kb> <cmd> [; <cmd>]…",
                    ));
                }
                cmds.push(parse_command(seg)?);
            }
            Ok(Some(Request::Batch { kb, cmds }))
        }
        _ => Err(ProtocolError::Unparseable(line.into())),
    }
}

/// Lifetime counters of one shard worker, reported by
/// [`ClientHandle::stats`] and returned by [`KbServer::shutdown`]. The eval counters aggregate the
/// per-query [`kb::KbQueryStats`] sweep traffic across every session the
/// shard owns, so a serving deployment sees how often its memos answer.
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Knowledge bases pinned to this shard.
    pub kbs: usize,
    /// Requests answered.
    pub served: u64,
    /// Wall-clock time spent inside query bodies.
    pub busy: Duration,
    /// Wall-clock time requests spent queued (submit → dequeue), summed.
    /// Separate from `busy` on purpose: a shard can be slow because its
    /// queries are expensive (busy grows) or because it is oversubscribed
    /// (queue wait grows) — operators need to tell those apart.
    pub queue_wait: Duration,
    /// Circuit gates × lanes the queries needed.
    pub eval_lookups: u64,
    /// Of those, answered from a session memo.
    pub eval_hits: u64,
    /// Of those, actually swept.
    pub eval_recomputed: u64,
    /// Requests answered by riding another request's sweep — for every
    /// coalesced group of width `w ≥ 2`, the `w − 1` followers count here.
    pub coalesced: u64,
    /// Wall-clock time the micro-batch window spent blocked waiting for
    /// more work (zero when `--batch-window` is 0: the bypass never arms
    /// a timer).
    pub window_wait: Duration,
}

impl ShardStats {
    /// One-line rendering for the `stats` protocol verb.
    pub fn render(&self) -> String {
        format!("shard {} {}", self.shard, self.render_counters())
    }

    /// The counter tail shared by [`render`](Self::render) and the merged
    /// all-shards line.
    fn render_counters(&self) -> String {
        format!(
            "kbs {} served {} busy_us {} queue_us {} eval_lookups {} eval_hits {} eval_recomputed {} coalesced {} window_wait_us {}",
            self.kbs,
            self.served,
            self.busy.as_micros(),
            self.queue_wait.as_micros(),
            self.eval_lookups,
            self.eval_hits,
            self.eval_recomputed,
            self.coalesced,
            self.window_wait.as_micros()
        )
    }

    /// The merged all-shards line the `stats` verb appends, so operators
    /// don't hand-sum per-shard output.
    pub fn render_merged(stats: &[ShardStats]) -> String {
        format!("all {}", ShardStats::merged(stats).render_counters())
    }

    /// Sum counters across shards (the `shard` index is meaningless on
    /// the result and set to the shard count).
    pub fn merged(stats: &[ShardStats]) -> ShardStats {
        let mut all = ShardStats {
            shard: stats.len(),
            ..ShardStats::default()
        };
        for s in stats {
            all.kbs += s.kbs;
            all.served += s.served;
            all.busy += s.busy;
            all.queue_wait += s.queue_wait;
            all.eval_lookups += s.eval_lookups;
            all.eval_hits += s.eval_hits;
            all.eval_recomputed += s.eval_recomputed;
            all.coalesced += s.coalesced;
            all.window_wait += s.window_wait;
        }
        all
    }
}

/// One message on a client's reply channel. Shards only ever send
/// [`Reply::Answer`]; a front-end that took the channel over
/// ([`ClientHandle::take_replies`]) queues its own output on it as
/// [`Reply::Note`]s, so one writer sees answers and front-end lines in the
/// order they became due.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The answer to request `seq`, rendered `ok …` / `err …`.
    Answer(u64, String),
    /// Front-end output (whole lines, newlines included) that belongs
    /// after every answer with a sequence number below `after` and before
    /// any other: `after = 0` is "at once", `after = n` a barrier behind
    /// the first `n` requests (`synced`, `stats`, `metrics`).
    Note { after: u64, text: String },
}

enum Job {
    Run {
        seq: u64,
        kb: usize,
        cmd: Command,
        /// When the front-end enqueued the job (feeds
        /// [`ShardStats::queue_wait`]).
        submitted: Instant,
        /// Where the answer goes. Each [`ClientHandle`] collects on its own
        /// channel, so concurrent conversations never see each other's
        /// responses — and a coalesced group fans its per-lane answers back
        /// to each member's own client.
        reply: mpsc::Sender<Reply>,
    },
    /// A `batch` request: N sub-commands against one base, answered as a
    /// single response block by the owning shard.
    RunBatch {
        seq: u64,
        kb: usize,
        cmds: Vec<Command>,
        submitted: Instant,
        reply: mpsc::Sender<Reply>,
    },
    Stats {
        reply: mpsc::Sender<ShardStats>,
    },
    /// Explicit worker shutdown ([`KbServer::shutdown`]): queued work ahead
    /// of this marker still completes, then the worker exits even while
    /// forked [`ClientHandle`]s keep their job senders alive.
    Shutdown,
}

/// A dequeued `Run` job the shard worker has taken ownership of — the
/// coalescer's unit of grouping.
struct Pending {
    seq: u64,
    kb: usize,
    cmd: Command,
    submitted: Instant,
    reply: mpsc::Sender<Reply>,
}

/// One shard-owned session slot, with what the coalescer needs to prove
/// two replicas interchangeable: the slab identity and whether this
/// session's weight table ever diverged from it.
struct ShardSlot {
    id: usize,
    slab: Arc<FrozenKb>,
    session: KbSession,
    /// `setp` ran on this session (sticky — weight divergence survives
    /// `retract`, which only restores the pins).
    weights_diverged: bool,
}

impl ShardSlot {
    /// Is the session observably at the slab's frozen baseline posture?
    /// Evidence is re-checked live (so `condition` → `retract` returns a
    /// replica to the coalescable pool); weights are sticky.
    fn baseline(&self) -> bool {
        !self.weights_diverged && self.session.evidence().is_empty()
    }
}

/// May `(kb, cmd)` join a coalesced group led by `leader`? Same command
/// family always; and either the very same base (one session answers all
/// its own queued queries — whatever its posture, `query_batch` is the
/// scalar loop bit-for-bit) or a replica of the same slab with both
/// sessions at the baseline posture (then the leader's session answers for
/// the member's, and determinism makes the answers bit-identical).
fn coalescible_with(slots: &[ShardSlot], leader: &Pending, kb: usize, cmd: &Command) -> bool {
    let same_family = matches!(
        (&leader.cmd, cmd),
        (Command::Query(_), Command::Query(_)) | (Command::Marginal(_), Command::Marginal(_))
    );
    if !same_family {
        return false;
    }
    if kb == leader.kb {
        return true;
    }
    let (Some(a), Some(b)) = (
        slots.iter().find(|t| t.id == leader.kb),
        slots.iter().find(|t| t.id == kb),
    ) else {
        return false;
    };
    Arc::ptr_eq(&a.slab, &b.slab) && a.baseline() && b.baseline()
}

/// Fold one query's cost into the shard counters.
fn observe_query(stats: &mut ShardStats, q: &kb::KbQueryStats) {
    stats.busy += q.duration;
    stats.eval_lookups += q.eval.lookups;
    stats.eval_hits += q.eval.hits;
    stats.eval_recomputed += q.eval.recomputed;
}

/// The scalar per-job path (also the `--batch-window 0` path, unchanged
/// from the sequential server: no timers, no queue scans).
fn run_single(slots: &mut [ShardSlot], stats: &mut ShardStats, shard: usize, p: Pending) {
    stats.queue_wait += p.submitted.elapsed();
    let line = match slots.iter_mut().find(|t| t.id == p.kb) {
        Some(slot) => {
            if matches!(p.cmd, Command::SetProbability(..)) {
                slot.weights_diverged = true;
            }
            let line = answer(&mut slot.session, &p.cmd);
            stats.served += 1;
            observe_query(stats, &slot.session.last_query());
            line
        }
        None => format!("err kb {} is not on shard {shard}", p.kb),
    };
    let _ = p.reply.send(Reply::Answer(p.seq, line));
}

/// Answer a coalesced group (width ≥ 2) on the leader's session, fanning
/// the seq-tagged per-lane responses back to each member's own client.
/// `Query` groups run as one [`kb::KbSession::query_batch`] lane sweep —
/// per-lane errors stay per-lane, so a poisoned member cannot touch its
/// neighbors' answers. `Marginal` groups share the leader session's
/// marginals table: the first call pays the sweep, the rest answer from
/// the memo (bit-identical either way — the table does not depend on
/// which replica computes it).
fn answer_group(
    slots: &mut [ShardSlot],
    stats: &mut ShardStats,
    shard: usize,
    group: Vec<Pending>,
) {
    for p in &group {
        stats.queue_wait += p.submitted.elapsed();
    }
    let leader_kb = group[0].kb;
    let Some(slot) = slots.iter_mut().find(|t| t.id == leader_kb) else {
        for p in group {
            let _ = p.reply.send(Reply::Answer(
                p.seq,
                format!("err kb {} is not on shard {shard}", p.kb),
            ));
        }
        return;
    };
    stats.coalesced += (group.len() - 1) as u64;
    if matches!(group[0].cmd, Command::Query(_)) {
        let queries: Vec<Vec<Lit>> = group
            .iter()
            .map(|p| match &p.cmd {
                Command::Query(lits) => lits.clone(),
                _ => unreachable!("coalesced groups are single-family"),
            })
            .collect();
        let answers = slot.session.query_batch(&queries);
        stats.served += group.len() as u64;
        observe_query(stats, &slot.session.last_query());
        for (p, r) in group.into_iter().zip(answers) {
            let line = match r {
                Ok(v) => format!("ok {v}"),
                Err(e) => format!("err {e}"),
            };
            let _ = p.reply.send(Reply::Answer(p.seq, line));
        }
    } else {
        for p in group {
            let line = answer(&mut slot.session, &p.cmd);
            stats.served += 1;
            observe_query(stats, &slot.session.last_query());
            let _ = p.reply.send(Reply::Answer(p.seq, line));
        }
    }
}

/// The sharded server: N frozen bases pinned across worker threads and
/// per-shard statistics. Conversations go through [`ClientHandle`]s, the
/// pipelined submit/collect interface: [`KbServer::client`] forks one per
/// concurrent conversation.
pub struct KbServer {
    client: ClientHandle,
    handles: Vec<JoinHandle<ShardStats>>,
}

impl KbServer {
    /// Spin up `threads` shard workers serving `kbs`. Base `i` is pinned
    /// to shard `i % threads`; each worker opens one private session per
    /// base it owns (registering one `Arc` several times is the supported
    /// way to serve a hot base from several threads at once). The
    /// micro-batch window is off — every request takes the scalar path.
    pub fn new(kbs: Vec<Arc<FrozenKb>>, threads: usize) -> KbServer {
        KbServer::with_batch_window(kbs, threads, Duration::ZERO)
    }

    /// [`KbServer::new`] with an adaptive micro-batch window: on dequeuing
    /// a `query` (or `marginal`) job, the shard worker drains compatible
    /// jobs already queued — waiting up to `window` for more while the
    /// queue is hot — and answers the whole group (up to
    /// [`MAX_COALESCE_LANES`]) via one lane sweep on the leader's session,
    /// fanning the seq-tagged answers back per client. Groups span clients
    /// and replicas: any two baseline-posture sessions over the same slab
    /// coalesce, as do all jobs against one base. Every grouped answer is
    /// bit-identical to the scalar path, and a failing lane errs alone. A
    /// zero `window` is a true bypass: the worker loop is the sequential
    /// one — no timer syscalls, no extra queue scans.
    pub fn with_batch_window(
        kbs: Vec<Arc<FrozenKb>>,
        threads: usize,
        window: Duration,
    ) -> KbServer {
        let threads = threads.max(1);
        let route: Vec<usize> = (0..kbs.len()).map(|i| i % threads).collect();
        let slow = Arc::new(SlowLog::new(SLOW_LOG_CAPACITY));
        let mut txs = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        let mut shard_metrics = Vec::with_capacity(threads);
        for shard in 0..threads {
            let (tx, rx) = mpsc::channel::<Job>();
            let registry = Arc::new(MetricsRegistry::new());
            shard_metrics.push(Arc::clone(&registry));
            // The session slots this shard owns, each publishing into the
            // shard's registry and the shared slow log.
            let mut slots: Vec<ShardSlot> = kbs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % threads == shard)
                .map(|(i, kb)| {
                    let mut session = kb.session();
                    session.attach_obs(Arc::clone(&registry), Some(Arc::clone(&slow)));
                    ShardSlot {
                        id: i,
                        slab: Arc::clone(kb),
                        session,
                        weights_diverged: false,
                    }
                })
                .collect();
            handles.push(std::thread::spawn(move || {
                let shard_label = shard.to_string();
                let depth_hist =
                    registry.histogram("serve_batch_depth", &[("shard", &shard_label)]);
                let mut stats = ShardStats {
                    shard,
                    kbs: slots.len(),
                    ..ShardStats::default()
                };
                // A job the coalescer dequeued but could not group — it is
                // already off the queue, so it runs on the next iteration
                // (possibly leading a group of its own).
                let mut carried: Option<Job> = None;
                loop {
                    let job = match carried.take() {
                        Some(j) => j,
                        None => match rx.recv() {
                            Ok(j) => j,
                            Err(_) => break, // every sender dropped
                        },
                    };
                    match job {
                        Job::Run {
                            seq,
                            kb,
                            cmd,
                            submitted,
                            reply,
                        } if window > Duration::ZERO
                            && matches!(cmd, Command::Query(_) | Command::Marginal(_)) =>
                        {
                            // The adaptive micro-batch window: drain every
                            // already-queued compatible job, and keep the
                            // window open up to `window` for stragglers.
                            // The first incompatible job closes the group
                            // (preserving per-session order) and is carried
                            // into the next iteration.
                            let mut group = vec![Pending {
                                seq,
                                kb,
                                cmd,
                                submitted,
                                reply,
                            }];
                            let deadline = Instant::now() + window;
                            while group.len() < MAX_COALESCE_LANES {
                                let next = match rx.try_recv() {
                                    Ok(j) => j,
                                    Err(mpsc::TryRecvError::Disconnected) => break,
                                    Err(mpsc::TryRecvError::Empty) => {
                                        let now = Instant::now();
                                        if now >= deadline {
                                            break;
                                        }
                                        let waited = Instant::now();
                                        let got = rx.recv_timeout(deadline - now);
                                        stats.window_wait += waited.elapsed();
                                        match got {
                                            Ok(j) => j,
                                            Err(_) => break, // window expired
                                        }
                                    }
                                };
                                match next {
                                    Job::Run {
                                        seq,
                                        kb,
                                        cmd,
                                        submitted,
                                        reply,
                                    } if coalescible_with(&slots, &group[0], kb, &cmd) => {
                                        group.push(Pending {
                                            seq,
                                            kb,
                                            cmd,
                                            submitted,
                                            reply,
                                        });
                                    }
                                    other => {
                                        carried = Some(other);
                                        break;
                                    }
                                }
                            }
                            depth_hist.record(group.len() as u64);
                            if group.len() == 1 {
                                let p = group.pop().expect("one member");
                                run_single(&mut slots, &mut stats, shard, p);
                            } else {
                                answer_group(&mut slots, &mut stats, shard, group);
                            }
                        }
                        Job::Run {
                            seq,
                            kb,
                            cmd,
                            submitted,
                            reply,
                        } => {
                            run_single(
                                &mut slots,
                                &mut stats,
                                shard,
                                Pending {
                                    seq,
                                    kb,
                                    cmd,
                                    submitted,
                                    reply,
                                },
                            );
                        }
                        Job::RunBatch {
                            seq,
                            kb,
                            cmds,
                            submitted,
                            reply,
                        } => {
                            stats.queue_wait += submitted.elapsed();
                            let line = match slots.iter_mut().find(|t| t.id == kb) {
                                Some(slot) => {
                                    if cmds
                                        .iter()
                                        .any(|c| matches!(c, Command::SetProbability(..)))
                                    {
                                        slot.weights_diverged = true;
                                    }
                                    stats.served += 1;
                                    answer_batch(&mut slot.session, &cmds, |q| {
                                        stats.busy += q.duration;
                                        stats.eval_lookups += q.eval.lookups;
                                        stats.eval_hits += q.eval.hits;
                                        stats.eval_recomputed += q.eval.recomputed;
                                    })
                                }
                                None => format!("err kb {kb} is not on shard {shard}"),
                            };
                            let _ = reply.send(Reply::Answer(seq, line));
                        }
                        Job::Stats { reply } => {
                            let _ = reply.send(stats.clone());
                        }
                        Job::Shutdown => break,
                    }
                }
                stats
            }));
            txs.push(tx);
        }
        let (reply_tx, collect) = mpsc::channel();
        KbServer {
            client: ClientHandle {
                txs,
                route: Arc::new(route),
                reply_tx,
                collect: Some(collect),
                next_seq: 0,
                outstanding: 0,
                shard_metrics: Arc::new(shard_metrics),
                slow,
            },
            handles,
        }
    }

    /// Knowledge bases registered (including replicas).
    pub fn num_kbs(&self) -> usize {
        self.client.num_kbs()
    }

    /// Shard worker threads.
    pub fn num_shards(&self) -> usize {
        self.client.num_shards()
    }

    /// Fork a fresh client conversation over the same shard pool. Each
    /// handle has its own sequence space and its own reply channel, so
    /// concurrent connections (protocol v4) never see each other's
    /// answers — but their jobs interleave in the shard queues and
    /// coalesce across handles when the micro-batch window is open.
    pub fn client(&self) -> ClientHandle {
        self.client.fork()
    }

    /// Shut down: tell every worker to exit once the queued work ahead is
    /// answered, join them, and return the final per-shard counters.
    /// Forked [`ClientHandle`]s may still be alive (their submits will
    /// fail with "shard gone"); the explicit `Job::Shutdown` marker is
    /// what lets the workers exit while those handles hold senders.
    pub fn shutdown(mut self) -> Vec<ShardStats> {
        for tx in &self.client.txs {
            let _ = tx.send(Job::Shutdown);
        }
        self.client.txs.clear();
        let mut stats: Vec<ShardStats> = self
            .handles
            .drain(..)
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        stats.sort_by_key(|s| s.shard);
        stats
    }
}

/// One client conversation over a [`KbServer`] shard pool: a private
/// sequence space and reply channel on top of the shared job queues.
/// Handles are forked ([`KbServer::client`]) per concurrent connection;
/// each is single-threaded but independent of its siblings.
pub struct ClientHandle {
    txs: Vec<mpsc::Sender<Job>>,
    /// kb id → shard (deterministic, so session state stays coherent).
    route: Arc<Vec<usize>>,
    /// Sender side of this handle's reply channel, cloned into every job.
    reply_tx: mpsc::Sender<Reply>,
    /// Where this handle collects its answers; `None` once a front-end
    /// took the channel over ([`ClientHandle::take_replies`]).
    collect: Option<mpsc::Receiver<Reply>>,
    next_seq: u64,
    outstanding: u64,
    /// One registry per shard — sessions record lock-free into their
    /// shard's registry; [`ClientHandle::metrics_text`] merges the
    /// snapshots into the pool view.
    shard_metrics: Arc<Vec<Arc<MetricsRegistry>>>,
    /// The server-wide slow-query log all sessions offer traces to.
    slow: Arc<SlowLog>,
}

impl ClientHandle {
    /// Fork a sibling conversation: same shard pool, fresh sequence space
    /// and reply channel.
    pub fn fork(&self) -> ClientHandle {
        let (reply_tx, collect) = mpsc::channel();
        ClientHandle {
            txs: self.txs.clone(),
            route: Arc::clone(&self.route),
            reply_tx,
            collect: Some(collect),
            next_seq: 0,
            outstanding: 0,
            shard_metrics: Arc::clone(&self.shard_metrics),
            slow: Arc::clone(&self.slow),
        }
    }

    /// Knowledge bases registered (including replicas).
    pub fn num_kbs(&self) -> usize {
        self.route.len()
    }

    /// Shard worker threads.
    pub fn num_shards(&self) -> usize {
        self.txs.len()
    }

    /// Submit a query; returns its sequence number (private to this
    /// handle). The call only enqueues — collect the answer with
    /// [`ClientHandle::recv`] or [`ClientHandle::sync`].
    pub fn submit(&mut self, kb: usize, cmd: Command) -> Result<u64, String> {
        self.enqueue(kb, |seq, reply| Job::Run {
            seq,
            kb,
            cmd,
            submitted: Instant::now(),
            reply,
        })
    }

    /// Submit a `batch` request: every sub-command runs on the one session
    /// owning base `kb`, in order, and the whole block comes back as one
    /// seq-tagged response. All-`query` batches run as a single
    /// lane-parallel sweep ([`kb::KbSession::query_batch`]).
    pub fn submit_batch(&mut self, kb: usize, cmds: Vec<Command>) -> Result<u64, String> {
        self.enqueue(kb, |seq, reply| Job::RunBatch {
            seq,
            kb,
            cmds,
            submitted: Instant::now(),
            reply,
        })
    }

    /// Route a job for base `kb` to its shard under the next seq.
    fn enqueue(
        &mut self,
        kb: usize,
        job: impl FnOnce(u64, mpsc::Sender<Reply>) -> Job,
    ) -> Result<u64, String> {
        let &shard = self
            .route
            .get(kb)
            .ok_or_else(|| format!("kb {kb} not loaded ({} available)", self.route.len()))?;
        let seq = self.next_seq;
        self.txs[shard]
            .send(job(seq, self.reply_tx.clone()))
            .map_err(|_| format!("shard {shard} is gone"))?;
        // Only a delivered job takes a seq: every seq below `next_seq`
        // gets exactly one answer, which is what a barrier counts on.
        self.next_seq += 1;
        self.outstanding += 1;
        Ok(seq)
    }

    /// Responses not yet collected by this handle.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Block for this handle's next response (any shard, any order).
    pub fn recv(&mut self) -> Option<(u64, String)> {
        if self.outstanding == 0 {
            return None;
        }
        match self.collect.as_ref()?.recv() {
            Ok(Reply::Answer(seq, line)) => {
                self.outstanding -= 1;
                Some((seq, line))
            }
            // Notes only travel on a channel a front-end took over.
            Ok(Reply::Note { .. }) | Err(_) => None,
        }
    }

    /// Hand this handle's reply channel to another thread — a connection's
    /// writer. Returns a sender for the front-end's own [`Reply::Note`]s
    /// and the receiver every answer to this handle's requests arrives on.
    /// The handle keeps submitting; `recv` and `sync` return nothing from
    /// then on, so `stats` and `metrics_text` no longer wait for answers
    /// (their shard round-trip still queues behind every earlier job, see
    /// [`ClientHandle::shard_stats`]). The channel disconnects once the
    /// handle, the returned sender and every in-flight job are gone.
    ///
    /// # Panics
    /// If the channel was already taken.
    pub fn take_replies(&mut self) -> (mpsc::Sender<Reply>, mpsc::Receiver<Reply>) {
        let collect = self.collect.take().expect("reply channel already taken");
        (self.reply_tx.clone(), collect)
    }

    /// Drain every outstanding response, returned in sequence order.
    pub fn sync(&mut self) -> Vec<(u64, String)> {
        let mut out = Vec::with_capacity(self.outstanding as usize);
        while let Some(r) = self.recv() {
            out.push(r);
        }
        out.sort_by_key(|&(seq, _)| seq);
        out
    }

    /// Per-shard counters (drains this handle's outstanding work first so
    /// the counters cover everything it submitted so far; siblings'
    /// in-flight work is counted whenever their jobs finish).
    pub fn stats(&mut self) -> Vec<ShardStats> {
        let _ = self.sync();
        self.shard_stats()
    }

    /// Per-shard counters without draining: each shard answers after the
    /// jobs already in its queue, so the counters still cover every job
    /// this handle submitted before the call — only its answers may not
    /// have been collected yet.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let (tx, rx) = mpsc::channel();
        let mut n = 0;
        for shard_tx in &self.txs {
            if shard_tx.send(Job::Stats { reply: tx.clone() }).is_ok() {
                n += 1;
            }
        }
        drop(tx);
        let mut stats: Vec<ShardStats> = rx.iter().take(n).collect();
        stats.sort_by_key(|s| s.shard);
        stats
    }

    /// Render the pool-wide metrics view in Prometheus text format.
    ///
    /// Merges every shard registry (per-query families recorded by the
    /// sessions, including the `serve_batch_depth` histogram the
    /// coalescer records), grafts the `serve_*` families from the shard
    /// counters — one sample per shard plus a `shard="all"` roll-up — and
    /// prepends `extra` (typically the boot registry holding compile-time
    /// and per-kb gauges). Drains outstanding work first so the counters
    /// cover everything submitted so far.
    pub fn metrics_text(&mut self, extra: Option<&MetricsSnapshot>) -> String {
        let stats = self.stats();
        let mut snap = extra.cloned().unwrap_or_default();
        for registry in self.shard_metrics.iter() {
            snap.merge(&registry.snapshot());
        }
        let mut rows: Vec<(String, &ShardStats)> =
            stats.iter().map(|s| (s.shard.to_string(), s)).collect();
        let merged = ShardStats::merged(&stats);
        rows.push(("all".to_string(), &merged));
        for (shard, s) in &rows {
            let label = [("shard", shard.as_str())];
            snap.set_counter("serve_requests_total", &label, s.served);
            snap.set_counter("serve_busy_us_total", &label, s.busy.as_micros() as u64);
            snap.set_counter(
                "serve_queue_wait_us_total",
                &label,
                s.queue_wait.as_micros() as u64,
            );
            snap.set_counter("serve_coalesced_total", &label, s.coalesced);
            snap.set_counter(
                "serve_window_wait_us_total",
                &label,
                s.window_wait.as_micros() as u64,
            );
            snap.set_gauge("serve_kbs", &label, s.kbs as f64);
        }
        snap.render_prometheus()
    }

    /// The slow-query log shared by every session in the pool, slowest
    /// first.
    pub fn slow_traces(&self) -> Vec<TraceRecord> {
        self.slow.worst()
    }

    /// Look up one retained trace by id.
    pub fn trace(&self, id: u64) -> Option<TraceRecord> {
        self.slow.get(id)
    }
}

/// Render one model as `<log-weight> <bits>` with bit `i` the polarity of
/// the `i`-th vtree variable.
fn render_model(vars: &[VarId], m: &Model) -> String {
    let bits: String = vars
        .iter()
        .map(|&v| {
            if m.assignment.get(v) == Some(true) {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    format!("{} {}", m.log_weight, bits)
}

/// Execute one command against a session and render the response line
/// (`ok …` / `err …`). Floats use Rust's shortest-round-trip `Display`,
/// so parsing the answer back recovers the exact bits the engine computed
/// — the cross-check in `tests/` relies on that.
pub fn answer(s: &mut KbSession, cmd: &Command) -> String {
    fn or_err<T: std::fmt::Display>(r: Result<T, kb::KbError>) -> String {
        match r {
            Ok(v) => format!("ok {v}"),
            Err(e) => format!("err {e}"),
        }
    }
    match cmd {
        Command::Marginal(v) => or_err(s.marginal(*v)),
        Command::AllMarginals => match s.all_marginals() {
            Ok(pairs) => {
                let mut out = String::from("ok");
                for (_, p) in pairs {
                    out.push(' ');
                    out.push_str(&p.to_string());
                }
                out
            }
            Err(e) => format!("err {e}"),
        },
        Command::Mpe => match s.mpe() {
            Ok(m) => format!("ok {}", render_model(s.vars(), &m)),
            Err(e) => format!("err {e}"),
        },
        Command::Top(k) => {
            let models = s.enumerate_models(*k);
            let vars: Vec<VarId> = s.vars().to_vec();
            let mut out = format!("ok {}", models.len());
            for m in &models {
                out.push_str("; ");
                out.push_str(&render_model(&vars, m));
            }
            out
        }
        Command::Query(lits) => or_err(s.query(lits)),
        Command::LogWeight => format!("ok {}", s.log_weight()),
        Command::ProbEvidence => or_err(s.probability_of_evidence()),
        Command::Count => format!("ok {}", s.count_models()),
        Command::Entails(lits) => or_err(s.entails(lits)),
        Command::Consistent => format!("ok {}", s.is_consistent()),
        Command::Condition(lits) => match s.condition(lits) {
            Ok(()) => "ok".into(),
            Err(e) => format!("err {e}"),
        },
        Command::Retract => {
            s.retract();
            "ok".into()
        }
        Command::SetProbability(v, p) => match s.set_probability(*v, *p) {
            Ok(()) => "ok".into(),
            Err(e) => format!("err {e}"),
        },
    }
}

/// Execute a `batch` request and render the single response block:
/// `ok batch <n>` followed by each sub-response, ` ; `-separated (every
/// sub-response is its own `ok …` / `err …` rendering, in sub-command
/// order). When **every** sub-command is a `query`, the batch runs as one
/// lane-parallel [`kb::KbSession::query_batch`] sweep — bit-identical to
/// the sequential loop, so the wire answer does not depend on which path
/// ran. `observe` fires once per underlying session call with its
/// [`kb::KbQueryStats`], so shard counters aggregate the true cost.
pub fn answer_batch(
    s: &mut KbSession,
    cmds: &[Command],
    mut observe: impl FnMut(&kb::KbQueryStats),
) -> String {
    let all_queries: Option<Vec<Vec<Lit>>> = cmds
        .iter()
        .map(|c| match c {
            Command::Query(lits) => Some(lits.clone()),
            _ => None,
        })
        .collect();
    let subs: Vec<String> = match all_queries {
        Some(queries) => {
            let answers = s.query_batch(&queries);
            observe(&s.last_query());
            answers
                .into_iter()
                .map(|r| match r {
                    Ok(p) => format!("ok {p}"),
                    Err(e) => format!("err {e}"),
                })
                .collect()
        }
        None => cmds
            .iter()
            .map(|c| {
                let line = answer(s, c);
                observe(&s.last_query());
                line
            })
            .collect(),
    };
    let mut out = format!("ok batch {}", subs.len());
    for sub in &subs {
        out.push_str(" ; ");
        out.push_str(sub);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_lines_parse_and_reject() {
        assert_eq!(parse_request("").unwrap(), None);
        assert_eq!(parse_request("# comment").unwrap(), None);
        assert_eq!(parse_request("quit").unwrap(), Some(Request::Quit));
        assert_eq!(
            parse_request("kb 0 marginal 3").unwrap(),
            Some(Request::Query {
                kb: 0,
                cmd: Command::Marginal(VarId(2))
            })
        );
        assert_eq!(
            parse_request("kb 2 condition 1 -4").unwrap(),
            Some(Request::Query {
                kb: 2,
                cmd: Command::Condition(vec![(VarId(0), true), (VarId(3), false)])
            })
        );
        assert_eq!(
            parse_request("kb 0 entails").unwrap(),
            Some(Request::Query {
                kb: 0,
                cmd: Command::Entails(vec![])
            })
        );
        assert!(parse_request("kb 0 marginal 0").is_err(), "1-based wire");
        assert_eq!(
            parse_request("kb 0 condition 0").unwrap_err(),
            ProtocolError::ZeroLiteral
        );
        assert!(parse_request("kb 0 condition").is_err(), "empty evidence");
        // Magnitudes past u32::MAX name no variable: rejected, not
        // truncated onto a small one (nor underflowing to a panic).
        for huge in [
            "4294967297",
            "-4294967298",
            "4294967296",
            "-9223372036854775808",
        ] {
            assert_eq!(
                parse_request(&format!("kb 0 query {huge}")).unwrap_err(),
                ProtocolError::BadLiteral(huge.into()),
                "{huge}"
            );
        }
        assert_eq!(
            parse_request("kb 0 query -4294967295").unwrap(),
            Some(Request::Query {
                kb: 0,
                cmd: Command::Query(vec![(VarId(u32::MAX - 1), false)])
            })
        );
        assert_eq!(
            parse_request("kb x mpe").unwrap_err(),
            ProtocolError::BadNumber("x".into())
        );
        assert_eq!(
            parse_request("frobnicate").unwrap_err(),
            ProtocolError::Unparseable("frobnicate".into())
        );
    }

    #[test]
    fn batch_lines_parse_and_reject_atomically() {
        assert_eq!(
            parse_request("batch 0 query 1 -2 ; marginal 3 ; logw").unwrap(),
            Some(Request::Batch {
                kb: 0,
                cmds: vec![
                    Command::Query(vec![(VarId(0), true), (VarId(1), false)]),
                    Command::Marginal(VarId(2)),
                    Command::LogWeight,
                ]
            })
        );
        assert_eq!(
            parse_request("batch 2 count").unwrap(),
            Some(Request::Batch {
                kb: 2,
                cmds: vec![Command::Count]
            })
        );
        // One bad segment rejects the whole line.
        assert_eq!(
            parse_request("batch 0 logw ; frobnicate").unwrap_err(),
            ProtocolError::UnknownCommand("frobnicate".into())
        );
        assert_eq!(
            parse_request("batch 0 query 0 ; logw").unwrap_err(),
            ProtocolError::ZeroLiteral
        );
        // Empty batches and empty segments are missing their argument.
        for bad in [
            "batch 0",
            "batch 0 logw ;",
            "batch 0 ; logw",
            "batch 0 logw ; ; pe",
        ] {
            assert_eq!(
                parse_request(bad).unwrap_err(),
                ProtocolError::MissingArgument("batch <kb> <cmd> [; <cmd>]…"),
                "{bad}"
            );
        }
        assert_eq!(
            parse_request("batch x logw").unwrap_err(),
            ProtocolError::BadNumber("x".into())
        );
    }

    #[test]
    fn setp_rejects_non_finite_probabilities_at_the_edge() {
        assert_eq!(
            parse_request("kb 0 setp 1 0.25").unwrap(),
            Some(Request::Query {
                kb: 0,
                cmd: Command::SetProbability(VarId(0), 0.25)
            })
        );
        for bad in ["inf", "-inf", "NaN", "infinity"] {
            assert_eq!(
                parse_request(&format!("kb 0 setp 1 {bad}")).unwrap_err(),
                ProtocolError::NonFiniteProbability(bad.into()),
                "{bad} must die at parse time, not in a session"
            );
        }
        assert_eq!(
            parse_request("kb 0 setp 1 zero").unwrap_err(),
            ProtocolError::BadProbability("zero".into())
        );
    }

    #[test]
    fn save_verb_parses() {
        assert_eq!(
            parse_request("save 1 /tmp/base.kbsnap").unwrap(),
            Some(Request::Save {
                kb: 1,
                path: "/tmp/base.kbsnap".into()
            })
        );
        assert!(parse_request("save x /tmp/p").is_err());
        assert!(parse_request("save 0").is_err(), "path is required");
    }

    #[test]
    fn observability_verbs_parse_and_reject() {
        assert_eq!(parse_request("metrics").unwrap(), Some(Request::Metrics));
        assert_eq!(parse_request("slow").unwrap(), Some(Request::Slow));
        assert_eq!(parse_request("trace 42").unwrap(), Some(Request::Trace(42)));
        assert_eq!(
            parse_request("trace").unwrap_err(),
            ProtocolError::MissingArgument("trace <id>")
        );
        assert_eq!(
            parse_request("trace x").unwrap_err(),
            ProtocolError::BadNumber("x".into())
        );
        assert!(parse_request("metrics now").is_err(), "no trailing args");
    }

    #[test]
    fn shard_stats_merge_and_render() {
        let stats = vec![
            ShardStats {
                shard: 0,
                kbs: 2,
                served: 10,
                busy: Duration::from_micros(500),
                queue_wait: Duration::from_micros(40),
                eval_lookups: 100,
                eval_hits: 80,
                eval_recomputed: 20,
                coalesced: 3,
                window_wait: Duration::from_micros(7),
            },
            ShardStats {
                shard: 1,
                kbs: 1,
                served: 5,
                busy: Duration::from_micros(300),
                queue_wait: Duration::from_micros(10),
                eval_lookups: 50,
                eval_hits: 45,
                eval_recomputed: 5,
                coalesced: 1,
                window_wait: Duration::from_micros(2),
            },
        ];
        let m = ShardStats::merged(&stats);
        assert_eq!((m.kbs, m.served), (3, 15));
        assert_eq!(m.busy, Duration::from_micros(800));
        assert_eq!(m.queue_wait, Duration::from_micros(50));
        assert_eq!(
            (m.eval_lookups, m.eval_hits, m.eval_recomputed),
            (150, 125, 25)
        );
        assert_eq!(m.coalesced, 4);
        assert_eq!(m.window_wait, Duration::from_micros(9));
        assert_eq!(
            stats[0].render(),
            "shard 0 kbs 2 served 10 busy_us 500 queue_us 40 \
             eval_lookups 100 eval_hits 80 eval_recomputed 20 \
             coalesced 3 window_wait_us 7"
        );
        assert_eq!(
            ShardStats::render_merged(&stats),
            "all kbs 3 served 15 busy_us 800 queue_us 50 \
             eval_lookups 150 eval_hits 125 eval_recomputed 25 \
             coalesced 4 window_wait_us 9"
        );
    }
}
