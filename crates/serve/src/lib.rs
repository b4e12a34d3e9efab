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
use obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot, SlowLog, TraceRecord};
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

/// Largest `k` a `top <k>` request may ask for. The top-`k` sweep keeps up
/// to `k` candidates at every gate, so its memory grows linearly in `k`
/// (about 1.7 MiB per unit of `k` on a 76k-gate circuit); the cap is the
/// coalescing width, [`MAX_COALESCE_LANES`].
pub const MAX_TOP_K: usize = MAX_COALESCE_LANES;

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
    /// A `top <k>` asked for more than [`MAX_TOP_K`] models.
    TopTooLarge(usize),
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
            ProtocolError::TopTooLarge(k) => write!(f, "top {k} exceeds the limit of {MAX_TOP_K}"),
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
    /// `top <k>` — the `k` heaviest models (`k` at most [`MAX_TOP_K`]).
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
        ["top", k] => match k.parse() {
            Ok(k) if k <= MAX_TOP_K => Command::Top(k),
            Ok(k) => return Err(ProtocolError::TopTooLarge(k)),
            Err(_) => return Err(ProtocolError::BadNumber((*k).into())),
        },
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
/// [`ClientHandle::stats`] and returned by [`KbServer::shutdown`]. A view:
/// the worker records each quantity once, in its shard's registry, and
/// this struct reads them back. `served`, `queue_wait`, `coalesced`,
/// `window_wait` and `kbs` are the worker's `serve_*{shard}` families;
/// `busy` and the eval counters sum the `kb_query_us` and `kb_eval_*_total`
/// families the shard's sessions record per [`kb::KbQueryStats`], so a
/// serving deployment sees how often its memos answer.
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

    /// Read shard `shard`'s counters back from a snapshot of its registry.
    /// The registry holds that shard's rows only, so each family's total
    /// over its labels (one `shard` row, or one row per query kind) is the
    /// shard's.
    fn from_snapshot(shard: usize, snap: &MetricsSnapshot) -> ShardStats {
        let total = |family: &str| -> u64 {
            let rows = snap.counters.iter().filter(|(key, _)| key.name == family);
            rows.map(|(_, v)| v).sum()
        };
        let busy_us = snap
            .histograms
            .iter()
            .filter(|(key, _)| key.name == "kb_query_us");
        let kbs = snap.gauges.iter().find(|(key, _)| key.name == "serve_kbs");
        ShardStats {
            shard,
            kbs: kbs.map_or(0, |(_, &v)| v as usize),
            served: total("serve_requests_total"),
            busy: Duration::from_micros(busy_us.map(|(_, h)| h.sum).sum()),
            queue_wait: Duration::from_micros(total("serve_queue_wait_us_total")),
            eval_lookups: total("kb_eval_lookups_total"),
            eval_hits: total("kb_eval_hits_total"),
            eval_recomputed: total("kb_eval_recomputed_total"),
            coalesced: total("serve_coalesced_total"),
            window_wait: Duration::from_micros(total("serve_window_wait_us_total")),
        }
    }
}

/// One message on a client's reply channel. Shards (and
/// [`ClientHandle::reject`]) only ever send [`Reply::Answer`]; a front-end
/// that took the channel over ([`ClientHandle::take_replies`]) queues its
/// own output on it as [`Reply::Note`]s, so one writer sees answers and
/// front-end lines in the order they became due.
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

/// One request as a shard worker receives it: the command (one
/// [`Command`], or a `batch` line's list), the base it names, when it was
/// enqueued (feeds [`ShardStats::queue_wait`]) and where its answer goes.
struct Pending<C> {
    seq: u64,
    kb: usize,
    cmd: C,
    submitted: Instant,
    /// Each [`ClientHandle`] collects on its own channel, so concurrent
    /// conversations never see each other's responses — and a coalesced
    /// group fans its per-lane answers back to each member's own client.
    reply: mpsc::Sender<Reply>,
}

impl<C> Pending<C> {
    fn answer(self, line: String) {
        let _ = self.reply.send(Reply::Answer(self.seq, line));
    }
}

enum Job {
    /// A `kb <id> …` request: the coalescer's unit of grouping.
    Run(Pending<Command>),
    /// A `batch` request: N sub-commands against one base, answered as a
    /// single response block by the owning shard.
    RunBatch(Pending<Vec<Command>>),
    /// A barrier: acknowledged once every job queued ahead of it is
    /// answered, so the shard's registry counts them all.
    Barrier(mpsc::Sender<()>),
    /// Explicit worker shutdown ([`KbServer::shutdown`]): queued work ahead
    /// of this marker still completes, then the worker exits even while
    /// forked [`ClientHandle`]s keep their job senders alive.
    Shutdown,
}

/// The serve counters of one shard worker, resolved once at spawn in the
/// shard's registry under `shard=<i>`. The worker records through them;
/// [`ShardStats::from_snapshot`] reads them back.
struct ShardBooks {
    requests: Counter,
    queue_wait_us: Counter,
    coalesced: Counter,
    window_wait_us: Counter,
    batch_depth: Histogram,
}

impl ShardBooks {
    fn new(registry: &MetricsRegistry, shard: usize, kbs: usize) -> ShardBooks {
        let shard = shard.to_string();
        let label = [("shard", shard.as_str())];
        registry.gauge("serve_kbs", &label).set(kbs as f64);
        ShardBooks {
            requests: registry.counter("serve_requests_total", &label),
            queue_wait_us: registry.counter("serve_queue_wait_us_total", &label),
            coalesced: registry.counter("serve_coalesced_total", &label),
            window_wait_us: registry.counter("serve_window_wait_us_total", &label),
            batch_depth: registry.histogram("serve_batch_depth", &label),
        }
    }
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

/// The slot of base `kb`. Jobs reach the shard that [`ClientHandle`]'s
/// route names, and that shard opened a slot for every base routed to it.
fn slot_of(slots: &mut [ShardSlot], kb: usize) -> &mut ShardSlot {
    let slot = slots.iter_mut().find(|t| t.id == kb);
    slot.expect("every base routed to a shard has a slot there")
}

/// May `next` join a coalesced group led by `leader`? Same command family
/// always; and either the very same base (one session answers all its own
/// queued queries — whatever its posture, `query_batch` is the scalar loop
/// bit-for-bit) or a replica of the same slab with both sessions at the
/// baseline posture (then the leader's session answers for the member's,
/// and determinism makes the answers bit-identical).
fn coalescible_with(
    slots: &[ShardSlot],
    leader: &Pending<Command>,
    next: &Pending<Command>,
) -> bool {
    let same_family = matches!(
        (&leader.cmd, &next.cmd),
        (Command::Query(_), Command::Query(_)) | (Command::Marginal(_), Command::Marginal(_))
    );
    if !same_family {
        return false;
    }
    if next.kb == leader.kb {
        return true;
    }
    let (Some(a), Some(b)) = (
        slots.iter().find(|t| t.id == leader.kb),
        slots.iter().find(|t| t.id == next.kb),
    ) else {
        return false;
    };
    Arc::ptr_eq(&a.slab, &b.slab) && a.baseline() && b.baseline()
}

/// The adaptive micro-batch window: drain every already-queued job that
/// may join `group`, and keep the window open up to `window` for
/// stragglers. The first job that may not join closes the group
/// (preserving per-session order) and is returned, to run next.
fn gather(
    rx: &mpsc::Receiver<Job>,
    slots: &[ShardSlot],
    books: &ShardBooks,
    window: Duration,
    group: &mut Vec<Pending<Command>>,
) -> Option<Job> {
    let deadline = Instant::now() + window;
    let mut waited = Duration::ZERO;
    let carried = loop {
        if group.len() >= MAX_COALESCE_LANES {
            break None;
        }
        let next = match rx.try_recv() {
            Ok(j) => j,
            Err(mpsc::TryRecvError::Disconnected) => break None,
            Err(mpsc::TryRecvError::Empty) => {
                let now = Instant::now();
                if now >= deadline {
                    break None;
                }
                let got = rx.recv_timeout(deadline - now);
                waited += now.elapsed();
                match got {
                    Ok(j) => j,
                    Err(_) => break None, // window expired
                }
            }
        };
        match next {
            Job::Run(p) if coalescible_with(slots, &group[0], &p) => group.push(p),
            other => break Some(other),
        }
    };
    books.window_wait_us.add(waited.as_micros() as u64);
    carried
}

/// Answer a group of `Run` jobs on the leader's session, fanning the
/// seq-tagged responses back to each member's own client. A group of one
/// is the scalar path. A wider `Query` group runs as one
/// [`kb::KbSession::query_batch`] lane sweep — per-lane errors stay
/// per-lane, so a poisoned member cannot touch its neighbors' answers. A
/// `Marginal` group shares the leader session's marginals table: the first
/// call pays the sweep, the rest answer from the memo (bit-identical
/// either way — the table does not depend on which replica computes it).
fn answer_group(slots: &mut [ShardSlot], books: &ShardBooks, group: Vec<Pending<Command>>) {
    let now = Instant::now();
    let waited: Duration = group.iter().map(|p| now - p.submitted).sum();
    books.queue_wait_us.add(waited.as_micros() as u64);
    let slot = slot_of(slots, group[0].kb);
    books.requests.add(group.len() as u64);
    books.coalesced.add(group.len() as u64 - 1);
    if group.len() > 1 && matches!(group[0].cmd, Command::Query(_)) {
        let queries: Vec<Vec<Lit>> = group
            .iter()
            .map(|p| match &p.cmd {
                Command::Query(lits) => lits.clone(),
                _ => unreachable!("coalesced groups are single-family"),
            })
            .collect();
        let answers = slot.session.query_batch(&queries);
        for (p, r) in group.into_iter().zip(answers) {
            p.answer(or_err(r));
        }
    } else {
        for p in group {
            slot.weights_diverged |= matches!(p.cmd, Command::SetProbability(..));
            let line = answer(&mut slot.session, &p.cmd);
            p.answer(line);
        }
    }
}

/// The sharded server: N frozen bases pinned across worker threads and
/// per-shard statistics. Conversations go through [`ClientHandle`]s, the
/// pipelined submit/collect interface: [`KbServer::client`] forks one per
/// concurrent conversation.
pub struct KbServer {
    client: ClientHandle,
    handles: Vec<JoinHandle<()>>,
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
            let books = ShardBooks::new(&registry, shard, slots.len());
            handles.push(std::thread::spawn(move || {
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
                        Job::Run(first) => {
                            let coalesce = window > Duration::ZERO
                                && matches!(first.cmd, Command::Query(_) | Command::Marginal(_));
                            let mut group = vec![first];
                            if coalesce {
                                carried = gather(&rx, &slots, &books, window, &mut group);
                                books.batch_depth.record(group.len() as u64);
                            }
                            answer_group(&mut slots, &books, group);
                        }
                        Job::RunBatch(p) => {
                            books
                                .queue_wait_us
                                .add(p.submitted.elapsed().as_micros() as u64);
                            let slot = slot_of(&mut slots, p.kb);
                            let setp = |c: &Command| matches!(c, Command::SetProbability(..));
                            slot.weights_diverged |= p.cmd.iter().any(setp);
                            books.requests.inc();
                            let line = answer_batch(&mut slot.session, &p.cmd);
                            p.answer(line);
                        }
                        Job::Barrier(done) => {
                            let _ = done.send(());
                        }
                        Job::Shutdown => break,
                    }
                }
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
        for h in self.handles.drain(..) {
            h.join().expect("shard worker panicked");
        }
        // No worker is left to pass a barrier to: read the books as left.
        self.client.shard_stats()
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
        self.enqueue(kb, cmd, Job::Run)
    }

    /// Submit a `batch` request: every sub-command runs on the one session
    /// owning base `kb`, in order, and the whole block comes back as one
    /// seq-tagged response. All-`query` batches run as a single
    /// lane-parallel sweep ([`kb::KbSession::query_batch`]).
    pub fn submit_batch(&mut self, kb: usize, cmds: Vec<Command>) -> Result<u64, String> {
        self.enqueue(kb, cmds, Job::RunBatch)
    }

    /// Route a job for base `kb` to its shard under the next seq.
    fn enqueue<C>(&mut self, kb: usize, cmd: C, job: fn(Pending<C>) -> Job) -> Result<u64, String> {
        let &shard = self
            .route
            .get(kb)
            .ok_or_else(|| format!("kb {kb} not loaded ({} available)", self.route.len()))?;
        let pending = Pending {
            seq: self.next_seq,
            kb,
            cmd,
            submitted: Instant::now(),
            reply: self.reply_tx.clone(),
        };
        self.txs[shard]
            .send(job(pending))
            .map_err(|_| format!("shard {shard} is gone"))?;
        // Only a delivered job takes a seq: every seq below `next_seq`
        // gets exactly one answer, which is what a barrier counts on.
        Ok(self.take_seq())
    }

    /// Answer a request that reached no shard — its line did not parse,
    /// or [`submit`](Self::submit) refused it — with `err <why>` under the
    /// next seq, queued on this handle's own reply channel. Returns the
    /// seq, so every request line a front-end reads takes one.
    pub fn reject(&mut self, why: impl fmt::Display) -> u64 {
        let _ = self
            .reply_tx
            .send(Reply::Answer(self.next_seq, format!("err {why}")));
        self.take_seq()
    }

    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.outstanding += 1;
        self.next_seq - 1
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

    /// Per-shard counters without draining: each shard passes a barrier
    /// after the jobs already in its queue, and then its registry is read,
    /// so the counters still cover every job this handle submitted before
    /// the call — only its answers may not have been collected yet.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shard_snapshots()
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardStats::from_snapshot(shard, s))
            .collect()
    }

    /// Every shard registry's snapshot, each taken once the shard has
    /// answered the jobs queued ahead of the call.
    fn shard_snapshots(&self) -> Vec<MetricsSnapshot> {
        let (tx, rx) = mpsc::channel();
        let mut n = 0;
        for shard_tx in &self.txs {
            if shard_tx.send(Job::Barrier(tx.clone())).is_ok() {
                n += 1;
            }
        }
        drop(tx);
        rx.iter().take(n).for_each(drop);
        self.shard_metrics.iter().map(|r| r.snapshot()).collect()
    }

    /// Render the pool-wide metrics view in Prometheus text format.
    ///
    /// Merges every shard registry — the per-query families the sessions
    /// record and the `serve_*{shard}` families each worker records —
    /// adds the `shard="all"` roll-up of the [`ShardStats`] view and each
    /// shard's `serve_busy_us_total` (its sessions' summed `kb_query_us`),
    /// and prepends `extra` (typically the boot registry holding
    /// compile-time and per-kb gauges). Drains outstanding work first so
    /// the counters cover everything submitted so far.
    pub fn metrics_text(&mut self, extra: Option<&MetricsSnapshot>) -> String {
        let _ = self.sync();
        let mut snap = extra.cloned().unwrap_or_default();
        let mut stats = Vec::with_capacity(self.shard_metrics.len());
        for (shard, shard_snap) in self.shard_snapshots().iter().enumerate() {
            snap.merge(shard_snap);
            let view = ShardStats::from_snapshot(shard, shard_snap);
            let label = shard.to_string();
            let busy_us = view.busy.as_micros() as u64;
            snap.set_counter("serve_busy_us_total", &[("shard", &label)], busy_us);
            stats.push(view);
        }
        let all = ShardStats::merged(&stats);
        let label = [("shard", "all")];
        snap.set_counter("serve_requests_total", &label, all.served);
        snap.set_counter("serve_busy_us_total", &label, all.busy.as_micros() as u64);
        let queue_us = all.queue_wait.as_micros() as u64;
        snap.set_counter("serve_queue_wait_us_total", &label, queue_us);
        snap.set_counter("serve_coalesced_total", &label, all.coalesced);
        let window_us = all.window_wait.as_micros() as u64;
        snap.set_counter("serve_window_wait_us_total", &label, window_us);
        snap.set_gauge("serve_kbs", &label, all.kbs as f64);
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

/// Render one fallible answer as `ok <v>` / `err <e>`.
fn or_err<T: fmt::Display>(r: Result<T, kb::KbError>) -> String {
    match r {
        Ok(v) => format!("ok {v}"),
        Err(e) => format!("err {e}"),
    }
}

/// Execute one command against a session and render the response line
/// (`ok …` / `err …`). Floats use Rust's shortest-round-trip `Display`,
/// so parsing the answer back recovers the exact bits the engine computed
/// — the cross-check in `tests/` relies on that.
pub fn answer(s: &mut KbSession, cmd: &Command) -> String {
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
/// ran. The sessions record each call's cost in the shard's registry,
/// which is where [`ShardStats`] reads it.
pub fn answer_batch(s: &mut KbSession, cmds: &[Command]) -> String {
    let all_queries: Option<Vec<Vec<Lit>>> = cmds
        .iter()
        .map(|c| match c {
            Command::Query(lits) => Some(lits.clone()),
            _ => None,
        })
        .collect();
    let subs: Vec<String> = match all_queries {
        Some(queries) => s.query_batch(&queries).into_iter().map(or_err).collect(),
        None => cmds.iter().map(|c| answer(s, c)).collect(),
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

    /// `top <k>` is capped at [`MAX_TOP_K`], alone and inside a batch.
    #[test]
    fn top_k_is_capped_on_the_wire() {
        assert_eq!(
            parse_request("kb 0 top 64").unwrap(),
            Some(Request::Query {
                kb: 0,
                cmd: Command::Top(64)
            })
        );
        assert_eq!(
            parse_request("kb 0 top 65").unwrap_err(),
            ProtocolError::TopTooLarge(65)
        );
        assert_eq!(
            parse_request("kb 0 top 18446744073709551615").unwrap_err(),
            ProtocolError::TopTooLarge(usize::MAX)
        );
        assert_eq!(
            parse_request("kb 0 top 18446744073709551616").unwrap_err(),
            ProtocolError::BadNumber("18446744073709551616".into())
        );
        assert_eq!(
            parse_request("batch 0 top 2 ; top 65").unwrap_err(),
            ProtocolError::TopTooLarge(65)
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
