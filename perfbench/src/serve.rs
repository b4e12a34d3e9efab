//! The `serve_mixed` and `serve_lanes` workloads: seeded request streams
//! against the real `kb-server` over loopback TCP.
//!
//! Both serve snapshots of `chain:2000` and `band:2000:3` with
//! `--shards 2 --replicas 2`. Connection `c` owns kb ids `2c` (chain) and
//! `2c + 1` (band), so each connection's session state is its own and the
//! oracle can follow it. Every unit ends with `sync`: the server writes an
//! answer only after it reads the next line, so without `sync` a latency
//! would measure the send schedule.

use crate::oracle::BandState;
use crate::rng::Rng;
use crate::stats;
use crate::stream::{
    apply, render_op, Generator, Lits, Op, Unit, UnitKind, Workload, BASES, CONNS, N,
};
use crate::trace::Tracer;
use crate::wire::{peak_rss_mb, Conn, Server, Until, WireError};
use crate::Report;
use kb::{FrozenKb, KnowledgeBase};
use sentential_core::Compiler;
use serve::{parse_request, ClientHandle, KbServer, Request};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use vtree::VarId;

/// Shards and replicas the server runs with.
const SHARDS: usize = 2;
const REPLICAS: usize = 2;
/// A unit with no complete reply by then counts as failed.
const UNIT_TIMEOUT: Duration = Duration::from_secs(5);
/// Server launches per run; `setup_s` is their median.
const LAUNCHES: usize = 10;
/// Compilations of the two bases per run; `compile_s` is their median.
const COMPILES: usize = 30;

/// One served base: its compiled form, snapshot and vtree variable order.
pub struct Base {
    pub frozen: Arc<FrozenKb>,
    pub snapshot: Vec<u8>,
    pub path: PathBuf,
    /// `order[j]` is the variable index reported at position `j` of a
    /// `marginals` answer or an `mpe` bit string.
    pub order: Vec<usize>,
}

/// Compile both bases `reps` times as `kb-server` would. Returns the last
/// compilation and the wall time of each repetition.
fn compile_bases(reps: usize) -> Result<(Vec<Arc<FrozenKb>>, Vec<f64>), String> {
    let compiler = Compiler::builder().exact_counts(false).build();
    let mut times = Vec::new();
    let mut frozen = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        frozen = BASES
            .iter()
            .map(|&(_, w)| {
                let f = cnf::families::band_cnf(N as u32, w as u32);
                KnowledgeBase::compile_cnf(&compiler, &f)
                    .map(|kb| Arc::new(kb.freeze()))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((frozen, times))
}

/// Compile both bases (half of `COMPILES`; a serving run compiles the
/// other half after its measured phases) and save their snapshots under
/// `work`. Returns the bases and the compile times.
pub fn prepare(work: &Path) -> Result<(Vec<Base>, Vec<f64>), String> {
    let (frozen, times) = compile_bases(COMPILES / 2)?;
    let mut bases = Vec::new();
    for (kb, &(name, w)) in frozen.into_iter().zip(&BASES) {
        let mut snapshot = Vec::new();
        kb.save(&mut snapshot).map_err(|e| e.to_string())?;
        let path = work.join(format!("{name}_{N}_{w}.snap"));
        std::fs::write(&path, &snapshot).map_err(|e| format!("{}: {e}", path.display()))?;
        let order = kb.vars().iter().map(|v| v.index()).collect();
        bases.push(Base {
            frozen: kb,
            snapshot,
            path,
            order,
        });
    }
    Ok((bases, times))
}

fn server_args(workload: Workload, bases: &[Base]) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "--shards".into(),
        SHARDS.to_string(),
        "--replicas".into(),
        REPLICAS.to_string(),
        "--batch-window".into(),
        workload.window_us().to_string(),
    ];
    for b in bases {
        args.push("--snapshot".into());
        args.push(b.path.display().to_string());
    }
    args
}

/// One sent unit and what came back.
pub struct Record {
    pub unit: Unit,
    pub reply: Result<Vec<String>, WireError>,
    /// Send to last reply line.
    pub service: Duration,
    /// Due time to last reply line (open loop only).
    pub latency: Option<Duration>,
    /// Send time minus the later of the due time and the previous unit's
    /// completion: how late the generator itself ran (open loop only).
    pub late: Option<Duration>,
}

impl Record {
    /// Transport failure, or an `err` line where the oracle expects success.
    pub fn failed(&self) -> bool {
        match &self.reply {
            Err(_) => true,
            Ok(lines) => lines.iter().any(|l| !is_ok(l)),
        }
    }
}

fn is_ok(line: &str) -> bool {
    matches!(line.split_once(' '), Some((_, rest)) if rest == "ok" || rest.starts_with("ok "))
}

/// Send one unit with its `sync` and wait for the reply.
fn send_unit(
    conn: &mut Option<Conn>,
    addr: &str,
    unit: &Unit,
    c: usize,
) -> Result<Vec<String>, WireError> {
    if conn.is_none() {
        *conn = Some(Conn::open(addr, UNIT_TIMEOUT)?.0);
    }
    let mut payload = String::new();
    for l in unit.lines(c) {
        payload.push_str(&l);
        payload.push('\n');
    }
    payload.push_str("sync\n");
    let r = conn
        .as_mut()
        .expect("just opened")
        .exchange(&payload, Until::Synced, UNIT_TIMEOUT);
    if r.is_err() {
        // The connection's state is unknown; the next unit reconnects.
        *conn = None;
    }
    r
}

/// One connection's records: the closed-loop phase with its measured
/// length, then the open-loop phase.
struct Phases {
    closed: Vec<Record>,
    closed_for: Duration,
    open: Vec<Record>,
}

/// Drive both connections: a closed loop for `closed`, then an open loop
/// at `rate` units/s for `open`.
fn drive(
    addr: &str,
    gens: &mut [Generator],
    closed: Duration,
    open: Duration,
    rate: f64,
) -> Vec<Phases> {
    let barrier = Barrier::new(gens.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(c, gen)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut conn = None;
                    let mut closed_recs = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    while start.elapsed() < closed {
                        let unit = gen.next_unit();
                        let sent = Instant::now();
                        let reply = send_unit(&mut conn, addr, &unit, c);
                        closed_recs.push(Record {
                            unit,
                            reply,
                            service: sent.elapsed(),
                            latency: None,
                            late: None,
                        });
                    }
                    let closed_for = start.elapsed();
                    barrier.wait();
                    let mut open_recs = Vec::new();
                    let interval = Duration::from_secs_f64(CONNS as f64 / rate);
                    let start = Instant::now() + interval.mul_f64(c as f64 / CONNS as f64);
                    let mut prev_done = start;
                    for k in 0u32.. {
                        let due = start + interval * k;
                        if due >= start + open {
                            break;
                        }
                        let unit = gen.next_unit();
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let late = sent.saturating_duration_since(due.max(prev_done));
                        let reply = send_unit(&mut conn, addr, &unit, c);
                        let done = Instant::now();
                        prev_done = done;
                        open_recs.push(Record {
                            unit,
                            reply,
                            service: done - sent,
                            latency: Some(done - due),
                            late: Some(late),
                        });
                    }
                    Phases {
                        closed: closed_recs,
                        closed_for,
                        open: open_recs,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// Counters scraped from the server after a run.
#[derive(Debug, Default)]
struct Scrape {
    requests: f64,
    coalesced: f64,
    window_wait_us: f64,
    batch_depth_p50: f64,
}

fn scrape(addr: &str) -> Result<Scrape, String> {
    let (mut conn, _) = Conn::open(addr, UNIT_TIMEOUT).map_err(|e| format!("scrape: {e:?}"))?;
    let text = conn
        .exchange("metrics\nsync\n", Until::Synced, UNIT_TIMEOUT)
        .map_err(|e| format!("scrape: {e:?}"))?;
    let all = |family: &str| {
        let key = format!("{family}{{shard=\"all\"}} ");
        text.iter()
            .find_map(|l| l.strip_prefix(&key))
            .and_then(|v| v.trim().parse::<f64>().ok())
    };
    // `serve_batch_depth` buckets, summed over shards: (upper bound, count).
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for l in &text {
        if !l.starts_with("serve_batch_depth_bucket") {
            continue;
        }
        let Some(le) = l.split("le=\"").nth(1).and_then(|r| r.split('"').next()) else {
            continue;
        };
        let (Ok(le), Some(Ok(count))) = (
            le.parse::<f64>(),
            l.rsplit(' ').next().map(str::parse::<f64>),
        ) else {
            continue;
        };
        match buckets.iter_mut().find(|b| b.0 == le) {
            Some(b) => b.1 += count,
            None => buckets.push((le, count)),
        }
    }
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite bounds"));
    let total = buckets.last().map_or(0.0, |b| b.1);
    let batch_depth_p50 = buckets
        .iter()
        .find(|b| b.1 >= total / 2.0 && total > 0.0)
        .map_or(0.0, |b| b.0);
    Ok(Scrape {
        requests: all("serve_requests_total").ok_or("scrape: no serve_requests_total")?,
        coalesced: all("serve_coalesced_total").unwrap_or(0.0),
        window_wait_us: all("serve_window_wait_us_total").unwrap_or(0.0),
        batch_depth_p50,
    })
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-7 * want.abs() + 1e-12
}

fn close_log(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-8 * want.abs().max(1.0)
}

fn parse_f64(s: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

/// Check one answer payload (after `ok`) against the oracle.
fn check_op(
    st: &BandState,
    denom: &mut Option<f64>,
    base: &Base,
    op: &Op,
    payload: &str,
) -> Result<(), String> {
    let want_f = |got: f64, want: f64| {
        if close(got, want) {
            Ok(())
        } else {
            Err(format!("{op:?}: got {got}, oracle {want}"))
        }
    };
    match op {
        Op::Query(lits) => {
            let d = *denom.get_or_insert_with(|| st.log_weight());
            want_f(
                parse_f64(payload)?,
                st.query_given(d, lits).ok_or("inconsistent")?,
            )
        }
        Op::Pe => want_f(parse_f64(payload)?, st.prob_evidence()),
        Op::Marginal(v) => want_f(
            parse_f64(payload)?,
            st.marginals().ok_or("inconsistent")?[*v],
        ),
        Op::LogW => {
            let (got, want) = (parse_f64(payload)?, st.log_weight());
            close_log(got, want)
                .then_some(())
                .ok_or(format!("logw: got {got}, oracle {want}"))
        }
        Op::Marginals => {
            let want = st.marginals().ok_or("inconsistent")?;
            let got: Vec<&str> = payload.split(' ').collect();
            if got.len() != want.len() {
                return Err(format!(
                    "marginals: {} values, want {}",
                    got.len(),
                    want.len()
                ));
            }
            for (j, g) in got.iter().enumerate() {
                want_f(parse_f64(g)?, want[base.order[j]])?;
            }
            Ok(())
        }
        Op::Mpe => {
            let (lw, bits) = payload.split_once(' ').ok_or("mpe: no witness")?;
            let lw = parse_f64(lw)?;
            let best = st.mpe_log_weight();
            if !close_log(lw, best) {
                return Err(format!("mpe: weight {lw}, Viterbi {best}"));
            }
            let mut by_var = vec![false; base.order.len()];
            if bits.len() != by_var.len() {
                return Err("mpe: witness length".into());
            }
            for (j, c) in bits.bytes().enumerate() {
                by_var[base.order[j]] = c == b'1';
            }
            match st.witness_log_weight(&by_var) {
                Some(w) if close_log(w, lw) => Ok(()),
                Some(w) => Err(format!("mpe: witness weighs {w}, reported {lw}")),
                None => Err("mpe: witness violates the formula or the evidence".into()),
            }
        }
        Op::Entails(clause) => {
            let want = if st.entails(clause) { "true" } else { "false" };
            (payload == want)
                .then_some(())
                .ok_or(format!("entails: got {payload}, oracle {want}"))
        }
        Op::Consistent => {
            let want = if st.consistent() { "true" } else { "false" };
            (payload == want)
                .then_some(())
                .ok_or(format!("consistent: got {payload}, oracle {want}"))
        }
        Op::Condition(_) | Op::Retract | Op::Setp(..) => payload
            .is_empty()
            .then_some(())
            .ok_or(format!("{op:?}: got {payload:?}")),
    }
}

/// The part of a reply line after `ok` (and the sequence number, when
/// `seq` says one leads).
fn ok_payload(line: &str, seq: bool) -> Result<&str, String> {
    let rest = if seq {
        line.split_once(' ').map(|x| x.1).ok_or("empty reply")?
    } else {
        line
    };
    if rest == "ok" {
        return Ok("");
    }
    rest.strip_prefix("ok ").ok_or(format!("not ok: {line:?}"))
}

/// Check one connection's units in order, following its session state.
/// Stops at the first failed unit (the state after it is unknown). Returns
/// the number of wrong answers.
fn check_stream<'a>(
    bases: &[Base],
    units: impl Iterator<Item = (&'a Unit, Option<&'a Vec<String>>)>,
    seq: bool,
) -> usize {
    let mut states: Vec<BandState> = BASES.iter().map(|&(_, w)| BandState::new(N, w)).collect();
    // `ln W(F ∧ e)` per base, until the next state change.
    let mut denoms: Vec<Option<f64>> = vec![None; BASES.len()];
    let mut wrong = 0;
    for (unit, reply) in units {
        let Some(lines) = reply else { break };
        let (st, base) = (&mut states[unit.base], &bases[unit.base]);
        let denom = &mut denoms[unit.base];
        let verdict = (|| -> Result<(), String> {
            match &unit.kind {
                UnitKind::Line(op) => {
                    if lines.len() != 1 {
                        return Err(format!("{} reply lines for one request", lines.len()));
                    }
                    check_op(st, denom, base, op, ok_payload(&lines[0], seq)?)
                }
                UnitKind::Batch(qs) => {
                    if lines.len() != 1 {
                        return Err(format!("{} reply lines for one batch", lines.len()));
                    }
                    let body = ok_payload(&lines[0], seq)?;
                    let mut parts = body.split(" ; ");
                    if parts.next() != Some(format!("batch {}", qs.len()).as_str()) {
                        return Err(format!("bad batch header in {body:?}"));
                    }
                    let subs: Vec<&str> = parts.collect();
                    if subs.len() != qs.len() {
                        return Err(format!("{} answers for {} queries", subs.len(), qs.len()));
                    }
                    for (q, sub) in qs.iter().zip(subs) {
                        check_op(
                            st,
                            denom,
                            base,
                            &Op::Query(q.clone()),
                            ok_payload(sub, false)?,
                        )?;
                    }
                    Ok(())
                }
                UnitKind::Pipelined(qs) => {
                    if lines.len() != qs.len() {
                        return Err(format!(
                            "{} reply lines for {} queries",
                            lines.len(),
                            qs.len()
                        ));
                    }
                    // Pair answers with queries by sequence number, not by
                    // the order the server happened to write them in.
                    let mut ordered: Vec<&String> = lines.iter().collect();
                    ordered
                        .sort_by_key(|l| l.split(' ').next().and_then(|t| t.parse::<u64>().ok()));
                    for (q, l) in qs.iter().zip(ordered) {
                        check_op(st, denom, base, &Op::Query(q.clone()), ok_payload(l, seq)?)?;
                    }
                    Ok(())
                }
            }
        })();
        if let Err(e) = verdict {
            wrong += 1;
            if wrong <= 5 {
                eprintln!("perfbench: wrong answer: {e}");
            }
        }
        if let UnitKind::Line(op) = &unit.kind {
            apply(st, op);
            if matches!(op, Op::Condition(_) | Op::Retract | Op::Setp(..)) {
                *denom = None;
            }
        }
    }
    wrong
}

fn ok_reply(r: &Record) -> Option<&Vec<String>> {
    if r.failed() {
        None
    } else {
        r.reply.as_ref().ok()
    }
}

/// Short label of a unit's kind, for the per-kind latency summary.
fn kind_label(unit: &Unit) -> String {
    match &unit.kind {
        UnitKind::Line(op) => render_op(op).split(' ').next().unwrap_or("").to_string(),
        UnitKind::Batch(q) => format!("batch.b{}", q.len()),
        UnitKind::Pipelined(q) => format!("pipelined.b{}", q.len()),
    }
}

/// Print open-loop latency per unit kind to stderr: count, median, max.
fn log_kinds<'a>(recs: impl Iterator<Item = &'a Record>) {
    let mut by_kind: Vec<(String, Vec<f64>)> = Vec::new();
    for r in recs {
        let label = kind_label(&r.unit);
        let ms = r.latency.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        match by_kind.iter_mut().find(|(k, _)| *k == label) {
            Some((_, v)) => v.push(ms),
            None => by_kind.push((label, vec![ms])),
        }
    }
    by_kind.sort_by(|a, b| a.0.cmp(&b.0));
    for (kind, v) in &by_kind {
        let max = v.iter().copied().fold(0.0, f64::max);
        eprintln!(
            "perfbench:   {kind:<14} n {:>5}  p50 {:>9.3} ms  max {max:>9.3} ms",
            v.len(),
            stats::median(v)
        );
    }
}

/// Move the calling thread to the `SCHED_IDLE` policy; false if refused.
#[cfg(target_os = "linux")]
fn idle_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: the call reads one `struct sched_param` (a single `int`)
    // through a pointer to a live value of that layout; pid 0 names the
    // calling thread, and the call has no other memory effects.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn idle_priority() -> bool {
    false
}

/// Idle-priority spinner threads, one per core, for the duration of `f`.
///
/// A halted virtual CPU takes the hypervisor's wake-up path, whose latency
/// swings with the host's load; every request crosses four thread wake-ups
/// (client, connection, shard, connection), so at a low offered rate that
/// swing dominated the latencies. Spinners under `SCHED_IDLE` keep the
/// CPUs out of the halted state yet run only when no other thread wants
/// the CPU. Where the policy cannot be set, no spinner runs.
fn with_cpus_awake<R>(f: impl FnOnce() -> R) -> R {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..crate::nproc() {
            s.spawn(|| {
                if idle_priority() {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                }
            });
        }
        let r = f();
        stop.store(true, Ordering::Relaxed);
        r
    })
}

/// The untraced serve run.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    bin: &Path,
    work: &Path,
) -> Result<Report, String> {
    with_cpus_awake(|| {
        let (bases, compile_times) = prepare(work)?;
        measure(workload, seed, seconds, bin, &bases, compile_times)
    })
}

fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    bin: &Path,
    bases: &[Base],
    mut compile_times: Vec<f64>,
) -> Result<Report, String> {
    // Half the launches (the last one serves the run) and half the base
    // compilations come before the measured phases and half after, so the
    // set-up medians span the whole run rather than its first seconds.
    let args = server_args(workload, bases);
    let mut setups = Vec::new();
    for _ in 1..LAUNCHES / 2 {
        let s = Server::launch(bin, &args)?;
        setups.push(s.setup.as_secs_f64());
        s.stop();
    }
    let server = Server::launch(bin, &args)?;
    setups.push(server.setup.as_secs_f64());
    eprintln!("perfbench: banner {}", server.banner);
    let mut gens: Vec<Generator> = (0..CONNS)
        .map(|c| Generator::new(workload, seed, c))
        .collect();
    let closed = Duration::from_secs_f64(seconds * 0.3);
    let open = Duration::from_secs_f64(seconds * 0.7);
    let recs = drive(&server.addr, &mut gens, closed, open, workload.rate());
    let scraped = scrape(&server.addr);
    let rss = peak_rss_mb(&server.pid().to_string()).unwrap_or(0.0);
    server.stop();
    for _ in LAUNCHES / 2..LAUNCHES {
        let s = Server::launch(bin, &args)?;
        setups.push(s.setup.as_secs_f64());
        s.stop();
    }
    compile_times.extend(compile_bases(COMPILES - COMPILES / 2)?.1);

    let all: Vec<&Record> = recs
        .iter()
        .flat_map(|p| p.closed.iter().chain(&p.open))
        .collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|r| r.failed()).count() as u64;
    let lines_sent: usize = all.iter().map(|r| r.unit.lines(0).len()).sum();
    let mut correct = true;
    match &scraped {
        Ok(s) if failed == 0 && s.requests != lines_sent as f64 => {
            eprintln!(
                "perfbench: server counted {} requests, the generator sent {lines_sent}",
                s.requests
            );
            correct = false;
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            correct = false;
        }
    }
    for p in &recs {
        let units = p
            .closed
            .iter()
            .chain(&p.open)
            .map(|r| (&r.unit, ok_reply(r)));
        if check_stream(bases, units, true) > 0 {
            correct = false;
        }
    }

    let closed_answers: usize = recs
        .iter()
        .flat_map(|p| &p.closed)
        .map(|r| r.unit.answers())
        .sum();
    let closed_for = recs.iter().map(|p| p.closed_for).max().unwrap_or(closed);
    let lat_ms: Vec<f64> = recs
        .iter()
        .flat_map(|p| &p.open)
        .map(|r| r.latency.expect("open loop").as_secs_f64() * 1e3)
        .collect();
    let (tail_pct, tail_ms) = stats::tail(&lat_ms);
    eprintln!(
        "perfbench: {attempted} units ({} open-loop at {} /s), {failed} failed, latency tail is p{tail_pct:.1}",
        lat_ms.len(),
        workload.rate()
    );
    log_kinds(recs.iter().flat_map(|p| &p.open));
    let open_recs: Vec<&Record> = recs.iter().flat_map(|p| &p.open).collect();
    let late: Vec<f64> = open_recs
        .iter()
        .filter_map(|r| r.late)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let service: Vec<f64> = open_recs
        .iter()
        .map(|r| r.service.as_secs_f64() * 1e3)
        .collect();
    eprintln!(
        "perfbench: open loop service p50 {:.3} ms, generator lateness p50 {:.3} ms tail {:.3} ms",
        stats::median(&service),
        stats::median(&late),
        stats::tail(&late).1
    );
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics: vec![
            ("setup_s".into(), stats::median(&setups)),
            ("compile_s".into(), stats::median(&compile_times)),
            (
                "sdd_size".into(),
                bases.iter().map(|b| b.frozen.sdd_size()).sum::<usize>() as f64,
            ),
            ("peak_rss_mb".into(), rss),
            ("lat_p50_ms".into(), stats::median(&lat_ms)),
            ("lat_p99_ms".into(), tail_ms),
            (
                "answers_per_s".into(),
                closed_answers as f64 / closed_for.as_secs_f64(),
            ),
        ],
    })
}

/// What an in-process replay produced.
struct Replay {
    wall: Duration,
    /// Per stream, per unit: the reply lines in sequence order.
    replies: Vec<Vec<Vec<String>>>,
    /// The pool's counters, merged over shards.
    shard: serve::ShardStats,
}

/// Replay units through an in-process shard pool, one connection's
/// [`ClientHandle`] per stream, interleaving the streams unit by unit.
fn replay_in_process(
    tr: &mut Tracer,
    workload: Workload,
    kbs: &[Arc<FrozenKb>],
    streams: &[Vec<Unit>],
) -> Result<Replay, String> {
    let mut all = Vec::new();
    for _ in 0..REPLICAS {
        all.extend(kbs.iter().cloned());
    }
    let server =
        KbServer::with_batch_window(all, SHARDS, Duration::from_micros(workload.window_us()));
    let mut clients: Vec<ClientHandle> = streams.iter().map(|_| server.client()).collect();
    let lines: Vec<Vec<Vec<String>>> = streams
        .iter()
        .enumerate()
        .map(|(c, units)| units.iter().map(|u| u.lines(c)).collect())
        .collect();
    let mut replies: Vec<Vec<Vec<String>>> = streams.iter().map(|_| Vec::new()).collect();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let start = Instant::now();
    for k in 0..longest {
        for (c, client) in clients.iter_mut().enumerate() {
            let Some(unit_lines) = lines[c].get(k) else {
                continue;
            };
            tr.set_unit((k * CONNS + c) as u64);
            let got = tr.span("unit", |tr| -> Result<Vec<String>, String> {
                for line in unit_lines {
                    let req = tr.span("serve.parse", |_| parse_request(line));
                    let sent = tr.span("serve.submit", |_| match req {
                        Ok(Some(Request::Query { kb, cmd })) => client.submit(kb, cmd),
                        Ok(Some(Request::Batch { kb, cmds })) => client.submit_batch(kb, cmds),
                        other => Err(format!("unexpected request {other:?}")),
                    });
                    sent?;
                }
                tr.span("serve.recv", |_| {
                    let mut got = Vec::new();
                    while let Some(r) = client.recv() {
                        got.push(r);
                    }
                    got.sort_by_key(|r| r.0);
                    Ok(got.into_iter().map(|r| r.1).collect())
                })
            })?;
            replies[c].push(got);
        }
    }
    let wall = start.elapsed();
    let stats = serve::ShardStats::merged(&clients[0].stats());
    drop(clients);
    server.shutdown();
    Ok(Replay {
        wall,
        replies,
        shard: stats,
    })
}

/// Median wall time (µs) of `f` over `reps` calls.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// Direct-session layer timings for `serve_mixed`: the stream's commands
/// against private sessions, one span per query kind, plus the incremental
/// evaluation cache against a full re-evaluation.
fn session_layers(bases: &[Base], streams: &[Vec<Unit>], seed: u64) -> Vec<(String, f64)> {
    let mut tr = Tracer::new(true);
    let mut eval = (0u64, 0u64);
    let mut marginal_hits = (0usize, 0usize);
    let mut miss_us = Vec::new();
    for (c, units) in streams.iter().enumerate() {
        let mut sessions: Vec<kb::KbSession> = bases.iter().map(|b| b.frozen.session()).collect();
        for (k, unit) in units.iter().enumerate() {
            let UnitKind::Line(op) = &unit.kind else {
                continue;
            };
            let s = &mut sessions[unit.base];
            tr.set_unit((k * CONNS + c) as u64);
            let lits = |l: &Lits| -> Vec<(VarId, bool)> {
                l.iter().map(|&(v, b)| (VarId(v as u32), b)).collect()
            };
            let _ = match op {
                Op::Query(l) => tr.span("kb.query", |_| s.query(&lits(l)).map(|_| ())),
                Op::LogW => tr.span("kb.logw", |_| {
                    std::hint::black_box(s.log_weight());
                    Ok(())
                }),
                Op::Pe => tr.span("kb.pe", |_| s.probability_of_evidence().map(|_| ())),
                Op::Marginal(v) => {
                    let t = Instant::now();
                    let r = tr.span("kb.marginal", |_| s.marginal(VarId(*v as u32)).map(|_| ()));
                    if s.last_query().memo_hit {
                        marginal_hits.0 += 1;
                    } else {
                        miss_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    marginal_hits.1 += 1;
                    r
                }
                Op::Marginals => tr.span("kb.all_marginals", |_| s.all_marginals().map(|_| ())),
                Op::Mpe => tr.span("kb.mpe", |_| s.mpe().map(|_| ())),
                Op::Entails(l) => tr.span("kb.entails", |_| s.entails(&lits(l)).map(|_| ())),
                Op::Consistent => tr.span("kb.consistent", |_| {
                    std::hint::black_box(s.is_consistent());
                    Ok(())
                }),
                Op::Condition(l) => tr.span("kb.condition", |_| s.condition(&lits(l))),
                Op::Retract => tr.span("kb.retract", |_| {
                    s.retract();
                    Ok(())
                }),
                Op::Setp(v, p) => tr.span("kb.setp", |_| s.set_probability(VarId(*v as u32), *p)),
            };
            let q = s.last_query();
            eval.0 += q.eval.hits;
            eval.1 += q.eval.lookups;
        }
    }
    let med_us = |name: &str| stats::median(&tr.durations_ms(name)) * 1e3;
    let mut m: Vec<(String, f64)> = vec![
        ("kb.query_us".into(), med_us("kb.query")),
        ("kb.condition_us".into(), med_us("kb.condition")),
        ("kb.retract_us".into(), med_us("kb.retract")),
        ("kb.setp_us".into(), med_us("kb.setp")),
        ("kb.marginal_miss_us".into(), stats::median(&miss_us)),
        (
            "kb.marginal_hit_ratio".into(),
            marginal_hits.0 as f64 / marginal_hits.1.max(1) as f64,
        ),
        ("kb.mpe_us".into(), med_us("kb.mpe")),
        ("kb.entails_us".into(), med_us("kb.entails")),
        ("kb.all_marginals_us".into(), med_us("kb.all_marginals")),
        (
            "kb.eval_hit_ratio".into(),
            eval.0 as f64 / eval.1.max(1) as f64,
        ),
    ];
    // Incremental evaluation: one weight change then a re-read, against a
    // fresh cache's full evaluation.
    let mut rng = Rng::new(seed ^ 0xE7A1);
    for ((name, _), b) in BASES.iter().zip(bases) {
        let slab = b.frozen.sdd();
        let root = b.frozen.root();
        let decisions = slab.reachable_decisions(root).len().max(1);
        let full = time_us(10, || {
            let mut cache = sdd::eval::EvalCache::new(slab, arith::LogF64, |_, _| 0.0);
            std::hint::black_box(cache.evaluate(slab, root));
        });
        let mut cache = sdd::eval::EvalCache::new(slab, arith::LogF64, |_, _| 0.0);
        cache.evaluate(slab, root);
        let before = cache.stats();
        let reps = 50;
        let dirty = time_us(reps, || {
            let v = b.frozen.vars()[rng.below(N)];
            let p = rng.prob(0.1, 0.9);
            cache.set_weight(slab, v, (1.0 - p).ln(), p.ln());
            std::hint::black_box(cache.evaluate(slab, root));
        });
        let recomputed = cache.stats().recomputed - before.recomputed;
        m.push((format!("sdd.eval_full_us.{name}"), full));
        m.push((format!("sdd.eval_dirty_us.{name}"), dirty));
        m.push((
            format!("sdd.eval_recomputed_frac.{name}"),
            recomputed as f64 / (reps * decisions) as f64,
        ));
    }
    m
}

/// Lane-sweep layer timings for `serve_lanes`: `query_batch` per lane at
/// several widths, the column bytes one sweep writes (computed), and the
/// log-sum-exp kernel.
fn lane_layers(bases: &[Base], seed: u64) -> Vec<(String, f64)> {
    use arith::LaneSemiring;
    let mut rng = Rng::new(seed ^ 0x1A4E);
    let mut m = Vec::new();
    for ((name, _), b) in BASES.iter().zip(bases) {
        let mut s = b.frozen.session();
        for lanes in [1usize, 8, 16, 64] {
            let queries: Vec<Vec<(VarId, bool)>> = (0..lanes)
                .map(|_| {
                    (0..1 + rng.below(3))
                        .map(|_| (VarId(rng.below(N) as u32), rng.coin()))
                        .collect()
                })
                .collect();
            let reps = if lanes == 64 { 10 } else { 20 };
            let us = time_us(reps, || {
                std::hint::black_box(s.query_batch(&queries));
            });
            m.push((
                format!("kb.query_batch_us_per_lane.{name}.b{lanes}"),
                us / lanes as f64,
            ));
        }
        // One sweep writes a column of `lanes` f64 per reachable decision and
        // per vtree node, over weight columns of two per variable.
        let slab = b.frozen.sdd();
        let rows = slab.reachable_decisions(b.frozen.root()).len()
            + slab.vtree().num_nodes()
            + 2 * b.frozen.vars().len();
        for lanes in [8usize, 64] {
            m.push((
                format!("kb.lane_bytes_per_sweep.{name}.b{lanes}"),
                (rows * lanes * std::mem::size_of::<f64>()) as f64,
            ));
        }
    }
    let mut acc: Vec<f64> = (0..64).map(|i| -(i as f64) * 0.01).collect();
    let rhs: Vec<f64> = (0..64).map(|i| -(i as f64) * 0.02 - 1.0).collect();
    let iters = 20_000;
    let ns = time_us(5, || {
        for _ in 0..iters {
            arith::LogF64.add_assign_lanes(std::hint::black_box(&mut acc), &rhs);
        }
    }) * 1e3
        / (iters * acc.len()) as f64;
    m.push(("arith.lse_ns_per_elem".into(), ns));
    m
}

/// The traced serve run: snapshot save/load, a short TCP open-loop phase
/// (tail lateness, coalescing counters, wire round trip), the same stream
/// replayed in process untraced and traced, and direct calls into the
/// `kb` / `sdd` / `arith` layers.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    bin: &Path,
    work: &Path,
    spans_path: &Path,
) -> Result<Report, String> {
    with_cpus_awake(|| {
        let (bases, _) = prepare(work)?;
        measure_traced(workload, seed, seconds, bin, &bases, spans_path)
    })
}

fn measure_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    bin: &Path,
    bases: &[Base],
    spans_path: &Path,
) -> Result<Report, String> {
    let mut m: Vec<(String, f64)> = Vec::new();
    let save_ms = time_us(3, || {
        for b in bases {
            let mut out = Vec::with_capacity(b.snapshot.len());
            b.frozen.save(&mut out).expect("in-memory save");
            std::hint::black_box(out);
        }
    }) / 1e3;
    let mut loaded = Vec::new();
    let load_ms = time_us(3, || {
        loaded = bases
            .iter()
            .map(|b| Arc::new(FrozenKb::load(&b.snapshot[..]).expect("snapshot loads")))
            .collect();
    }) / 1e3;
    m.push(("snap.save_ms".into(), save_ms));
    m.push(("snap.load_ms".into(), load_ms));

    // TCP phase.
    let server = Server::launch(bin, &server_args(workload, bases))?;
    let mut gens: Vec<Generator> = (0..CONNS)
        .map(|c| Generator::new(workload, seed, c))
        .collect();
    let tcp = Duration::from_secs_f64((seconds * 0.3).max(2.0));
    let recs = drive(
        &server.addr,
        &mut gens,
        Duration::ZERO,
        tcp,
        workload.rate(),
    );
    let scraped = scrape(&server.addr)?;
    server.stop();
    let opened: Vec<&Record> = recs.iter().flat_map(|p| &p.open).collect();
    let failed = opened.iter().filter(|r| r.failed()).count() as u64;
    let tcp_us = stats::median(
        &opened
            .iter()
            .map(|r| r.service.as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    );
    let late_ms: Vec<f64> = opened
        .iter()
        .map(|r| r.late.expect("open loop").as_secs_f64() * 1e3)
        .collect();
    m.push(("loadgen.late_p99_ms".into(), stats::tail(&late_ms).1));
    m.push((
        "serve.coalesced_frac".into(),
        scraped.coalesced / scraped.requests.max(1.0),
    ));
    m.push(("serve.batch_depth_p50".into(), scraped.batch_depth_p50));
    m.push((
        "serve.window_wait_us".into(),
        scraped.window_wait_us / scraped.requests.max(1.0),
    ));

    // The same stream prefix, in process.
    let streams: Vec<Vec<Unit>> = recs
        .iter()
        .enumerate()
        .map(|(c, p)| {
            let mut g = Generator::new(workload, seed, c);
            (0..p.open.len()).map(|_| g.next_unit()).collect()
        })
        .collect();
    let untraced = replay_in_process(&mut Tracer::new(false), workload, &loaded, &streams)?.wall;
    let mut tr = Tracer::new(true);
    let Replay {
        wall: traced,
        replies,
        shard,
    } = replay_in_process(&mut tr, workload, &loaded, &streams)?;
    let mut correct = true;
    for (units, got) in streams.iter().zip(&replies) {
        if check_stream(bases, units.iter().zip(got.iter().map(Some)), false) > 0 {
            correct = false;
        }
    }
    for p in &recs {
        if check_stream(bases, p.open.iter().map(|r| (&r.unit, ok_reply(r))), true) > 0 {
            correct = false;
        }
    }
    let served = shard.served.max(1) as f64;
    let roundtrip_us = stats::median(&tr.durations_ms("unit")) * 1e3;
    m.push((
        "serve.parse_us".into(),
        stats::median(&tr.durations_ms("serve.parse")) * 1e3,
    ));
    m.push(("serve.roundtrip_us".into(), roundtrip_us));
    m.push((
        "serve.queue_wait_us".into(),
        shard.queue_wait.as_secs_f64() * 1e6 / served,
    ));
    m.push((
        "serve.busy_us".into(),
        shard.busy.as_secs_f64() * 1e6 / served,
    ));
    m.push(("wire.tcp_p50_us".into(), tcp_us));
    m.push(("wire.overhead_us".into(), tcp_us - roundtrip_us));
    m.push(("trace.replay_ms".into(), traced.as_secs_f64() * 1e3));
    m.push((
        "trace.coverage".into(),
        tr.coverage(traced.as_nanos() as u64),
    ));
    m.push((
        "trace.overhead_pct".into(),
        100.0 * (traced.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64(),
    ));
    tr.write_jsonl(spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    m.extend(match workload {
        Workload::Mixed => session_layers(bases, &streams, seed),
        Workload::Lanes => lane_layers(bases, seed),
    });
    Ok(Report {
        correct,
        attempted: opened.len() as u64,
        failed,
        metrics: m,
    })
}
