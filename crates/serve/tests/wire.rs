//! The `kb-server` binary end to end, over TCP and over stdin: answers are
//! written as soon as they are ready (no follow-up line needed), `sync` is
//! a barrier, large replies arrive whole, an over-long line costs one
//! typed `err`, not the connection, and every rejected line is answered
//! under its own seq.
//!
//! Every read has a deadline, so a withheld answer fails the test instead
//! of hanging it. The deadlines are seconds: the binary under test is a
//! debug build.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// Longest wait for one reply line.
const REPLY: Duration = Duration::from_secs(2);
/// Longest wait for the server to compile its bases and bind.
const BOOT: Duration = Duration::from_secs(120);

const BANNER: &str = "hello kb-server protocol 4 snap 1 obs 1";

/// Lines read from a stream by a helper thread, so every read can time out.
struct Lines(mpsc::Receiver<String>);

impl Lines {
    fn new(from: impl Read + Send + 'static) -> Lines {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(from).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Lines(rx)
    }

    /// The next line, or a panic naming `what` once `within` has passed.
    fn next(&self, within: Duration, what: &str) -> String {
        match self.0.recv_timeout(within) {
            Ok(line) => line,
            Err(e) => panic!("no line for {what} within {within:?}: {e}"),
        }
    }

    /// Lines up to and including the first one that starts with `last`.
    fn until(&self, last: &str, within: Duration) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            let line = self.next(within, last);
            let done = line.starts_with(last);
            out.push(line);
            if done {
                return out;
            }
        }
    }

    /// Every remaining line, up to the end of the stream.
    fn rest(&self, within: Duration) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            match self.0.recv_timeout(within) {
                Ok(line) => out.push(line),
                Err(mpsc::RecvTimeoutError::Disconnected) => return out,
                Err(e) => panic!("stream did not end within {within:?}: {e}"),
            }
        }
    }
}

/// A running `kb-server`; killed on drop.
struct Server {
    child: Child,
    /// The bound address a `--listen 127.0.0.1:0` server reported (empty
    /// in stdin mode).
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn kb_server(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kb-server"));
    cmd.args(args);
    cmd
}

/// Start `kb-server ARGS --listen 127.0.0.1:0` and learn its port from the
/// `listening on` line.
fn listen(args: &[&str]) -> Server {
    let mut child = kb_server(args)
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("kb-server starts");
    let stderr = Lines::new(child.stderr.take().expect("piped stderr"));
    let mut server = Server {
        child,
        addr: String::new(),
    };
    loop {
        let line = stderr.next(BOOT, "the listening line");
        if let Some(rest) = line.strip_prefix("kb-server: listening on ") {
            server.addr = rest.split(' ').next().expect("an address").to_string();
            assert!(!server.addr.ends_with(":0"), "unbound port in {line:?}");
            // Keep draining stderr so the server never blocks on it.
            std::thread::spawn(move || while stderr.0.recv().is_ok() {});
            return server;
        }
    }
}

/// Open a connection and check its banner.
fn connect(server: &Server) -> (TcpStream, Lines) {
    let stream = TcpStream::connect(&server.addr).expect("connects");
    let lines = Lines::new(stream.try_clone().expect("clone"));
    assert_eq!(lines.next(REPLY, "the banner"), BANNER);
    (stream, lines)
}

fn send(to: &mut impl Write, text: &str) {
    to.write_all(text.as_bytes()).expect("request written");
    to.flush().expect("request flushed");
}

/// Split an answer line into its seq and the reply after it.
fn seq_of(line: &str) -> (u64, &str) {
    let (seq, rest) = line.split_once(' ').expect("seq-tagged line");
    (seq.parse().expect("numeric seq"), rest)
}

#[test]
fn lone_request_is_answered_without_a_following_line() {
    let server = listen(&["--shards", "1", "chain:2000"]);
    let (mut conn, lines) = connect(&server);
    send(&mut conn, "kb 0 marginal 5\n");
    // The connection stays open and silent: nothing but the answer itself
    // may release it.
    let line = lines.next(REPLY, "a lone marginal");
    let (seq, rest) = seq_of(&line);
    assert_eq!(seq, 0);
    let p: f64 = rest
        .strip_prefix("ok ")
        .expect("ok")
        .parse()
        .expect("float");
    assert!((0.0..=1.0).contains(&p), "{line}");
}

#[test]
fn sync_is_a_barrier_and_stats_count_everything_before_it() {
    // Two replicas on two shards, so answers really can overtake each other.
    let server = listen(&["--shards", "2", "--replicas", "2", "chain:20"]);
    let (mut conn, lines) = connect(&server);
    let burst = |first: u64| {
        (0..20)
            .map(|i| {
                format!(
                    "kb {} {}\n",
                    (first + i) % 2,
                    ["count", "marginal 3"][i as usize % 2]
                )
            })
            .collect::<String>()
    };
    // Twenty requests, the barrier, twenty more, then `stats` behind all
    // forty: all in one write.
    send(
        &mut conn,
        &format!("{}sync\n{}stats\n", burst(0), burst(20)),
    );
    let before = lines.until("synced", REPLY);
    let mut seqs: Vec<u64> = before[..before.len() - 1]
        .iter()
        .map(|l| {
            let (seq, rest) = seq_of(l);
            assert!(rest.starts_with("ok "), "{l}");
            seq
        })
        .collect();
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        (0..20).collect::<Vec<_>>(),
        "exactly the earlier answers precede synced"
    );
    let after = lines.until("all ", REPLY);
    let answers = after
        .iter()
        .filter(|l| !l.starts_with("shard ") && !l.starts_with("all "));
    let mut seqs: Vec<u64> = answers.map(|l| seq_of(l).0).collect();
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        (20..40).collect::<Vec<_>>(),
        "stats follows every earlier answer"
    );
    let all = after.last().expect("the merged line");
    assert!(all.contains(" served 40 "), "{all}");
}

#[test]
fn large_marginals_reply_arrives_whole() {
    let server = listen(&["--shards", "1", "chain:2000"]);
    let (mut conn, lines) = connect(&server);
    send(&mut conn, "kb 0 marginals\n");
    let line = lines.next(REPLY, "the marginals sweep");
    assert!(line.len() > 30_000, "reply is {} bytes", line.len());
    let (seq, rest) = seq_of(&line);
    assert_eq!(seq, 0);
    let probs: Vec<f64> = rest
        .strip_prefix("ok ")
        .expect("ok")
        .split(' ')
        .map(|p| p.parse().expect("float"))
        .collect();
    assert_eq!(probs.len(), 2000);
    assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
}

#[test]
fn over_long_line_gets_a_typed_err_and_the_connection_serves_on() {
    let server = listen(&["chain:20"]);
    let (mut conn, lines) = connect(&server);
    let padded = |len: usize| format!("kb 0 count{}\n", " ".repeat(len - 10));
    // Exactly at the cap is a request; one byte more is refused.
    send(&mut conn, &padded(serve::MAX_LINE_BYTES));
    assert_eq!(lines.next(REPLY, "a line at the cap"), "0 ok 17711");
    send(&mut conn, &padded(serve::MAX_LINE_BYTES + 1));
    let err = lines.next(REPLY, "the over-long line");
    assert!(err.starts_with("1 err line too long"), "{err}");
    send(&mut conn, "kb 0 count\n");
    assert_eq!(lines.next(REPLY, "the request after it"), "2 ok 17711");
}

#[test]
fn rejected_lines_are_answered_under_their_own_seq_in_order() {
    let server = listen(&["chain:20"]);
    let (mut conn, lines) = connect(&server);
    // Pipelined, no `sync`: a line the parser rejects and a line naming an
    // unloaded base each take the next seq, and their `err` follows every
    // earlier answer.
    send(
        &mut conn,
        "kb 0 count\nkb 0 top 65\nkb 9 count\nkb 0 count\n",
    );
    let got: Vec<String> = (0..4).map(|_| lines.next(REPLY, "an answer")).collect();
    assert_eq!(
        got,
        [
            "0 ok 17711",
            "1 err top 65 exceeds the limit of 64",
            "2 err kb 9 not loaded (1 available)",
            "3 ok 17711",
        ]
    );
}

#[test]
fn stdin_mode_answers_at_once_and_writes_everything_on_quit() {
    let mut server = Server {
        child: kb_server(&["--shards", "2", "chain:20"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("kb-server starts"),
        addr: String::new(),
    };
    let mut stdin = server.child.stdin.take().expect("piped stdin");
    let stdout = Lines::new(server.child.stdout.take().expect("piped stdout"));
    assert_eq!(stdout.next(BOOT, "the banner"), BANNER);
    // stdin stays open: the answer must not wait for more input.
    send(&mut stdin, "kb 0 count\n");
    assert_eq!(stdout.next(REPLY, "a lone count"), "0 ok 17711");
    // A burst ended by `quit`, no `sync`: every answer is still written.
    let burst: String = (0..32)
        .map(|i| format!("kb 0 marginal {}\n", i % 20 + 1))
        .collect();
    send(&mut stdin, &format!("{burst}quit\n"));
    let mut seqs: Vec<u64> = stdout
        .rest(BOOT)
        .iter()
        .map(|l| {
            let (seq, rest) = seq_of(l);
            assert!(rest.starts_with("ok "), "{l}");
            seq
        })
        .collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..33).collect::<Vec<_>>());
    assert!(server.child.wait().expect("exits").success());
}
