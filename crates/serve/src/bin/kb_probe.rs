//! `kb-probe` — a concurrent TCP client driver for a running `kb-server`.
//!
//! ```text
//! kb-probe ADDR [--clients N] [--rounds R] [--kb ID] [--var V] [--quit]
//! ```
//!
//! Spawns `N` threads, each opening its own TCP connection and pipelining
//! `R` single-literal `query` requests against base `ID` (variable `V`,
//! alternating polarity) before draining with `sync`. Every connection
//! checks its banner and that each request comes back `.. ok <weight>` with
//! this connection's sequence numbers — the per-connection demux check for
//! the concurrent accept loop (protocol v4). Because all clients hammer the
//! same base at once, a server started with a nonzero `--batch-window`
//! coalesces their queries into grouped lane sweeps.
//!
//! Afterwards a control connection prints its banner, the `stats` lines,
//! and the `metrics` dump to stdout — CI greps those for the protocol
//! version and a nonzero coalesced count — then optionally sends `quit`
//! (`--quit`), stopping the server.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

fn usage() -> ! {
    eprintln!("usage: kb-probe ADDR [--clients N] [--rounds R] [--kb ID] [--var V] [--quit]");
    std::process::exit(2);
}

struct Conn {
    input: BufReader<TcpStream>,
    output: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<(Conn, String), String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Each line is flushed on its own; with Nagle on, a pipelined line
        // would wait for the server's ACK of the one before.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("{addr}: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
        let mut conn = Conn {
            input: BufReader::new(reader),
            output: BufWriter::new(stream),
        };
        let banner = conn.read_line()?;
        if !banner.starts_with("hello kb-server protocol ") {
            return Err(format!("unexpected banner {banner:?}"));
        }
        Ok((conn, banner))
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.output, "{line}").map_err(|e| e.to_string())?;
        self.output.flush().map_err(|e| e.to_string())
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        if self.input.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("server closed the connection".into());
        }
        Ok(line.trim_end().to_string())
    }

    /// Read lines until one satisfies `done`; returns everything read.
    fn read_until(&mut self, done: impl Fn(&str) -> bool) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        loop {
            let line = self.read_line()?;
            let stop = done(&line);
            out.push(line);
            if stop {
                return Ok(out);
            }
        }
    }
}

/// One worker conversation: pipeline `rounds` queries, drain, and check
/// that exactly our sequence numbers came back `ok`.
fn drive(addr: &str, kb: usize, var: u64, rounds: usize) -> Result<(), String> {
    let (mut conn, _banner) = Conn::open(addr)?;
    for i in 0..rounds {
        let lit = if i.is_multiple_of(2) {
            var as i64
        } else {
            -(var as i64)
        };
        conn.send(&format!("kb {kb} query {lit}"))?;
    }
    conn.send("sync")?;
    let lines = conn.read_until(|l| l == "synced")?;
    let mut seen = vec![false; rounds];
    for line in &lines {
        if line == "synced" {
            continue;
        }
        let (seq, rest) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed response {line:?}"))?;
        let seq: usize = seq.parse().map_err(|_| format!("bad seq in {line:?}"))?;
        if seq >= rounds || seen[seq] {
            return Err(format!("unexpected seq {seq} (rounds {rounds})"));
        }
        seen[seq] = true;
        if !rest.starts_with("ok ") {
            return Err(format!("request {seq} failed: {rest}"));
        }
    }
    if seen.iter().any(|s| !s) {
        return Err(format!(
            "missing responses: got {} of {rounds}",
            seen.iter().filter(|s| **s).count()
        ));
    }
    // Dropping the connection ends this conversation; only the control
    // connection may send `quit` (it stops the whole server).
    Ok(())
}

fn main() {
    let mut addr: Option<String> = None;
    let mut clients = 2usize;
    let mut rounds = 64usize;
    let mut kb = 0usize;
    let mut var = 1u64;
    let mut quit = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clients" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => clients = v,
                _ => usage(),
            },
            "--rounds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => rounds = v,
                _ => usage(),
            },
            "--kb" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => kb = v,
                None => usage(),
            },
            "--var" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => var = v,
                _ => usage(),
            },
            "--quit" => quit = true,
            "--help" | "-h" => usage(),
            _ if addr.is_none() => addr = Some(a),
            _ => usage(),
        }
    }
    let addr = addr.unwrap_or_else(|| usage());

    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || drive(&addr, kb, var, rounds).map_err(|e| (c, e)))
        })
        .collect();
    let mut failed = false;
    for w in workers {
        if let Err((c, e)) = w.join().expect("worker panicked") {
            eprintln!("kb-probe: client {c}: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }

    // Control connection: surface the banner, stats, and metrics for CI.
    match Conn::open(&addr) {
        Ok((mut conn, banner)) => {
            println!("{banner}");
            let run = (|| -> Result<(), String> {
                conn.send("stats")?;
                for line in conn.read_until(|l| l.starts_with("all "))? {
                    println!("{line}");
                }
                conn.send("metrics")?;
                conn.send("sync")?;
                for line in conn.read_until(|l| l == "synced")? {
                    if line != "synced" {
                        println!("{line}");
                    }
                }
                if quit {
                    conn.send("quit")?;
                }
                Ok(())
            })();
            if let Err(e) = run {
                eprintln!("kb-probe: control: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("kb-probe: control: {e}");
            std::process::exit(1);
        }
    }
    eprintln!("kb-probe: {clients} clients x {rounds} rounds ok");
}
