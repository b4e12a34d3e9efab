//! The `kb-server` process and a line-protocol client that cannot hang.
//!
//! Every exchange carries a deadline: a reply that does not arrive in time
//! is reported as a failure and the connection is dropped, so one stalled
//! request costs the run one timeout and never the rest of the run.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a fresh server may take to accept its first connection.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `kb-server --listen` process; killed on drop if still alive.
pub struct Server {
    child: Child,
    pub addr: String,
    pub banner: String,
    /// Launch until the banner was read.
    pub setup: Duration,
}

impl Server {
    /// Start `bin` with `args` plus `--listen 127.0.0.1:<free port>` and wait
    /// until it greets a connection.
    pub fn launch(bin: &Path, args: &[String]) -> Result<Server, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let start = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .args(["--listen", &addr])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr,
            banner: String::new(),
            setup: Duration::ZERO,
        };
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("kb-server exited during start-up: {status}"));
            }
            match Conn::open(&server.addr, BOOT_TIMEOUT) {
                Ok((conn, banner)) => {
                    server.setup = start.elapsed();
                    server.banner = banner;
                    drop(conn);
                    return Ok(server);
                }
                Err(_) if start.elapsed() < BOOT_TIMEOUT => {
                    std::thread::sleep(Duration::from_micros(500))
                }
                Err(e) => return Err(format!("kb-server did not come up: {e:?}")),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to quit, wait for it, and kill it if it lingers.
    pub fn stop(mut self) {
        if let Ok((mut conn, _)) = Conn::open(&self.addr, Duration::from_secs(2)) {
            let _ = conn.send("quit\n");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What ends an exchange.
#[derive(Copy, Clone, Debug)]
pub enum Until {
    /// The `synced` line that answers a trailing `sync`.
    Synced,
    /// This many reply lines (no `sync` sent).
    Lines(usize),
}

/// Why an exchange failed.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// No complete reply before the deadline.
    Timeout,
    /// The connection broke.
    Io(String),
}

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect and read the banner, both within `timeout`.
    pub fn open(addr: &str, timeout: Duration) -> Result<(Conn, String), WireError> {
        let io = |e: std::io::Error| WireError::Io(e.to_string());
        let sock = addr
            .parse()
            .map_err(|_| WireError::Io(format!("bad address {addr}")))?;
        let stream = TcpStream::connect_timeout(&sock, timeout).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        let mut conn = Conn {
            writer: stream,
            reader,
        };
        let mut lines = conn.read_until(Until::Lines(1), Instant::now() + timeout)?;
        let banner = lines.pop().unwrap_or_default();
        if !banner.starts_with("hello kb-server protocol ") {
            return Err(WireError::Io(format!("unexpected banner {banner:?}")));
        }
        Ok((conn, banner))
    }

    pub fn send(&mut self, payload: &str) -> Result<(), WireError> {
        self.writer
            .write_all(payload.as_bytes())
            .map_err(|e| WireError::Io(e.to_string()))
    }

    /// Send `payload` (whole lines) and collect the reply lines, ending as
    /// `until` says, within `timeout`. The terminating `synced` line is not
    /// returned.
    pub fn exchange(
        &mut self,
        payload: &str,
        until: Until,
        timeout: Duration,
    ) -> Result<Vec<String>, WireError> {
        let deadline = Instant::now() + timeout;
        self.send(payload)?;
        self.read_until(until, deadline)
    }

    fn read_until(&mut self, until: Until, deadline: Instant) -> Result<Vec<String>, WireError> {
        let mut out = Vec::new();
        let mut line = String::new();
        loop {
            if let Until::Lines(n) = until {
                if out.len() == n {
                    return Ok(out);
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(WireError::Timeout);
            }
            self.reader
                .get_ref()
                .set_read_timeout(Some(left))
                .map_err(|e| WireError::Io(e.to_string()))?;
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err(WireError::Io("server closed the connection".into())),
                Ok(_) => {
                    let text = line.trim_end();
                    if matches!(until, Until::Synced) && text == "synced" {
                        return Ok(out);
                    }
                    out.push(text.to_string());
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(WireError::Timeout)
                }
                Err(e) => return Err(WireError::Io(e.to_string())),
            }
        }
    }
}

/// Peak resident memory (`VmHWM`) of a process in MiB; `pid` is a number
/// or `self`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that greets and then never answers: the exchange must end
    /// at its deadline with a timeout, whatever the server does.
    #[test]
    fn silent_server_times_out_at_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream
                .write_all(b"hello kb-server protocol 4 snap 1 obs 1\n")
                .expect("banner");
            let mut line = String::new();
            let _ = BufReader::new(stream.try_clone().expect("clone")).read_line(&mut line);
            // Hand the stream back so the connection stays open until joined.
            (line, stream)
        });
        let (mut conn, _) = Conn::open(&addr, Duration::from_secs(5)).expect("connects");
        let start = Instant::now();
        let got = conn.exchange(
            "kb 0 marginal 5\nsync\n",
            Until::Synced,
            Duration::from_millis(200),
        );
        assert_eq!(got, Err(WireError::Timeout));
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(server.join().expect("server thread").0, "kb 0 marginal 5\n");
    }

    /// A lone request with no `sync` behind it: `kb-server` withholds the
    /// answer until the next input line arrives (unless the shard answers
    /// before the connection loop blocks on its next read), so the client
    /// must come back with the answer or fail at its deadline, never hang.
    #[test]
    fn lone_request_without_sync_fails_instead_of_hanging() {
        let bin = crate::kb_server_binary().expect("kb-server builds");
        let server = Server::launch(&bin, &["--shards".into(), "1".into(), "chain:2000".into()])
            .expect("kb-server starts");
        let (mut conn, _) = Conn::open(&server.addr, Duration::from_secs(5)).expect("connects");
        let timeout = Duration::from_millis(500);
        let start = Instant::now();
        let got = conn.exchange("kb 0 marginal 5\n", Until::Lines(1), timeout);
        let waited = start.elapsed();
        assert!(
            waited < timeout + Duration::from_secs(1),
            "client stalled for {waited:?}"
        );
        match got {
            Err(WireError::Timeout) => {}
            Ok(lines) => assert!(lines[0].contains(" ok "), "{lines:?}"),
            Err(e) => panic!("unexpected failure {e:?}"),
        }
        // The same connection answers once the request is followed by `sync`.
        let (mut conn, _) = Conn::open(&server.addr, Duration::from_secs(5)).expect("connects");
        let lines = conn
            .exchange(
                "kb 0 marginal 5\nsync\n",
                Until::Synced,
                Duration::from_secs(10),
            )
            .expect("answered after sync");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("0 ok "), "{lines:?}");
        server.stop();
    }
}
