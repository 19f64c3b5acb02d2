//! The one way to drive a spawned `pathinv-cli serve` daemon from outside.
//!
//! The `serve-smoke` and `chaos-smoke` harnesses and the daemon's
//! integration tests all start the real binary on a Unix socket and talk to
//! it over the line-delimited protocol of DESIGN.md §14.  This module is
//! that plumbing, written once: [`temp_path`] for sockets and journals, a
//! [`Daemon`] whose `Drop` kills and reaps it (a failing run never leaks
//! daemons), a protocol [`Client`], and [`verify_request`].
//!
//! Every fallible step returns `Result<_, String>`: the harnesses report the
//! message as a contract violation, the tests `.expect` it.  Callers choose
//! only the binary: `current_exe()` inside `pathinv-cli`,
//! `CARGO_BIN_EXE_pathinv-cli` in an integration test.

use crate::json::{self, Json};
use std::ffi::OsStr;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// A scratch path in the system temp directory, unique per process and
/// call: `pathinv-<pid>-<n>-<tag>`.
pub fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("pathinv-{}-{n}-{tag}", std::process::id()))
}

/// A spawned `serve --socket` daemon.  Its stdin and stdout are detached;
/// its stderr is the caller's, so a failing run shows the daemon's log.
/// Dropping it kills (SIGKILL) and reaps the process; await a clean exit
/// with [`Daemon::wait_exit`] first.
pub struct Daemon {
    child: Child,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawns `exe serve --socket <socket> <args...>`; fails unless the
    /// socket appears within 30 s.
    pub fn spawn(exe: impl AsRef<OsStr>, socket: &Path, args: &[&str]) -> Result<Daemon, String> {
        let child = Command::new(exe)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn daemon: {e}"))?;
        let daemon = Daemon { child };
        let start = Instant::now();
        while !socket.exists() {
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not create its socket within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(daemon)
    }

    /// Sends SIGTERM, which starts the daemon's graceful drain.
    pub fn sigterm(&self) -> Result<(), String> {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .map_err(|e| format!("cannot send SIGTERM: {e}"))?;
        status.success().then_some(()).ok_or_else(|| "kill -TERM failed".to_string())
    }

    /// The daemon's exit status, waiting up to `within` for it to exit;
    /// fails if it is still running by then (`Duration::ZERO` checks once).
    pub fn wait_exit(&mut self, within: Duration) -> Result<ExitStatus, String> {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| format!("wait failed: {e}"))? {
                return Ok(status);
            }
            if start.elapsed() >= within {
                return Err(format!("daemon did not exit within {within:?}"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// One protocol connection to a daemon.
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connects to the daemon listening on `socket`.
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        let reader =
            BufReader::new(stream.try_clone().map_err(|e| format!("cannot clone stream: {e}"))?);
        Ok(Client { writer: stream, reader })
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send failed: {e}"))
    }

    /// Receives one response; fails if the daemon closed the connection.
    pub fn recv(&mut self) -> Result<Json, String> {
        self.next_response()?.ok_or_else(|| "daemon closed the connection".to_string())
    }

    /// The next response, or `None` once the daemon closed the connection.
    fn next_response(&mut self) -> Result<Option<Json>, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => json::parse(line.trim())
                .map(Some)
                .map_err(|e| format!("bad response `{line}`: {e}")),
            Err(e) => Err(format!("recv failed: {e}")),
        }
    }

    /// Receives until `count` responses with `status: "done"` arrived
    /// (results complete in worker order, not submission order); returns
    /// them and any other responses seen along the way.
    pub fn recv_done(&mut self, count: usize) -> Result<(Vec<Json>, Vec<Json>), String> {
        let mut done = Vec::with_capacity(count);
        let mut other = Vec::new();
        while done.len() < count {
            let response = self.recv()?;
            if response.get("status").and_then(Json::as_str) == Some("done") {
                done.push(response);
            } else {
                other.push(response);
            }
        }
        Ok((done, other))
    }

    /// Closes the sending side, then collects every remaining response
    /// until the daemon closes the connection.
    pub fn recv_until_eof(&mut self) -> Result<Vec<Json>, String> {
        let _ = self.writer.shutdown(Shutdown::Write);
        let mut out = Vec::new();
        while let Some(response) = self.next_response()? {
            out.push(response);
        }
        Ok(out)
    }
}

/// One compact `verify` request line: `id`, `name` and `program`, plus
/// `extra` fields such as `engine` or `timeout_ms`.
pub fn verify_request(id: i64, name: &str, source: &str, extra: &[(&str, Json)]) -> String {
    let mut fields = vec![
        ("op", Json::Str("verify".to_string())),
        ("id", Json::Int(id)),
        ("name", Json::Str(name.to_string())),
        ("program", Json::Str(source.to_string())),
    ];
    fields.extend(extra.iter().cloned());
    Json::object(fields).compact()
}
