//! The `wabench-served` child process `serve_warm` drives.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use svc::server::Client;

/// Worker threads the daemon runs with.
pub const WORKERS: usize = 2;

/// A running `wabench-served serve` child with its own socket and store
/// directory. Dropping it kills the child if [`Daemon::shutdown`] was
/// not called, so no process outlives the benchmark.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns the daemon in a fresh directory `dir` (socket and store
    /// live inside it) and waits until it accepts connections. With
    /// `traced`, the daemon records spans and exports them on exit.
    ///
    /// `dir` should be short and relative: a Unix socket path is limited
    /// to about a hundred bytes.
    pub fn spawn(served: &Path, dir: &Path, traced: bool) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("s.sock");
        let mut cmd = Command::new(served);
        cmd.arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--workers")
            .arg(WORKERS.to_string())
            .arg("--store")
            .arg(dir.join("store"))
            .arg("--log")
            .arg("error")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if traced {
            cmd.arg("--trace-out").arg(dir.join("served_trace.json"));
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", served.display()))?;
        let mut daemon = Daemon {
            child,
            socket,
            dir: dir.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut c) = Client::connect(&daemon.socket) {
                if c.ping().is_ok() {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("wabench-served exited early: {status}"));
            }
            if Instant::now() > deadline {
                return Err("wabench-served did not accept connections within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A new connection to the daemon.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connect {}: {e}", self.socket.display()))
    }

    /// The daemon's `/proc/<pid>/status`, for [`status_mb`].
    pub fn status_path(&self) -> String {
        format!("/proc/{}/status", self.child.id())
    }

    /// Asks the daemon to stop, waits for it to exit and removes its
    /// directory. Returns the server's own Chrome trace if it wrote one.
    pub fn shutdown(mut self) -> Result<Option<String>, String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for wabench-served: {e}"))?;
        let server_trace = std::fs::read_to_string(self.dir.join("served_trace.json")).ok();
        let _ = std::fs::remove_dir_all(&self.dir);
        asked?;
        if !status.success() {
            return Err(format!("wabench-served exited with {status}"));
        }
        Ok(server_trace)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached with a live child when a run bailed out early.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Reads a memory field of a `/proc/<pid>/status` file in MiB: `VmRSS`
/// (resident set now) or `VmHWM` (its high-water mark).
pub fn status_mb(status_path: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| {
        l.strip_prefix(field)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
