//! What the load tests drive: a scheduler served over a temporary Unix
//! socket by `svc::server::serve` — the `wabench-served serve` loop —
//! and a one-cell mix of the cheapest kind of job.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use harness::matrix::MatrixCell;
use load::mix::Mix;
use load::run::{Phase, RunConfig};
use svc::job::{JobMode, Scale};
use svc::scheduler::{Config, Scheduler};
use svc::server::{serve, Client};

/// A served scheduler; dropping it shuts the server down (after its
/// queue drains) and removes its directory.
pub struct Served {
    dir: PathBuf,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Served {
    /// Starts a scheduler with `cfg` on a socket under a fresh
    /// directory named after `tag`, and waits until it answers.
    pub fn start(tag: &str, cfg: Config) -> Served {
        let dir = std::env::temp_dir().join(format!("wabench-load-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        let sched = Arc::new(Scheduler::start(cfg).expect("start scheduler"));
        let socket = dir.join("svc.sock");
        let handle = std::thread::spawn(move || serve(&socket, sched));
        let served = Served {
            dir,
            handle: Some(handle),
        };
        for _ in 0..400 {
            if Client::connect(&served.socket()).and_then(|mut c| c.ping()).is_ok() {
                return served;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("server at {} never came up", served.socket().display());
    }

    /// The socket a run drives.
    pub fn socket(&self) -> PathBuf {
        self.dir.join("svc.sock")
    }

    /// A run of `jobs` jobs per phase of [`tiny_mix`] at `qps` against
    /// this server.
    pub fn run_config(&self, seed: u64, qps: f64, jobs: usize, phases: &str) -> RunConfig {
        RunConfig {
            seed,
            mix: tiny_mix(),
            scale: Scale::Test,
            qps,
            jobs,
            phases: Phase::parse_list(phases).expect("phase list"),
            socket: self.socket(),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(&self.socket()) {
            let _ = client.shutdown();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A one-cell mix of the cheapest kind of job, so the only latency in
/// play is the latency a test injects.
pub fn tiny_mix() -> Mix {
    Mix {
        name: "test-single".to_string(),
        cells: vec![MatrixCell {
            benchmark: "crc32",
            engine: engines::EngineKind::Wasmtime,
            level: wacc::OptLevel::O2,
            mode: JobMode::Exec,
        }],
    }
}
