//! End-to-end tests for the resilience layer: retry with backoff,
//! per-engine circuit breakers, graceful degradation under injected
//! compile failures, the `Health` request over a live
//! socket, and stale-socket recovery in the server.

use std::sync::Arc;
use std::time::Duration;

use engines::EngineKind;
use fault::{BreakerConfig, BreakerState, FaultPlan};
use svc::job::{JobMode, JobSpec, JobStatus, Outcome, Scale};
use svc::scheduler::{Config, RetryPolicy, Scheduler};
use wacc::OptLevel;

fn flaky_spec() -> JobSpec {
    JobSpec {
        benchmark: "crc32".to_string(),
        engine: EngineKind::Wasm3,
        level: OptLevel::O0,
        scale: Scale::Test,
        mode: JobMode::SelfTestFlaky,
        warm: false,
    }
}

#[test]
fn flaky_job_is_retried_to_success() {
    let sched = Scheduler::start(Config {
        workers: 1,
        ..Config::default()
    })
    .expect("start");
    let res = sched.wait(sched.submit(flaky_spec()));
    assert!(res.ok(), "retry must rescue the flaky job: {:?}", res.status);
    assert_eq!(res.recovery.attempts, 2, "fails once, succeeds on retry");
    assert_eq!(res.recovery.retries(), 1);
    assert_eq!(res.outcome(), Outcome::Clean, "a retried success is clean");
    assert_eq!(sched.resilience().retries, 1);
}

#[test]
fn retries_are_exhausted_for_persistent_failures() {
    let sched = Scheduler::start(Config {
        workers: 1,
        retry: RetryPolicy {
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
        },
        ..Config::default()
    })
    .expect("start");
    let res = sched.wait(sched.submit(JobSpec::exec(
        "no-such-benchmark",
        EngineKind::Wasm3,
        OptLevel::O0,
        Scale::Test,
    )));
    assert!(matches!(res.status, JobStatus::Failed(_)));
    assert_eq!(res.recovery.attempts, 2, "both attempts were spent");
    assert_eq!(res.outcome(), Outcome::Failed);
}

#[test]
fn breaker_trips_fast_fails_and_heals() {
    let sched = Scheduler::start(Config {
        workers: 1,
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        breaker: BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(300),
        },
        ..Config::default()
    })
    .expect("start");
    let bad = || JobSpec::exec("no-such", EngineKind::Wasmtime, OptLevel::O2, Scale::Test);

    // Three consecutive failures trip the Wasmtime breaker open.
    for _ in 0..3 {
        let res = sched.wait(sched.submit(bad()));
        assert!(matches!(res.status, JobStatus::Failed(_)));
    }
    let health = sched.health();
    let (_, snap) = health
        .breakers
        .iter()
        .find(|(code, _)| *code == EngineKind::Wasmtime.code())
        .expect("wasmtime breaker tracked");
    assert_eq!(snap.state, BreakerState::Open);
    assert_eq!(snap.trips, 1);

    // While open, jobs for that engine fast-fail without running.
    let res = sched.wait(sched.submit(bad()));
    match &res.status {
        JobStatus::Failed(msg) => assert!(
            msg.contains("circuit breaker open"),
            "fast-fail should name the breaker: {msg}"
        ),
        other => panic!("expected fast-fail, got {other:?}"),
    }
    assert_eq!(sched.resilience().breaker_fast_fails, 1);

    // Other engines are unaffected — breakers are per-engine.
    let res = sched.wait(sched.submit(JobSpec::exec(
        "crc32",
        EngineKind::Wasm3,
        OptLevel::O0,
        Scale::Test,
    )));
    assert!(res.ok(), "{:?}", res.status);

    // After the cooldown a half-open probe is admitted; a success
    // closes the breaker again.
    std::thread::sleep(Duration::from_millis(350));
    let res = sched.wait(sched.submit(JobSpec::exec(
        "crc32",
        EngineKind::Wasmtime,
        OptLevel::O2,
        Scale::Test,
    )));
    assert!(res.ok(), "probe should run and succeed: {:?}", res.status);
    let health = sched.health();
    let (_, snap) = health
        .breakers
        .iter()
        .find(|(code, _)| *code == EngineKind::Wasmtime.code())
        .expect("wasmtime breaker tracked");
    assert_eq!(snap.state, BreakerState::Closed, "probe success heals");
    assert_eq!(snap.consecutive_failures, 0);
}

#[test]
fn injected_compile_failure_degrades_exec_but_fails_profiled() {
    // compile=1.0: every JIT compile in scheduler jobs is vetoed.
    let plan = Arc::new(FaultPlan::parse("seed=11,compile=1.0").expect("plan"));
    let sched = Scheduler::start(Config {
        workers: 1,
        retry: RetryPolicy {
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
        },
        faults: Some(Arc::clone(&plan)),
        ..Config::default()
    })
    .expect("start");

    // Exec: falls back to the interpreter tier — correct checksum,
    // flagged degraded, first attempt (keyed faults make retries
    // pointless, so the fallback engages immediately).
    let res = sched.wait(sched.submit(JobSpec::exec(
        "crc32",
        EngineKind::Wasmtime,
        OptLevel::O2,
        Scale::Test,
    )));
    assert!(res.ok(), "{:?}", res.status);
    assert!(res.degraded());
    assert_eq!(res.outcome(), Outcome::Degraded);
    assert!(res.recovery.compile_fallback);
    assert_eq!(res.recovery.attempts, 1, "fallback happens in-attempt");
    let b = suite::by_name("crc32").unwrap();
    assert_eq!(res.checksum, Some((b.native)(b.sizes.test)));

    // Profiled: measurement fidelity forbids the fallback, so the job
    // fails instead — after exhausting retries (keyed: same verdict).
    let res = sched.wait(sched.submit(JobSpec {
        benchmark: "crc32".to_string(),
        engine: EngineKind::Wasmtime,
        level: OptLevel::O2,
        scale: Scale::Test,
        mode: JobMode::Profiled,
        warm: false,
    }));
    match &res.status {
        JobStatus::Failed(msg) => assert!(
            msg.contains("injected compile failure"),
            "failure should surface the injected fault: {msg}"
        ),
        other => panic!("profiled job must not degrade, got {other:?}"),
    }
    assert_eq!(res.recovery.attempts, 2);

    // An interpreter-only engine never hits the JIT fault point.
    let res = sched.wait(sched.submit(JobSpec::exec(
        "crc32",
        EngineKind::Wasm3,
        OptLevel::O0,
        Scale::Test,
    )));
    assert!(res.ok(), "{:?}", res.status);
    assert_eq!(res.outcome(), Outcome::Clean);

    let stats = sched.resilience();
    assert_eq!(stats.compile_fallbacks, 1);
    assert!(plan.injected_total() >= 2, "both veto sites drew injected");
}

#[cfg(unix)]
mod socket {
    use super::*;
    use std::path::{Path, PathBuf};
    use svc::server::{serve, Client};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wabench-resilience-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    fn start_server(socket: &Path, cfg: Config) -> std::thread::JoinHandle<std::io::Result<()>> {
        let sched = Arc::new(Scheduler::start(cfg).expect("start scheduler"));
        let path = socket.to_path_buf();
        let handle = std::thread::spawn(move || serve(&path, sched));
        // Wait for the server to actually answer — a pre-existing stale
        // file makes `exists()` useless as a readiness signal.
        for _ in 0..400 {
            if let Ok(mut c) = Client::connect(socket) {
                if c.ping().is_ok() {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        handle
    }

    #[test]
    fn health_round_trips_over_live_socket() {
        let dir = tmp_dir("health");
        let socket = dir.join("svc.sock");
        let server = start_server(
            &socket,
            Config {
                workers: 1,
                ..Config::default()
            },
        );
        let mut client = Client::connect(&socket).expect("connect");

        // Fresh server: everything zero, no breakers, no faults.
        let health = client.health().expect("health");
        assert_eq!(health.resilience.retries, 0);
        assert!(health.breakers.is_empty());
        assert!(health.faults.is_empty());

        // One flaky job: the retry shows up in the next health report,
        // and the engine's breaker appears (closed — the job recovered).
        let id = client.submit(flaky_spec()).expect("submit");
        let res = client.wait(id).expect("wait");
        assert!(res.ok(), "{:?}", res.status);
        assert_eq!(res.recovery.attempts, 2, "recovery survives the wire");
        let health = client.health().expect("health");
        assert_eq!(health.resilience.retries, 1);
        let (_, snap) = health
            .breakers
            .iter()
            .find(|(code, _)| *code == EngineKind::Wasm3.code())
            .expect("breaker listed after first job");
        assert_eq!(snap.state, BreakerState::Closed);

        client.shutdown().expect("shutdown");
        server.join().expect("join").expect("serve");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_socket_is_unlinked_and_rebound() {
        let dir = tmp_dir("stale");
        let socket = dir.join("svc.sock");
        // Simulate a crashed server: bind a listener, then drop it
        // without removing the file (process death skips cleanup).
        {
            let _dead = std::os::unix::net::UnixListener::bind(&socket).expect("bind");
        }
        assert!(socket.exists(), "stale socket file left behind");

        let server = start_server(
            &socket,
            Config {
                workers: 1,
                ..Config::default()
            },
        );
        let mut client = Client::connect(&socket).expect("connect over reclaimed socket");
        client.ping().expect("ping");
        client.shutdown().expect("shutdown");
        server.join().expect("join").expect("serve");
        assert!(!socket.exists(), "socket removed on clean exit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_socket_is_not_usurped() {
        let dir = tmp_dir("live");
        let socket = dir.join("svc.sock");
        let server = start_server(
            &socket,
            Config {
                workers: 1,
                ..Config::default()
            },
        );
        // A second server on the same path must refuse, and must NOT
        // delete the live socket out from under the first.
        let sched = Arc::new(
            Scheduler::start(Config {
                workers: 1,
                ..Config::default()
            })
            .expect("start"),
        );
        let err = serve(&socket, sched).expect_err("second bind must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        assert!(socket.exists(), "first server's socket survives");

        // First server is still healthy.
        let mut client = Client::connect(&socket).expect("connect");
        client.ping().expect("ping");
        client.shutdown().expect("shutdown");
        server.join().expect("join").expect("serve");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
