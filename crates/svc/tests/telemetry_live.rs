//! Live-telemetry behavior over a real socket: trace ids round-trip
//! submit → digest → `TraceDump`, and the background sampler feeds a
//! nonempty `Series` window.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use svc::job::{JobSpec, Scale, TraceCtx};
use svc::scheduler::{Config, Scheduler};
use svc::server::{serve, Client};

/// The metrics registry the sampler reads is process-global, so a job
/// run by one test would show up in the other's window.
static REGISTRY_GATE: Mutex<()> = Mutex::new(());

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wabench-telemetry-{tag}-{}",
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

fn spec() -> JobSpec {
    JobSpec::exec(
        "crc32",
        engines::EngineKind::Wasmtime,
        wacc::OptLevel::O2,
        Scale::Test,
    )
}

#[test]
fn trace_ids_flow_submit_to_digest_to_dump_and_series_fills() {
    let _gate = REGISTRY_GATE.lock().unwrap();
    let dir = tmp_dir("trace");
    let socket = dir.join("svc.sock");
    let server = start_server(
        &socket,
        Config {
            workers: 2,
            sample_interval: Some(Duration::from_millis(20)),
            ..Config::default()
        },
    );
    let mut client = Client::connect(&socket).expect("connect");

    // Traced submits: the result digest must echo the context and carry
    // ordered server-side phase timestamps.
    let ids: Vec<u64> = (1..=5u64).map(|i| 0xfeed_0000 + i).collect();
    for &trace_id in &ids {
        let origin_ns = obs::trace::now_ns();
        let job = client
            .submit_traced(spec(), TraceCtx { trace_id, origin_ns })
            .expect("submit");
        let res = client.wait(job).expect("wait");
        assert!(res.ok(), "{:?}", res.status);
        assert_eq!(res.trace.trace_id, trace_id, "digest echoes the trace id");
        assert_eq!(res.trace.origin_ns, origin_ns, "digest echoes the origin");
        assert!(
            res.trace.enqueue_ns <= res.trace.start_ns
                && res.trace.start_ns <= res.trace.done_ns,
            "phases are ordered: {:?}",
            res.trace
        );
    }

    // TraceDump returns those requests, joinable by trace id.
    let dump = client.trace_dump().expect("trace-dump");
    let dumped: Vec<u64> = dump
        .all_records()
        .iter()
        .map(|r| r.phases.trace_id)
        .collect();
    for id in &ids {
        assert!(dumped.contains(id), "trace {id:#x} missing from dump");
    }

    // The sampler has been running: the window must exist and account
    // for every completed job.
    std::thread::sleep(Duration::from_millis(40));
    let series = client.series().expect("series");
    assert!(series.interval_ns > 0, "sampler advertised its cadence");
    assert!(!series.points.is_empty(), "sampler produced points");
    let completed: u64 = series.points.iter().map(|p| p.completed).sum();
    assert_eq!(completed, ids.len() as u64, "window accounts for all jobs");
    let seqs: Vec<u64> = series.points.iter().map(|p| p.seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "window is gap-free: {seqs:?}"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untraced_submits_still_work_and_digest_is_zeroed() {
    let _gate = REGISTRY_GATE.lock().unwrap();
    let dir = tmp_dir("untraced");
    let socket = dir.join("svc.sock");
    let server = start_server(
        &socket,
        Config {
            workers: 1,
            ..Config::default()
        },
    );
    let mut client = Client::connect(&socket).expect("connect");
    let id = client.submit(spec()).expect("submit");
    let res = client.wait(id).expect("wait");
    assert!(res.ok());
    assert_eq!(res.trace.trace_id, 0, "untraced jobs carry the sentinel");
    assert!(res.trace.done_ns >= res.trace.enqueue_ns);
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
}
