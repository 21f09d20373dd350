//! Live-telemetry behavior: trace ids round-trip submit → digest over
//! a real socket, `TraceDump` keeps only slow jobs, the background
//! sampler feeds a
//! nonempty `Series` window whose per-engine phase times account for
//! every job exactly once, and two schedulers in one process keep
//! separate windows.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use engines::EngineKind;
use svc::job::{JobSpec, Scale, TraceCtx};
use svc::scheduler::{Config, Scheduler};
use svc::server::{serve, Client};

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

    // Those jobs' timelines came back in their results; `TraceDump`
    // holds only the ones at or over the slow threshold.
    let dump = client.trace_dump().expect("trace-dump");
    assert_eq!(dump.slow_threshold_ns, 250_000_000);
    for e in &dump.exemplars {
        assert!(ids.contains(&e.phases.trace_id), "{e:?}");
        assert!(e.total_ns() >= dump.slow_threshold_ns, "{e:?}");
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

fn interp_spec(engine: EngineKind) -> JobSpec {
    JobSpec::exec("crc32", engine, wacc::OptLevel::O1, Scale::Test)
}

/// Each engine's compile and exec nanoseconds summed over every series
/// point equal the sums over its jobs' own `JobResult::phases()`:
/// with a 2 ms sampler most jobs straddle samples, and none may be lost
/// or counted twice.
#[test]
fn series_phase_totals_match_the_jobs() {
    let sched = Scheduler::start(Config {
        workers: 2,
        sample_interval: Some(Duration::from_millis(2)),
        ..Config::default()
    })
    .expect("start scheduler");
    let engines = [EngineKind::Wasm3, EngineKind::Wamr, EngineKind::Wasmtime];
    for trace_id in 1..=24u64 {
        let engine = engines[trace_id as usize % engines.len()];
        let ctx = TraceCtx { trace_id, origin_ns: 0 };
        sched.submit_traced(interp_spec(engine), ctx);
    }
    let results = sched.drain_sorted();
    assert!(results.iter().all(svc::JobResult::ok));
    let series = sched.series(); // closes the window first
    assert_eq!(series.points.first().map(|p| p.seq), Some(0), "nothing evicted");
    let mut from_points = std::collections::BTreeMap::new();
    for e in series.points.iter().flat_map(|p| &p.engines) {
        let sums = from_points.entry(e.code).or_insert((0, 0, 0));
        *sums = (sums.0 + e.jobs, sums.1 + e.compile_ns, sums.2 + e.exec_ns);
    }
    let mut from_jobs = std::collections::BTreeMap::new();
    assert_eq!(results.len(), 24);
    for res in &results {
        let p = res.phases();
        let sums = from_jobs.entry(res.spec.engine.code()).or_insert((0, 0, 0));
        *sums = (sums.0 + 1, sums.1 + p.compile_ns, sums.2 + p.exec_ns);
    }
    assert_eq!(from_points, from_jobs);
    assert!(
        from_jobs.values().all(|(_, compile, exec)| *compile > 0 && *exec > 0),
        "every engine spent time in both phases: {from_jobs:?}"
    );
    sched.shutdown();
}

/// Two schedulers in one process, each with its own 5 ms sampler, run
/// different job counts at the same time: each one's `series()` counts
/// its own jobs only, in the totals and per engine.
#[test]
fn two_schedulers_keep_separate_series() {
    let start = || {
        Scheduler::start(Config {
            workers: 2,
            sample_interval: Some(Duration::from_millis(5)),
            ..Config::default()
        })
        .expect("start scheduler")
    };
    let runs = [(start(), 6usize), (start(), 15usize)];
    let mix = [EngineKind::Wasm3, EngineKind::Wamr];
    std::thread::scope(|s| {
        for (sched, jobs) in &runs {
            s.spawn(move || {
                for i in 0..*jobs {
                    sched.submit(interp_spec(mix[i % mix.len()]));
                }
                assert!(sched.drain_sorted().iter().all(svc::JobResult::ok));
            });
        }
    });
    let counted: Vec<(u64, u64)> = runs
        .iter()
        .map(|(sched, _)| {
            let points = sched.series().points;
            let completed = points.iter().map(|p| p.completed).sum();
            let jobs = points.iter().flat_map(|p| &p.engines).map(|e| e.jobs).sum();
            (completed, jobs)
        })
        .collect();
    assert_eq!(counted, [(6, 6), (15, 15)], "(completed, engine jobs) per scheduler");
    for (sched, _) in runs {
        sched.shutdown();
    }
}
