//! End-to-end request tracing through a real run: every submit carries
//! a deterministic trace id, the collectors record client-side spans,
//! and the post-run stitch against the scheduler's `TraceDump` yields a
//! Chrome trace that validates (the same check `wabench-served
//! trace-check` applies).

use harness::matrix::MatrixCell;
use load::mix::Mix;
use load::run::{execute, Phase, RunConfig, Target};
use load::traces;
use svc::job::{JobMode, Scale};

fn tiny_mix() -> Mix {
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

fn config(stitch: bool) -> RunConfig {
    RunConfig {
        seed: 11,
        mix: tiny_mix(),
        scale: Scale::Test,
        qps: 500.0,
        jobs: 12,
        phases: vec![Phase {
            name: "cold".into(),
            warm: false,
        }],
        target: Target::InProc {
            workers: 2,
            faults: None,
            store_dir: None,
        },
        collectors: 2,
        stitch,
    }
}

#[test]
fn fixed_seed_runs_tag_requests_identically() {
    let ids_of = |report: &load::run::RunReport| {
        let mut ids: Vec<u64> = report.client_spans.iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        ids
    };
    let a = execute(&config(false)).expect("first run");
    let b = execute(&config(false)).expect("second run");
    assert_eq!(a.client_spans.len(), 12, "every job collected a span");
    assert_eq!(ids_of(&a), ids_of(&b), "trace ids are a pure function of the seed");

    // And they are exactly the advertised sequence for (seed, phase 0).
    let mut expected = traces::trace_ids(11, 0, 12);
    expected.sort_unstable();
    assert_eq!(ids_of(&a), expected);
}

#[test]
fn stitched_run_produces_valid_chrome_trace() {
    let report = execute(&config(true)).expect("run");
    let trace = report.stitched.expect("stitch requested");
    // Every request contributes a client lane and a server lane.
    assert_eq!(trace.threads.len(), report.client_spans.len() * 2);
    let doc = obs::chrome::export_string(&trace);
    let summary = obs::chrome::validate(&doc).expect("stitched trace validates");
    assert!(summary.names.iter().any(|n| n == "client.request"));
    assert!(summary.names.iter().any(|n| n == "server.job"));
    assert!(summary.names.iter().any(|n| n == "queue.wait"));
    // Server spans sit inside client lanes' time range per request: the
    // server lane root must start no earlier than the client submit
    // (same process ⇒ offset ≈ 0, slack for the midpoint estimate).
    for pair in trace.threads.chunks(2) {
        let client = &pair[0].events[0];
        let server = &pair[1].events[0];
        assert!(
            server.start_ns + 5_000_000 >= client.start_ns,
            "server span starts {} but client submitted {}",
            server.start_ns,
            client.start_ns
        );
    }
}
