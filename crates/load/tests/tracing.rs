//! End-to-end request tracing through a real run: every submit carries
//! a deterministic trace id, the collectors keep each job's client span
//! beside the server timeline its result carries, and stitching them
//! yields a Chrome trace that validates (the same check `wabench-served
//! trace-check` applies) with every server lane inside its client lane.

mod common;

use common::Served;
use load::run::{execute, RunReport};
use load::traces;
use svc::scheduler::Config;

fn served(tag: &str) -> Served {
    Served::start(
        tag,
        Config {
            workers: 2,
            ..Config::default()
        },
    )
}

/// Stitches a run's requests and checks the document: it validates,
/// holds two lanes per completed job, and each server root lies inside
/// its client span.
fn assert_stitches(report: &RunReport) {
    let trace = obs::stitch::stitch(&report.requests);
    assert_eq!(trace.threads.len() as u64, 2 * report.totals.completed);
    let doc = obs::chrome::export_string(&trace);
    let summary = obs::chrome::validate(&doc).expect("stitched trace validates");
    assert!(summary.names.iter().any(|n| n == "client.request"));
    assert!(summary.names.iter().any(|n| n == "server.job"));
    assert!(summary.names.iter().any(|n| n == "queue.wait"));
    for pair in trace.threads.chunks(2) {
        let client = &pair[0].events[0];
        let server = &pair[1].events[0];
        assert!(
            server.start_ns >= client.start_ns && server.end_ns() <= client.end_ns(),
            "server span {}..{} outside client span {}..{}",
            server.start_ns,
            server.end_ns(),
            client.start_ns,
            client.end_ns()
        );
    }
}

#[test]
fn fixed_seed_runs_tag_requests_identically() {
    let served = served("ids");
    let ids_of = |report: &RunReport| {
        let mut ids: Vec<u64> = report.requests.iter().map(|(c, _)| c.trace_id).collect();
        ids.sort_unstable();
        ids
    };
    let cfg = served.run_config(11, 500.0, 12, "cold");
    let a = execute(&cfg).expect("first run");
    let b = execute(&cfg).expect("second run");
    assert_eq!(a.requests.len(), 12, "every job collected a span");
    assert_eq!(ids_of(&a), ids_of(&b), "trace ids are a pure function of the seed");
    assert!(
        a.requests.iter().all(|(c, s)| c.trace_id == s.trace_id),
        "each result echoes its request's trace id"
    );

    // And they are exactly the advertised sequence for (seed, phase 0).
    let mut expected = traces::trace_ids(11, 0, 12);
    expected.sort_unstable();
    assert_eq!(ids_of(&a), expected);
}

#[test]
fn stitched_run_produces_valid_chrome_trace() {
    let served = served("stitch");
    let report = execute(&served.run_config(11, 500.0, 12, "cold")).expect("run");
    assert_eq!(report.totals.completed, 12);
    assert_stitches(&report);
}

/// A long run: the stitch reads only the collected results, so every
/// completed job gets its pair of lanes however many ran.
#[test]
fn stitched_run_of_600_jobs_keeps_every_request() {
    let served = served("many");
    let report = execute(&served.run_config(5, 1000.0, 300, "cold,warm")).expect("run");
    assert_eq!(report.totals.completed, 600);
    assert_eq!(report.totals.protocol_errors, 0);
    assert_stitches(&report);
}
