//! Open-loop correctness: the latency recording must be
//! coordinated-omission-safe. A closed-loop driver that waits for each
//! result before sending the next *pauses its own clock* while the
//! service stalls, so a stalled worker barely moves the recorded p99.
//! Our open-loop recording measures from intended arrival, so the same
//! stall must *inflate* the tail — that inversion is what this test
//! pins.

mod common;

use std::sync::Arc;

use common::Served;
use load::run::{execute, RunReport};
use svc::scheduler::Config;

/// 25 jobs arriving over ~125ms at a one-worker server armed with
/// `faults`, if any.
fn run(tag: &str, faults: Option<&str>) -> RunReport {
    let plan = faults.map(|spec| Arc::new(fault::FaultPlan::parse(spec).expect("fault plan")));
    let served = Served::start(
        tag,
        Config {
            workers: 1,
            faults: plan,
            ..Config::default()
        },
    );
    execute(&served.run_config(7, 200.0, 25, "cold")).expect("run")
}

#[test]
fn stalled_worker_inflates_recorded_p99() {
    let clean = run("clean", None);
    // Every job sleeps 50ms on the single worker: service capacity is
    // 20 jobs/s against 200/s arrivals, so the backlog (and the
    // intended-arrival latency) must grow throughout the run.
    let stalled = run("stalled", Some("seed=1,delay=1.0:50ms"));

    assert_eq!(clean.totals.completed, 25);
    assert_eq!(stalled.totals.completed, 25);

    let clean_p99 = clean.latency.quantile_ns(0.99);
    let stalled_p99 = stalled.latency.quantile_ns(0.99);
    // 25 jobs × 50ms on one worker: the tail job waits most of the
    // ~1.25s backlog. Anything under 400ms would mean the stall was
    // omitted from the recording.
    assert!(
        stalled_p99 > 400_000_000,
        "stalled p99 {} must carry the backlog",
        obs::metrics::fmt_ns(stalled_p99)
    );
    assert!(
        stalled_p99 > 2 * clean_p99,
        "stalled p99 {} must exceed clean p99 {}",
        obs::metrics::fmt_ns(stalled_p99),
        obs::metrics::fmt_ns(clean_p99)
    );
    // The per-cell histogram carries the same signal.
    let (_, cell) = stalled
        .cells
        .iter()
        .find(|(key, _)| key == "Wasmtime/-O2")
        .expect("cell recorded");
    let cell_p99 = cell.quantile_ns(0.99);
    assert!(cell_p99 > 400_000_000, "{cell_p99}");
    // And the saturation signal: the queue must have backed up well
    // beyond the single worker.
    assert!(
        stalled.totals.peak_queue_depth >= 5,
        "peak queue {} must show saturation",
        stalled.totals.peak_queue_depth
    );
}

#[test]
fn socket_run_reports_coherent_totals() {
    let report = run("totals", None);
    let t = &report.totals;
    assert_eq!(t.submitted, 25);
    assert_eq!(t.ok + t.degraded + t.failed, t.completed);
    assert_eq!(t.protocol_errors, 0);
    assert!(t.qps() > 0.0);
    assert!(report.backends.is_none(), "a plain shard is not a router");
    assert_eq!(report.cells.len(), 1);
    let (key, cell) = &report.cells[0];
    assert_eq!(key, "Wasmtime/-O2");
    assert_eq!(cell.count, 25);
    assert!(cell.quantile_ns(0.50) <= cell.quantile_ns(0.99));
    assert!(cell.quantile_ns(0.99) <= cell.max_ns);
}
