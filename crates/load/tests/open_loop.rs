//! Open-loop correctness: the latency recording must be
//! coordinated-omission-safe. A closed-loop driver that waits for each
//! result before sending the next *pauses its own clock* while the
//! service stalls, so a stalled worker barely moves the recorded p99.
//! Our open-loop recording measures from intended arrival, so the same
//! stall must *inflate* the tail — that inversion is what this test
//! pins.

use harness::matrix::MatrixCell;
use load::mix::Mix;
use load::run::{execute, Phase, RunConfig, Target};
use svc::job::{JobMode, Scale};

/// A one-cell mix of the cheapest kind of job, so the only latency in
/// play is the latency the test injects.
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

fn config(faults: Option<String>) -> RunConfig {
    RunConfig {
        seed: 7,
        mix: tiny_mix(),
        scale: Scale::Test,
        // 25 jobs arriving over ~125ms on a single worker.
        qps: 200.0,
        jobs: 25,
        phases: vec![Phase {
            name: "cold".into(),
            warm: false,
        }],
        target: Target::InProc {
            workers: 1,
            faults,
            store_dir: None,
        },
        collectors: 2,
        stitch: false,
    }
}

#[test]
fn stalled_worker_inflates_recorded_p99() {
    let clean = execute(&config(None)).expect("clean run");
    // Every job sleeps 50ms on the single worker: service capacity is
    // 20 jobs/s against 200/s arrivals, so the backlog (and the
    // intended-arrival latency) must grow throughout the run.
    let stalled = execute(&config(Some("seed=1,delay=1.0:50ms".to_string())))
        .expect("stalled run");

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
fn inproc_run_reports_coherent_totals() {
    let report = execute(&config(None)).expect("run");
    let t = &report.totals;
    assert_eq!(t.submitted, 25);
    assert_eq!(t.ok + t.degraded + t.failed, t.completed);
    assert_eq!(t.protocol_errors, 0);
    assert!(t.qps() > 0.0);
    assert!(report.backends.is_none(), "in-process runs have no router");
    assert_eq!(report.cells.len(), 1);
    let (key, cell) = &report.cells[0];
    assert_eq!(key, "Wasmtime/-O2");
    assert_eq!(cell.count, 25);
    assert!(cell.quantile_ns(0.50) <= cell.quantile_ns(0.99));
    assert!(cell.quantile_ns(0.99) <= cell.max_ns);
}
