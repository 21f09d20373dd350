//! End-to-end profiling tests: the record→diff regression gate on real
//! measurements, folded-stack export against the Chrome exporter, and
//! counter-attribution conservation on a live profiled run.
//!
//! Several tests flip the process-global trace sink, so everything
//! here serializes on one mutex.

use std::sync::Mutex;

use engines::EngineKind;
use prof::baseline::{BaselineRecord, WallStats};
use prof::diff::{diff, DiffRule};
use prof::measure::{measure_cell, CellSpec, Scale};
use prof::workload::WorkloadSpec;
use wacc::OptLevel;

static SINK_GATE: Mutex<()> = Mutex::new(());

fn measure_record(engine: EngineKind, slowdown: f64) -> BaselineRecord {
    let b = suite::by_name("crc32").expect("registered");
    let spec = CellSpec {
        bench: b,
        engine,
        level: OptLevel::O1,
        scale: Scale::Test,
    };
    let reps = 3;
    let m = measure_cell(&spec, reps, slowdown).expect("measure");
    BaselineRecord {
        bench: "crc32".into(),
        engine: engine.name().into(),
        level: "O1".into(),
        scale: "test".into(),
        reps,
        wall: WallStats::from_samples(&m.wall_s),
        counters: m.counters,
    }
}

/// The acceptance loop: record a baseline, re-measure unchanged code —
/// the gate must stay quiet; re-measure under a synthetic slowdown —
/// the gate must fire and name the regressed cell.
#[test]
fn record_then_diff_fires_only_under_slowdown() {
    let base = vec![measure_record(EngineKind::Wasm3, 1.0)];

    // Unchanged tree: counters are deterministic (exactly equal) and
    // wall times come from the same distribution — no regression.
    let same = vec![measure_record(EngineKind::Wasm3, 1.0)];
    let report = diff(&base, &same, &DiffRule::default());
    assert!(report.ok(), "clean re-run flagged: {:?}", report.regressions);
    assert_eq!(report.checked, 1);

    // Synthetic slowdown (the WABENCH_PROF_SLOWDOWN path, passed here
    // as the library parameter): the mean moves 3× with the spread
    // scaling along, so the CIs separate and the gate fires.
    let slow = vec![measure_record(EngineKind::Wasm3, 3.0)];
    let report = diff(&base, &slow, &DiffRule::default());
    assert!(!report.ok(), "3× slowdown not flagged");
    assert!(
        report.regressions.iter().any(|r| r.contains("crc32 × Wasm3")),
        "regression does not name the cell: {:?}",
        report.regressions
    );
}

/// Baseline files survive the disk round trip byte-exactly, including
/// the floating-point wall statistics.
#[test]
fn baseline_file_round_trips_real_measurements() {
    let records = vec![measure_record(EngineKind::Wasm3, 1.0)];
    let dir = std::env::temp_dir().join(format!("wabench-prof-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("baseline.jsonl");
    prof::baseline::write_file(&path, &records).expect("write");
    let back = prof::baseline::read_file(&path).expect("read");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(back, records);
}

/// Folded export from a real 4-worker scheduler run: the collapsed
/// stacks must parse, and their maximum depth must agree with the
/// Chrome exporter's reconstruction of the same trace — both exporters
/// walk the same ring data, so a depth disagreement means one of them
/// is mis-nesting spans.
#[test]
fn folded_depths_match_chrome_under_workers() {
    let _gate = SINK_GATE.lock().unwrap();
    let spec = WorkloadSpec {
        benches: vec!["crc32".to_string()],
        engines: vec![
            EngineKind::Wasmtime,
            EngineKind::Wasm3,
            EngineKind::Wamr,
            EngineKind::Wavm,
        ],
        level: OptLevel::O1,
        scale: svc::Scale::Test,
        mode: svc::JobMode::Profiled,
        workers: 4,
    };
    let trace = prof::workload::capture_trace(&spec).expect("capture");
    assert!(trace.span_count() > 0);

    let folded = obs::folded::export_string(&trace, obs::folded::Weight::WallNs);
    let summary = obs::folded::parse(&folded).expect("folded output parses");
    assert!(summary.stacks > 0);

    let chrome = obs::chrome::export_string(&trace);
    let chrome_summary = obs::chrome::validate(&chrome).expect("chrome trace validates");
    assert_eq!(
        summary.max_depth, chrome_summary.max_depth,
        "folded and Chrome exporters disagree on stack depth"
    );
    // The scheduler pipeline shows up as frames in the folded output.
    for frame in ["svc.job.run", "engine.compile"] {
        assert!(
            summary.frames.iter().any(|f| f == frame),
            "missing frame {frame:?} in folded export"
        );
    }

    // Profiled jobs attribute counters, so an instruction-weighted
    // flamegraph of the same trace is non-empty.
    let by_instrs = obs::folded::export_string(&trace, obs::folded::Weight::Instructions);
    assert!(
        !by_instrs.is_empty(),
        "profiled run produced no counter-weighted stacks"
    );
}

/// Conservation on a live run: the `svc.job.exec` span's counter payload
/// is the simulator's total, and the attributed child spans
/// (profiled compile + execute) partition it exactly — the parent's
/// *self* counters must come out zero.
#[test]
fn attribution_conserves_counters_on_live_run() {
    let _gate = SINK_GATE.lock().unwrap();
    obs::trace::install(obs::trace::Sink::Ring);
    let b = suite::by_name("crc32").expect("registered");
    let spec = CellSpec {
        bench: b,
        engine: EngineKind::Wamr,
        level: OptLevel::O1,
        scale: Scale::Test,
    };
    let m = measure_cell(&spec, 1, 1.0).expect("measure");
    let trace = obs::trace::drain();
    obs::trace::install(obs::trace::Sink::Null);

    let thread = trace
        .threads
        .iter()
        .find(|t| t.events.iter().any(|e| e.name == "svc.job.exec"))
        .expect("svc.job.exec thread recorded");
    let nodes = obs::prof::aggregate(&thread.events);
    let parent = nodes.get(&vec!["svc.job.exec"]).expect("parent node");
    assert_eq!(
        parent.total.instructions, m.counters.instructions,
        "parent payload is not the simulator total"
    );
    assert!(parent.has_counters);
    assert_eq!(
        parent.self_counters.instructions, 0,
        "children do not partition the parent's instructions"
    );
    assert_eq!(parent.self_counters.cycles, 0);

    let child_sum: u64 = nodes
        .iter()
        .filter(|(path, _)| path.len() == 2 && path[0] == "svc.job.exec")
        .map(|(_, n)| n.total.instructions)
        .sum();
    assert_eq!(child_sum, parent.total.instructions);
}
