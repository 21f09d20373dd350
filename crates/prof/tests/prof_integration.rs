//! End-to-end profiling tests: folded-stack export against the Chrome
//! exporter, and counter-attribution conservation on a live profiled
//! run.
//!
//! Several tests flip the process-global trace sink, so everything
//! here serializes on one mutex.

use std::sync::Mutex;

use engines::EngineKind;
use prof::measure::{measure_cell, CellSpec, Scale};
use prof::workload::WorkloadSpec;
use wacc::OptLevel;

static SINK_GATE: Mutex<()> = Mutex::new(());

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
    let m = measure_cell(&spec).expect("measure");
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
