//! End-to-end observability tests: the tracing overhead budget, the
//! Chrome-trace and folded-stack round trip under a multi-worker
//! scheduler, and counter attribution on a live profiled run.
//!
//! Every test flips the process-global trace sink, so they serialize on
//! one mutex rather than relying on `cargo test` thread scheduling.

use std::sync::Mutex;
use std::time::Duration;

use engines::{Engine, EngineKind};
use svc::scheduler::{Config, Scheduler};
use svc::{JobMode, JobSpec, Scale};
use wacc::OptLevel;
use wasi_rt::WasiCtx;
use wasm_core::types::Value;

static SINK_GATE: Mutex<()> = Mutex::new(());

fn profiled_counters(bytes: &[u8], n: i32) -> archsim::Counters {
    let mut sim = archsim::ArchSim::new();
    let engine = Engine::new(EngineKind::Wamr);
    let compiled = engine.compile_profiled(bytes, &mut sim).expect("compile");
    let mut inst = compiled
        .instantiate(&wasi_rt::imports(), Box::new(WasiCtx::new()))
        .expect("instantiate");
    inst.invoke_profiled("run", &[Value::I32(n)], &mut sim)
        .expect("run");
    sim.counters()
}

/// The observability contract the whole PR rests on: simulated figures
/// are *bit-identical* whether tracing is enabled or not, because spans
/// only read clocks — they never touch the simulation. A PolyBench cell
/// (gemm) profiled with the null sink and with the ring sink must
/// produce byte-for-byte equal counters.
#[test]
fn tracing_does_not_perturb_simulated_counters() {
    let _gate = SINK_GATE.lock().unwrap();
    let b = suite::by_name("gemm").expect("gemm registered");
    let n = b.sizes.test;
    let bytes = b.compile(OptLevel::O2).expect("wacc compile");

    obs::trace::install(obs::trace::Sink::Null);
    let cold = profiled_counters(&bytes, n);

    obs::trace::install(obs::trace::Sink::Ring);
    let traced = profiled_counters(&bytes, n);
    let trace = obs::trace::drain();
    obs::trace::install(obs::trace::Sink::Null);

    assert_eq!(cold, traced, "tracing changed simulated counters");
    // And the traced run actually recorded the compile/execute phases.
    assert!(trace.span_count() > 0, "ring sink recorded nothing");
    let names: Vec<&str> = trace
        .threads
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.name))
        .collect();
    assert!(names.contains(&"engine.compile"));
    assert!(names.contains(&"engine.execute"));
    // Under the ring sink, profiled engine spans carry a counter-delta
    // payload — and those deltas are read from the same simulator that
    // just proved bit-identical, so attribution is free of perturbation.
    let exec_counters = trace
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .find(|e| e.name == "engine.execute")
        .and_then(|e| e.counters.as_deref())
        .expect("engine.execute span missing counter payload");
    assert!(exec_counters.instructions > 0);
    assert!(exec_counters.instructions <= traced.instructions);
}

/// Generous overhead budget: a span enter/exit pair on the hot (ring)
/// path stays well under a microsecond on any machine this runs on; we
/// allow 10µs to keep CI noise out.
#[test]
fn span_overhead_within_budget() {
    let _gate = SINK_GATE.lock().unwrap();
    obs::trace::install(obs::trace::Sink::Ring);
    const N: u32 = 10_000;
    let t0 = std::time::Instant::now();
    for _ in 0..N {
        let _span = obs::span!("overhead.probe");
    }
    let per_span_ns = t0.elapsed().as_nanos() as f64 / f64::from(N);
    let _ = obs::trace::drain();
    obs::trace::install(obs::trace::Sink::Null);
    assert!(
        per_span_ns < 10_000.0,
        "span enter/exit cost {per_span_ns:.0}ns exceeds 10µs budget"
    );
}

/// Chrome-trace round trip under a real 4-worker scheduler: the export
/// must be valid JSON with balanced, name-matched B/E stacks per thread
/// lane, spans on several worker threads, and the scheduler + compiler
/// span names present. The folded export of the same trace must parse
/// and agree with Chrome's on the deepest stack: both walk the same ring
/// data, so a depth disagreement means one of them mis-nests spans.
#[test]
fn chrome_trace_round_trips_under_workers() {
    let _gate = SINK_GATE.lock().unwrap();
    obs::trace::install(obs::trace::Sink::Ring);

    let sched = Scheduler::start(Config {
        workers: 4,
        timeout: Duration::from_secs(120),
        store_dir: None,
        store_cap_bytes: 0,
        ..Config::default()
    })
    .expect("start scheduler");
    for kind in [
        EngineKind::Wasmtime,
        EngineKind::Wasm3,
        EngineKind::Wamr,
        EngineKind::Wavm,
    ] {
        sched.submit(JobSpec::exec("crc32", kind, OptLevel::O1, Scale::Test));
    }
    let results = sched.drain_sorted();
    sched.shutdown();
    assert!(results.iter().all(svc::JobResult::ok));

    let trace = obs::trace::drain();
    obs::trace::install(obs::trace::Sink::Null);
    assert_eq!(trace.dropped(), 0, "ring overflow in a small matrix");

    let json = obs::chrome::export_string(&trace);
    let summary = obs::chrome::validate(&json).expect("trace must validate");
    assert_eq!(summary.spans, trace.span_count());
    assert!(summary.max_depth >= 2, "no nesting recorded");
    // 4 workers plus the submitting thread — at least the workers left
    // spans (each ran at least one job).
    assert!(
        summary.tids >= 2,
        "expected spans on several threads, got {}",
        summary.tids
    );
    for name in ["svc.queue.wait", "svc.job.run", "engine.compile"] {
        assert!(
            summary.names.iter().any(|n| n == name),
            "missing span {name:?} in trace"
        );
    }

    let folded = obs::folded::export_string(&trace);
    let stacks = obs::folded::parse(&folded).expect("folded output parses");
    assert!(stacks.stacks > 0);
    assert_eq!(
        stacks.max_depth, summary.max_depth,
        "folded and Chrome exporters disagree on stack depth"
    );
    for frame in ["svc.job.run", "engine.compile"] {
        assert!(
            stacks.frames.iter().any(|f| f == frame),
            "missing frame {frame:?} in folded export"
        );
    }
}

/// Conservation on a live run: the `svc.job.exec` span's counter payload
/// is the simulator's total, and the attributed child spans (profiled
/// compile + execute) partition it exactly — the parent's *self*
/// counters must come out zero.
#[test]
fn attribution_conserves_counters_on_live_run() {
    let _gate = SINK_GATE.lock().unwrap();
    let job = JobSpec {
        mode: JobMode::Profiled,
        ..JobSpec::exec("crc32", EngineKind::Wamr, OptLevel::O1, Scale::Test)
    };
    obs::trace::install(obs::trace::Sink::Ring);
    let res = svc::exec::execute(&job, harness::runner::env());
    let trace = obs::trace::drain();
    obs::trace::install(obs::trace::Sink::Null);
    assert!(res.ok(), "{:?}", res.status);
    let counters = res.counters.expect("profiled job reports counters");

    let thread = trace
        .threads
        .iter()
        .find(|t| t.events.iter().any(|e| e.name == "svc.job.exec"))
        .expect("svc.job.exec thread recorded");
    let nodes = obs::prof::aggregate(&thread.events);
    let parent = nodes.get(&vec!["svc.job.exec"]).expect("parent node");
    assert_eq!(
        parent.total.instructions, counters.instructions,
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
