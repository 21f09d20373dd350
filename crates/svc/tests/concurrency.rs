//! Scheduler concurrency tests: the full benchmark × engine matrix run
//! through a multi-worker scheduler must produce the same answers as
//! serial execution, one bad job must not take down the fleet, and
//! simulated counters must be bit-identical regardless of worker count.

use std::sync::Arc;
use std::time::Duration;

use engines::EngineKind;
use svc::exec::{execute, ExecEnv};
use svc::job::{JobMode, JobSpec, JobStatus, Scale};
use svc::scheduler::{Config, RetryPolicy, Scheduler};
use wacc::OptLevel;

fn config(workers: usize) -> Config {
    Config {
        workers,
        timeout: Duration::from_secs(120),
        store_dir: None,
        store_cap_bytes: 0,
        ..Config::default()
    }
}

#[test]
fn full_matrix_parallel_matches_native() {
    let sched = Scheduler::start(config(4)).expect("start");
    let mut expected = Vec::new();
    for b in suite::all() {
        for kind in EngineKind::all() {
            sched.submit(JobSpec::exec(b.name, kind, OptLevel::O2, Scale::Test));
            expected.push((b.name, kind, (b.native)(b.sizes.test)));
        }
    }
    let results = sched.drain_sorted();
    assert_eq!(results.len(), expected.len());
    // drain_sorted returns submission order, so results line up with
    // the expectation list even though workers finished out of order.
    for (res, (name, kind, sum)) in results.iter().zip(&expected) {
        assert!(
            res.ok(),
            "{name} on {} failed: {:?}",
            kind.name(),
            res.status
        );
        assert_eq!(res.spec.benchmark, *name);
        assert_eq!(res.spec.engine, *kind);
        assert_eq!(res.checksum, Some(*sum), "{name} on {}", kind.name());
        assert!(res.compile_s > 0.0, "{name} on {} timed no compile", kind.name());
    }
}

#[test]
fn parallel_checksums_equal_serial_execution() {
    // The same specs executed serially (no scheduler) and in parallel
    // must agree on every deterministic field.
    let specs: Vec<JobSpec> = suite::all()
        .iter()
        .take(6)
        .flat_map(|b| {
            [EngineKind::Wasmtime, EngineKind::Wasm3]
                .into_iter()
                .map(|k| JobSpec::exec(b.name, k, OptLevel::O2, Scale::Test))
        })
        .collect();

    let env = ExecEnv::new(None);
    let serial: Vec<_> = specs.iter().map(|s| execute(s, &env)).collect();

    let sched = Scheduler::start(config(3)).expect("start");
    for s in &specs {
        sched.submit(s.clone());
    }
    let parallel = sched.drain_sorted();

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.spec, p.spec);
        assert_eq!(s.checksum, p.checksum, "{}", s.spec);
        assert_eq!(s.bytes_hash, p.bytes_hash, "{}", s.spec);
        assert!(s.ok() && p.ok());
    }
}

#[test]
fn profiled_counters_are_order_independent() {
    let benches = ["crc32", "sha", "quicksort"];
    let run = |workers: usize| {
        let sched = Scheduler::start(config(workers)).expect("start");
        for b in &benches {
            sched.submit(JobSpec {
                benchmark: (*b).to_string(),
                engine: EngineKind::Wasmtime,
                level: OptLevel::O2,
                scale: Scale::Test,
                mode: JobMode::Profiled,
                warm: false,
            });
        }
        sched.drain_sorted()
    };
    let serial = run(1);
    let parallel = run(4);
    for (s, p) in serial.iter().zip(&parallel) {
        assert!(s.ok() && p.ok(), "{:?} / {:?}", s.status, p.status);
        let (sc, pc) = (s.counters.expect("counters"), p.counters.expect("counters"));
        // The simulator is deterministic: bit-identical counters no
        // matter how many workers raced.
        assert_eq!(format!("{sc:?}"), format!("{pc:?}"), "{}", s.spec);
    }
}

#[test]
fn panicking_job_does_not_take_down_the_fleet() {
    let sched = Scheduler::start(config(2)).expect("start");
    let ok_before = sched.submit(JobSpec::exec(
        "crc32",
        EngineKind::Wasmtime,
        OptLevel::O2,
        Scale::Test,
    ));
    let boom = sched.submit(JobSpec {
        benchmark: "crc32".to_string(),
        engine: EngineKind::Wasmtime,
        level: OptLevel::O2,
        scale: Scale::Test,
        mode: JobMode::SelfTestPanic,
        warm: false,
    });
    let ok_after = sched.submit(JobSpec::exec(
        "sha",
        EngineKind::Wasm3,
        OptLevel::O2,
        Scale::Test,
    ));
    sched.wait_idle();
    let before = sched.wait(ok_before);
    let panicked = sched.wait(boom);
    let after = sched.wait(ok_after);
    assert!(before.ok(), "{:?}", before.status);
    assert!(after.ok(), "{:?}", after.status);
    match &panicked.status {
        JobStatus::Panicked(msg) => {
            assert!(msg.contains("injected failure"), "panic payload lost: {msg}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let stats = sched.stats();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.ok, 2);
    // The fleet is still alive: a fresh job after the panic succeeds.
    let id = sched.submit(JobSpec::exec(
        "crc32",
        EngineKind::Wamr,
        OptLevel::O0,
        Scale::Test,
    ));
    assert!(sched.wait(id).ok());
}

/// Every reader of the scheduler's ledger agrees after four threads
/// submit 40 jobs while injected worker panics force retries.
#[test]
fn ledger_sums_agree_across_readers() {
    let plan = fault::FaultPlan::parse("seed=5,panic=0.3").expect("fault plan");
    let retry = RetryPolicy {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        ..RetryPolicy::default()
    };
    let faults = Some(Arc::new(plan));
    let sched = Scheduler::start(Config {
        retry,
        faults,
        ..config(2)
    })
    .expect("start");
    std::thread::scope(|s| {
        for _ in 0..4 {
            let sched = &sched;
            s.spawn(move || {
                for _ in 0..10 {
                    let spec = JobSpec::exec("crc32", EngineKind::Wasm3, OptLevel::O1, Scale::Test);
                    sched.submit(spec);
                }
            });
        }
    });
    assert_eq!(sched.stats().submitted, 40);
    let results = sched.drain_sorted();
    let s = sched.stats();
    assert_eq!(s.completed, results.len() as u64);
    assert_eq!(s.completed, s.ok + s.failed + s.panicked + s.timed_out);
    assert_eq!(s.workers, 2);
    assert!(s.busy_s > 0.0);
    let retries: u64 = results.iter().map(|r| u64::from(r.recovery.retries())).sum();
    assert!(retries > 0, "the fault plan forced no retry");
    assert_eq!(sched.resilience().retries, retries);
}
