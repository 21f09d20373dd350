//! The serving path's warm branch reuses `ExecEnv`'s verified-artifact
//! memo: the first load of a stored AOT artifact re-derives its proofs
//! (span `engine.aot.verify`), and a later load of the same bytes does
//! not.
//!
//! This binary holds one test because the trace sink it installs is
//! process-global: any other test running alongside would record spans
//! into the same rings.

use engines::EngineKind;
use svc::job::{JobSpec, Scale};
use svc::scheduler::{Config, Scheduler};

#[test]
fn warm_jobs_verify_a_stored_artifact_once() {
    let dir = std::env::temp_dir().join(format!("wabench-verify-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sched = Scheduler::start(Config {
        workers: 1,
        store_dir: Some(dir.clone()),
        ..Config::default()
    })
    .expect("start scheduler");
    let spec = JobSpec {
        warm: true,
        ..JobSpec::exec("crc32", EngineKind::Wasmtime, wacc::OptLevel::O2, Scale::Test)
    };
    obs::trace::install(obs::trace::Sink::Ring);
    drop(obs::trace::drain());
    let jobs: Vec<(bool, Vec<&'static str>)> = (0..3)
        .map(|_| {
            let res = sched.wait(sched.submit(spec.clone()));
            assert!(res.ok(), "{:?}", res.status);
            let trace = obs::trace::drain();
            let spans = trace.threads.iter().flat_map(|t| &t.events).map(|e| e.name).collect();
            (res.warm_artifact, spans)
        })
        .collect();
    obs::trace::install(obs::trace::Sink::Null);
    sched.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let warm: Vec<bool> = jobs.iter().map(|(warm, _)| *warm).collect();
    assert_eq!(warm, [false, true, true], "job 1 compiles and stores, jobs 2 and 3 load");
    let has = |job: usize, span: &str| jobs[job].1.contains(&span);
    assert!(has(1, "engine.aot.load") && has(2, "engine.aot.load"));
    assert!(has(1, "engine.aot.verify"), "job 2's first load verifies the proofs");
    assert!(!has(2, "engine.aot.verify"), "job 3 reuses the verified bytes");
}
