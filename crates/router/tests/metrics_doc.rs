//! Keeps `docs/METRICS.md` honest for the whole serving path: drives a
//! representative workload — warm store, JIT and interpreter engines,
//! an armed fault plan — through a live router into a shard, then walks
//! the process-wide metrics registry (router and shard share this
//! process) and asserts every registered name matches a documented row
//! of the right kind. A metric added without a METRICS.md row fails
//! here.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use engines::EngineKind;
use obs::metrics::MetricValue;
use router::{BackendCfg, RouterConfig};
use svc::job::{JobMode, JobSpec, Scale};
use svc::scheduler::{Config, Scheduler};
use svc::server::{serve, Client};
use svc::telemetry::{engine_compile_ns_name, engine_exec_ns_name};
use wacc::OptLevel;

const DOC: &str = include_str!("../../../docs/METRICS.md");

/// `(name pattern, kind)` rows from every table in the doc. Patterns
/// may end in a `<placeholder>` segment, which matches any instance
/// sharing the prefix before the `<`.
fn doc_rows() -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for line in DOC.lines() {
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 5 {
            continue;
        }
        let name = cells[1].trim_matches('`');
        let kind = cells[2];
        if name.is_empty() || name == "Name" || name.starts_with('-') {
            continue;
        }
        assert!(
            matches!(kind, "counter" | "gauge" | "histogram"),
            "METRICS.md row {name:?} has unknown kind {kind:?}"
        );
        rows.push((name.to_string(), kind.to_string()));
    }
    assert!(
        rows.len() >= 30,
        "METRICS.md tables look truncated ({} rows)",
        rows.len()
    );
    rows
}

fn pattern_matches(pattern: &str, name: &str) -> bool {
    match pattern.find('<') {
        Some(i) => name.len() > i && name.starts_with(&pattern[..i]),
        None => pattern == name,
    }
}

fn kind_of(v: &MetricValue) -> &'static str {
    match v {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
    }
}

fn wait_ready(socket: &Path) {
    for _ in 0..400 {
        if let Ok(mut c) = Client::connect(socket) {
            if c.ping().is_ok() {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("server at {} never came up", socket.display());
}

#[test]
fn every_registered_metric_is_documented() {
    let rows = doc_rows();
    // The workload: warm jobs through a real store on a JIT engine
    // (store puts/hits, engine + jit histograms) and the interpreter,
    // under an always-firing delay fault (fault.injected.*), submitted
    // through a router (router.*). The registry is process-global, so
    // this is the file's only #[test] that runs jobs.
    let dir = std::env::temp_dir().join(format!("wabench-metrics-doc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    let plan = fault::FaultPlan::parse("seed=7,delay=1.0:1ms").expect("fault plan");
    let sched = Scheduler::start(Config {
        workers: 2,
        store_dir: Some(dir.join("store")),
        store_cap_bytes: 64 << 20,
        faults: Some(Arc::new(plan)),
        sample_interval: Some(Duration::from_millis(20)),
        ..Config::default()
    })
    .expect("start scheduler");
    let shard_sock = dir.join("shard.sock");
    let shard_path = shard_sock.clone();
    let shard = std::thread::spawn(move || serve(&shard_path, Arc::new(sched)));
    wait_ready(&shard_sock);
    let rsock = dir.join("router.sock");
    let cfg = RouterConfig {
        backends: vec![BackendCfg {
            name: "shard-0".to_string(),
            socket: shard_sock.clone(),
        }],
        probe_interval: Duration::from_millis(10),
        ..RouterConfig::default()
    };
    let rpath = rsock.clone();
    let router_handle = std::thread::spawn(move || router::serve(&rpath, &cfg));
    wait_ready(&rsock);

    let spec = |engine: EngineKind| JobSpec {
        benchmark: "crc32".to_string(),
        engine,
        level: OptLevel::O2,
        scale: Scale::Test,
        mode: JobMode::Exec,
        warm: true,
    };
    let mut client = Client::connect(&rsock).expect("connect router");
    // Wasmtime three times: cold compile, a warm load that re-derives
    // the proofs, and a warm load that reuses that verdict.
    for engine in [
        EngineKind::Wasmtime,
        EngineKind::Wasm3,
        EngineKind::Wasmtime,
        EngineKind::Wasmtime,
    ] {
        let id = client.submit(spec(engine)).expect("submit through the router");
        let res = client.wait(id).expect("wait through the router");
        assert!(res.ok(), "workload job failed: {:?}", res.status);
    }
    client.shutdown().expect("router shutdown");
    router_handle.join().expect("join").expect("router serve");
    let mut c = Client::connect(&shard_sock).expect("shard alive");
    c.shutdown().expect("shard shutdown");
    shard.join().expect("join").expect("shard serve");

    // The workload must have actually exercised the registry — an
    // empty snapshot would pass the documentation check vacuously —
    // and every counter the router declares must be registered, so
    // the walk below holds each one to its row.
    let snap = obs::metrics::snapshot();
    let wasmtime = EngineKind::Wasmtime.code();
    for sentinel in [
        "fault.injected.delay",
        "svc.jobs.completed",
        "svc.store.put",
        "svc.queue.depth",
        "svc.job.wall",
        "engine.aot.verify",
        "engine.aot.verify_reused",
        &engine_compile_ns_name(wasmtime),
        &engine_exec_ns_name(wasmtime),
        router::C_FORWARDED,
        router::C_FAILOVER,
        router::C_SHED,
        router::C_PROBE_FAIL,
        router::C_LOST,
    ] {
        assert!(
            snap.iter().any(|(n, _)| n == sentinel),
            "workload did not register {sentinel} — the honesty check has no teeth"
        );
    }
    assert!(
        snap.iter().any(|(n, _)| n.starts_with("engine.compile.")),
        "workload did not register any engine.compile.<engine> histogram"
    );

    let mut undocumented = Vec::new();
    let mut wrong_kind = Vec::new();
    for (name, value) in snap {
        if name.starts_with("test.") {
            continue;
        }
        match rows.iter().find(|(p, _)| pattern_matches(p, &name)) {
            None => undocumented.push(name),
            Some((pattern, kind)) => {
                if kind != kind_of(&value) {
                    wrong_kind.push(format!(
                        "{name} is a {} but METRICS.md row {pattern:?} says {kind}",
                        kind_of(&value)
                    ));
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        undocumented.is_empty(),
        "metrics registered at runtime but missing from docs/METRICS.md: {undocumented:?}"
    );
    assert!(wrong_kind.is_empty(), "{}", wrong_kind.join("\n"));
}

#[test]
fn workload_independent_pattern_rules() {
    // Placeholder rows match instances, not their own literal text or
    // unrelated names; literal rows match exactly.
    assert!(pattern_matches("svc.jobs.engine.<code>", "svc.jobs.engine.3"));
    assert!(!pattern_matches("svc.jobs.engine.<code>", "svc.jobs.engine."));
    assert!(!pattern_matches("svc.jobs.engine.<code>", "svc.jobs.ok"));
    assert!(pattern_matches("svc.job.wall", "svc.job.wall"));
    assert!(!pattern_matches("svc.job.wall", "svc.job.wall.extra"));
}
