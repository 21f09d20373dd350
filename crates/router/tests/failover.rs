//! End-to-end routing over real sockets: jobs submitted through the
//! router land on shards and complete, a stopped shard's keys fail
//! over to the surviving replica, and admission control sheds with
//! `Busy` at the watermark.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use router::ring::Ring;
use router::{BackendCfg, RouterConfig};
use svc::job::{JobMode, JobSpec, Scale};
use svc::scheduler::{Config, Scheduler};
use svc::server::{serve, Client, Submission};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wabench-router-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn start_shard(socket: &Path) -> std::thread::JoinHandle<std::io::Result<()>> {
    let sched = Arc::new(
        Scheduler::start(Config {
            workers: 1,
            ..Config::default()
        })
        .expect("start scheduler"),
    );
    let path = socket.to_path_buf();
    let handle = std::thread::spawn(move || serve(&path, sched));
    wait_ready(socket);
    handle
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

fn start_router(
    socket: &Path,
    cfg: RouterConfig,
) -> std::thread::JoinHandle<std::io::Result<()>> {
    let path = socket.to_path_buf();
    let handle = std::thread::spawn(move || router::serve(&path, &cfg));
    wait_ready(socket);
    handle
}

fn two_shards(dir: &Path) -> (Vec<BackendCfg>, Vec<std::thread::JoinHandle<std::io::Result<()>>>) {
    let mut backends = Vec::new();
    let mut handles = Vec::new();
    for i in 0..2 {
        let sock = dir.join(format!("shard{i}.sock"));
        handles.push(start_shard(&sock));
        backends.push(BackendCfg {
            name: format!("shard-{i}"),
            socket: sock,
        });
    }
    (backends, handles)
}

fn spec(bench: &str) -> JobSpec {
    JobSpec {
        benchmark: bench.to_string(),
        engine: engines::EngineKind::Wasm3,
        level: wacc::OptLevel::O0,
        scale: Scale::Test,
        mode: JobMode::Exec,
        warm: false,
    }
}

/// Registered benchmark names whose ring primary is the given shard,
/// mirroring the router's key (benchmark|level byte|engine code with
/// Wasm3/O0 as used by [`spec`]).
fn benches_owned_by(ring: &Ring, shard: usize, want: usize) -> Vec<String> {
    let mut out = Vec::new();
    for b in suite::all() {
        let key = format!(
            "{}|{}|{}",
            b.name,
            0, // level_byte(O0)
            engines::EngineKind::Wasm3.code()
        );
        if ring.primary(key.as_bytes()) == Some(shard) {
            out.push(b.name.to_string());
            if out.len() == want {
                break;
            }
        }
    }
    assert_eq!(out.len(), want, "registry too small for {want} keys on shard {shard}");
    out
}

#[test]
fn routed_jobs_complete_and_are_attributed_per_backend() {
    let dir = tmp_dir("route");
    let (backends, shard_handles) = two_shards(&dir);
    let rsock = dir.join("router.sock");
    let router_handle = start_router(
        &rsock,
        RouterConfig {
            backends,
            probe_interval: Duration::from_millis(20),
            ..RouterConfig::default()
        },
    );

    let ring = Ring::new(&["shard-0".to_string(), "shard-1".to_string()]);
    // One key per shard so both must serve traffic.
    let mut benches = benches_owned_by(&ring, 0, 2);
    benches.extend(benches_owned_by(&ring, 1, 2));

    let mut client = Client::connect(&rsock).expect("connect router");
    client.ping().expect("ping through router");
    let ids: Vec<u64> = benches
        .iter()
        .map(|b| client.submit(spec(b)).expect("submit through router"))
        .collect();
    for id in &ids {
        let res = client.wait(*id).expect("wait through router");
        assert!(res.ok(), "routed job failed: {res:?}");
        assert_eq!(res.id, *id, "router must answer with its own job id");
    }

    let report = client.backends().expect("backends report");
    assert_eq!(report.backends.len(), 2);
    let forwarded: u64 = report.backends.iter().map(|b| b.forwarded).sum();
    assert_eq!(forwarded, ids.len() as u64, "every job attributed to a shard");
    for b in &report.backends {
        assert!(b.healthy, "shard {} should be healthy", b.name);
        assert!(b.forwarded >= 2, "shard {} served no traffic", b.name);
    }

    // Aggregated stats must account for the whole fleet's jobs.
    let stats = client.stats().expect("aggregated stats");
    assert_eq!(stats.completed, ids.len() as u64);

    client.shutdown().expect("router shutdown");
    router_handle.join().expect("join").expect("router serve");
    for (i, h) in shard_handles.into_iter().enumerate() {
        let mut c = Client::connect(&dir.join(format!("shard{i}.sock"))).expect("shard alive");
        c.shutdown().expect("shard shutdown");
        h.join().expect("join").expect("shard serve");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_shard_keys_fail_over_to_the_replica() {
    let dir = tmp_dir("failover");
    let (backends, shard_handles) = two_shards(&dir);
    let rsock = dir.join("router.sock");
    let router_handle = start_router(
        &rsock,
        RouterConfig {
            backends,
            probe_interval: Duration::from_millis(20),
            ..RouterConfig::default()
        },
    );

    // Stop shard-0; its socket disappears and its keys must fail over.
    let mut c0 = Client::connect(&dir.join("shard0.sock")).expect("shard-0 alive");
    c0.shutdown().expect("stop shard-0");

    let ring = Ring::new(&["shard-0".to_string(), "shard-1".to_string()]);
    let benches = benches_owned_by(&ring, 0, 2);
    let mut client = Client::connect(&rsock).expect("connect router");
    for b in &benches {
        let id = client.submit(spec(b)).expect("submit during outage");
        let res = client.wait(id).expect("wait during outage");
        assert!(res.ok(), "failed-over job failed: {res:?}");
    }

    let report = client.backends().expect("backends report");
    let dead = report.backends.iter().find(|b| b.name == "shard-0").unwrap();
    let alive = report.backends.iter().find(|b| b.name == "shard-1").unwrap();
    assert!(
        dead.failovers >= benches.len() as u64,
        "failovers must count jobs moved off the dead shard: {report:?}"
    );
    assert_eq!(dead.forwarded, 0, "a dead shard cannot accept jobs");
    assert_eq!(alive.forwarded, benches.len() as u64);
    assert!(alive.healthy);

    client.shutdown().expect("router shutdown");
    router_handle.join().expect("join").expect("router serve");
    let mut handles = shard_handles.into_iter();
    handles.next().unwrap().join().expect("join").expect("shard-0 serve");
    let mut c1 = Client::connect(&dir.join("shard1.sock")).expect("shard-1 alive");
    c1.shutdown().expect("stop shard-1");
    handles.next().unwrap().join().expect("join").expect("shard-1 serve");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_sheds_with_busy_at_the_watermark() {
    let dir = tmp_dir("busy");
    let (backends, shard_handles) = two_shards(&dir);
    let rsock = dir.join("router.sock");
    // Watermark zero: the aggregate depth (0) is already at it, so
    // every submit is shed — deterministic admission refusal.
    let router_handle = start_router(
        &rsock,
        RouterConfig {
            backends,
            watermark: 0,
            retry_after_ms: 123,
            probe_interval: Duration::from_millis(20),
            ..RouterConfig::default()
        },
    );

    let mut client = Client::connect(&rsock).expect("connect router");
    match client
        .try_submit_traced(spec("crc32"), Default::default())
        .expect("exchange")
    {
        Submission::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 123),
        Submission::Accepted(id) => panic!("submit must be shed, got job {id}"),
    }
    let report = client.backends().expect("backends report");
    assert_eq!(report.shed, 1);
    assert_eq!(report.watermark, 0);

    client.shutdown().expect("router shutdown");
    router_handle.join().expect("join").expect("router serve");
    for (i, h) in shard_handles.into_iter().enumerate() {
        let mut c = Client::connect(&dir.join(format!("shard{i}.sock"))).expect("shard alive");
        c.shutdown().expect("shard shutdown");
        h.join().expect("join").expect("shard serve");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_shard_requests_are_refused_with_the_router_prefix() {
    let dir = tmp_dir("refuse");
    let (backends, shard_handles) = two_shards(&dir);
    let rsock = dir.join("router.sock");
    let router_handle = start_router(
        &rsock,
        RouterConfig {
            backends,
            probe_interval: Duration::from_millis(20),
            ..RouterConfig::default()
        },
    );

    let mut client = Client::connect(&rsock).expect("connect router");
    for err in [client.series().unwrap_err(), client.trace_dump().unwrap_err()] {
        let msg = err.to_string();
        assert!(
            msg.contains("router:"),
            "per-shard refusals must carry the router: prefix, got {msg:?}"
        );
    }
    // Health and Stats, by contrast, aggregate: after jobs have run, the
    // router's statistics are the shards' summed.
    let ids: Vec<u64> = ["crc32", "bitcount", "sha"]
        .iter()
        .map(|b| client.submit(spec(b)).expect("submit"))
        .collect();
    for id in ids {
        assert!(client.wait(id).expect("wait").ok());
    }
    client.health().expect("aggregated health");
    let fleet = client.stats().expect("aggregated stats");
    let shards: Vec<_> = (0..2)
        .map(|i| {
            let mut c = Client::connect(&dir.join(format!("shard{i}.sock"))).expect("shard");
            c.stats().expect("shard stats")
        })
        .collect();
    assert_eq!(fleet.workers, shards.iter().map(|s| s.workers).sum::<u64>());
    assert_eq!(fleet.completed, 3);
    assert!(fleet.busy_s > 0.0, "busy time not aggregated: {fleet:?}");
    assert!(fleet.utilization() > 0.0);

    client.shutdown().expect("router shutdown");
    router_handle.join().expect("join").expect("router serve");
    for (i, h) in shard_handles.into_iter().enumerate() {
        let mut c = Client::connect(&dir.join(format!("shard{i}.sock"))).expect("shard alive");
        c.shutdown().expect("shard shutdown");
        h.join().expect("join").expect("shard serve");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
