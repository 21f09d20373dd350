//! `wabench-served` — the benchmark-execution service daemon and the
//! operator tools that talk to it. Every command's flags are declared
//! once in [`COMMANDS`]; `wabench-served` with no arguments prints them.
//!
//! `stats` reports the job counters, cold-compile and warm-load times,
//! the worker pool's size, uptime and utilization, and the artifact
//! store's counters; against a router, every shard's summed.
//!
//! `health` reports resilience counters (retries, interpreter
//! fallbacks, store repairs, breaker fast-fails), circuit breaker
//! states per engine, and any active fault-injection sites.
//! `--faults PLAN` (or the `WABENCH_FAULTS` env var) arms deterministic
//! fault injection for chaos testing; see `docs/OPERATIONS.md`.
//!
//! `series` and `trace-dump`: the serve path runs a background
//! telemetry sampler (`--sample-ms`, 0 disables) whose delta window
//! (the last 600 samples) `series` fetches, and keeps the span digests
//! of slow requests (250 ms and over) that `trace-dump` prints, each
//! with its outcome. `top` builds a live view on top,
//! and `windows` / `wdiff` read the engine × phase self-time profile
//! every sample carries.
//!
//! `smoke` is self-contained: it starts a scheduler + server on a
//! scratch socket, drives it through a real client twice — a cold pass
//! that compiles and populates the artifact store, then a warm pass
//! that loads artifacts — asserts every job succeeded, and prints the
//! cold-vs-warm compile times from `stats`. Exit code 0 only if all
//! jobs succeeded and the warm pass hit the store.
//!
//! Exit codes: 0 success, 1 runtime error (connect or protocol failure,
//! a failed `submit` job, a failed `smoke` assertion), 2 usage error.
//! `top`, `doctor`, `trace-check` and `windows`/`wdiff` document their
//! own codes.

mod doctor;
mod top;
mod trace_check;
mod windows;

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use engines::EngineKind;
use obs::cli::{self, Args, Command, Flag};
use svc::job::{JobMode, JobSpec, Scale};
use svc::scheduler::{Config, HealthReport, Scheduler, SvcStats};
use svc::server::{serve, Client};
use svc::telemetry::{SeriesReport, TraceReport};
use wacc::OptLevel;

const SOCKET: Flag = Flag::value("--socket", "PATH", "server (or router) socket; required");

#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command::new("serve", &[
        Flag::value("--socket", "PATH", "socket to listen on; required"),
        Flag::value("--workers", "N", "worker threads").default("4"),
        Flag::value("--store", "DIR", "artifact store directory (default: none)"),
        Flag::value("--store-cap-mb", "M", "artifact store size cap").default("256"),
        Flag::value("--timeout-s", "S", "per-job timeout").default("120"),
        Flag::value("--trace-out", "FILE", "write a Chrome trace on shutdown (*.folded: folded stacks)"),
        Flag::value("--faults", "PLAN", "fault plan like 'seed=7,compile=0.05' (else WABENCH_FAULTS)"),
        Flag::value("--sample-ms", "N", "telemetry sampler interval, 0 disables").default("250"),
    ]),
    Command::new("submit", &[
        SOCKET,
        Flag::value("--bench", "NAME", "benchmark; required"),
        Flag::value("--engine", "E", "wasmtime|wavm|wasmer|wasmer-singlepass|wasmer-llvm|wasm3|wamr").default("wasmtime"),
        Flag::value("--level", "L", "WaCC level O0..O3").default("O2"),
        Flag::value("--scale", "S", "test|profile|timing").default("test"),
        Flag::value("--mode", "M", "exec|aot|profiled").default("exec"),
        Flag::switch("--warm", "load and store artifacts (service mode)"),
    ]),
    Command::new("stats", &[SOCKET]),
    Command::new("health", &[SOCKET]),
    Command::new("series", &[SOCKET]),
    Command::new("trace-dump", &[SOCKET]),
    Command::new("shutdown", &[SOCKET]),
    Command::new("smoke", &[
        Flag::value("--dir", "DIR", "scratch directory, kept afterwards (default: a temp dir)"),
        Flag::value("--jobs", "N", "worker threads").default("4"),
    ]),
    top::COMMAND,
    doctor::COMMAND,
    trace_check::COMMAND,
    windows::WINDOWS,
    windows::WDIFF,
];

/// A client connected to `--socket`; exits 1 when nothing answers.
fn connect(a: &Args) -> Client {
    let socket = a.get("--socket", "a path", cli::path);
    Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    })
}

/// The reply to a request; exits 1 on a transport or protocol error.
fn fetch<T>(what: &str, r: std::io::Result<T>) -> T {
    r.unwrap_or_else(|e| {
        obs::error!("{what}: {e}");
        exit(1);
    })
}

fn print_stats(s: &SvcStats) {
    println!(
        "jobs: submitted {} completed {} (ok {}, failed {}, panicked {}, timed-out {})",
        s.submitted, s.completed, s.ok, s.failed, s.panicked, s.timed_out
    );
    println!(
        "compile: cold {} avg {:.3}ms | warm artifact loads {} avg {:.3}ms",
        s.cold_compiles,
        s.cold_compile_avg_s() * 1e3,
        s.warm_loads,
        s.warm_load_avg_s() * 1e3
    );
    println!(
        "service: {} workers, uptime {:.1}s, utilization {:.1}%",
        s.workers,
        s.uptime_s,
        s.utilization() * 100.0
    );
    match &s.store {
        Some(st) => println!(
            "store: {} hits, {} misses, {} puts, {} evictions, {} corrupt rejected",
            st.hits, st.misses, st.puts, st.evictions, st.corrupt_rejected
        ),
        None => println!("store: none attached"),
    }
}

fn print_health(h: &HealthReport) {
    let r = &h.resilience;
    println!(
        "resilience: {} retries, {} interpreter fallbacks, {} store repairs, {} breaker fast-fails",
        r.retries, r.compile_fallbacks, r.store_repairs, r.breaker_fast_fails
    );
    println!(
        "queue: depth {} (peak {})",
        h.queue_depth, h.peak_queue_depth
    );
    if h.breakers.is_empty() {
        println!("breakers: none (no jobs yet)");
    }
    for (code, b) in &h.breakers {
        let name = EngineKind::from_code(*code).map_or("unknown", |k| k.name());
        println!(
            "breaker {name}: {} ({} consecutive failures, {} trips)",
            b.state.name(),
            b.consecutive_failures,
            b.trips
        );
    }
    if h.faults.is_empty() {
        println!("faults: none armed");
    }
    for (site, rate, injected) in &h.faults {
        let name = fault::Site::from_code(*site).map_or("unknown", |s| s.key());
        println!("fault {name}: rate {rate} ({injected} injected)");
    }
}

fn print_series(s: &SeriesReport) {
    if s.points.is_empty() {
        println!("series: empty (server running without a sampler?)");
        return;
    }
    println!(
        "series: {} points at {}ms intervals",
        s.points.len(),
        s.interval_ns / 1_000_000
    );
    for p in &s.points {
        let mut line = format!(
            "#{:>5}  qps {:>8.1}  ok {:>4} fail {:>3}  queue {:>3} busy {:>2}",
            p.seq,
            p.qps(),
            p.ok,
            p.failed,
            p.queue_depth,
            p.busy_workers
        );
        if p.lat.count > 0 {
            line.push_str(&format!(
                "  p50 {:.2}ms p99 {:.2}ms",
                p.lat.p50_ns as f64 / 1e6,
                p.lat.p99_ns as f64 / 1e6
            ));
        }
        println!("{line}");
    }
}

fn print_trace_report(t: &TraceReport) {
    println!(
        "traces: {} slow (threshold {:.1}ms)",
        t.exemplars.len(),
        t.slow_threshold_ns as f64 / 1e6
    );
    for rec in &t.exemplars {
        let p = &rec.phases;
        println!(
            "trace {:#018x} [{}] {}: queue {:.2}ms compile {:.2}ms exec {:.2}ms wall {:.2}ms{}{}",
            p.trace_id,
            rec.label,
            if rec.ok { "ok" } else { "FAILED" },
            p.start_ns.saturating_sub(p.enqueue_ns) as f64 / 1e6,
            p.compile_ns as f64 / 1e6,
            p.exec_ns as f64 / 1e6,
            p.total_ns() as f64 / 1e6,
            if p.attempts > 1 {
                format!(" ({} attempts)", p.attempts)
            } else {
                String::new()
            },
            if p.compile_fallback { " (fallback)" } else { "" },
        );
    }
}

fn print_result(res: &svc::JobResult) {
    println!(
        "job {} [{}]: {:?} checksum={:?} compile {:.3}ms{} exec {:.3}ms wall {:.3}ms",
        res.id,
        res.spec,
        res.status,
        res.checksum,
        res.compile_s * 1e3,
        if res.warm_artifact { " (warm)" } else { "" },
        res.exec_s * 1e3,
        res.wall_s * 1e3,
    );
}

fn cmd_serve(a: &Args) {
    let socket = a.get("--socket", "a path", cli::path);
    let workers = a.get("--workers", "a positive integer", cli::positive);
    let store = a.opt("--store", "a directory", cli::path);
    let sample_ms: u64 = a.get("--sample-ms", "an integer (0 disables sampling)", cli::number);
    let faults = match a.opt("--faults", "a plan", cli::text) {
        Some(spec) => fault::FaultPlan::parse(&spec).map(Some),
        None => fault::FaultPlan::from_env(),
    }
    .unwrap_or_else(|e| a.fail(format!("bad fault plan: {e}")))
    .map(Arc::new);
    let config = Config {
        workers,
        timeout: Duration::from_secs(a.get("--timeout-s", "an integer", cli::number)),
        store_dir: store.clone(),
        store_cap_bytes: a.get::<u64>("--store-cap-mb", "an integer", cli::number) << 20,
        faults,
        sample_interval: (sample_ms > 0).then(|| Duration::from_millis(sample_ms)),
        ..Config::default()
    };
    a.traced(|| {
        if let Some(plan) = &config.faults {
            obs::warn!("fault injection armed: {plan}");
        }
        let sched = Scheduler::start(config).unwrap_or_else(|e| {
            obs::error!("failed to start scheduler: {e}");
            exit(1);
        });
        obs::info!(
            "wabench-served: listening on {} ({workers} workers{}, reactor front-end)",
            socket.display(),
            match &store {
                Some(d) => format!(", store {}", d.display()),
                None => String::new(),
            }
        );
        if let Err(e) = serve(&socket, Arc::new(sched)) {
            obs::error!("server error: {e}");
            exit(1);
        }
    });
}

fn cmd_submit(a: &Args) {
    let spec = JobSpec {
        benchmark: a.get("--bench", "a benchmark name", cli::text),
        engine: a.get("--engine", "an engine name", EngineKind::parse),
        level: a.get("--level", "a level O0..O3", OptLevel::parse),
        scale: a.get("--scale", "test|profile|timing", Scale::parse),
        mode: a.get("--mode", "exec|aot|profiled", |m| match m {
            "exec" => Some(JobMode::Exec),
            "aot" => Some(JobMode::ExecAot),
            "profiled" => Some(JobMode::Profiled),
            _ => None,
        }),
        warm: a.on("--warm"),
    };
    let mut client = connect(a);
    let id = fetch("submit", client.submit(spec));
    let res = fetch("wait", client.wait(id));
    print_result(&res);
    exit(if res.ok() { 0 } else { 1 });
}

/// Self-contained socket smoke test; exits nonzero on any failure.
fn cmd_smoke(a: &Args) {
    let jobs = a.get("--jobs", "a positive integer", cli::positive);
    let keep = a.opt("--dir", "a directory", cli::path);
    let dir = keep.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("wabench-smoke-{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir).expect("create smoke dir");
    let socket = dir.join("wabench.sock");
    let store = dir.join("store");

    // The smoke jobs: the three compiling engines on one benchmark, in
    // service (warm) mode, so the second pass exercises artifact loads.
    let jits = [
        EngineKind::Wasmtime,
        EngineKind::Wavm,
        EngineKind::Wasmer(engines::Backend::Cranelift),
    ];
    let spec = |kind: EngineKind| JobSpec {
        benchmark: "crc32".to_string(),
        engine: kind,
        level: OptLevel::O2,
        scale: Scale::Test,
        mode: JobMode::Exec,
        warm: true,
    };

    let run_pass = |label: &str, jobs: usize| -> (u64, SvcStats) {
        let sched = Scheduler::start(Config {
            workers: jobs,
            timeout: Duration::from_secs(120),
            store_dir: Some(store.clone()),
            store_cap_bytes: 256 << 20,
            ..Config::default()
        })
        .expect("start scheduler");
        let sched = Arc::new(sched);
        let server_sched = Arc::clone(&sched);
        let server_socket = socket.clone();
        let server = std::thread::spawn(move || serve(&server_socket, server_sched));
        // Wait for the socket to appear.
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut client = Client::connect(&socket).expect("connect");
        client.ping().expect("ping");
        let ids: Vec<u64> = jits.iter().map(|k| client.submit(spec(*k)).expect("submit")).collect();
        let mut ok = 0u64;
        for id in &ids {
            let res = client.wait(*id).expect("wait");
            print_result(&res);
            if res.ok() {
                ok += 1;
            }
        }
        let stats = client.stats().expect("stats");
        // And the health path: no faults armed, so everything clean.
        let health = client.health().expect("health");
        assert_eq!(health.resilience.retries, 0, "unexpected retries in smoke");
        assert!(health.faults.is_empty(), "no fault plan was armed");
        println!("[{label}] utilization {:.1}%", stats.utilization() * 100.0);
        client.shutdown().expect("shutdown");
        server.join().expect("server join").expect("serve");
        println!("[{label}] {ok}/{} jobs ok", ids.len());
        (ok, stats)
    };

    println!("== smoke: cold pass (socket {}) ==", socket.display());
    let (cold_ok, cold_stats) = run_pass("cold", jobs);
    println!("== smoke: warm pass ==");
    let (warm_ok, warm_stats) = run_pass("warm", jobs);

    print_stats(&warm_stats);
    let mut failures = Vec::new();
    if cold_ok != 3 || warm_ok != 3 {
        failures.push(format!("expected 3 ok jobs per pass, got {cold_ok}/{warm_ok}"));
    }
    if cold_stats.cold_compiles != 3 {
        failures.push(format!(
            "cold pass should compile 3 modules, compiled {}",
            cold_stats.cold_compiles
        ));
    }
    if warm_stats.warm_loads != 3 {
        failures.push(format!(
            "warm pass should load 3 artifacts, loaded {}",
            warm_stats.warm_loads
        ));
    }
    let cold_avg = cold_stats.cold_compile_avg_s();
    let warm_avg = warm_stats.warm_load_avg_s();
    println!(
        "cold compile avg {:.3}ms vs warm artifact load avg {:.3}ms",
        cold_avg * 1e3,
        warm_avg * 1e3
    );
    if warm_stats.warm_loads == 3 && warm_avg >= cold_avg {
        failures.push(format!(
            "warm load ({:.3}ms) not faster than cold compile ({:.3}ms)",
            warm_avg * 1e3,
            cold_avg * 1e3
        ));
    }
    if keep.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if failures.is_empty() {
        println!("smoke OK");
    } else {
        for f in &failures {
            obs::error!("smoke FAILED: {f}");
        }
        exit(1);
    }
}

fn main() {
    let a = cli::parse("wabench-served", COMMANDS);
    match a.command() {
        "serve" => cmd_serve(&a),
        "submit" => cmd_submit(&a),
        "stats" => print_stats(&fetch("stats", connect(&a).stats())),
        "health" => print_health(&fetch("health", connect(&a).health())),
        "series" => print_series(&fetch("series", connect(&a).series())),
        "trace-dump" => print_trace_report(&fetch("trace-dump", connect(&a).trace_dump())),
        "shutdown" => {
            fetch("shutdown", connect(&a).shutdown());
            println!("server stopped");
        }
        "smoke" => cmd_smoke(&a),
        "top" => top::run(&a),
        "doctor" => doctor::run(&a),
        "trace-check" => trace_check::run(&a),
        "windows" => windows::run_windows(&a),
        "wdiff" => windows::run_wdiff(&a),
        other => unreachable!("{other} is in COMMANDS but not dispatched"),
    }
}
