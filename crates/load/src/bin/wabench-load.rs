//! `wabench-load` — the open-loop load generator. Every command's flags
//! are declared once in [`COMMANDS`]; `wabench-load` with no arguments
//! prints them.
//!
//! `run` drives a live `wabench-served` daemon or `wabench-router`
//! through `--socket` with seeded Poisson arrivals sampled from a figure
//! matrix, records latency from each job's *intended* arrival
//! (coordinated-omission-safe), and prints a summary: totals, per-shard
//! lines when the socket is a router, overall and per-cell latency.
//! Exit code 0 only if jobs completed and no protocol errors occurred.
//! Workers, faults and the artifact store are the daemon's to set. The
//! run writes no artifact: performance is measured and gated by the
//! repo benchmark (`benchmark/README.md`).
//!
//! Every submit carries a deterministic client-originated trace id.
//! `--stitch-out FILE` pairs each job's client `submit → response` span
//! with the queue/compile/execute timeline its result carries, places
//! the server spans by that job's own clock bounds, and writes one
//! Chrome trace that `wabench-served trace-check` accepts — two lanes
//! per completed job, through a router as well.
//!
//! `schedule` prints the first arrivals and sampled cells for a seed
//! without running anything: the determinism contract, inspectable.

use std::process::exit;

use load::mix::Mix;
use load::run::{execute, Phase, RunConfig};
use load::{arrivals, scale_name};
use obs::cli::{self, Args, Command, Flag};
use svc::job::Scale;

const SEED: Flag = Flag::value("--seed", "N", "arrival and mix seed").default("7");
const MIX: Flag = Flag::value("--mix", "NAME", "fig1|fig2|fig3|fig4|arch").default("fig1");
const QPS: Flag = Flag::value("--qps", "Q", "target arrival rate").default("100");
const JOBS: Flag = Flag::value("--jobs", "N", "jobs per phase").default("50");
const SCALE: Flag = Flag::value("--scale", "S", "test|profile|timing").default("test");

#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command::new("run", &[
        SEED, MIX, SCALE, QPS, JOBS,
        Flag::value("--phases", "LIST", "phases to run, in order").default("cold,warm"),
        Flag::value("--socket", "PATH", "server (or router) socket to drive; required"),
        Flag::value("--stitch-out", "FILE", "write the stitched client+server Chrome trace"),
    ]),
    Command::new("schedule", &[
        SEED, MIX, SCALE, QPS, JOBS,
        Flag::value("--phase", "I", "phase index").default("0"),
        Flag::value("--head", "K", "arrivals to print").default("10"),
    ]),
];

fn resolve_mix(a: &Args) -> Mix {
    let name = a.get("--mix", "a mix name", cli::text);
    Mix::preset(&name).unwrap_or_else(|| {
        a.fail(format!(
            "unknown mix {name:?} (presets: {})",
            harness::matrix::PRESETS.join(", ")
        ))
    })
}

fn cmd_run(a: &Args) {
    let phases = Phase::parse_list(&a.get("--phases", "a phase list", cli::text))
        .unwrap_or_else(|e| a.fail(format!("--phases: {e}")));
    let stitch_out = a.opt("--stitch-out", "a file", cli::path);
    let cfg = RunConfig {
        seed: seed(a),
        mix: resolve_mix(a),
        scale: a.get("--scale", "test|profile|timing", Scale::parse),
        qps: qps(a),
        jobs: a.get("--jobs", "a positive integer", cli::positive),
        phases,
        socket: a.get("--socket", "a path", cli::path),
    };
    let report = execute(&cfg).unwrap_or_else(|e| {
        obs::error!("load run failed: {e}");
        exit(1);
    });
    let t = &report.totals;
    println!(
        "load run: seed {} mix {} scale {} target {:.0} qps → sustained {:.1} qps over {:.2}s",
        cfg.seed,
        cfg.mix.name,
        scale_name(cfg.scale),
        cfg.qps,
        t.qps(),
        t.wall_s
    );
    println!(
        "jobs: {} submitted, {} completed ({} ok, {} degraded, {} failed), {} protocol errors, {} shed, peak queue {}",
        t.submitted, t.completed, t.ok, t.degraded, t.failed, t.protocol_errors, t.shed, t.peak_queue_depth
    );
    for b in report.backends.iter().flat_map(|r| &r.backends) {
        println!(
            "shard {} [{}]: {} forwarded, {} failovers",
            b.name,
            if b.healthy { "healthy" } else { "DOWN" },
            b.forwarded,
            b.failovers,
        );
    }
    println!("latency: {}", report.latency.summary());
    for (cell, snap) in &report.cells {
        println!(
            "cell {cell}: n={} p50={} p95={} p99={} max={}",
            snap.count,
            obs::metrics::fmt_ns(snap.quantile_ns(0.50)),
            obs::metrics::fmt_ns(snap.quantile_ns(0.95)),
            obs::metrics::fmt_ns(snap.quantile_ns(0.99)),
            obs::metrics::fmt_ns(snap.max_ns),
        );
    }
    if let Some(stitch_path) = &stitch_out {
        let trace = obs::stitch::stitch(&report.requests);
        match obs::chrome::export_file(&trace, stitch_path) {
            Ok(()) => println!(
                "stitched trace: {} ({} requests)",
                stitch_path.display(),
                trace.threads.len() / 2
            ),
            Err(e) => {
                obs::error!("writing {}: {e}", stitch_path.display());
                exit(1);
            }
        }
    }
    if t.completed == 0 || t.protocol_errors > 0 {
        obs::error!("run unhealthy: {} completed, {} protocol errors", t.completed, t.protocol_errors);
        exit(1);
    }
}

fn cmd_schedule(a: &Args) {
    let (seed, qps, mix) = (seed(a), qps(a), resolve_mix(a));
    let phase: u64 = a.get("--phase", "an integer", cli::number);
    let jobs: usize = a.get("--jobs", "a positive integer", cli::positive);
    let head: usize = a.get("--head", "an integer", cli::number);
    let scale = a.get("--scale", "test|profile|timing", Scale::parse);
    let schedule = arrivals::schedule(seed, phase, jobs, qps);
    let sample = mix.sample(seed, phase, jobs);
    println!(
        "schedule: seed {seed} phase {phase} mix {} ({} cells) {jobs} jobs at {qps} qps, scale {}",
        mix.name,
        mix.cells.len(),
        scale_name(scale),
    );
    for (i, (offset, &cell)) in schedule.iter().zip(&sample).take(head).enumerate() {
        let c = &mix.cells[cell];
        println!(
            "{i:4}  +{:>10.3}ms  {} on {} at {} ({:?})",
            offset.as_secs_f64() * 1e3,
            c.benchmark,
            c.engine.name(),
            c.level,
            c.mode,
        );
    }
    if jobs > head {
        println!("... {} more", jobs - head);
    }
}

fn seed(a: &Args) -> u64 {
    a.get("--seed", "an integer", cli::number)
}

fn qps(a: &Args) -> f64 {
    a.get("--qps", "a positive number", |s| {
        s.parse().ok().filter(|q: &f64| q.is_finite() && *q > 0.0)
    })
}

fn main() {
    let a = cli::parse("wabench-load", COMMANDS);
    match a.command() {
        "run" => cmd_run(&a),
        "schedule" => cmd_schedule(&a),
        other => unreachable!("{other} is in COMMANDS but not dispatched"),
    }
}
