//! `wabench-load` — the open-loop load generator.
//!
//! ```text
//! wabench-load run      --seed N [--mix fig1] [--scale test] [--qps Q] [--jobs N]
//!                       [--phases cold,warm] [--socket PATH | --workers N [--faults PLAN] [--store DIR]]
//!                       [--collectors N] [--stitch-out FILE] [--log LEVEL]
//! wabench-load schedule --seed N [--mix fig1] [--qps Q] [--jobs N] [--phase I] [--head K]
//! ```
//!
//! `run` drives the stack — in-process by default, or a live
//! `wabench-served` daemon with `--socket` — with seeded Poisson
//! arrivals sampled from a figure matrix, records latency from each
//! job's *intended* arrival (coordinated-omission-safe), and prints a
//! summary: totals, per-shard lines when the socket is a router,
//! overall and per-cell latency. Exit code 0 only if jobs completed and
//! no protocol errors occurred. `--workers`, `--faults` and `--store`
//! configure the in-process scheduler, so combining any of them with
//! `--socket` is a usage error. The run writes no artifact: performance
//! is measured and gated by the repo benchmark (`benchmark/README.md`).
//!
//! Every submit carries a deterministic client-originated trace id.
//! `--stitch-out FILE` fetches the server's `TraceDump` after the run,
//! estimates the clock offset from the fetch round-trip,
//! stitches the client `submit → response` spans against the server
//! queue/compile/execute spans, and writes one Chrome trace that
//! `wabench-trace-check` accepts.
//!
//! `schedule` prints the first arrivals and sampled cells for a seed
//! without running anything: the determinism contract, inspectable.

use std::path::PathBuf;
use std::process::exit;

use load::mix::Mix;
use load::run::{execute, Phase, RunConfig, Target};
use load::{arrivals, scale_name};
use svc::job::Scale;

fn usage() -> ! {
    obs::error!(
        "usage: wabench-load <run|schedule> [options]\n\
         \n\
         run      --seed N [--mix fig1|fig2|fig3|fig4|arch] [--scale test|profile|timing]\n\
         \x20        [--qps Q] [--jobs N] [--phases cold,warm]\n\
         \x20        [--socket PATH | --workers N [--faults PLAN] [--store DIR]]\n\
         \x20        [--collectors N] [--stitch-out FILE]\n\
         schedule --seed N [--mix fig1] [--qps Q] [--jobs N] [--phase I] [--head K]\n\
         \n\
         common: --log error|warn|info|debug (overrides WABENCH_LOG)\n\
         PLAN is a wabench-fault spec like 'seed=7,compile=0.05,delay=0.05:2ms'"
    );
    exit(2);
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => {
            obs::error!("missing value for {flag}");
            usage();
        }
    }
}

struct Opts {
    seed: u64,
    mix: String,
    scale: Scale,
    qps: f64,
    jobs: usize,
    phases: String,
    socket: Option<PathBuf>,
    workers: Option<usize>,
    faults: Option<String>,
    store: Option<PathBuf>,
    collectors: usize,
    stitch_out: Option<PathBuf>,
    phase: u64,
    head: usize,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        seed: 7,
        mix: "fig1".to_string(),
        scale: Scale::Test,
        qps: 100.0,
        jobs: 50,
        phases: "cold,warm".to_string(),
        socket: None,
        workers: None,
        faults: None,
        store: None,
        collectors: 0,
        stitch_out: None,
        phase: 0,
        head: 10,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                o.seed = take_value(args, &mut i, "--seed").parse().unwrap_or_else(|_| {
                    obs::error!("--seed needs an integer");
                    usage();
                })
            }
            "--mix" => o.mix = take_value(args, &mut i, "--mix"),
            "--scale" => {
                let v = take_value(args, &mut i, "--scale");
                o.scale = Scale::parse(&v).unwrap_or_else(|| {
                    obs::error!("unknown scale {v:?}");
                    usage();
                })
            }
            "--qps" => {
                o.qps = take_value(args, &mut i, "--qps")
                    .parse()
                    .ok()
                    .filter(|q: &f64| q.is_finite() && *q > 0.0)
                    .unwrap_or_else(|| {
                        obs::error!("--qps needs a positive number");
                        usage();
                    })
            }
            "--jobs" => {
                o.jobs = take_value(args, &mut i, "--jobs")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| {
                        obs::error!("--jobs needs a positive integer");
                        usage();
                    })
            }
            "--phases" => o.phases = take_value(args, &mut i, "--phases"),
            "--socket" => o.socket = Some(PathBuf::from(take_value(args, &mut i, "--socket"))),
            "--workers" => {
                o.workers = Some(
                    take_value(args, &mut i, "--workers")
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .unwrap_or_else(|| {
                            obs::error!("--workers needs a positive integer");
                            usage();
                        }),
                )
            }
            "--faults" => o.faults = Some(take_value(args, &mut i, "--faults")),
            "--store" => o.store = Some(PathBuf::from(take_value(args, &mut i, "--store"))),
            "--collectors" => {
                o.collectors = take_value(args, &mut i, "--collectors")
                    .parse()
                    .unwrap_or_else(|_| {
                        obs::error!("--collectors needs an integer");
                        usage();
                    })
            }
            "--stitch-out" => {
                o.stitch_out = Some(PathBuf::from(take_value(args, &mut i, "--stitch-out")))
            }
            "--log" => {
                let v = take_value(args, &mut i, "--log");
                match obs::logger::Level::parse(&v) {
                    Some(lvl) => obs::logger::set_level(lvl),
                    None => {
                        obs::error!("unknown log level {v:?} (use error|warn|info|debug)");
                        usage();
                    }
                }
            }
            "--phase" => {
                o.phase = take_value(args, &mut i, "--phase").parse().unwrap_or_else(|_| {
                    obs::error!("--phase needs an integer");
                    usage();
                })
            }
            "--head" => {
                o.head = take_value(args, &mut i, "--head").parse().unwrap_or_else(|_| {
                    obs::error!("--head needs an integer");
                    usage();
                })
            }
            other => {
                obs::error!("unknown option {other}");
                usage();
            }
        }
        i += 1;
    }
    o
}

fn resolve_mix(name: &str) -> Mix {
    Mix::preset(name).unwrap_or_else(|| {
        obs::error!(
            "unknown mix {name:?} (presets: {})",
            harness::matrix::PRESETS.join(", ")
        );
        usage();
    })
}

fn cmd_run(o: &Opts) {
    let phases = Phase::parse_list(&o.phases).unwrap_or_else(|e| {
        obs::error!("--phases: {e}");
        usage();
    });
    let target = match &o.socket {
        Some(path) => {
            let in_proc = [
                ("--workers", o.workers.is_some()),
                ("--faults", o.faults.is_some()),
                ("--store", o.store.is_some()),
            ];
            if let Some((flag, _)) = in_proc.iter().find(|(_, set)| *set) {
                obs::error!(
                    "{flag} configures the in-process scheduler and has no effect with \
                     --socket; set it on the daemon instead"
                );
                usage();
            }
            Target::Socket { path: path.clone() }
        }
        None => Target::InProc {
            workers: o.workers.unwrap_or(4),
            faults: o.faults.clone(),
            store_dir: o.store.clone(),
        },
    };
    let cfg = RunConfig {
        seed: o.seed,
        mix: resolve_mix(&o.mix),
        scale: o.scale,
        qps: o.qps,
        jobs: o.jobs,
        phases,
        target,
        collectors: o.collectors,
        stitch: o.stitch_out.is_some(),
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
    if let (Some(stitch_path), Some(trace)) = (&o.stitch_out, &report.stitched) {
        match obs::chrome::export_file(trace, stitch_path) {
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

fn cmd_schedule(o: &Opts) {
    let mix = resolve_mix(&o.mix);
    let schedule = arrivals::schedule(o.seed, o.phase, o.jobs, o.qps);
    let sample = mix.sample(o.seed, o.phase, o.jobs);
    println!(
        "schedule: seed {} phase {} mix {} ({} cells) {} jobs at {} qps, scale {}",
        o.seed,
        o.phase,
        mix.name,
        mix.cells.len(),
        o.jobs,
        o.qps,
        scale_name(o.scale),
    );
    for (i, (offset, &cell)) in schedule.iter().zip(&sample).take(o.head).enumerate() {
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
    if o.jobs > o.head {
        println!("... {} more", o.jobs - o.head);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let o = parse_opts(&args[1..]);
    match cmd.as_str() {
        "run" => cmd_run(&o),
        "schedule" => cmd_schedule(&o),
        _ => usage(),
    }
}
