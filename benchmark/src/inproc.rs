//! The three workloads that drive an in-process `svc::Scheduler`:
//! `exec_batch`, `compile_cold` and `arch_profiled`.
//!
//! All three are closed loops with two clients (two generator threads),
//! each keeping one job in flight, against a scheduler with two workers
//! and no time limit other than the scheduler's default.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use svc::job::{JobSpec, Scale};
use svc::scheduler::{Config, Scheduler};
use svc::StoreStats;

use crate::analyze::{self, set, Oracle, Verdict};
use crate::daemon::status_mb;
use crate::drive::{
    closed_loop, nearer_to_stop, ClientLog, Done, Feed, RoundMark, Tracing, SETUP_ROUND,
};
use crate::metrics::Values;
use crate::report::{self, Outcome, RunArgs};
use crate::stats;
use crate::workloads::Workload;
use crate::{probes, trace};

/// Scheduler workers, and closed-loop clients.
pub const WORKERS: usize = 2;
/// Times set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// Size cap of the store `compile_cold` fills each round: under a third
/// of the 1.8 MB one round writes, so most puts evict.
pub const COMPILE_COLD_STORE_CAP: u64 = 512 << 10;
/// Where the in-process workloads read their own memory use.
const SELF_STATUS: &str = "/proc/self/status";

fn start(store_dir: Option<PathBuf>, store_cap_bytes: u64) -> Result<Scheduler, String> {
    Scheduler::start(Config {
        workers: WORKERS,
        store_dir,
        store_cap_bytes,
        ..Config::default()
    })
    .map_err(|e| format!("scheduler start: {e}"))
}

/// The warm-up round: every cell once at test scale (for `compile_cold`,
/// whose cells are test scale already, one cell per program and level)
/// through the same two closed-loop clients, so WaCC has compiled every
/// module and every code path has run before timing starts.
fn warm_up(
    sched: &Scheduler,
    cells: &[JobSpec],
    seed: u64,
    one_per_module: bool,
) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    let warm: Vec<JobSpec> = cells
        .iter()
        .filter(|c| !one_per_module || seen.insert((c.benchmark.clone(), c.level.to_string())))
        .map(|c| JobSpec {
            scale: Scale::Test,
            ..c.clone()
        })
        .collect();
    let feed = Feed::new(
        warm.len(),
        seed,
        SETUP_ROUND,
        1,
        Duration::ZERO,
        Tracing::Off,
    );
    let log = two_clients(sched, &warm, &feed);
    match log.done.iter().find(|d| !d.res.ok()) {
        Some(d) => Err(format!(
            "warm-up job {} failed: {:?}",
            d.res.spec, d.res.status
        )),
        None => Ok(()),
    }
}

/// Runs two closed-loop clients over `feed` until it ends.
fn two_clients(sched: &Scheduler, cells: &[JobSpec], feed: &Feed) -> ClientLog {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..WORKERS)
            .map(|_| scope.spawn(|| closed_loop(&mut &*sched, cells, feed, 1)))
            .collect();
        let mut log = ClientLog::default();
        for c in clients {
            log.absorb(c.join().expect("client thread"));
        }
        log
    })
}

/// What the measured part of a run yields, whichever way it was driven.
struct Measured {
    log: ClientLog,
    /// Seconds jobs were in flight (per-round spans added up where the
    /// rounds are separate).
    wall_s: f64,
    /// Seconds each round took.
    round_s: Vec<f64>,
    marks: Vec<RoundMark>,
    end_ns: u64,
    peak_queue_depth: u64,
    /// Store counters, one entry per round that had a store.
    store: Vec<StoreStats>,
}

/// `exec_batch` and `arch_profiled`: one scheduler, rounds back to back.
fn measure_continuous(
    sched: &Scheduler,
    cells: &[JobSpec],
    args: &RunArgs,
    tracing: Tracing,
) -> Measured {
    let feed = Feed::new(
        cells.len(),
        args.seed,
        0,
        u64::MAX,
        Duration::from_secs_f64(args.seconds),
        tracing,
    )
    .sampling_rss(SELF_STATUS.into());
    let log = two_clients(sched, cells, &feed);
    let all: Vec<&Done> = log.done.iter().collect();
    let (marks, end_ns) = (feed.marks(), obs::trace::now_ns());
    Measured {
        wall_s: analyze::span_s(&all),
        round_s: analyze::round_durations_s(&marks, end_ns),
        marks,
        end_ns,
        peak_queue_depth: sched.health().peak_queue_depth,
        store: Vec::new(),
        log,
    }
}

/// `compile_cold`: every round gets a scheduler of its own over an empty
/// store, so each job's lookup misses and its artifact is written.
fn measure_cold_rounds(
    cells: &[JobSpec],
    args: &RunArgs,
    tracing: Tracing,
    scratch: &Path,
) -> Result<Measured, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut m = Measured {
        log: ClientLog::default(),
        wall_s: 0.0,
        round_s: Vec::new(),
        marks: Vec::new(),
        end_ns: 0,
        peak_queue_depth: 0,
        store: Vec::new(),
    };
    let t0 = Instant::now();
    for round in 0u64.. {
        let dir = scratch.join(format!("r{round}"));
        let sched = start(Some(dir.clone()), COMPILE_COLD_STORE_CAP)?;
        let feed = Feed::new(cells.len(), args.seed, round, 1, budget, tracing)
            .sampling_rss(SELF_STATUS.into());
        let log = two_clients(&sched, cells, &feed);
        m.end_ns = obs::trace::now_ns();
        let round_s = analyze::span_s(&log.done.iter().collect::<Vec<_>>());
        m.wall_s += round_s;
        m.round_s.push(round_s);
        m.marks.extend(feed.marks());
        m.peak_queue_depth = m.peak_queue_depth.max(sched.health().peak_queue_depth);
        m.store.extend(sched.stats().store);
        m.log.absorb(log);
        sched.shutdown();
        // The round's worker threads are gone; what they recorded would
        // otherwise pile up until the run ends.
        drop(obs::trace::drain());
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        if nearer_to_stop(t0.elapsed(), round + 1, budget) {
            break;
        }
    }
    Ok(m)
}

/// Runs one in-process workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let cells = w.cells();
    let scratch = args.scratch("store");
    let tracing = if args.trace {
        Tracing::Alternate
    } else {
        Tracing::Off
    };

    // Set-up, repeated; the last repetition's scheduler is the one measured.
    let mut setup_s = Vec::new();
    let mut ready: Option<(Oracle, Option<Scheduler>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, Some(sched))) = ready.take() {
            sched.shutdown();
        }
        let t = Instant::now();
        let oracle = Oracle::for_cells(&cells);
        let sched = if w == Workload::CompileCold {
            let dir = scratch.join("warmup");
            let sched = start(Some(dir.clone()), COMPILE_COLD_STORE_CAP)?;
            warm_up(&sched, &cells, args.seed, true)?;
            sched.shutdown();
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            None
        } else {
            let sched = start(None, 0)?;
            warm_up(&sched, &cells, args.seed, false)?;
            Some(sched)
        };
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((oracle, sched));
    }
    let (oracle, sched) = ready.expect("SETUP_REPS > 0");

    let m = match &sched {
        Some(sched) => measure_continuous(sched, &cells, args, tracing),
        None => measure_cold_rounds(&cells, args, tracing, &scratch)?,
    };
    obs::trace::install(obs::trace::Sink::Null);
    drop(obs::trace::drain());
    let peak_rss_mb = status_mb(SELF_STATUS, "VmHWM").unwrap_or(0.0);
    let rss_mb = stats::median(&m.marks.iter().map(|r| r.rss_mb).collect::<Vec<_>>());
    if let Some(sched) = sched {
        sched.shutdown();
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // Outputs: every job against the native mirror, every program once
    // against the reference evaluator.
    let mut verdict = Verdict::default();
    oracle.check_all(&cells, &m.log.done, m.log.protocol_errors, &mut verdict);
    analyze::evaluator_check(&cells, &mut verdict);
    let all: Vec<&Done> = m.log.done.iter().collect();

    let (hits, lookups) = m
        .store
        .iter()
        .fold((0, 0), |(h, n), s| (h + s.hits, n + s.hits + s.misses));
    if w == Workload::CompileCold {
        verdict.attempted += 1;
        // Not exactly 0: when both workers want the same module's bytes
        // at once, the second finds what the first just wrote.
        if lookups == 0 || hits * 100 > lookups {
            verdict.fail(format!("compile_cold is mis-built: {hits} store hits in {lookups} lookups, wanted under 1 %"));
        }
    }

    let rounds = m.marks.len();
    let mut facts = vec![
        ("rounds", rounds as f64),
        ("jobs_measured", all.len() as f64),
        ("jobs_per_round", cells.len() as f64),
        ("measured_wall_s", m.wall_s),
        ("clients", WORKERS as f64),
        ("workers", WORKERS as f64),
    ];

    let mut values = Values::new();
    let mut table = None;
    if !args.trace {
        // Per-round values, median over the rounds.
        values.insert("setup_s", stats::median(&setup_s));
        values.insert(
            "throughput_jobs_s",
            verdict.ok_share() * cells.len() as f64 / stats::median(&m.round_s),
        );
        values.insert(
            "job_geomean_ms",
            analyze::round_median(&all, analyze::job_geomean_ms),
        );
        values.insert(
            "lat_p50_ms",
            analyze::round_median(&all, |r| analyze::latency_ms(r, 50.0)),
        );
        values.insert("lat_p90_ms", analyze::latency_p90_ms(&all));
    } else {
        values = analyze::zeroed_layers();
        let spans = analyze::span_layers(&mut values, &all, &all, 0);
        set(
            &mut values,
            "svc.scheduler.peak_queue_depth",
            m.peak_queue_depth as f64,
        );
        if lookups > 0 {
            set(
                &mut values,
                "svc.store.hit_ratio",
                hits as f64 / lookups as f64,
            );
            let per_round = |f: fn(&StoreStats) -> u64| {
                stats::median(&m.store.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
            };
            set(&mut values, "svc.store.puts", per_round(|s| s.puts));
            set(
                &mut values,
                "svc.store.evictions",
                per_round(|s| s.evictions),
            );
        }
        analyze::archsim_layers(&mut values, &cells, &all, m.wall_s, &mut verdict);
        set(
            &mut values,
            "obs.trace_overhead_pct",
            analyze::trace_overhead_pct(&m.marks, m.end_ns),
        );
        set(&mut values, "proc.rss_mb", rss_mb);
        set(&mut values, "proc.peak_rss_mb", peak_rss_mb);
        probes::run(&mut values, &args.scratch("probe"))?;

        let traced: Vec<&Done> = all.iter().copied().filter(|d| d.rec.traced).collect();
        report::write_chrome_trace(args, &trace::chrome_trace(&analyze::records(&traced), 0))?;
        facts.push(("traced_jobs", traced.len() as f64));
        table = Some(spans);
    }
    Ok(Outcome {
        verdict,
        values,
        facts,
        rows: analyze::cell_rows(&cells, &all),
        table,
    })
}
