//! `serve_warm`: one `wabench-served` child with two workers and a
//! primed store, driven over its Unix socket by two generator threads on
//! two connections.
//!
//! Phases of the measured window:
//!
//! - `sat` — closed loop, two connections with four jobs in flight each
//!   (eight outstanding); gives throughput and in-job time.
//! - `hi` — open loop, seeded Poisson arrivals at [`RATE_HI_QPS`]; gives
//!   the latency metrics, timed from each job's intended send instant.
//! - `lo` — the same at [`RATE_LO_QPS`]; traced runs only, it feeds
//!   per-layer metrics.
//!
//! A traced run also needs an untraced reference under the same
//! conditions, so it keeps two daemons: the `sat` phase alternates
//! between one started plainly and one started with `--trace-out`, and
//! the open-loop phases use the traced one.

use std::time::{Duration, Instant};

use svc::job::JobSpec;
use svc::server::Client;
use svc::StoreStats;

use crate::analyze::{self, set, Oracle, Verdict};
use crate::daemon::{status_mb, Daemon};
use crate::drive::{closed_loop, open_loop, ClientLog, Done, Feed, Tracing, SETUP_ROUND};
use crate::metrics::Values;
use crate::report::{self, Outcome, RunArgs};
use crate::trace::{self, Phase};
use crate::workloads::round_order;
use crate::{probes, stats};

/// Open-loop rate of the `lo` phase: about 35 % of the `sat` throughput
/// measured on the commit that defined the benchmark. Frozen: it does
/// not follow the machine or later changes.
pub const RATE_LO_QPS: f64 = 375.0;
/// Open-loop rate of the `hi` phase: about 70 % of that throughput.
pub const RATE_HI_QPS: f64 = 750.0;
/// Tail-latency limit behind `load.slo_max_rate_qps`, ms.
pub const TAIL_LIMIT_MS: f64 = 25.0;
/// Generator lateness (p99) above which a run's latencies are suspect, ms.
pub const LATENESS_LIMIT_MS: f64 = 10.0;
/// Jobs each of the two `sat` connections keeps in flight.
pub const SAT_IN_FLIGHT: usize = 4;
/// Times set-up is repeated in an untraced run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// Idle pings behind the reactor round-trip probe.
const RTT_PINGS: usize = 1000;

/// Two closed-loop clients on two connections over `feed`.
fn two_connections(
    daemon: &Daemon,
    cells: &[JobSpec],
    feed: &Feed,
    in_flight: usize,
) -> Result<ClientLog, String> {
    let mut conns = [daemon.connect()?, daemon.connect()?];
    Ok(std::thread::scope(|scope| {
        let clients: Vec<_> = conns
            .iter_mut()
            .map(|c| scope.spawn(move || closed_loop(c, cells, feed, in_flight)))
            .collect();
        let mut log = ClientLog::default();
        for c in clients {
            log.absorb(c.join().expect("client thread"));
        }
        log
    }))
}

/// Spawns a daemon on an empty store, fills the store (every cell once:
/// miss, compile, put) and runs every cell once more as a warm-up, which
/// must hit.
fn set_up(args: &RunArgs, cells: &[JobSpec], tag: &str, traced: bool) -> Result<Daemon, String> {
    let daemon = Daemon::spawn(&args.served, &args.scratch(tag), traced)?;
    for pass in 0..2 {
        let feed = Feed::new(
            cells.len(),
            args.seed,
            SETUP_ROUND + pass,
            1,
            Duration::ZERO,
            Tracing::Off,
        );
        let log = two_connections(&daemon, cells, &feed, SAT_IN_FLIGHT)?;
        let hits = log.done.iter().filter(|d| d.res.warm_artifact).count();
        let ok = log.done.iter().filter(|d| d.res.ok()).count();
        if ok != cells.len() || hits != pass as usize * cells.len() {
            return Err(format!(
                "set-up pass {pass}: {ok}/{} jobs ok, {hits} store hits",
                cells.len()
            ));
        }
    }
    Ok(daemon)
}

fn store_stats(client: &mut Client) -> Result<StoreStats, String> {
    client
        .stats()
        .map_err(|e| format!("stats: {e}"))?
        .store
        .ok_or_else(|| "daemon runs without a store".to_string())
}

/// One open-loop phase at `qps` for `seconds` on `daemon`.
fn open_phase(
    daemon: &Daemon,
    cells: &[JobSpec],
    args: &RunArgs,
    phase: Phase,
    qps: f64,
    seconds: f64,
    traced: bool,
) -> Result<ClientLog, String> {
    let salt = phase as u64 + 1;
    let n = ((qps * seconds) as usize).max(1);
    let schedule = load::arrivals::schedule(args.seed, salt, n, qps);
    let trace_ids = load::traces::trace_ids(args.seed, SETUP_ROUND - salt, n);
    let order = round_order(args.seed, SETUP_ROUND - salt, cells.len());
    let (mut submitter, mut collector) = (daemon.connect()?, daemon.connect()?);
    Ok(open_loop(
        &mut submitter,
        &mut collector,
        cells,
        &order,
        &schedule,
        &trace_ids,
        traced,
        phase,
    ))
}

fn rtt_us(daemon: &Daemon) -> Result<Vec<f64>, String> {
    let mut client = daemon.connect()?;
    (0..RTT_PINGS)
        .map(|_| {
            let t = Instant::now();
            client.ping().map_err(|e| format!("ping: {e}"))?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

/// What the measured window of a run yields.
struct Measured {
    log: ClientLog,
    /// `sat` throughput per slice: `[0]` on the plain daemon, `[1]` on
    /// the traced one (traced runs only).
    sat_throughput: [Vec<f64>; 2],
    /// `VmRSS` of the measured daemon at each `sat` round start, MiB.
    rss_samples: Vec<f64>,
    /// Idle ping round trips, µs (traced runs only).
    rtt_us: Vec<f64>,
    store_before: StoreStats,
    store_after: StoreStats,
    peak_queue_depth: u64,
    peak_rss_mb: f64,
}

/// Drives the phases against `daemons`: the last one is the measured
/// daemon; a traced run has the plain reference daemon before it and
/// alternates the `sat` slices between the two.
fn measure(args: &RunArgs, cells: &[JobSpec], daemons: &[Daemon]) -> Result<Measured, String> {
    let main = daemons.last().expect("at least one daemon");
    let mut control = main.connect()?;
    let store_before = store_stats(&mut control)?;
    let rtt_us = if args.trace {
        rtt_us(main)?
    } else {
        Vec::new()
    };

    let (sat_share, lo_share, hi_share) = if args.trace {
        (0.4, 0.25, 0.35)
    } else {
        (0.5, 0.0, 0.5)
    };
    let slices = if args.trace { 4 } else { 1 };
    let mut log = ClientLog::default();
    let mut sat_throughput = [Vec::new(), Vec::new()];
    let mut rss_samples = Vec::new();
    let mut next_round = 0;
    for slice in 0..slices {
        let on_main = slice % daemons.len() == daemons.len() - 1;
        let daemon = &daemons[slice % daemons.len()];
        let feed = Feed::new(
            cells.len(),
            args.seed,
            next_round,
            u64::MAX,
            Duration::from_secs_f64(args.seconds * sat_share / slices as f64),
            if args.trace && on_main {
                Tracing::On
            } else {
                Tracing::Off
            },
        )
        .sampling_rss(daemon.status_path());
        log.absorb(two_connections(daemon, cells, &feed, SAT_IN_FLIGHT)?);
        let marks = feed.marks();
        next_round += marks.len() as u64;
        let round_s = analyze::round_durations_s(&marks, obs::trace::now_ns());
        sat_throughput[slice % 2].push(cells.len() as f64 / stats::median(&round_s));
        if on_main {
            rss_samples.extend(marks.iter().map(|m| m.rss_mb));
        }
    }
    if args.trace {
        log.absorb(open_phase(
            main,
            cells,
            args,
            Phase::Lo,
            RATE_LO_QPS,
            args.seconds * lo_share,
            true,
        )?);
    }
    log.absorb(open_phase(
        main,
        cells,
        args,
        Phase::Hi,
        RATE_HI_QPS,
        args.seconds * hi_share,
        args.trace,
    )?);

    Ok(Measured {
        log,
        sat_throughput,
        rss_samples,
        rtt_us,
        store_before,
        store_after: store_stats(&mut control)?,
        peak_queue_depth: control
            .health()
            .map_err(|e| format!("health: {e}"))?
            .peak_queue_depth,
        peak_rss_mb: status_mb(&main.status_path(), "VmHWM").unwrap_or(0.0),
    })
}

/// Runs `serve_warm`.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let cells = args.workload.cells();

    // Set-up. Untraced: repeated, the last daemon is measured. Traced:
    // one plain daemon (the reference) and one traced.
    let mut setup_s = Vec::new();
    let mut daemons: Vec<Daemon> = Vec::new();
    let mut oracle = None;
    let reps = if args.trace { 2 } else { SETUP_REPS };
    for rep in 0..reps {
        if !args.trace {
            if let Some(previous) = daemons.pop() {
                previous.shutdown()?;
            }
        }
        let t = Instant::now();
        oracle = Some(Oracle::for_cells(&cells));
        daemons.push(set_up(
            args,
            &cells,
            &format!("d{rep}"),
            args.trace && rep == 1,
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let oracle = oracle.expect("at least one set-up");

    let Measured {
        log,
        sat_throughput,
        rss_samples,
        rtt_us: rtt,
        store_before,
        store_after,
        peak_queue_depth,
        peak_rss_mb,
    } = measure(args, &cells, &daemons)?;
    let mut server_trace = None;
    for d in daemons {
        server_trace = d.shutdown()?.or(server_trace);
    }

    // Outputs.
    let mut verdict = Verdict::default();
    oracle.check_all(&cells, &log.done, log.protocol_errors, &mut verdict);
    for d in log.done.iter().filter(|d| !d.res.warm_artifact) {
        verdict.fail(format!(
            "{}: compiled instead of loading from the store",
            cells[d.rec.cell]
        ));
    }
    analyze::evaluator_check(&cells, &mut verdict);
    let hits = store_after.hits - store_before.hits;
    let lookups = hits + store_after.misses - store_before.misses;
    verdict.attempted += 1;
    // Both daemons of a traced run serve hits, but only one is asked.
    if lookups == 0 || hits != lookups {
        verdict.fail(format!(
            "serve_warm is mis-built: {hits} store hits in {lookups} lookups, wanted all"
        ));
    }

    let sat = analyze::of_phase(&log.done, Phase::Sat);
    let lo = analyze::of_phase(&log.done, Phase::Lo);
    let hi = analyze::of_phase(&log.done, Phase::Hi);
    let open: Vec<&Done> = lo.iter().chain(&hi).copied().collect();
    let lateness: Vec<f64> = open
        .iter()
        .map(|d| d.rec.lateness_ns() as f64 / 1e6)
        .collect();
    let lateness_p99 = stats::percentile(&lateness, 99.0);
    if lateness_p99 > LATENESS_LIMIT_MS {
        eprintln!(
            "warning: the generator ran late (p99 {lateness_p99:.3} ms > {LATENESS_LIMIT_MS} ms); \
             this run's latencies are not to be trusted"
        );
    }
    let mut facts = vec![
        ("jobs_sat", sat.len() as f64),
        ("jobs_lo", lo.len() as f64),
        ("jobs_hi", hi.len() as f64),
        ("rate_lo_qps", RATE_LO_QPS),
        ("rate_hi_qps", RATE_HI_QPS),
        ("tail_limit_ms", TAIL_LIMIT_MS),
        ("lateness_limit_ms", LATENESS_LIMIT_MS),
        ("gen_lateness_ms_p99", lateness_p99),
        ("connections", 2.0),
        ("sat_outstanding", 2.0 * SAT_IN_FLIGHT as f64),
        ("workers", crate::daemon::WORKERS as f64),
    ];

    let mut values = Values::new();
    let mut table = None;
    if !args.trace {
        values.insert("setup_s", stats::median(&setup_s));
        // Per-round values, median over the rounds (a round is one pass
        // over the 102 cells, in `hi` as in `sat`).
        values.insert(
            "throughput_jobs_s",
            verdict.ok_share() * sat_throughput[0][0],
        );
        values.insert(
            "job_geomean_ms",
            analyze::round_median(&sat, analyze::job_geomean_ms),
        );
        values.insert(
            "lat_p50_ms",
            analyze::round_median(&hi, |r| analyze::latency_ms(r, 50.0)),
        );
        values.insert("lat_p90_ms", analyze::latency_p90_ms(&hi));
    } else {
        values = analyze::zeroed_layers();
        let traced: Vec<&Done> = log.done.iter().filter(|d| d.rec.traced).collect();
        let offset_ns = trace::clock_offset_ns(&analyze::records(&traced));
        let spans = analyze::span_layers(&mut values, &lo, &hi, offset_ns);
        set(
            &mut values,
            "svc.scheduler.peak_queue_depth",
            peak_queue_depth as f64,
        );
        set(
            &mut values,
            "svc.store.hit_ratio",
            hits as f64 / lookups.max(1) as f64,
        );
        set(
            &mut values,
            "svc.store.puts",
            (store_after.puts - store_before.puts) as f64,
        );
        set(
            &mut values,
            "svc.store.evictions",
            (store_after.evictions - store_before.evictions) as f64,
        );
        set(&mut values, "svc.reactor.rtt_us_p50", stats::median(&rtt));
        set(
            &mut values,
            "svc.reactor.rtt_us_p99",
            stats::percentile(&rtt, 99.0),
        );

        let tail_p = stats::tail_percentile(lo.len().min(hi.len()));
        let (lo_tail, hi_tail) = (
            analyze::latency_ms(&lo, tail_p),
            analyze::latency_ms(&hi, tail_p),
        );
        set(
            &mut values,
            "load.lat_p50_ms_lo",
            analyze::latency_ms(&lo, 50.0),
        );
        set(&mut values, "load.lat_tail_ms_lo", lo_tail);
        set(
            &mut values,
            "load.lat_p50_ms_hi",
            analyze::latency_ms(&hi, 50.0),
        );
        set(&mut values, "load.lat_tail_ms_hi", hi_tail);
        set(&mut values, "load.tail_percentile", tail_p);
        set(&mut values, "load.gen_lateness_ms_p99", lateness_p99);
        // The highest frozen rate that kept its tail under the limit
        // with nothing failed or lost; a step function, so not gated.
        let clean = verdict.failed == 0;
        let slo = [(RATE_HI_QPS, hi_tail), (RATE_LO_QPS, lo_tail)]
            .into_iter()
            .find(|(_, tail)| clean && *tail <= TAIL_LIMIT_MS)
            .map_or(0.0, |(rate, _)| rate);
        set(&mut values, "load.slo_max_rate_qps", slo);
        let (untraced, traced_thr) = (
            stats::median(&sat_throughput[0]),
            stats::median(&sat_throughput[1]),
        );
        set(
            &mut values,
            "obs.trace_overhead_pct",
            100.0 * (untraced - traced_thr) / untraced,
        );
        set(&mut values, "proc.rss_mb", stats::median(&rss_samples));
        set(&mut values, "proc.peak_rss_mb", peak_rss_mb);
        probes::run(&mut values, &args.scratch("probe"))?;

        report::write_chrome_trace(
            args,
            &trace::chrome_trace(&analyze::records(&hi), offset_ns),
        )?;
        // The program's own sink was on in the traced daemon; its export
        // must hold up too.
        let server_trace = server_trace.ok_or("the traced daemon wrote no trace")?;
        let summary = obs::chrome::validate(&server_trace)
            .map_err(|e| format!("the daemon's Chrome trace is invalid: {e}"))?;
        facts.push(("served_trace_events", summary.events as f64));
        facts.push(("clock_offset_ns", offset_ns as f64));
        table = Some(spans);
    }
    Ok(Outcome {
        verdict,
        values,
        facts,
        rows: analyze::cell_rows(&cells, &sat),
        table,
    })
}
