//! `wabench-served top` — live terminal view of a running server.
//!
//! Polls the `Series` request (plus `Health` and `StatsExt`
//! for breaker states and worker counts) and prints one status line per
//! tick, vmstat-style: live QPS, p50/p99 job latency, queue depth,
//! worker utilization, breaker states, and a rolling SLO burn-rate
//! column (error-budget consumption relative to `--slo-target`, default
//! 0.999 availability — burn 1.0 means failing at exactly the budgeted
//! rate, above 1.0 the budget is being consumed faster than allotted).
//!
//! `--once` instead fetches a single window and prints machine-readable
//! `key=value` lines aggregated over the whole buffered window — the
//! mode scripts and the verify smoke use. Exit code is 0 when the
//! server answered, 1 on connection or protocol errors, 2 on usage
//! errors.
//!
//! The server must be sampling (`wabench-served serve --sample-ms`,
//! on by default) for the window to be nonempty; against a sampler-less
//! server `top` reports an empty window rather than failing.
//! Pointed at a `wabench-router` socket the per-shard requests
//! (`Series`, `StatsExt`) are refused by the router; `top`
//! warns once and shows the fleet aggregates (`Health`) with empty
//! per-shard columns instead of erroring — watch an individual shard's
//! socket for full detail (see docs/DEPLOYMENT.md).

use std::process::exit;
use std::time::Duration;

use engines::EngineKind;
use obs::cli::{self, Args, Command, Flag};
use obs::series::Window;
use svc::telemetry::{SeriesPoint, SeriesReport};

use crate::{connect, fetch};

#[rustfmt::skip]
pub const COMMAND: Command = Command::new("top", &[
    crate::SOCKET,
    Flag::value("--interval-ms", "N", "poll cadence").default("1000"),
    Flag::value("--iterations", "N", "stop after N ticks (default: run until interrupted)"),
    Flag::switch("--once", "fetch one window, print key=value lines, exit"),
    Flag::value("--slo-target", "F", "availability SLO for the burn-rate column").default("0.999"),
]);

/// `top`: one `--once` snapshot, or the poll loop.
pub fn run(a: &Args) {
    let slo_target = a.get("--slo-target", "a fraction in [0, 1)", |s| {
        s.parse().ok().filter(|f| (0.0..1.0).contains(f))
    });
    if a.on("--once") {
        cmd_once(a, slo_target);
    } else {
        cmd_watch(a, slo_target);
    }
}

/// Whole-window view of a series reply: the shared merge
/// ([`Window`]) plus the two interval-quantile columns only `top`
/// prints.
#[derive(Debug)]
struct WindowAgg {
    window: Window,
    /// Count-weighted mean of the interval p50s.
    p50_ns: u64,
    /// Max interval p99, printed as `p99_max`.
    p99_max_ns: u64,
}

impl WindowAgg {
    fn over(points: &[SeriesPoint]) -> WindowAgg {
        let (mut lat_count, mut p50_weighted) = (0u64, 0u128);
        for p in points {
            lat_count += p.lat.count;
            p50_weighted += u128::from(p.lat.count) * u128::from(p.lat.p50_ns);
        }
        WindowAgg {
            window: Window::over(points),
            p50_ns: p50_weighted.checked_div(u128::from(lat_count)).unwrap_or(0) as u64,
            p99_max_ns: points.iter().map(|p| p.lat.p99_ns).max().unwrap_or(0),
        }
    }
}

fn breaker_summary(breakers: &[(u8, fault::BreakerSnapshot)]) -> String {
    let open: Vec<String> = breakers
        .iter()
        .filter(|(_, b)| b.state != fault::BreakerState::Closed)
        .map(|(code, b)| {
            let name = EngineKind::from_code(*code).map_or("unknown", |k| k.name());
            format!("{name}:{}", b.state.name())
        })
        .collect();
    if open.is_empty() {
        "all-closed".to_string()
    } else {
        open.join(",")
    }
}

/// Like [`fetch`], but a `wabench-router` target's documented per-shard
/// refusal (an `Err` reply prefixed `router:`, see PROTOCOL.md) degrades
/// to a default value instead of exiting — pointing `top` at a
/// router shows fleet aggregates (`Health`, `Stats`) with empty
/// per-shard columns rather than dying. Warns once per refused request
/// kind; genuine transport errors still exit 1.
fn fetch_routed<T: Default>(what: &str, r: std::io::Result<T>, warned: &mut bool) -> T {
    match r {
        Ok(v) => v,
        Err(e) if e.to_string().contains("router:") => {
            if !*warned {
                obs::warn!(
                    "{what} is per-shard and the target is a router; showing fleet \
                     aggregates only (query a shard socket for {what}, see docs/DEPLOYMENT.md)"
                );
                *warned = true;
            }
            T::default()
        }
        Err(e) => {
            obs::error!("{what}: {e}");
            exit(1);
        }
    }
}

/// One fetch, machine-readable, aggregated over the buffered window.
fn cmd_once(a: &Args, slo_target: f64) {
    let mut client = connect(a);
    let mut warned = (false, false);
    let series = fetch_routed("series", client.series(), &mut warned.0);
    let health = fetch("health", client.health());
    let ext = fetch_routed("stats-ext", client.stats_ext(), &mut warned.1);
    let agg = WindowAgg::over(&series.points);
    let w = &agg.window;
    let last = series.points.last();
    println!("sampling={}", u8::from(!series.points.is_empty()));
    println!("points={}", series.points.len());
    println!("interval_ns={}", series.interval_ns);
    println!("window_ns={}", w.span_ns);
    println!("completed={}", w.completed);
    println!("ok={}", w.ok);
    println!("failed={}", w.failed);
    println!("qps={:.3}", w.qps());
    println!("p50_ns={}", agg.p50_ns);
    println!("p99_ns={}", w.p99_ns());
    println!("p99_max={}", agg.p99_max_ns);
    println!("queue_depth={}", last.map_or(0, |p| p.queue_depth));
    println!("busy_workers={}", last.map_or(0, |p| p.busy_workers));
    println!("workers={}", ext.workers);
    println!("utilization={:.3}", ext.utilization());
    println!("burn_rate={:.3}", w.burn(slo_target));
    println!("slo_target={}", slo_target);
    println!("breakers={}", breaker_summary(&health.breakers));
}

fn header() {
    println!(
        "{:>8}  {:>8}  {:>9}  {:>9}  {:>5}  {:>9}  {:>7}  breakers",
        "time", "qps", "p50", "p99", "queue", "busy", "burn"
    );
}

/// Poll loop: one status line per tick from the newest sample deltas.
/// Uses the `since` cursor so the server only ships fresh samples;
/// a cursorless first fetch seeds the cursor from the buffered window.
fn cmd_watch(a: &Args, slo_target: f64) {
    let interval_ms = a.get("--interval-ms", "a positive integer", cli::positive);
    let interval = Duration::from_millis(interval_ms);
    let iterations: Option<u64> = a.opt("--iterations", "a positive integer", cli::positive);
    let mut client = connect(a);
    // Redraw the header periodically so it survives scrollback.
    const HEADER_EVERY: u64 = 20;
    let mut last_seq: Option<u64> = None;
    let mut last_point: Option<SeriesPoint> = None;
    let mut tick = 0u64;
    let mut warned = (false, false);
    loop {
        if tick.is_multiple_of(HEADER_EVERY) {
            header();
        }
        let series: SeriesReport =
            fetch_routed("series", client.series_since(last_seq), &mut warned.0);
        let health = fetch("health", client.health());
        let ext = fetch_routed("stats-ext", client.stats_ext(), &mut warned.1);
        if let Some(p) = series.points.last() {
            last_seq = Some(p.seq);
            last_point = Some(p.clone());
        }
        let agg = WindowAgg::over(&series.points);
        let last = series.points.last().or(last_point.as_ref());
        println!(
            "{:>8.1}  {:>8.1}  {:>7.2}ms  {:>7.2}ms  {:>5}  {:>4}/{:<4}  {:>6.2}x  {}",
            series.server_now_ns as f64 / 1e9,
            agg.window.qps(),
            agg.p50_ns as f64 / 1e6,
            agg.window.p99_ns() as f64 / 1e6,
            last.map_or(0, |p| p.queue_depth),
            last.map_or(0, |p| p.busy_workers),
            ext.workers,
            agg.window.burn(slo_target),
            breaker_summary(&health.breakers),
        );
        tick += 1;
        if iterations.is_some_and(|n| tick >= n) {
            break;
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::series::HistDelta;

    fn point(seq: u64, count: u64, p50_ns: u64, p99_ns: u64, buckets: Vec<(u8, u64)>) -> SeriesPoint {
        SeriesPoint {
            seq,
            interval_ns: 1_000_000_000,
            completed: count,
            ok: count,
            lat: HistDelta {
                count,
                sum_ns: count * p50_ns,
                max_ns: p99_ns,
                p50_ns,
                p99_ns,
                buckets,
            },
            ..SeriesPoint::default()
        }
    }

    /// The satellite regression: 99 fast jobs in one interval plus one
    /// 500ms straggler in a thin interval. Max-of-interval-p99s reports
    /// the straggler (500ms-ish) as the window p99; the merged
    /// histogram knows it is 1 job in 100 — beyond rank 99 — and
    /// reports a fast-bucket p99 instead.
    #[test]
    fn window_p99_merges_bucket_deltas_instead_of_taking_the_interval_max() {
        let fast_ms = 1_000_000u64; // bucket 12, bound 2^20 ns
        let slow_ms = 500_000_000u64; // bucket 21, bound 2^29 ns
        let points = vec![
            point(1, 99, fast_ms, fast_ms, vec![(12, 99)]),
            point(2, 1, slow_ms, slow_ms, vec![(21, 1)]),
        ];
        let agg = WindowAgg::over(&points);
        assert_eq!(agg.window.lat.count, 100);
        assert_eq!(agg.p50_ns, (99 * fast_ms + slow_ms) / 100, "count-weighted p50");
        assert_eq!(agg.p99_max_ns, slow_ms, "old max aggregation kept as p99_max");
        let merged = agg.window.p99_ns();
        assert!(
            merged <= obs::metrics::bucket_bound_ns(12),
            "merged p99 ({merged}ns) must come from the fast bucket, not the straggler"
        );
        assert!(merged > 0, "merged p99 interpolates a nonzero estimate");
    }

    /// Out-of-range bucket indices (a corrupt or future-version point)
    /// are ignored rather than panicking.
    #[test]
    fn window_agg_ignores_out_of_range_bucket_indices() {
        let bad = obs::metrics::BUCKETS as u8;
        let points = vec![point(1, 5, 1_000_000, 1_000_000, vec![(bad, 5)])];
        let agg = WindowAgg::over(&points);
        assert_eq!(agg.window.lat.count, 0);
    }
}
