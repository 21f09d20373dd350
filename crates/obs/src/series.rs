//! Live telemetry time series: a background sampler over the service's
//! job metrics feeding a fixed-capacity delta ring, and the window
//! aggregate the alert rules and `wabench-served top` judge it by.
//!
//! `Stats`/`StatsExt` answers are cumulative snapshots — a spike that
//! happened ten seconds ago is invisible once the averages re-converge.
//! A [`Sampler`] reads a fixed set of [`JobMetrics`] handles every
//! interval and stores one [`SeriesPoint`] of *deltas* (counter
//! increments, per-interval histogram quantiles) plus instantaneous
//! gauge levels into a bounded ring, so an operator tool can ask "what
//! happened in the last minute" without the server keeping unbounded
//! history. [`Window`] merges a run of points into whole-window totals
//! and one exact p99.
//!
//! Nothing samples unless a `Sampler` is explicitly started, so
//! workloads that never start one (the simulated figure paths) are
//! bit-identical with this module compiled in — the same contract as
//! [`crate::trace::Sink::Null`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::trace;

/// Per-interval view of one histogram: the observations made since the
/// previous sample. Quantiles are bucket-interpolated (the interval
/// difference of two cumulative snapshots has no exact min/max).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistDelta {
    /// Observations during the interval.
    pub count: u64,
    /// Sum of those observations, nanoseconds.
    pub sum_ns: u64,
    /// Interval p50 estimate, nanoseconds (0 when `count == 0`).
    pub p50_ns: u64,
    /// Interval p99 estimate, nanoseconds (0 when `count == 0`).
    pub p99_ns: u64,
    /// Sparse nonzero bucket deltas `(bucket index, count)`, index
    /// order (see [`crate::metrics::bucket_bound_ns`]). Summing these
    /// across intervals reconstructs the window histogram, so a merged
    /// window quantile is exact where averaging interval quantiles is
    /// not.
    pub buckets: Vec<(u8, u64)>,
}

/// The registry handles a sampler reads, resolved once so neither the
/// service's per-job hot path nor the sampler touches the name→handle
/// map. Per-engine vectors are indexed by engine wire code.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// Jobs completed (any status).
    pub completed: Arc<Counter>,
    /// Jobs completed `Ok`.
    pub ok: Arc<Counter>,
    /// Jobs completed with any non-`Ok` status.
    pub failed: Arc<Counter>,
    /// Per-engine completed counters, indexed by engine code.
    pub engines: Vec<Arc<Counter>>,
    /// Jobs queued but not yet picked up.
    pub queue_depth: Arc<Gauge>,
    /// Workers currently running a job.
    pub busy: Arc<Gauge>,
    /// Per-engine breaker-state gauges (0 closed, 1 open, 2 half-open),
    /// indexed by engine code.
    pub breakers: Vec<Arc<Gauge>>,
    /// End-to-end job wall time.
    pub wall: Arc<Histogram>,
}

/// One interval of the service time series (the `Series` reply
/// element).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Monotone sample number since the sampler started (a gap-free
    /// window starts at the client's previously seen seq + 1).
    pub seq: u64,
    /// Sample time on the server trace clock, ns.
    pub t_ns: u64,
    /// Nanoseconds this sample covers.
    pub interval_ns: u64,
    /// Jobs completed during the interval.
    pub completed: u64,
    /// ... of which ok.
    pub ok: u64,
    /// ... of which failed (any non-ok status).
    pub failed: u64,
    /// Queue depth at sample time.
    pub queue_depth: u64,
    /// Workers running a job at sample time.
    pub busy_workers: u64,
    /// Job wall-time distribution over the interval.
    pub lat: HistDelta,
    /// Engines with completions this interval: `(engine code, jobs)`,
    /// zero-delta engines omitted.
    pub engines: Vec<(u8, u64)>,
    /// Breakers not in the closed state at sample time:
    /// `(engine code, state byte)`, closed breakers omitted.
    pub breakers: Vec<(u8, u8)>,
}

impl SeriesPoint {
    /// Completions per second over the interval (0 for an empty
    /// interval).
    pub fn qps(&self) -> f64 {
        rate(self.completed, self.interval_ns)
    }
}

fn rate(n: u64, span_ns: u64) -> f64 {
    if span_ns == 0 {
        0.0
    } else {
        n as f64 * 1e9 / span_ns as f64
    }
}

/// Whole-window totals over consecutive [`SeriesPoint`]s: the one
/// merge behind the alert rules' burn rate and p99 and `top`'s window
/// columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Window {
    /// Jobs completed across the window.
    pub completed: u64,
    /// ... of which ok.
    pub ok: u64,
    /// ... of which failed.
    pub failed: u64,
    /// Nanoseconds the window covers (the points' intervals summed).
    pub span_ns: u64,
    /// The points' sparse bucket deltas merged into one histogram;
    /// `count` is the merged bucket total. No exact extremes survive
    /// the merge, so quantiles interpolate within buckets.
    pub lat: HistogramSnapshot,
}

impl Window {
    /// Merges `points`. Out-of-range bucket indices (a corrupt or
    /// future-version point) are skipped rather than panicking.
    pub fn over(points: &[SeriesPoint]) -> Window {
        let mut w = Window::default();
        for p in points {
            w.completed += p.completed;
            w.ok += p.ok;
            w.failed += p.failed;
            w.span_ns += p.interval_ns;
            w.lat.sum_ns += p.lat.sum_ns;
            for (i, c) in &p.lat.buckets {
                if let Some(slot) = w.lat.buckets.get_mut(usize::from(*i)) {
                    *slot += c;
                    w.lat.count += c;
                }
            }
        }
        w
    }

    /// Completions per second over the window (0 for an empty one).
    pub fn qps(&self) -> f64 {
        rate(self.completed, self.span_ns)
    }

    /// The merged window p99, ns (0 without latency observations) —
    /// exact to the bucket, where the max or mean of interval p99s
    /// over-reports whenever one thin interval has a bad tail.
    pub fn p99_ns(&self) -> u64 {
        self.lat.quantile_ns(0.99)
    }

    /// Error-budget burn: the observed failure ratio over the allotted
    /// one, `1 - slo` (floored at ε). 1.0 consumes the budget exactly
    /// on schedule; 0 when nothing completed.
    pub fn burn(&self, slo: f64) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        (self.failed as f64 / self.completed as f64) / (1.0 - slo).max(f64::EPSILON)
    }
}

/// Cumulative readings a ring differences against.
#[derive(Debug)]
struct Totals {
    completed: u64,
    ok: u64,
    failed: u64,
    engines: Vec<u64>,
    wall: HistogramSnapshot,
}

impl Totals {
    fn read(m: &JobMetrics) -> Totals {
        Totals {
            completed: m.completed.get(),
            ok: m.ok.get(),
            failed: m.failed.get(),
            engines: m.engines.iter().map(|c| c.get()).collect(),
            wall: m.wall.snapshot(),
        }
    }
}

/// A bounded ring of [`SeriesPoint`]s with the cumulative baselines
/// needed to turn metric readings into deltas.
#[derive(Debug)]
pub struct DeltaRing {
    metrics: JobMetrics,
    prev: Totals,
    last_t_ns: u64,
    seq: u64,
    cap: usize,
    points: VecDeque<SeriesPoint>,
}

impl DeltaRing {
    /// A ring reading `metrics` with room for `cap` points (min 1).
    ///
    /// Baselines are taken at creation, so the first sample covers
    /// exactly the ring's lifetime — counts accumulated before the ring
    /// existed never appear as a spurious first-interval spike.
    pub fn new(metrics: JobMetrics, cap: usize) -> DeltaRing {
        DeltaRing {
            prev: Totals::read(&metrics),
            metrics,
            last_t_ns: trace::now_ns(),
            seq: 0,
            cap: cap.max(1),
            points: VecDeque::new(),
        }
    }

    /// Takes one sample now, pushing a point (evicting the oldest at
    /// capacity) and returning a copy of it.
    pub fn sample(&mut self) -> SeriesPoint {
        let t_ns = trace::now_ns();
        let interval_ns = t_ns.saturating_sub(self.last_t_ns);
        self.last_t_ns = t_ns;

        let m = &self.metrics;
        let prev = std::mem::replace(&mut self.prev, Totals::read(m));
        let cur = &self.prev;
        let engines = cur
            .engines
            .iter()
            .zip(&prev.engines)
            .enumerate()
            .filter_map(|(code, (c, p))| {
                let jobs = c.saturating_sub(*p);
                (jobs > 0).then_some((code as u8, jobs))
            })
            .collect();
        let breakers = m
            .breakers
            .iter()
            .enumerate()
            .filter_map(|(code, g)| {
                let state = g.get();
                (state != 0).then_some((code as u8, state as u8))
            })
            .collect();
        let point = SeriesPoint {
            seq: self.seq,
            t_ns,
            interval_ns,
            completed: cur.completed.saturating_sub(prev.completed),
            ok: cur.ok.saturating_sub(prev.ok),
            failed: cur.failed.saturating_sub(prev.failed),
            queue_depth: m.queue_depth.get(),
            busy_workers: m.busy.get(),
            lat: hist_delta(&cur.wall, &prev.wall),
            engines,
            breakers,
        };
        self.seq += 1;
        if self.points.len() == self.cap {
            self.points.pop_front();
        }
        self.points.push_back(point.clone());
        point
    }

    /// The buffered window, oldest first.
    pub fn window(&self) -> Vec<SeriesPoint> {
        self.points.iter().cloned().collect()
    }
}

/// The per-interval stats between two cumulative snapshots of the same
/// histogram. Quantiles come from the bucket difference; min/max cannot
/// be differenced, so the delta snapshot carries none and
/// [`HistogramSnapshot::quantile_ns`] falls back to pure interpolation.
fn hist_delta(cur: &HistogramSnapshot, prev: &HistogramSnapshot) -> HistDelta {
    let mut diff = HistogramSnapshot {
        count: cur.count.saturating_sub(prev.count),
        sum_ns: cur.sum_ns.saturating_sub(prev.sum_ns),
        ..HistogramSnapshot::default()
    };
    for (d, (c, p)) in diff
        .buckets
        .iter_mut()
        .zip(cur.buckets.iter().zip(prev.buckets.iter()))
    {
        *d = c.saturating_sub(*p);
    }
    HistDelta {
        count: diff.count,
        sum_ns: diff.sum_ns,
        p50_ns: diff.quantile_ns(0.50),
        p99_ns: diff.quantile_ns(0.99),
        buckets: diff
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i as u8, *c))
            .collect(),
    }
}

struct Shared {
    ring: Mutex<DeltaRing>,
    stop: AtomicBool,
    // Signaled on stop so the sampling thread exits without waiting out
    // its full interval.
    wake: Condvar,
    gate: Mutex<()>,
}

/// A background thread sampling a [`DeltaRing`] every fixed interval.
///
/// Dropping (or [`Sampler::stop`]) joins the thread. The ring is only
/// ever touched under its mutex, so [`Sampler::window`] can run
/// concurrently with sampling.
pub struct Sampler {
    shared: Arc<Shared>,
    interval: Duration,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `metrics` every `interval` into a ring of `cap`
    /// points. Intervals shorter than 1ms are raised to 1ms.
    pub fn start(metrics: JobMetrics, interval: Duration, cap: usize) -> Sampler {
        let interval = interval.max(Duration::from_millis(1));
        let shared = Arc::new(Shared {
            ring: Mutex::new(DeltaRing::new(metrics, cap)),
            stop: AtomicBool::new(false),
            wake: Condvar::new(),
            gate: Mutex::new(()),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || loop {
                {
                    let gate = worker.gate.lock().expect("sampler gate");
                    // `stop()` sets the flag, then takes the gate to
                    // notify: checked under the gate, the flag is either
                    // already visible here or its notify finds us waiting.
                    // Waiting unchecked loses a stop that came first and
                    // blocks the join for a full interval.
                    if worker.stop.load(Ordering::Acquire) {
                        return;
                    }
                    let (_gate, _timeout) = worker
                        .wake
                        .wait_timeout(gate, interval)
                        .expect("sampler gate");
                }
                if worker.stop.load(Ordering::Acquire) {
                    return;
                }
                worker.ring.lock().expect("sampler ring").sample();
            })
            .expect("spawn obs-sampler");
        Sampler {
            shared,
            interval,
            handle: Some(handle),
        }
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Takes an extra sample immediately (the background cadence is
    /// unaffected). Lets request handlers close the window right before
    /// answering so the freshest interval is never missing.
    pub fn sample_now(&self) -> SeriesPoint {
        self.shared.ring.lock().expect("sampler ring").sample()
    }

    /// The buffered points with `seq` above `after` (the whole window
    /// for `None`), oldest first. Only those points are copied, under
    /// the ring lock; no sample is taken.
    pub fn window(&self, after: Option<u64>) -> Vec<SeriesPoint> {
        let ring = self.shared.ring.lock().expect("sampler ring");
        let start = ring
            .points
            .partition_point(|p| after.is_some_and(|seen| p.seq <= seen));
        ring.points.range(start..).cloned().collect()
    }

    /// Stops and joins the sampling thread (idempotent).
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        let _gate = self.shared.gate.lock().expect("sampler gate");
        self.shared.wake.notify_all();
        drop(_gate);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("interval", &self.interval)
            .field("running", &self.handle.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unregistered handles with three engine codes, so tests running
    /// in parallel never share a counter.
    fn metrics() -> JobMetrics {
        JobMetrics {
            completed: Arc::default(),
            ok: Arc::default(),
            failed: Arc::default(),
            engines: (0..3).map(|_| Arc::default()).collect(),
            queue_depth: Arc::default(),
            busy: Arc::default(),
            breakers: (0..3).map(|_| Arc::default()).collect(),
            wall: Arc::default(),
        }
    }

    #[test]
    fn deltas_measure_only_the_interval() {
        let m = metrics();
        m.completed.add(1_000); // pre-ring history
        m.engines[2].add(1_000);
        let mut ring = DeltaRing::new(m.clone(), 8);
        m.completed.add(3);
        m.ok.add(2);
        m.failed.add(1);
        m.engines[2].add(3);
        m.queue_depth.set(7);
        m.busy.set(2);
        m.breakers[1].set(2);
        m.wall.observe_ns(50_000);
        m.wall.observe_ns(60_000);
        let p = ring.sample();
        assert_eq!(p.seq, 0);
        assert_eq!((p.completed, p.ok, p.failed), (3, 2, 1), "pre-ring counts excluded");
        assert_eq!((p.queue_depth, p.busy_workers), (7, 2));
        assert_eq!(p.engines, vec![(2, 3)], "zero-delta engines omitted");
        assert_eq!(p.breakers, vec![(1, 2)], "closed breakers omitted");
        assert_eq!(p.lat.count, 2);
        assert_eq!(p.lat.sum_ns, 110_000);
        assert!(p.lat.p99_ns >= 32_768 && p.lat.p99_ns <= 131_072);
        // The sparse bucket deltas carry exactly the interval's
        // observations (both land in the 32k..64k bucket).
        let bucket_total: u64 = p.lat.buckets.iter().map(|(_, c)| c).sum();
        assert_eq!(bucket_total, 2);
        assert!(p
            .lat
            .buckets
            .iter()
            .all(|(i, c)| usize::from(*i) < crate::metrics::BUCKETS && *c > 0));

        // A quiet interval reads all-zero deltas, not repeats; gauges
        // are levels and repeat.
        let q = ring.sample();
        assert_eq!(q.completed, 0);
        assert!(q.engines.is_empty());
        assert_eq!(q.queue_depth, 7);
        assert_eq!(q.lat.count, 0);
        assert_eq!(q.lat.p99_ns, 0);
        assert!(q.lat.buckets.is_empty());
    }

    #[test]
    fn ring_wraps_at_capacity() {
        let m = metrics();
        let mut ring = DeltaRing::new(m.clone(), 4);
        for i in 0..10 {
            m.completed.add(i + 1);
            ring.sample();
        }
        let window = ring.window();
        assert_eq!(window.len(), 4, "capacity bounds the window");
        let seqs: Vec<u64> = window.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest evicted, order kept");
        // The deltas of the surviving points are the increments made
        // right before each sample (i+1 for sample i).
        let deltas: Vec<u64> = window.iter().map(|p| p.completed).collect();
        assert_eq!(deltas, vec![7, 8, 9, 10]);
        assert!(window.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn sampler_thread_fills_the_ring_and_stops() {
        let m = metrics();
        let mut sampler = Sampler::start(m.clone(), Duration::from_millis(5), 64);
        m.completed.add(42);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let window = sampler.window(None);
            if window.iter().map(|p| p.completed).sum::<u64>() >= 42 && window.len() >= 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sampler never observed the increment"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        sampler.stop();
        let after = sampler.window(None);
        std::thread::sleep(Duration::from_millis(20));
        let later = sampler.window(None);
        assert_eq!(
            after.last().map(|p| p.seq),
            later.last().map(|p| p.seq),
            "no samples after stop"
        );
    }

    #[test]
    fn sample_now_closes_the_window() {
        let m = metrics();
        let sampler = Sampler::start(m.clone(), Duration::from_secs(3600), 8);
        m.completed.add(5);
        let p = sampler.sample_now();
        assert_eq!(p.completed, 5);
        assert_eq!(sampler.window(None).len(), 1);
    }

    #[test]
    fn window_copies_only_points_after_the_cursor() {
        let sampler = Sampler::start(metrics(), Duration::from_secs(3600), 8);
        for _ in 0..4 {
            sampler.sample_now();
        }
        let seqs = |after| -> Vec<u64> {
            sampler.window(after).iter().map(|p| p.seq).collect()
        };
        assert_eq!(seqs(None), vec![0, 1, 2, 3]);
        assert_eq!(seqs(Some(1)), vec![2, 3]);
        assert!(seqs(Some(3)).is_empty(), "nothing new, nothing sampled");
        assert_eq!(seqs(None).len(), 4);
    }
}
