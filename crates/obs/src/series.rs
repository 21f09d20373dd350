//! Live telemetry time series: a background sampler over the service's
//! job metrics feeding a fixed-capacity delta ring, and the window
//! aggregate `wabench-served top` and `doctor` judge it by.
//!
//! `Stats` answers are cumulative snapshots — a spike that
//! happened ten seconds ago is invisible once the averages re-converge.
//! A [`Sampler`] reads its service's [`JobMetrics`] every interval and
//! stores one [`SeriesPoint`] of *deltas* (counter
//! increments, per-interval histogram quantiles) plus instantaneous
//! gauge levels into a bounded ring, so an operator tool can ask "what
//! happened in the last minute" without the server keeping unbounded
//! history. Each point also carries every engine's compile and exec
//! time for the jobs it covers, so [`Window`] merges a run of points
//! into whole-window totals, one p99, and the engine × phase self-time
//! profile (the paper's compile/execute split, live).
//!
//! Nothing samples unless a `Sampler` is explicitly started, so
//! workloads that never start one (the simulated figure paths) are
//! bit-identical with this module compiled in — the same contract as
//! [`crate::trace::Sink::Null`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::metrics::{bucket_bound_ns, Counter, Gauge, Histogram, HistogramSnapshot};
use crate::trace;

/// Per-interval view of one histogram: the observations made since the
/// previous sample. Quantiles are bucket-interpolated (the interval
/// difference of two cumulative snapshots has no min/max) and clamped
/// to the interval's own maximum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistDelta {
    /// Observations during the interval.
    pub count: u64,
    /// Sum of those observations, nanoseconds.
    pub sum_ns: u64,
    /// The largest observation during the interval, nanoseconds (0 when
    /// `count == 0`; [`DeltaRing::sample`] names the one race).
    pub max_ns: u64,
    /// Interval p50 estimate, nanoseconds (0 when `count == 0`).
    pub p50_ns: u64,
    /// Interval p99 estimate, nanoseconds (0 when `count == 0`), at
    /// most `max_ns`.
    pub p99_ns: u64,
    /// Sparse nonzero bucket deltas `(bucket index, count)`, index
    /// order (see [`crate::metrics::bucket_bound_ns`]). Summing these
    /// across intervals reconstructs the window histogram, so a merged
    /// window quantile is exact where averaging interval quantiles is
    /// not.
    pub buckets: Vec<(u8, u64)>,
}

/// The counts one service's workers update and its sampler reads. Each
/// scheduler owns one, shared with its sampler through one `Arc`, so
/// two schedulers in one process never count each other's jobs.
/// Per-engine vectors are indexed by engine wire code.
#[derive(Debug)]
pub struct JobMetrics {
    /// Jobs completed (any status).
    pub completed: Counter,
    /// Jobs completed `Ok`.
    pub ok: Counter,
    /// Jobs completed with any non-`Ok` status.
    pub failed: Counter,
    /// Per-engine completed counters, indexed by engine code.
    pub engines: Vec<Counter>,
    /// Per-engine compile-or-load nanoseconds, indexed by engine code.
    pub compile_ns: Vec<Counter>,
    /// Per-engine execution nanoseconds, indexed by engine code.
    pub exec_ns: Vec<Counter>,
    /// Jobs queued but not yet picked up.
    pub queue_depth: Gauge,
    /// Workers currently running a job.
    pub busy: Gauge,
    /// Per-engine breaker-state gauges (0 closed, 1 open, 2 half-open),
    /// indexed by engine code.
    pub breakers: Vec<Gauge>,
    /// End-to-end job wall time.
    pub wall: Histogram,
    /// The largest `wall` observation since the last sample, which the
    /// sampler swaps back to 0.
    wall_max: AtomicU64,
}

impl JobMetrics {
    /// Zeroed metrics with one per-engine slot for each code below
    /// `engines`.
    pub fn new(engines: usize) -> JobMetrics {
        JobMetrics {
            completed: Counter::default(),
            ok: Counter::default(),
            failed: Counter::default(),
            engines: (0..engines).map(|_| Counter::default()).collect(),
            compile_ns: (0..engines).map(|_| Counter::default()).collect(),
            exec_ns: (0..engines).map(|_| Counter::default()).collect(),
            queue_depth: Gauge::default(),
            busy: Gauge::default(),
            breakers: (0..engines).map(|_| Gauge::default()).collect(),
            wall: Histogram::default(),
            wall_max: AtomicU64::new(0),
        }
    }

    /// Records one completed job: its engine, outcome, end-to-end wall
    /// time and compile/exec split. Lock- and allocation-free; a code
    /// with no slot counts only in the totals.
    pub fn record(&self, engine: u8, ok: bool, wall_ns: u64, compile_ns: u64, exec_ns: u64) {
        self.completed.inc();
        if ok {
            self.ok.inc();
        } else {
            self.failed.inc();
        }
        let code = usize::from(engine);
        let per_engine = [(&self.engines, 1), (&self.compile_ns, compile_ns), (&self.exec_ns, exec_ns)];
        for (counters, n) in per_engine {
            if let Some(c) = counters.get(code) {
                c.add(n);
            }
        }
        // The interval max first: a sample that catches this job's
        // bucket then also holds its max (see `DeltaRing::sample`).
        self.wall_max.fetch_max(wall_ns, Ordering::Relaxed);
        self.wall.observe_ns(wall_ns);
    }
}

/// The work one engine completed during an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineDelta {
    /// Engine wire code.
    pub code: u8,
    /// Jobs completed.
    pub jobs: u64,
    /// Those jobs' compile-or-load time, summed, ns.
    pub compile_ns: u64,
    /// Those jobs' execution time, summed, ns.
    pub exec_ns: u64,
}

/// Maps an engine wire code to the name its profile stacks carry
/// (`Wasm3;exec`); the service supplies it, `obs` knows no engines.
pub type EngineName = fn(u8) -> &'static str;

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
    /// Engines with work this interval, code order; engines with all
    /// deltas zero are omitted.
    pub engines: Vec<EngineDelta>,
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

    /// Whether the interval's jobs recorded any compile or exec time
    /// (an idle interval records none).
    pub fn has_phase_time(&self) -> bool {
        self.engines.iter().any(|e| e.compile_ns + e.exec_ns > 0)
    }

    /// This interval's self-time per `engine;phase` stack, nonzero
    /// stacks only, in stack order.
    pub fn stacks(&self, name: EngineName) -> Vec<(String, u64)> {
        stacks(&self.engines, name)
    }

    /// This interval's share per stack, as [`Window::shares`].
    pub fn shares(&self, name: EngineName) -> Vec<(String, f64)> {
        shares(self.stacks(name))
    }
}

/// Self-time per `engine;phase` stack, nonzero stacks only, in stack
/// order.
fn stacks(engines: &[EngineDelta], name: EngineName) -> Vec<(String, u64)> {
    let mut stacks: Vec<(String, u64)> = engines
        .iter()
        .flat_map(|e| [(e.code, "compile", e.compile_ns), (e.code, "exec", e.exec_ns)])
        .filter(|(_, _, ns)| *ns > 0)
        .map(|(code, phase, ns)| (format!("{};{phase}", name(code)), ns))
        .collect();
    stacks.sort();
    stacks
}

/// Each stack's share of the stacks' total self-time.
fn shares(stacks: Vec<(String, u64)>) -> Vec<(String, f64)> {
    let total: u64 = stacks.iter().map(|(_, ns)| ns).sum();
    stacks
        .into_iter()
        .map(|(stack, ns)| (stack, ns as f64 / total as f64))
        .collect()
}

fn rate(n: u64, span_ns: u64) -> f64 {
    if span_ns == 0 {
        0.0
    } else {
        n as f64 * 1e9 / span_ns as f64
    }
}

/// Whole-window totals over consecutive [`SeriesPoint`]s: the one
/// merge behind `top`'s window columns and every reading of the
/// engine × phase profile (`windows`/`wdiff`, `doctor`).
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
    /// `count` is the merged bucket total. Quantiles interpolate within
    /// buckets (the snapshot carries no extremes) and [`Window::p99_ns`]
    /// clamps to `max_ns`.
    pub lat: HistogramSnapshot,
    /// The largest interval maximum, ns.
    pub max_ns: u64,
    /// Per-engine work summed over the points, code order.
    pub engines: Vec<EngineDelta>,
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
            w.max_ns = w.max_ns.max(p.lat.max_ns);
            for (i, c) in &p.lat.buckets {
                if let Some(slot) = w.lat.buckets.get_mut(usize::from(*i)) {
                    *slot += c;
                    w.lat.count += c;
                }
            }
            for e in &p.engines {
                let at = w.engines.partition_point(|m| m.code < e.code);
                match w.engines.get_mut(at) {
                    Some(m) if m.code == e.code => {
                        m.jobs += e.jobs;
                        m.compile_ns += e.compile_ns;
                        m.exec_ns += e.exec_ns;
                    }
                    _ => w.engines.insert(at, *e),
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
    /// over-reports whenever one thin interval has a bad tail — and
    /// never above the slowest job the window saw.
    pub fn p99_ns(&self) -> u64 {
        self.lat.quantile_ns(0.99).min(self.max_ns)
    }

    /// Each `engine;phase` stack's (`wasm3;compile`, `wasm3;exec`)
    /// share of the window's self-time, nonzero stacks only, in stack
    /// order; empty when no time was recorded.
    pub fn shares(&self, name: EngineName) -> Vec<(String, f64)> {
        shares(stacks(&self.engines, name))
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
    compile_ns: Vec<u64>,
    exec_ns: Vec<u64>,
    wall: HistogramSnapshot,
}

impl Totals {
    fn read(m: &JobMetrics) -> Totals {
        let read = |counters: &[Counter]| counters.iter().map(Counter::get).collect();
        Totals {
            completed: m.completed.get(),
            ok: m.ok.get(),
            failed: m.failed.get(),
            engines: read(&m.engines),
            compile_ns: read(&m.compile_ns),
            exec_ns: read(&m.exec_ns),
            wall: m.wall.snapshot(),
        }
    }
}

/// A bounded ring of [`SeriesPoint`]s with the cumulative baselines
/// needed to turn metric readings into deltas.
#[derive(Debug)]
pub struct DeltaRing {
    metrics: Arc<JobMetrics>,
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
    pub fn new(metrics: Arc<JobMetrics>, cap: usize) -> DeltaRing {
        metrics.wall_max.store(0, Ordering::Relaxed);
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
    ///
    /// Every counter is differenced against the previous reading, so
    /// each increment lands in exactly one point: a job whose counters
    /// straddle a sample splits across two points, never lost or
    /// counted twice. The interval max is swapped out after the
    /// histogram is read and [`JobMetrics::record`] raises it before
    /// observing, so it covers every job in this interval's buckets.
    /// The one exception is a job recorded between the two reads: it
    /// raises this interval's max but lands in the next interval's
    /// buckets, where the max is then only sure to reach that bucket's
    /// lower edge (see `hist_delta`).
    pub fn sample(&mut self) -> SeriesPoint {
        let t_ns = trace::now_ns();
        let interval_ns = t_ns.saturating_sub(self.last_t_ns);
        self.last_t_ns = t_ns;

        let m = &self.metrics;
        let prev = std::mem::replace(&mut self.prev, Totals::read(m));
        let max_ns = m.wall_max.swap(0, Ordering::Relaxed);
        let cur = &self.prev;
        let delta = |c: &[u64], p: &[u64], i: usize| c[i].saturating_sub(p[i]);
        let engines = (0..cur.engines.len())
            .map(|i| EngineDelta {
                code: i as u8,
                jobs: delta(&cur.engines, &prev.engines, i),
                compile_ns: delta(&cur.compile_ns, &prev.compile_ns, i),
                exec_ns: delta(&cur.exec_ns, &prev.exec_ns, i),
            })
            .filter(|e| e.jobs > 0 || e.compile_ns > 0 || e.exec_ns > 0)
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
            lat: hist_delta(&cur.wall, &prev.wall, max_ns),
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
/// [`HistogramSnapshot::quantile_ns`] falls back to pure interpolation,
/// which answers up to the bucket's upper bound — hence the clamp to
/// the interval max `max_ns`.
fn hist_delta(cur: &HistogramSnapshot, prev: &HistogramSnapshot, max_ns: u64) -> HistDelta {
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
    // The lower edge of the top nonzero bucket bounds every job in it,
    // including one whose max went to the previous interval.
    let top = diff.buckets.iter().rposition(|c| *c > 0);
    let max_ns = top.map_or(0, |i| max_ns.max(if i == 0 { 0 } else { bucket_bound_ns(i - 1) }));
    HistDelta {
        count: diff.count,
        sum_ns: diff.sum_ns,
        max_ns,
        p50_ns: diff.quantile_ns(0.50).min(max_ns),
        p99_ns: diff.quantile_ns(0.99).min(max_ns),
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
    pub fn start(metrics: Arc<JobMetrics>, interval: Duration, cap: usize) -> Sampler {
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

    /// Fresh metrics with three engine codes.
    fn metrics() -> Arc<JobMetrics> {
        Arc::new(JobMetrics::new(3))
    }

    fn engine(code: u8, jobs: u64, compile_ns: u64, exec_ns: u64) -> EngineDelta {
        EngineDelta {
            code,
            jobs,
            compile_ns,
            exec_ns,
        }
    }

    #[test]
    fn deltas_measure_only_the_interval() {
        let m = metrics();
        m.record(2, true, 1_000_000, 1_000, 1_000); // pre-ring history
        let mut ring = DeltaRing::new(m.clone(), 8);
        m.record(2, true, 50_000, 300, 700);
        m.record(2, true, 60_000, 100, 900);
        m.record(0, false, 55_000, 0, 0);
        m.queue_depth.set(7);
        m.busy.set(2);
        m.breakers[1].set(2);
        let p = ring.sample();
        assert_eq!(p.seq, 0);
        assert_eq!((p.completed, p.ok, p.failed), (3, 2, 1), "pre-ring counts excluded");
        assert_eq!((p.queue_depth, p.busy_workers), (7, 2));
        assert_eq!(p.engines, vec![engine(0, 1, 0, 0), engine(2, 2, 400, 1_600)]);
        assert_eq!(p.breakers, vec![(1, 2)], "closed breakers omitted");
        assert_eq!(p.lat.count, 3);
        assert_eq!(p.lat.sum_ns, 165_000);
        assert_eq!(p.lat.max_ns, 60_000, "the interval's own max, not the 1ms before it");
        assert!(p.lat.p99_ns >= 32_768 && p.lat.p99_ns <= 60_000);
        // The sparse bucket deltas carry exactly the interval's
        // observations (both land in the 32k..64k bucket).
        let bucket_total: u64 = p.lat.buckets.iter().map(|(_, c)| c).sum();
        assert_eq!(bucket_total, 3);
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
        assert_eq!((q.lat.p99_ns, q.lat.max_ns), (0, 0));
        assert!(q.lat.buckets.is_empty());
    }

    /// Every job takes 89.3 ms, inside the (67.1 ms, 134.2 ms] bucket:
    /// bucket interpolation alone answers the bucket's upper bound for
    /// the top rank, the interval max caps it at the slowest job.
    #[test]
    fn p99_never_exceeds_the_slowest_job() {
        let m = metrics();
        let mut ring = DeltaRing::new(m.clone(), 8);
        let mut points = Vec::new();
        for _ in 0..3 {
            for _ in 0..5 {
                m.record(1, true, 89_300_000, 0, 89_000_000);
            }
            points.push(ring.sample());
        }
        for p in &points {
            assert_eq!(p.lat.max_ns, 89_300_000);
            assert!(p.lat.p99_ns <= 89_300_000, "interval p99 {}", p.lat.p99_ns);
        }
        let w = Window::over(&points);
        assert_eq!(w.lat.quantile_ns(0.99), 134_217_728, "unclamped: the bucket bound");
        assert!(w.p99_ns() <= 89_300_000, "window p99 {}", w.p99_ns());
    }

    /// A job whose max went to the previous interval still leaves the
    /// next interval's max at its bucket's lower edge, not 0.
    #[test]
    fn a_missed_max_falls_back_to_the_bucket_lower_edge() {
        let m = metrics();
        let mut ring = DeltaRing::new(m.clone(), 8);
        m.wall.observe_ns(89_300_000); // observed without raising the max
        let p = ring.sample();
        assert_eq!(p.lat.max_ns, 67_108_864);
        assert_eq!(p.lat.p99_ns, 67_108_864);
    }

    /// The window merges every point's per-engine work into one
    /// engine × phase profile.
    #[test]
    fn window_merges_the_engine_phase_profile() {
        let point = |engines| SeriesPoint {
            engines,
            ..SeriesPoint::default()
        };
        let w = Window::over(&[
            point(vec![engine(3, 1, 100, 300)]),
            point(vec![engine(1, 2, 0, 200), engine(3, 1, 100, 300)]),
        ]);
        assert_eq!(w.engines, vec![engine(1, 2, 0, 200), engine(3, 2, 200, 600)]);
        let name = |code: u8| if code == 1 { "wamr" } else { "wasm3" };
        let shares: Vec<f64> = w.shares(name).iter().map(|(_, s)| *s).collect();
        assert_eq!(shares, vec![0.2, 0.2, 0.6]);
        assert!(Window::over(&[]).shares(name).is_empty());
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
