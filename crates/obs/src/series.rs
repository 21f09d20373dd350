//! Live telemetry time series: a background sampler over the metrics
//! registry feeding a fixed-capacity delta ring.
//!
//! `Stats`/`StatsExt` answers are cumulative snapshots — a spike that
//! happened ten seconds ago is invisible once the averages re-converge.
//! A [`Sampler`] walks a fixed [`SeriesSpec`] of registry names every
//! interval and stores *deltas* (counter increments, per-interval
//! histogram quantiles) plus instantaneous gauge levels into a bounded
//! ring, so an operator tool can ask "what happened in the last minute"
//! without the server keeping unbounded history.
//!
//! Nothing samples unless a `Sampler` is explicitly started, so
//! workloads that never start one (the simulated figure paths) are
//! bit-identical with this module compiled in — the same contract as
//! [`crate::trace::Sink::Null`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::metrics::{self, Counter, Gauge, Histogram, HistogramSnapshot};
use crate::trace;

/// Which registry entries a sampler watches, by kind. The spec is fixed
/// at ring creation: every [`SeriesPoint`]'s vectors are parallel to
/// these name lists, which keeps points compact (no per-point names).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesSpec {
    /// Counter names; points carry the per-interval increment.
    pub counters: Vec<String>,
    /// Gauge names; points carry the instantaneous level at sample time.
    pub gauges: Vec<String>,
    /// Histogram names; points carry per-interval count/sum/p50/p99.
    pub histograms: Vec<String>,
}

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

/// One sample: deltas and levels for every name in the ring's
/// [`SeriesSpec`], in spec order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Monotone sample number since ring creation (detects ring wrap:
    /// a window whose first `seq` is not 0 has evicted older points).
    pub seq: u64,
    /// Sample time, nanoseconds since the process trace epoch
    /// ([`trace::now_ns`]).
    pub t_ns: u64,
    /// Nanoseconds covered by this sample (since the previous one, or
    /// since ring creation for the first).
    pub interval_ns: u64,
    /// Counter increments over the interval, parallel to
    /// `spec.counters`.
    pub counters: Vec<u64>,
    /// Gauge levels at sample time, parallel to `spec.gauges`.
    pub gauges: Vec<u64>,
    /// Histogram interval stats, parallel to `spec.histograms`.
    pub hists: Vec<HistDelta>,
}

/// A bounded ring of [`SeriesPoint`]s with the cumulative baselines
/// needed to turn registry snapshots into deltas.
#[derive(Debug)]
pub struct DeltaRing {
    spec: SeriesSpec,
    counters: Vec<Arc<Counter>>,
    gauges: Vec<Arc<Gauge>>,
    hists: Vec<Arc<Histogram>>,
    prev_counters: Vec<u64>,
    prev_hists: Vec<HistogramSnapshot>,
    last_t_ns: u64,
    seq: u64,
    cap: usize,
    points: VecDeque<SeriesPoint>,
}

impl DeltaRing {
    /// A ring watching `spec` with room for `cap` points (min 1).
    ///
    /// Baselines are taken at creation, so the first sample covers
    /// exactly the ring's lifetime — counts accumulated before the ring
    /// existed never appear as a spurious first-interval spike.
    pub fn new(spec: SeriesSpec, cap: usize) -> DeltaRing {
        let counters: Vec<_> = spec.counters.iter().map(|n| metrics::counter(n)).collect();
        let gauges: Vec<_> = spec.gauges.iter().map(|n| metrics::gauge(n)).collect();
        let hists: Vec<_> = spec.histograms.iter().map(|n| metrics::histogram(n)).collect();
        let prev_counters = counters.iter().map(|c| c.get()).collect();
        let prev_hists = hists.iter().map(|h| h.snapshot()).collect();
        DeltaRing {
            spec,
            counters,
            gauges,
            hists,
            prev_counters,
            prev_hists,
            last_t_ns: trace::now_ns(),
            seq: 0,
            cap: cap.max(1),
            points: VecDeque::new(),
        }
    }

    /// The spec this ring was created with.
    pub fn spec(&self) -> &SeriesSpec {
        &self.spec
    }

    /// Takes one sample now, pushing a point (evicting the oldest at
    /// capacity) and returning a copy of it.
    pub fn sample(&mut self) -> SeriesPoint {
        let t_ns = trace::now_ns();
        let interval_ns = t_ns.saturating_sub(self.last_t_ns);
        self.last_t_ns = t_ns;

        let mut counters = Vec::with_capacity(self.counters.len());
        for (c, prev) in self.counters.iter().zip(self.prev_counters.iter_mut()) {
            let cur = c.get();
            counters.push(cur.saturating_sub(*prev));
            *prev = cur;
        }
        let gauges = self.gauges.iter().map(|g| g.get()).collect();
        let mut hists = Vec::with_capacity(self.hists.len());
        for (h, prev) in self.hists.iter().zip(self.prev_hists.iter_mut()) {
            let cur = h.snapshot();
            hists.push(hist_delta(&cur, prev));
            *prev = cur;
        }

        let point = SeriesPoint {
            seq: self.seq,
            t_ns,
            interval_ns,
            counters,
            gauges,
            hists,
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
    /// Starts sampling `spec` every `interval` into a ring of `cap`
    /// points. Intervals shorter than 1ms are raised to 1ms.
    pub fn start(spec: SeriesSpec, interval: Duration, cap: usize) -> Sampler {
        let interval = interval.max(Duration::from_millis(1));
        let shared = Arc::new(Shared {
            ring: Mutex::new(DeltaRing::new(spec, cap)),
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

    fn spec(suffix: &str) -> SeriesSpec {
        SeriesSpec {
            counters: vec![format!("test.series.jobs.{suffix}")],
            gauges: vec![format!("test.series.depth.{suffix}")],
            histograms: vec![format!("test.series.lat.{suffix}")],
        }
    }

    #[test]
    fn deltas_measure_only_the_interval() {
        let s = spec("delta");
        metrics::counter(&s.counters[0]).add(1_000); // pre-ring history
        let mut ring = DeltaRing::new(s.clone(), 8);
        metrics::counter(&s.counters[0]).add(3);
        metrics::gauge(&s.gauges[0]).set(7);
        metrics::histogram(&s.histograms[0]).observe_ns(50_000);
        metrics::histogram(&s.histograms[0]).observe_ns(60_000);
        let p = ring.sample();
        assert_eq!(p.seq, 0);
        assert_eq!(p.counters, vec![3], "pre-ring counts excluded");
        assert_eq!(p.gauges, vec![7]);
        assert_eq!(p.hists[0].count, 2);
        assert_eq!(p.hists[0].sum_ns, 110_000);
        assert!(p.hists[0].p99_ns >= 32_768 && p.hists[0].p99_ns <= 131_072);
        // The sparse bucket deltas carry exactly the interval's
        // observations (both land in the 32k..64k bucket).
        let bucket_total: u64 = p.hists[0].buckets.iter().map(|(_, c)| c).sum();
        assert_eq!(bucket_total, 2);
        assert!(p.hists[0]
            .buckets
            .iter()
            .all(|(i, c)| usize::from(*i) < metrics::BUCKETS && *c > 0));

        // A quiet interval reads all-zero deltas, not repeats.
        let q = ring.sample();
        assert_eq!(q.counters, vec![0]);
        assert_eq!(q.hists[0].count, 0);
        assert_eq!(q.hists[0].p99_ns, 0);
        assert!(q.hists[0].buckets.is_empty());
    }

    #[test]
    fn ring_wraps_at_capacity() {
        let s = spec("wrap");
        let mut ring = DeltaRing::new(s.clone(), 4);
        for i in 0..10 {
            metrics::counter(&s.counters[0]).add(i + 1);
            ring.sample();
        }
        let window = ring.window();
        assert_eq!(window.len(), 4, "capacity bounds the window");
        let seqs: Vec<u64> = window.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest evicted, order kept");
        // The deltas of the surviving points are the increments made
        // right before each sample (i+1 for sample i).
        let deltas: Vec<u64> = window.iter().map(|p| p.counters[0]).collect();
        assert_eq!(deltas, vec![7, 8, 9, 10]);
        assert!(window.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn sampler_thread_fills_the_ring_and_stops() {
        let s = spec("thread");
        let mut sampler = Sampler::start(s.clone(), Duration::from_millis(5), 64);
        metrics::counter(&s.counters[0]).add(42);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let window = sampler.window(None);
            if window.iter().map(|p| p.counters[0]).sum::<u64>() >= 42 && window.len() >= 2 {
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
        let s = spec("now");
        let sampler = Sampler::start(s.clone(), Duration::from_secs(3600), 8);
        metrics::counter(&s.counters[0]).add(5);
        let p = sampler.sample_now();
        assert_eq!(p.counters, vec![5]);
        assert_eq!(sampler.window(None).len(), 1);
    }

    #[test]
    fn window_copies_only_points_after_the_cursor() {
        let sampler = Sampler::start(spec("after"), Duration::from_secs(3600), 8);
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
