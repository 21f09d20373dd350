//! Metric types: counters, gauges and fixed-bucket latency histograms.
//!
//! Each metric is a plain field of the struct that owns the count (a
//! scheduler's [`crate::series::JobMetrics`], a load run's latency
//! histograms); whoever serves the count reads that field, and nothing
//! looks a metric up by name. Histograms use power-of-two nanosecond
//! buckets, which makes observation lock-free and snapshots mergeable.
//! Quantile queries interpolate linearly within the target bucket and
//! clamp to the exact recorded extremes, so the estimate error is
//! bounded by the bucket width (a ≤2× ratio in the worst case, exact
//! for single-valued buckets at the edges) — the right trade for
//! p50/p95/p99 *summaries* of latencies spanning microseconds to
//! minutes.

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket count: bucket `i` holds observations in
/// `(2^(i+7), 2^(i+8)]` ns, so the range covers 256 ns .. ~2.3 min,
/// with the last bucket catching everything above.
pub const BUCKETS: usize = 32;

/// Upper bound (ns, inclusive) of bucket `i`.
pub fn bucket_bound_ns(i: usize) -> u64 {
    1u64 << (i + 8).min(63)
}

fn bucket_for(v_ns: u64) -> usize {
    // First bucket whose bound holds v; bound(i) = 2^(i+8), so
    // i = ⌈log2 v⌉ - 8 (clamped). ⌈log2 v⌉ = bit-length of v-1.
    let bits = 64 - (v_ns.max(1) - 1).leading_zeros() as usize;
    bits.saturating_sub(8).min(BUCKETS - 1)
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, busy workers, breaker state).
///
/// Unlike a [`Counter`] a gauge moves both ways; the series sampler
/// records its point-in-time value rather than a delta.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero (concurrent add/sub can
    /// transiently observe a stale level; a floor beats a wrap).
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram (nanosecond observations).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    // Exact extremes alongside the bucketed shape; min starts at
    // u64::MAX so the first observation always wins fetch_min.
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `v_ns` nanoseconds.
    pub fn observe_ns(&self, v_ns: u64) {
        self.buckets[bucket_for(v_ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(v_ns, Ordering::Relaxed);
        self.min_ns.fetch_min(v_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(v_ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            // Normalize the empty-histogram sentinel out of snapshots so
            // they compare, encode, and merge without a special value.
            min_ns: if count == 0 {
                0
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// An immutable histogram snapshot — wire-encodable and mergeable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_bound_ns`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation in nanoseconds (0 when empty).
    pub min_ns: u64,
    /// Largest observation in nanoseconds (0 when empty).
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The `q`-quantile (0.0..=1.0) estimate in ns; 0 when empty.
    ///
    /// The estimate interpolates linearly within the bucket holding the
    /// target rank (power-of-two buckets alone would round any quantile
    /// up to its bucket's upper bound — as much as 2× the true value)
    /// and is clamped into `[min_ns, max_ns]` when the snapshot carries
    /// exact extremes, which makes single-valued histograms and the
    /// p100 exact. Snapshots merged from bucket deltas alone have no
    /// extremes (`max_ns == 0` with observations) and skip the clamp.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        // Rank 1 is the recorded minimum and rank `count` the maximum —
        // answer those exactly when the snapshot carries extremes.
        if self.max_ns > 0 {
            if target == 1 {
                return self.min_ns.min(self.max_ns);
            }
            if target == self.count {
                return self.max_ns;
            }
        }
        let mut cum = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            if cum + c >= target {
                let lower = if i == 0 { 0 } else { bucket_bound_ns(i - 1) };
                let upper = bucket_bound_ns(i);
                // Rank position within this bucket, in (0, 1].
                let into = (target - cum) as f64 / *c as f64;
                let mut est = (lower as f64 + (upper - lower) as f64 * into) as u64;
                if self.max_ns > 0 {
                    est = est.clamp(self.min_ns.min(self.max_ns), self.max_ns);
                }
                return est;
            }
            cum += c;
        }
        bucket_bound_ns(BUCKETS - 1)
    }

    /// Mean observation in nanoseconds (0 when empty — never NaN).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        // Empty sides carry min=0 as "no data", not "observed zero" —
        // only take a min from a side that actually has observations.
        self.min_ns = match (self.count, other.count) {
            (_, 0) => self.min_ns,
            (0, _) => other.min_ns,
            _ => self.min_ns.min(other.min_ns),
        };
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// `count=… mean=… min=… p50=… p95=… p99=… max=…` with
    /// human-scaled units; the mean, min, and max are exact while the
    /// quantiles are interpolated estimates (see [`Self::quantile_ns`]).
    pub fn summary(&self) -> String {
        format!(
            "count={} mean={} min={} p50={} p95={} p99={} max={}",
            self.count,
            fmt_ns(self.mean_ns() as u64),
            fmt_ns(self.min_ns),
            fmt_ns(self.quantile_ns(0.50)),
            fmt_ns(self.quantile_ns(0.95)),
            fmt_ns(self.quantile_ns(0.99)),
            fmt_ns(self.max_ns),
        )
    }
}

/// Formats nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_range() {
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(256), 0);
        assert_eq!(bucket_for(257), 1);
        assert_eq!(bucket_for(u64::MAX), BUCKETS - 1);
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_for(bucket_bound_ns(i)), i, "bound {i} maps to itself");
            assert_eq!(bucket_for(bucket_bound_ns(i) + 1), i + 1);
        }
    }

    #[test]
    fn quantiles_bound_observations() {
        let h = Histogram::default();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            h.observe_ns(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!(s.quantile_ns(0.5) >= 2_000, "p50 covers the median");
        assert!(s.quantile_ns(1.0) >= 1_000_000);
        assert!(s.quantile_ns(0.99) <= 2 * 1_048_576, "≤2× true max");
        assert_eq!(s.mean_ns() as u64, (1_000 + 2_000 + 4_000 + 1_000_000) / 4);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 100 observations evenly spread over one bucket's span
        // (8192, 16384]: v_k = 8192 + k*81 (k = 1..=100 ⊂ that range).
        let h = Histogram::default();
        for k in 1..=100u64 {
            h.observe_ns(8_192 + k * 81);
        }
        let s = h.snapshot();
        for (q, true_v) in [(0.25, 8_192 + 25 * 81), (0.5, 8_192 + 50 * 81), (0.95, 8_192 + 95 * 81)] {
            let est = s.quantile_ns(q);
            let err = (est as f64 - true_v as f64).abs() / true_v as f64;
            // Interpolation tracks the uniform rank; the old
            // bucket-bound answer (16384) would be off by up to 63%.
            assert!(err < 0.15, "q={q}: est {est} vs true {true_v} (err {err:.3})");
        }
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        // A p99 of N identical observations must be that value, not the
        // bucket bound (300_000 would previously report 524_288).
        let h = Histogram::default();
        for _ in 0..1_000 {
            h.observe_ns(300_000);
        }
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile_ns(q), 300_000, "q={q}");
        }
    }

    #[test]
    fn extreme_quantiles_clamp_to_recorded_extremes() {
        let h = Histogram::default();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            h.observe_ns(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile_ns(1.0), 1_000_000, "p100 is the exact max");
        assert_eq!(s.quantile_ns(0.0), 1_000, "p0 is the exact min");
        // Without extremes (legacy wire snapshots), estimates still fall
        // inside the target bucket instead of clamping.
        let mut legacy = s.clone();
        legacy.min_ns = 0;
        legacy.max_ns = 0;
        let p100 = legacy.quantile_ns(1.0);
        assert!(p100 > 524_288 && p100 <= 1_048_576, "{p100}");
    }

    #[test]
    fn empty_snapshot_is_zero_not_nan() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.quantile_ns(0.99), 0);
        assert_eq!(s.mean_ns(), 0.0);
        assert!(!s.mean_ns().is_nan());
        assert_eq!((s.min_ns, s.max_ns), (0, 0));
    }

    #[test]
    fn min_max_are_exact() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().min_ns, 0, "empty min normalizes to 0");
        for v in [9_000u64, 3_000, 77_000] {
            h.observe_ns(v);
        }
        let s = h.snapshot();
        assert_eq!(s.min_ns, 3_000);
        assert_eq!(s.max_ns, 77_000);
        assert!(s.summary().contains("min=3.0µs"));
        assert!(s.summary().contains("max=77.0µs"));
    }

    #[test]
    fn merge_tracks_extremes_and_skips_empty_sides() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.observe_ns(5_000);
        b.observe_ns(2_000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!((s.min_ns, s.max_ns), (2_000, 5_000));

        // Merging an empty side must not drag min down to 0.
        s.merge(&HistogramSnapshot::default());
        assert_eq!(s.min_ns, 2_000);

        // And merging *into* an empty one adopts the other's extremes.
        let mut e = HistogramSnapshot::default();
        e.merge(&s);
        assert_eq!((e.min_ns, e.max_ns), (2_000, 5_000));
    }

    #[test]
    fn gauges_move_both_ways_and_floor_at_zero() {
        let g = Gauge::default();
        g.set(5);
        g.add(2);
        g.sub(3);
        assert_eq!(g.get(), 4);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates instead of wrapping");
    }

    #[test]
    fn merge_adds_counts() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.observe_ns(1_000);
        b.observe_ns(1_000_000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 2);
        assert_eq!(s.sum_ns, 1_001_000);
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
