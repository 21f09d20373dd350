//! Slow-request exemplars: a bounded buffer of the span trees behind
//! tail latency.
//!
//! Aggregates tell you the p99 moved; an exemplar tells you *which*
//! request moved it and where its time went. Producers offer completed
//! requests' [`ServerPhases`] digests; the buffer keeps only those whose
//! end-to-end latency meets the threshold, and at capacity retains the
//! slowest of them (ties broken toward recency), so a long-running
//! server cannot grow without limit and a flood of borderline-slow
//! requests cannot wash out the true outliers. Consumers fetch the
//! buffer with the `TraceDump` protocol request.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::stitch::ServerPhases;

/// One retained slow request: its phase digest plus a human label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// What ran, e.g. `"crc32 on Wasm3 at -O1"`.
    pub label: String,
    /// Whether the request finished `Ok`: a slow request is as likely
    /// to have failed or timed out as to have succeeded.
    pub ok: bool,
    /// The request's full server-side span tree digest.
    pub phases: ServerPhases,
}

impl Exemplar {
    /// End-to-end server latency (enqueue → done), ns.
    pub fn total_ns(&self) -> u64 {
        self.phases.total_ns()
    }
}

/// A bounded, threshold-gated exemplar buffer (thread-safe).
#[derive(Debug)]
pub struct ExemplarBuffer {
    threshold_ns: u64,
    cap: usize,
    kept: Mutex<VecDeque<Exemplar>>,
}

impl ExemplarBuffer {
    /// A buffer keeping at most `cap` (min 1) exemplars at or above
    /// `threshold_ns` end-to-end latency.
    pub fn new(threshold_ns: u64, cap: usize) -> ExemplarBuffer {
        ExemplarBuffer {
            threshold_ns,
            cap: cap.max(1),
            kept: Mutex::new(VecDeque::new()),
        }
    }

    /// The retention threshold, ns.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Offers a completed request; returns whether it was retained.
    ///
    /// At capacity the buffer keeps the *slowest* requests seen —
    /// severity beats recency, because "what were the worst requests"
    /// is the question exemplars exist to answer and a burst of merely
    /// slow-ish traffic must not wash out the genuine outliers. Ties
    /// break toward recency: an offer matching the current minimum
    /// replaces the oldest such exemplar, so of equally-slow requests
    /// the most recent survive. Insertion order is preserved for the
    /// survivors.
    pub fn offer(&self, exemplar: Exemplar) -> bool {
        if exemplar.total_ns() < self.threshold_ns {
            return false;
        }
        let mut kept = self.kept.lock().expect("exemplar buffer");
        if kept.len() == self.cap {
            let (min_idx, min_ns) = kept
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.total_ns())
                .map(|(i, e)| (i, e.total_ns()))
                .expect("cap >= 1");
            if exemplar.total_ns() < min_ns {
                return false;
            }
            kept.remove(min_idx);
        }
        kept.push_back(exemplar);
        true
    }

    /// Every retained exemplar, oldest first.
    pub fn window(&self) -> Vec<Exemplar> {
        self.kept.lock().expect("exemplar buffer").iter().cloned().collect()
    }

    /// Retained count.
    pub fn len(&self) -> usize {
        self.kept.lock().expect("exemplar buffer").len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow(trace_id: u64, total_ns: u64) -> Exemplar {
        Exemplar {
            label: format!("job-{trace_id}"),
            ok: true,
            phases: ServerPhases {
                trace_id,
                enqueue_ns: 1_000,
                start_ns: 2_000,
                done_ns: 1_000 + total_ns,
                exec_ns: total_ns / 2,
                attempts: 1,
                ..ServerPhases::default()
            },
        }
    }

    #[test]
    fn threshold_gates_and_capacity_bounds() {
        let buf = ExemplarBuffer::new(1_000_000, 3);
        assert!(!buf.offer(slow(1, 999_999)), "below threshold rejected");
        for id in 2..=6 {
            assert!(buf.offer(slow(id, 1_000_000 + id)));
        }
        let kept = buf.window();
        assert_eq!(kept.len(), 3, "capacity bounds the buffer");
        let ids: Vec<u64> = kept.iter().map(|e| e.phases.trace_id).collect();
        assert_eq!(ids, vec![4, 5, 6], "monotone offers keep the slowest = newest");
    }

    #[test]
    fn overflow_retains_the_slowest_not_the_newest() {
        let buf = ExemplarBuffer::new(1_000_000, 3);
        // Fill with three genuinely slow requests...
        for (id, ns) in [(1, 9_000_000), (2, 5_000_000), (3, 7_000_000)] {
            assert!(buf.offer(slow(id, ns)));
        }
        // ...then a borderline one: it beats nothing retained, so the
        // buffer must reject it rather than evict a worse request.
        assert!(!buf.offer(slow(4, 1_500_000)), "faster than every survivor");
        let ids: Vec<u64> = buf.window().iter().map(|e| e.phases.trace_id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        // A slower one evicts the current fastest (id 2), and the
        // survivors keep insertion order.
        assert!(buf.offer(slow(5, 6_000_000)));
        let ids: Vec<u64> = buf.window().iter().map(|e| e.phases.trace_id).collect();
        assert_eq!(ids, vec![1, 3, 5], "fastest retained request evicted");
    }

    #[test]
    fn ties_break_toward_recency() {
        let buf = ExemplarBuffer::new(1_000_000, 2);
        assert!(buf.offer(slow(1, 2_000_000)));
        assert!(buf.offer(slow(2, 2_000_000)));
        // Equal to the minimum: the *oldest* of the tied minimums goes,
        // so equally-slow traffic rolls forward in time.
        assert!(buf.offer(slow(3, 2_000_000)));
        let ids: Vec<u64> = buf.window().iter().map(|e| e.phases.trace_id).collect();
        assert_eq!(ids, vec![2, 3], "tie evicts the older exemplar");
    }

    #[test]
    fn capacity_boundary_of_one_tracks_the_maximum() {
        let buf = ExemplarBuffer::new(0, 1);
        assert!(buf.offer(slow(1, 5_000)));
        assert!(!buf.offer(slow(2, 4_999)), "strictly faster rejected");
        assert!(buf.offer(slow(3, 5_000)), "tie replaces at cap 1");
        assert!(buf.offer(slow(4, 9_000)));
        let kept = buf.window();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].phases.trace_id, 4);
        assert_eq!(kept[0].total_ns(), 9_000);
    }
}
