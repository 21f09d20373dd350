//! Deterministic per-request trace ids.
//!
//! Every submitted job carries a client-originated 64-bit trace id
//! drawn from the same counter-mode [`crate::rng::Rng`] stream family
//! as arrivals and the job mix: the id sequence is a pure function of
//! `(seed, phase)`, so two runs with the same seed tag their requests
//! identically — which makes trace diffs between runs meaningful and is
//! pinned by the determinism tests. The server echoes the id in each
//! job's result, and [`obs::stitch::stitch`] names each request's lanes
//! after it.

use crate::rng::Rng;

/// Trace-id draws use this salt stream (disjoint from arrivals/mix).
const TRACE_SALT: u64 = 0x7_ace;

/// The deterministic trace-id sequence for one phase: `n` nonzero ids,
/// a pure function of `(seed, phase)`. Zero means "untraced" on the
/// wire, so a zero draw (one in 2^64) is remapped.
pub fn trace_ids(seed: u64, phase: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, TRACE_SALT ^ phase);
    (0..n)
        .map(|_| match rng.next_u64() {
            0 => 1,
            id => id,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_sequences_are_deterministic_and_nonzero() {
        let a = trace_ids(7, 0, 100);
        assert_eq!(a, trace_ids(7, 0, 100), "same seed+phase, same ids");
        assert_ne!(a, trace_ids(8, 0, 100), "seed changes the sequence");
        assert_ne!(a, trace_ids(7, 1, 100), "phase changes the sequence");
        assert!(a.iter().all(|id| *id != 0), "0 is the untraced sentinel");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "ids collide");
    }
}
