//! Deterministic per-request trace ids and client↔server stitching.
//!
//! Every submitted job carries a client-originated 64-bit trace id
//! drawn from the same counter-mode [`crate::rng::Rng`] stream family
//! as arrivals and the job mix: the id sequence is a pure function of
//! `(seed, phase)`, so two runs with the same seed tag their requests
//! identically — which makes trace diffs between runs meaningful and is
//! pinned by the determinism tests.
//!
//! After a run, [`stitch_report`] joins the client-side spans the
//! collectors recorded against the server-side phase digests fetched
//! via the `TraceDump` request, shifting server timestamps
//! onto the client clock with [`obs::stitch::clock_offset_ns`]. The
//! output is a Chrome-exportable [`obs::trace::Trace`] that
//! `wabench-served trace-check` accepts.

use obs::stitch::{self, ClientSpan, ServerPhases};
use obs::trace::Trace;
use svc::telemetry::TraceReport;

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

/// Flattens a `TraceDump` reply into the phase digests to stitch
/// against (recent ∪ exemplars, deduplicated).
pub fn server_phases(report: &TraceReport) -> Vec<ServerPhases> {
    report.all_records().into_iter().map(|r| r.phases).collect()
}

/// Stitches collected client spans against a `TraceDump` reply into one
/// Chrome-exportable trace. `client_before_ns` / `client_after_ns`
/// bracket the fetch on the client clock; the reply's `server_now_ns`
/// completes the round-trip clock-offset estimate.
pub fn stitch_report(
    clients: &[ClientSpan],
    report: &TraceReport,
    client_before_ns: u64,
    client_after_ns: u64,
) -> Trace {
    let offset = stitch::clock_offset_ns(client_before_ns, client_after_ns, report.server_now_ns);
    stitch::stitch(clients, &server_phases(report), offset)
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

    #[test]
    fn stitch_report_joins_on_trace_id() {
        use obs::stitch::ServerPhases;
        use svc::telemetry::TraceRecord;

        let clients = [ClientSpan {
            trace_id: 42,
            begin_ns: 1_000,
            end_ns: 9_000,
        }];
        let report = TraceReport {
            server_now_ns: 5_500, // client midpoint 5_000 → offset +500
            slow_threshold_ns: 0,
            recent: vec![TraceRecord {
                label: "x".into(),
                ok: true,
                phases: ServerPhases {
                    trace_id: 42,
                    enqueue_ns: 2_000,
                    start_ns: 3_000,
                    done_ns: 8_000,
                    ..ServerPhases::default()
                },
            }],
            exemplars: Vec::new(),
        };
        let trace = stitch_report(&clients, &report, 4_000, 6_000);
        assert_eq!(trace.threads.len(), 2, "one client + one server lane");
        let server = &trace.threads[1];
        // offset +500: server enqueue 2_000 lands at client 1_500.
        assert_eq!(server.events[0].start_ns, 1_500);
        obs::chrome::validate(&obs::chrome::export_string(&trace)).expect("validates");
    }
}
