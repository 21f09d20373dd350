//! Stitching client- and server-side spans into one Chrome trace.
//!
//! The load generator observes `submit → response` per request; the
//! scheduler observes `enqueue → start → done` plus compile/execute
//! phase durations. Both stamp the same client-originated trace id, but
//! their clocks are different process-local epochs ([`crate::trace::now_ns`]
//! starts at 0 per process). [`clock_offset_ns`] estimates the skew from
//! one round-trip (the classic NTP-style midpoint: the server's "now",
//! answered mid-flight, corresponds to the midpoint of the client's
//! send/receive window), and [`stitch`] maps every server span onto the
//! client timeline with it.
//!
//! Each request becomes a *pair of lanes* (client tid / server tid) in
//! the output trace: open-loop requests overlap freely in time, so
//! folding them onto one lane would force fake nesting. Within a lane,
//! spans nest properly — the whole document passes
//! [`crate::chrome::validate`] and therefore `wabench-served trace-check`.

use std::collections::HashMap;

use crate::trace::{SpanEvent, ThreadTrace, Trace};

/// The client-side view of one request (client trace clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSpan {
    /// Client-originated trace id (the join key).
    pub trace_id: u64,
    /// When the request was submitted, client clock ns.
    pub begin_ns: u64,
    /// When the response arrived, client clock ns.
    pub end_ns: u64,
}

/// The server-side phase digest of one request (server trace clock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerPhases {
    /// Trace id echoed from the submit frame.
    pub trace_id: u64,
    /// Server clock ns when the job entered the queue.
    pub enqueue_ns: u64,
    /// Server clock ns when a worker picked the job up.
    pub start_ns: u64,
    /// Server clock ns when the job finished.
    pub done_ns: u64,
    /// Time spent compiling (within start..done), ns.
    pub compile_ns: u64,
    /// Time spent executing (within start..done), ns.
    pub exec_ns: u64,
    /// Execution attempts (1 = clean first try).
    pub attempts: u32,
    /// Whether the JIT→interpreter fallback engaged.
    pub compile_fallback: bool,
    /// Artifact-store entries repaired while running this job.
    pub store_repairs: u32,
}

impl ServerPhases {
    /// End-to-end server latency (enqueue → done), ns.
    pub fn total_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.enqueue_ns)
    }
}

/// Estimates `server_clock - client_clock` in nanoseconds from one
/// round-trip: the client reads its clock before (`client_before_ns`)
/// and after (`client_after_ns`) a request whose reply carries the
/// server's clock (`server_now_ns`). The server's read is assumed to
/// fall at the midpoint of the client window, so the estimate's error is
/// bounded by half the round-trip time.
pub fn clock_offset_ns(client_before_ns: u64, client_after_ns: u64, server_now_ns: u64) -> i64 {
    let mid = client_before_ns + client_after_ns.saturating_sub(client_before_ns) / 2;
    let diff = server_now_ns as i128 - mid as i128;
    diff.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// Maps a server-clock timestamp onto the client clock using an
/// `offset = server - client` estimate, saturating at the epoch.
pub fn to_client_ns(server_ns: u64, offset_ns: i64) -> u64 {
    if offset_ns >= 0 {
        server_ns.saturating_sub(offset_ns as u64)
    } else {
        server_ns.saturating_add(offset_ns.unsigned_abs())
    }
}

/// Builds one Chrome-exportable [`Trace`] from matched client and server
/// spans. `offset_ns` is the [`clock_offset_ns`] estimate; server spans
/// are shifted onto the client timeline with it.
///
/// Requests present on only one side are dropped (the server ring may
/// have evicted an old record; the client may have timed out). Each
/// stitched request gets two lanes named after its trace id; lanes are
/// ordered by client submit time, so the output is deterministic for a
/// fixed input.
pub fn stitch(clients: &[ClientSpan], servers: &[ServerPhases], offset_ns: i64) -> Trace {
    let by_id: HashMap<u64, &ServerPhases> =
        servers.iter().map(|s| (s.trace_id, s)).collect();
    let mut matched: Vec<(&ClientSpan, &ServerPhases)> = clients
        .iter()
        .filter_map(|c| by_id.get(&c.trace_id).map(|s| (c, *s)))
        .collect();
    matched.sort_by_key(|(c, _)| (c.begin_ns, c.trace_id));

    let mut threads = Vec::with_capacity(matched.len() * 2);
    for (i, (client, server)) in matched.iter().enumerate() {
        let tid_base = (i as u64) * 2 + 1;
        threads.push(ThreadTrace {
            tid: tid_base,
            name: format!("req {:016x} client", client.trace_id),
            dropped: 0,
            events: vec![SpanEvent {
                name: "client.request",
                attr: Some(format!("trace_id={:016x}", client.trace_id).into_boxed_str()),
                start_ns: client.begin_ns,
                dur_ns: client.end_ns.saturating_sub(client.begin_ns),
                depth: 0,
                counters: None,
            }],
        });
        threads.push(ThreadTrace {
            tid: tid_base + 1,
            name: format!("req {:016x} server", client.trace_id),
            dropped: 0,
            events: server_lane(server, offset_ns),
        });
    }
    Trace { threads }
}

/// Builds a server-only [`Trace`] (no client lanes, no clock shift) —
/// one lane per record, ordered by enqueue time. This is how slow-request
/// exemplars fetched via `TraceDump` feed the chrome/folded exporters
/// when no client-side spans exist to stitch against.
pub fn server_only(servers: &[ServerPhases]) -> Trace {
    let mut ordered: Vec<&ServerPhases> = servers.iter().collect();
    ordered.sort_by_key(|s| (s.enqueue_ns, s.trace_id));
    Trace {
        threads: ordered
            .iter()
            .enumerate()
            .map(|(i, s)| ThreadTrace {
                tid: i as u64 + 1,
                name: format!("req {:016x} server", s.trace_id),
                dropped: 0,
                events: server_lane(s, 0),
            })
            .collect(),
    }
}

/// The server-side span tree of one request, shifted onto the client
/// clock: a `server.job` root containing `queue.wait`, `compile`, and
/// `execute` children, plus a zero-width `recovery` marker when retries
/// or degradation engaged. Children are clamped into the root so the
/// reconstruction stays properly nested no matter how the phase
/// durations round.
fn server_lane(s: &ServerPhases, offset_ns: i64) -> Vec<SpanEvent> {
    let enqueue = to_client_ns(s.enqueue_ns, offset_ns);
    let start = to_client_ns(s.start_ns, offset_ns).max(enqueue);
    let done = to_client_ns(s.done_ns, offset_ns).max(start);
    let child = |name: &'static str, attr: Option<Box<str>>, at: u64, dur: u64| {
        let at = at.clamp(enqueue, done);
        SpanEvent {
            name,
            attr,
            start_ns: at,
            dur_ns: dur.min(done - at),
            depth: 1,
            counters: None,
        }
    };

    let mut events = vec![SpanEvent {
        name: "server.job",
        attr: Some(format!("trace_id={:016x}", s.trace_id).into_boxed_str()),
        start_ns: enqueue,
        dur_ns: done - enqueue,
        depth: 0,
        counters: None,
    }];
    events.push(child("queue.wait", None, enqueue, start - enqueue));
    if s.compile_ns > 0 {
        events.push(child("compile", None, start, s.compile_ns));
    }
    if s.exec_ns > 0 {
        let exec_at = start.saturating_add(s.compile_ns);
        events.push(child("execute", None, exec_at, s.exec_ns));
    }
    if s.attempts > 1 || s.compile_fallback || s.store_repairs > 0 {
        let attr = format!(
            "attempts={} compile_fallback={} store_repairs={}",
            s.attempts, s.compile_fallback, s.store_repairs
        );
        events.push(child("recovery", Some(attr.into_boxed_str()), done, 0));
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome;

    fn sample_pair(offset: i64) -> (Vec<ClientSpan>, Vec<ServerPhases>) {
        // Server clock = client clock + offset; requests overlap in time
        // as an open-loop generator produces them.
        let mk_server = |trace_id, enq: u64, start: u64, done: u64| ServerPhases {
            trace_id,
            enqueue_ns: (enq as i64 + offset) as u64,
            start_ns: (start as i64 + offset) as u64,
            done_ns: (done as i64 + offset) as u64,
            compile_ns: (done - start) / 2,
            exec_ns: (done - start) / 4,
            attempts: 1,
            ..ServerPhases::default()
        };
        let clients = vec![
            ClientSpan { trace_id: 0xa1, begin_ns: 1_000_000, end_ns: 9_000_000 },
            ClientSpan { trace_id: 0xb2, begin_ns: 2_000_000, end_ns: 11_000_000 },
            ClientSpan { trace_id: 0xdead, begin_ns: 3_000_000, end_ns: 4_000_000 },
        ];
        let servers = vec![
            mk_server(0xa1, 1_100_000, 1_500_000, 8_800_000),
            mk_server(0xb2, 2_100_000, 8_900_000, 10_800_000),
            ServerPhases { trace_id: 0xfeed, ..ServerPhases::default() },
        ];
        (clients, servers)
    }

    #[test]
    fn offset_recovers_clock_skew() {
        // Server clock runs 1234ns ahead; its "now" answered at the
        // client-window midpoint (200) reads 200 + 1234.
        assert_eq!(clock_offset_ns(100, 300, 1434), 1234);
        // Server behind the client → negative offset.
        assert_eq!(clock_offset_ns(1_000, 3_000, 500), -1500);
        assert_eq!(to_client_ns(1434, 1234), 200);
        assert_eq!(to_client_ns(500, -1500), 2000);
    }

    #[test]
    fn stitch_pairs_lanes_by_trace_id() {
        let (clients, servers) = sample_pair(0);
        let trace = stitch(&clients, &servers, 0);
        // 0xdead has no server record and 0xfeed no client span: only
        // the two matched requests survive, two lanes each.
        assert_eq!(trace.threads.len(), 4);
        assert!(trace.threads[0].name.contains("00000000000000a1 client"));
        assert!(trace.threads[1].name.contains("00000000000000a1 server"));
        let doc = chrome::export_string(&trace);
        let summary = chrome::validate(&doc).expect("stitched trace validates");
        assert!(summary.names.iter().any(|n| n == "client.request"));
        assert!(summary.names.iter().any(|n| n == "queue.wait"));
        assert!(summary.names.iter().any(|n| n == "execute"));
        assert_eq!(summary.max_depth, 2);
    }

    #[test]
    fn nesting_survives_clock_offset_correction() {
        for offset in [-5_000_000i64, -1, 0, 1, 7_777_777] {
            let (clients, servers) = sample_pair(offset);
            let trace = stitch(&clients, &servers, offset);
            let doc = chrome::export_string(&trace);
            chrome::validate(&doc)
                .unwrap_or_else(|e| panic!("offset {offset}: {e}"));
            for lane in trace.threads.iter().filter(|t| t.name.ends_with("server")) {
                let root = &lane.events[0];
                assert_eq!(root.name, "server.job");
                for ev in &lane.events[1..] {
                    assert!(ev.start_ns >= root.start_ns, "offset {offset}");
                    assert!(ev.end_ns() <= root.end_ns(), "offset {offset}");
                    assert_eq!(ev.depth, 1);
                }
            }
        }
    }

    #[test]
    fn recovery_marker_appears_only_when_something_recovered() {
        let clean = ServerPhases {
            trace_id: 1,
            enqueue_ns: 0,
            start_ns: 10,
            done_ns: 100,
            attempts: 1,
            ..ServerPhases::default()
        };
        let degraded = ServerPhases {
            attempts: 3,
            compile_fallback: true,
            ..clean
        };
        let clients = [ClientSpan { trace_id: 1, begin_ns: 0, end_ns: 200 }];
        let no_marker = stitch(&clients, &[clean], 0);
        assert!(!no_marker.threads[1].events.iter().any(|e| e.name == "recovery"));
        let marker = stitch(&clients, &[degraded], 0);
        let rec = marker.threads[1]
            .events
            .iter()
            .find(|e| e.name == "recovery")
            .expect("recovery marker");
        assert_eq!(
            rec.attr.as_deref(),
            Some("attempts=3 compile_fallback=true store_repairs=0")
        );
    }

    #[test]
    fn pathological_offsets_saturate_instead_of_wrapping() {
        let clients = [ClientSpan { trace_id: 9, begin_ns: 100, end_ns: 200 }];
        let servers = [ServerPhases {
            trace_id: 9,
            enqueue_ns: 50,
            start_ns: 60,
            done_ns: 70,
            ..ServerPhases::default()
        }];
        // Offset larger than every server timestamp: everything clamps
        // to 0 and the document still validates.
        let trace = stitch(&clients, &servers, 1_000_000);
        chrome::validate(&chrome::export_string(&trace)).expect("saturated trace validates");
    }
}
