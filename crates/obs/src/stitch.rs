//! Stitching client- and server-side spans into one Chrome trace.
//!
//! The load generator observes `submit → response` per request; the
//! scheduler observes `enqueue → start → done` plus compile/execute
//! phase durations and returns them in the request's own result. Both
//! carry the same client-originated trace id, but their clocks are
//! different process-local epochs ([`crate::trace::now_ns`] starts at 0
//! per process). Each request bounds the offset between the two clocks
//! from both sides, and [`stitch`] places its server spans at the
//! midpoint of those bounds.
//!
//! Each request becomes a *pair of lanes* (client tid / server tid) in
//! the output trace: open-loop requests overlap freely in time, so
//! folding them onto one lane would force fake nesting. Within a lane,
//! spans nest properly — the whole document passes
//! [`crate::chrome::validate`] and therefore `wabench-served trace-check`.

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

/// Estimates `server clock − client clock` for one request from its own
/// timestamps: the server enqueued the job after the client sent it and
/// finished it before the client read the reply, so the offset lies
/// between `done − client end` and `enqueue − client begin`. The
/// midpoint is the estimate; with it the server lane nests inside the
/// client lane, whatever epoch the server's clock counts from.
fn offset_ns(client: &ClientSpan, server: &ServerPhases) -> i64 {
    let lo = server.done_ns as i128 - client.end_ns as i128;
    let hi = server.enqueue_ns as i128 - client.begin_ns as i128;
    let mid = lo + (hi - lo) / 2;
    mid.clamp(i64::MIN as i128, i64::MAX as i128) as i64
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

/// Builds one Chrome-exportable [`Trace`] from each request's client
/// span and server phases. Each server lane is shifted onto the client
/// clock by that request's own offset bounds, so requests served by
/// processes with different clock epochs (shards behind a router) need
/// no extra round trip.
///
/// Each request gets two lanes named after its trace id; lanes are
/// ordered by client submit time, so the output is deterministic for a
/// fixed input.
pub fn stitch(requests: &[(ClientSpan, ServerPhases)]) -> Trace {
    let mut ordered: Vec<&(ClientSpan, ServerPhases)> = requests.iter().collect();
    ordered.sort_by_key(|(c, _)| (c.begin_ns, c.trace_id));

    let mut threads = Vec::with_capacity(ordered.len() * 2);
    for (i, (client, server)) in ordered.into_iter().enumerate() {
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
            events: server_lane(client, server),
        });
    }
    Trace { threads }
}

/// The server-side span tree of one request on the client clock: a
/// `server.job` root containing `queue.wait`, `compile`, and `execute`
/// children, plus a zero-width `recovery` marker when retries or
/// degradation engaged. The root is clamped into the client span (a
/// no-op for timestamps from real clocks) and the children into the
/// root, so the lanes stay nested no matter how the phase durations
/// round.
fn server_lane(client: &ClientSpan, s: &ServerPhases) -> Vec<SpanEvent> {
    let offset = offset_ns(client, s);
    let client_end = client.end_ns.max(client.begin_ns);
    let shift = |server_ns| to_client_ns(server_ns, offset).clamp(client.begin_ns, client_end);
    let enqueue = shift(s.enqueue_ns);
    let start = shift(s.start_ns).max(enqueue);
    let done = shift(s.done_ns).max(start);
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

    /// Requests whose server clock reads `client + offset`; they overlap
    /// in time as an open-loop generator produces them.
    fn sample(offset: i64) -> Vec<(ClientSpan, ServerPhases)> {
        let server = |trace_id, enq: u64, start: u64, done: u64| ServerPhases {
            trace_id,
            enqueue_ns: (enq as i64 + offset) as u64,
            start_ns: (start as i64 + offset) as u64,
            done_ns: (done as i64 + offset) as u64,
            compile_ns: (done - start) / 2,
            exec_ns: (done - start) / 4,
            attempts: 1,
            ..ServerPhases::default()
        };
        let client = |trace_id, begin_ns, end_ns| ClientSpan { trace_id, begin_ns, end_ns };
        vec![
            (client(0xa1, 1_000_000, 9_000_000), server(0xa1, 1_100_000, 1_500_000, 8_800_000)),
            (client(0xb2, 2_000_000, 11_000_000), server(0xb2, 2_100_000, 8_900_000, 10_800_000)),
        ]
    }

    /// Every server lane lies inside its client lane and keeps the
    /// server's own enqueue → done length.
    fn assert_nested(requests: &[(ClientSpan, ServerPhases)], trace: &Trace) {
        assert_eq!(trace.threads.len(), requests.len() * 2);
        chrome::validate(&chrome::export_string(trace)).expect("stitched trace validates");
        for pair in trace.threads.chunks(2) {
            let (client, server) = (&pair[0].events[0], &pair[1].events[0]);
            let (_, phases) = requests
                .iter()
                .find(|(c, _)| c.begin_ns == client.start_ns)
                .expect("lane for a request");
            assert_eq!(server.name, "server.job");
            assert!(server.start_ns >= client.start_ns, "{server:?} before {client:?}");
            assert!(server.end_ns() <= client.end_ns(), "{server:?} after {client:?}");
            assert_eq!(server.dur_ns, phases.total_ns(), "server span length kept");
            for ev in &pair[1].events[1..] {
                assert!(ev.start_ns >= server.start_ns && ev.end_ns() <= server.end_ns());
                assert_eq!(ev.depth, 1);
            }
        }
    }

    #[test]
    fn offset_is_the_midpoint_of_the_request_bounds() {
        // Client 100..300; the server clock runs 1234 ahead and holds the
        // job 150..250 in client time: bounds [1184, 1284], midpoint 1234.
        let client = ClientSpan { trace_id: 1, begin_ns: 100, end_ns: 300 };
        let server = ServerPhases {
            trace_id: 1,
            enqueue_ns: 1_384,
            start_ns: 1_400,
            done_ns: 1_484,
            ..ServerPhases::default()
        };
        assert_eq!(offset_ns(&client, &server), 1_234);
        assert_eq!(to_client_ns(1_434, 1_234), 200);
        assert_eq!(to_client_ns(500, -1_500), 2_000);
    }

    #[test]
    fn stitch_pairs_lanes_in_submit_order() {
        let mut requests = sample(0);
        requests.reverse();
        let trace = stitch(&requests);
        assert_eq!(trace.threads.len(), 4);
        assert!(trace.threads[0].name.contains("00000000000000a1 client"));
        assert!(trace.threads[1].name.contains("00000000000000a1 server"));
        let summary = chrome::validate(&chrome::export_string(&trace)).expect("validates");
        assert!(summary.names.iter().any(|n| n == "client.request"));
        assert!(summary.names.iter().any(|n| n == "queue.wait"));
        assert!(summary.names.iter().any(|n| n == "execute"));
        assert_eq!(summary.max_depth, 2);
    }

    #[test]
    fn nesting_survives_any_clock_offset() {
        for offset in [-900_000i64, -1, 0, 1, 7_777_777] {
            let requests = sample(offset);
            assert_nested(&requests, &stitch(&requests));
        }
    }

    #[test]
    fn two_server_clocks_seconds_apart_nest_every_lane() {
        // Shards behind a router: one clock 3 s ahead of the client, the
        // other 9 s ahead, interleaved in one run.
        let mut requests = sample(3_000_000_000);
        requests.extend(sample(9_000_000_000).into_iter().map(|(mut c, mut s)| {
            c.trace_id += 0x100;
            s.trace_id += 0x100;
            c.begin_ns += 500_000;
            c.end_ns += 500_000;
            s.enqueue_ns += 500_000;
            s.start_ns += 500_000;
            s.done_ns += 500_000;
            (c, s)
        }));
        assert_nested(&requests, &stitch(&requests));
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
        let client = ClientSpan { trace_id: 1, begin_ns: 0, end_ns: 200 };
        let no_marker = stitch(&[(client, clean)]);
        assert!(!no_marker.threads[1].events.iter().any(|e| e.name == "recovery"));
        let marker = stitch(&[(client, degraded)]);
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
    fn inconsistent_timestamps_clamp_into_the_client_span() {
        // A server span longer than its client span cannot come from
        // real clocks; it is clamped, and the document still validates.
        let client = ClientSpan { trace_id: 9, begin_ns: 100, end_ns: 200 };
        let server = ServerPhases {
            trace_id: 9,
            enqueue_ns: 50,
            start_ns: 60,
            done_ns: 10_000,
            exec_ns: 9_000,
            ..ServerPhases::default()
        };
        let trace = stitch(&[(client, server)]);
        chrome::validate(&chrome::export_string(&trace)).expect("clamped trace validates");
        let root = &trace.threads[1].events[0];
        assert!(root.start_ns >= 100 && root.end_ns() <= 200, "{root:?}");
    }
}
