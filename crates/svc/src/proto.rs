//! The `wabench-served` request/response protocol.
//!
//! Messages travel as length-prefixed frames ([`crate::wire`]); every
//! payload is `u16 version · u8 tag · body`. Each message's layout is
//! stated once — a row of the `wire_enum!` tables for the two enums, a
//! `wire_struct!` field list for every struct they carry — and both
//! directions are generated from it. Decoding treats every payload as
//! untrusted and must consume it exactly: each strict prefix of a valid
//! payload, and a valid payload plus trailing bytes, is an error.

use engines::EngineKind;
use fault::{BreakerSnapshot, BreakerState};
use obs::exemplar::Exemplar;
use obs::metrics::{HistogramSnapshot, BUCKETS};
use obs::series::{EngineDelta, HistDelta};
use obs::stitch::ServerPhases;
use serde::{Deserialize, Serialize};
use wacc::OptLevel;

use crate::job::{JobMode, JobResult, JobSpec, JobStatus, Recovery, Scale, TraceCtx, TraceDigest};
use crate::scheduler::{EngineCounters, HealthReport, ResilienceStats, SvcStats, SvcStatsExt};
use crate::store::StoreStats;
use crate::telemetry::{SeriesPoint, SeriesReport, TraceReport};
use crate::wire::{bad, level_byte, level_from_byte, wire_enum, wire_struct};
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// The one protocol version, at the head of every request and response
/// payload. Both decoders refuse any other value: every peer is built
/// from this workspace, so a mismatch means mixed builds, not an older
/// client to accommodate. Bump it whenever a message layout changes.
pub const PROTO_VERSION: u16 = 13;

wire_enum! {
    /// Client → server.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    Request {
        /// Liveness probe.
        0 => Ping,
        /// Enqueue a job; answered with `Submitted(id)`. The trace context
        /// joins the job's server-side spans to the client's; a default
        /// context means "untraced".
        1 => Submit(spec: JobSpec, ctx: TraceCtx),
        /// Non-blocking result query; `Pending` or `Result`.
        2 => Poll(id: u64),
        /// Blocking result query; answered with `Result`.
        3 => Wait(id: u64),
        /// Service statistics.
        4 => Stats,
        /// Stop the server (drains queued jobs first).
        5 => Shutdown,
        /// Extended statistics: queue depth, worker utilization, latency
        /// histograms, per-engine simulated counters.
        6 => StatsExt,
        /// Resilience health: breaker states and fault/retry counters.
        7 => Health,
        /// Live telemetry time series: the sampler's buffered delta window.
        /// The cursor limits the reply to points with a greater sequence
        /// number; `None` fetches the whole window.
        8 => Series(since: Option<u64>),
        /// The slow-request exemplars: server span digests of the jobs
        /// at or above the slow threshold.
        9 => TraceDump,
        // 10 is retired (v10's `ProfileDump`); never reuse it.
        // 11 is retired (v12's `AlertLog`); never reuse it.
        /// The routing table of a `wabench-router`: per-backend health,
        /// forward counts, and failovers. A plain `wabench-served` answers
        /// `Err` — the cheap way to distinguish a shard from a router.
        12 => Backends,
    }
}

wire_enum! {
    /// Server → client.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    Response {
        /// `Ping` reply.
        0 => Pong,
        /// Job accepted under this id.
        1 => Submitted(id: u64),
        /// Job not finished yet.
        2 => Pending,
        /// A completed job's record.
        3 => Result(result: JobResult),
        /// Statistics snapshot.
        4 => Stats(stats: SvcStats),
        /// The request could not be served.
        5 => Err(msg: String),
        /// Acknowledges `Shutdown`.
        6 => Bye,
        /// Extended statistics snapshot. Boxed: the inline histogram bucket
        /// arrays dwarf every other variant.
        7 => StatsExt(stats: Box<SvcStatsExt>),
        /// Resilience health snapshot.
        8 => Health(report: HealthReport),
        /// Live telemetry sample window.
        9 => Series(report: SeriesReport),
        /// Slow-request exemplars.
        10 => TraceDump(report: TraceReport),
        // 11 is retired (v10's `ProfileDump`); never reuse it.
        // 12 is retired (v12's `AlertLog`); never reuse it.
        /// Admission-control rejection: the tier is saturated and the job
        /// was *not* enqueued. Carries a retry-after hint in milliseconds.
        /// Only routers send this; it is not an error — the client should
        /// back off and resubmit.
        13 => Busy(retry_after_ms: u32),
        /// A router's routing table.
        14 => Backends(report: BackendsReport),
    }
}

/// The `Backends` reply: a router's view of its shard fleet plus its
/// own admission-control state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendsReport {
    /// Aggregate queue-depth watermark above which the router sheds
    /// load with `Busy` (0 = admission control off).
    pub watermark: u64,
    /// Jobs shed with `Busy` since the router started.
    pub shed: u64,
    /// Per-backend status, in ring order.
    pub backends: Vec<BackendStatus>,
}

/// One backend row of a [`BackendsReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendStatus {
    /// Human name (`shard0`, ...).
    pub name: String,
    /// Socket path the router forwards to.
    pub socket: String,
    /// Last health probe succeeded.
    pub healthy: bool,
    /// Queue depth from the last successful probe.
    pub queue_depth: u64,
    /// Jobs forwarded to this backend.
    pub forwarded: u64,
    /// Failovers *away* from this backend (submit or poll failures that
    /// re-routed a job to the next ring replica).
    pub failovers: u64,
}

// Every struct that crosses the wire, fields in wire order (which is not
// always declaration order). This list is the normative layout.
wire_struct! {
    JobSpec { benchmark, engine, level, scale, mode, warm }
    TraceCtx { trace_id, origin_ns }
    JobResult {
        id, spec, status, checksum, bytes_hash, compile_s, exec_s, aot_compile_s, counters,
        warm_artifact, wall_s, recovery, trace,
    }
    archsim::Counters {
        instructions, cycles, branches, branch_misses, cache_references, cache_misses,
        l1d_accesses, l1d_misses, l1i_accesses, l1i_misses, checks_skipped,
    }
    Recovery { attempts, compile_fallback, store_repairs }
    TraceDigest { trace_id, origin_ns, enqueue_ns, start_ns, done_ns }
    SvcStats {
        submitted, completed, ok, failed, panicked, timed_out, cold_compiles, warm_loads,
        cold_compile_s, warm_load_s, store,
    }
    StoreStats { hits, misses, puts, evictions, corrupt_rejected }
    SvcStatsExt {
        base, queue_depth, workers, uptime_s, busy_s, queue_wait, engine_wall, engine_counters,
    }
    EngineCounters { jobs, counters }
    HealthReport { resilience, breakers, faults, queue_depth, peak_queue_depth }
    ResilienceStats { retries, compile_fallbacks, store_repairs, breaker_fast_fails }
    BreakerSnapshot { state, consecutive_failures, trips }
    SeriesReport { server_now_ns, interval_ns, points }
    TraceReport { slow_threshold_ns, exemplars }
    Exemplar { label, ok, phases }
    ServerPhases {
        trace_id, enqueue_ns, start_ns, done_ns, compile_ns, exec_ns, attempts, compile_fallback,
        store_repairs,
    }
    EngineDelta { code, jobs, compile_ns, exec_ns }
    BackendsReport { watermark, shed, backends }
    BackendStatus { name, socket, healthy, queue_depth, forwarded, failovers }
}

/// Byte-coded enums travel as their stable `u8`; an unassigned byte is
/// an error, never a default.
macro_rules! wire_byte {
    ($($ty:ty: $byte:expr, $from_byte:expr, $err:literal;)*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut WireWriter) {
                w.u8($byte(*self));
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                $from_byte(r.u8()?).ok_or_else(|| bad($err))
            }
        }
    )*};
}

wire_byte! {
    EngineKind: EngineKind::code, EngineKind::from_code, "bad engine";
    OptLevel: level_byte, level_from_byte, "bad level";
    Scale: Scale::byte, Scale::from_byte, "bad scale";
    JobMode: JobMode::byte, JobMode::from_byte, "bad mode";
    BreakerState: BreakerState::byte, BreakerState::from_byte, "bad breaker state";
}

/// Hand-written: a tag byte, and a message string only on the two
/// variants that carry one.
impl Wire for JobStatus {
    fn put(&self, w: &mut WireWriter) {
        match self {
            JobStatus::Ok => w.u8(0),
            JobStatus::Failed(msg) => {
                w.u8(1);
                w.str(msg);
            }
            JobStatus::Panicked(msg) => {
                w.u8(2);
                w.str(msg);
            }
            JobStatus::TimedOut => w.u8(3),
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => JobStatus::Ok,
            1 => JobStatus::Failed(r.str()?),
            2 => JobStatus::Panicked(r.str()?),
            3 => JobStatus::TimedOut,
            _ => return Err(bad("bad status tag")),
        })
    }
}

/// Sparse `(bucket index, count)` pairs, each index checked against
/// [`BUCKETS`] on the way in.
fn get_buckets(r: &mut WireReader<'_>, err: &str) -> Result<Vec<(u8, u64)>, WireError> {
    let sparse = Vec::<(u8, u64)>::get(r)?;
    if sparse.iter().any(|(i, _)| *i as usize >= BUCKETS) {
        return Err(bad(err));
    }
    Ok(sparse)
}

/// Hand-written: the dense bucket array travels sparsely — most of the
/// 32 buckets are empty for any one engine, so only the non-zero
/// `(index, count)` pairs are sent, after the exact count/sum/extremes.
impl Wire for HistogramSnapshot {
    fn put(&self, w: &mut WireWriter) {
        for v in [self.count, self.sum_ns, self.min_ns, self.max_ns] {
            w.u64(v);
        }
        let nonzero = self.buckets.iter().enumerate().filter(|(_, c)| **c != 0);
        nonzero.map(|(i, c)| (i as u8, *c)).collect::<Vec<_>>().put(w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut snapshot = HistogramSnapshot {
            count: r.u64()?,
            sum_ns: r.u64()?,
            min_ns: r.u64()?,
            max_ns: r.u64()?,
            ..HistogramSnapshot::default()
        };
        for (i, c) in get_buckets(r, "bad histogram bucket index")? {
            snapshot.buckets[i as usize] = c;
        }
        Ok(snapshot)
    }
}

/// Hand-written: `lat`'s fields are split around `engines`/`breakers` —
/// its five scalars follow the point's own, its sparse bucket deltas
/// (range-checked like a histogram's) close the point, so clients can
/// merge intervals into an honest aggregate p99.
impl Wire for SeriesPoint {
    fn put(&self, w: &mut WireWriter) {
        for v in [
            self.seq,
            self.t_ns,
            self.interval_ns,
            self.completed,
            self.ok,
            self.failed,
            self.queue_depth,
            self.busy_workers,
            self.lat.count,
            self.lat.sum_ns,
            self.lat.max_ns,
            self.lat.p50_ns,
            self.lat.p99_ns,
        ] {
            w.u64(v);
        }
        self.engines.put(w);
        self.breakers.put(w);
        self.lat.buckets.put(w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut point = SeriesPoint {
            seq: r.u64()?,
            t_ns: r.u64()?,
            interval_ns: r.u64()?,
            completed: r.u64()?,
            ok: r.u64()?,
            failed: r.u64()?,
            queue_depth: r.u64()?,
            busy_workers: r.u64()?,
            lat: HistDelta {
                count: r.u64()?,
                sum_ns: r.u64()?,
                max_ns: r.u64()?,
                p50_ns: r.u64()?,
                p99_ns: r.u64()?,
                buckets: Vec::new(),
            },
            engines: Wire::get(r)?,
            breakers: Wire::get(r)?,
        };
        point.lat.buckets = get_buckets(r, "bad series bucket index")?;
        Ok(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        JobSpec {
            benchmark: "crc32".into(),
            engine: EngineKind::Wasmer(engines::Backend::Llvm),
            level: OptLevel::O3,
            scale: Scale::Profile,
            mode: JobMode::ExecAot,
            warm: true,
        }
    }

    fn sample_ctx() -> TraceCtx {
        TraceCtx {
            trace_id: 0xfeed_f00d_dead_beef,
            origin_ns: 123_456_789,
        }
    }

    /// One populated sample of every request variant, then the
    /// default-valued twin of each variant that carries optional data.
    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Submit(sample_spec(), sample_ctx()),
            Request::Poll(42),
            Request::Wait(7),
            Request::Stats,
            Request::Shutdown,
            Request::StatsExt,
            Request::Health,
            Request::Series(Some(417)),
            Request::TraceDump,
            Request::Backends,
            Request::Submit(sample_spec(), TraceCtx::default()),
            Request::Series(None),
        ]
    }

    /// Every optional field present, every counter distinct from its
    /// default.
    fn sample_result() -> JobResult {
        JobResult {
            id: 9,
            spec: sample_spec(),
            status: JobStatus::Panicked("checksum mismatch".into()),
            checksum: Some(-7),
            bytes_hash: 0xdead_beef,
            compile_s: 0.25,
            exec_s: 1.5,
            aot_compile_s: Some(0.125),
            counters: Some(archsim::Counters {
                instructions: 10,
                cycles: 20,
                checks_skipped: 42,
                ..Default::default()
            }),
            warm_artifact: true,
            wall_s: 2.0,
            recovery: Recovery {
                attempts: 3,
                compile_fallback: true,
                store_repairs: 1,
            },
            trace: TraceDigest {
                trace_id: 0xabcd,
                origin_ns: 10,
                enqueue_ns: 1_000,
                start_ns: 5_000,
                done_ns: 42_000,
            },
        }
    }

    fn sample_stats() -> SvcStats {
        SvcStats {
            submitted: 3,
            completed: 3,
            ok: 2,
            panicked: 1,
            store: Some(StoreStats {
                hits: 5,
                misses: 2,
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    fn sample_stats_ext() -> SvcStatsExt {
        let mut queue_wait = HistogramSnapshot::default();
        queue_wait.buckets[3] = 4;
        queue_wait.buckets[17] = 1;
        queue_wait.count = 5;
        queue_wait.sum_ns = 123_456;
        let mut wall = HistogramSnapshot::default();
        wall.buckets[BUCKETS - 1] = 2;
        wall.count = 2;
        wall.sum_ns = u64::MAX / 2;
        wall.min_ns = 17;
        wall.max_ns = u64::MAX / 4;
        SvcStatsExt {
            base: SvcStats {
                submitted: 7,
                completed: 6,
                ok: 6,
                ..Default::default()
            },
            queue_depth: 1,
            workers: 4,
            uptime_s: 12.5,
            busy_s: 9.25,
            queue_wait,
            engine_wall: vec![(0, wall.clone()), (3, wall)],
            engine_counters: vec![(
                3,
                EngineCounters {
                    jobs: 2,
                    counters: archsim::Counters {
                        instructions: 1_000,
                        cycles: 2_500,
                        branches: 120,
                        branch_misses: 6,
                        checks_skipped: 9,
                        ..Default::default()
                    },
                },
            )],
        }
    }

    fn sample_health() -> HealthReport {
        let breaker = |state, consecutive_failures, trips| BreakerSnapshot {
            state,
            consecutive_failures,
            trips,
        };
        HealthReport {
            resilience: ResilienceStats {
                retries: 5,
                compile_fallbacks: 2,
                store_repairs: 3,
                breaker_fast_fails: 1,
            },
            breakers: vec![
                (0, breaker(BreakerState::Closed, 0, 0)),
                (4, breaker(BreakerState::Open, 9, 2)),
            ],
            faults: vec![(0, 0.05, 12), (3, 0.05, 7)],
            queue_depth: 6,
            peak_queue_depth: 31,
        }
    }

    fn sample_series() -> SeriesReport {
        SeriesReport {
            server_now_ns: 1_000_000,
            interval_ns: 500_000_000,
            points: vec![
                SeriesPoint {
                    seq: 3,
                    t_ns: 900_000,
                    interval_ns: 499_000_000,
                    completed: 12,
                    ok: 11,
                    failed: 1,
                    queue_depth: 4,
                    busy_workers: 2,
                    lat: HistDelta {
                        count: 12,
                        sum_ns: 36_000_000,
                        max_ns: 9_100_000,
                        p50_ns: 2_500_000,
                        p99_ns: 9_000_000,
                        buckets: vec![(13, 10), (17, 2)],
                    },
                    engines: vec![
                        EngineDelta {
                            code: 0,
                            jobs: 7,
                            compile_ns: 1_200_000,
                            exec_ns: 20_000_000,
                        },
                        EngineDelta {
                            code: 5,
                            jobs: 5,
                            compile_ns: 0,
                            exec_ns: 9_500_000,
                        },
                    ],
                    breakers: vec![(4, 1)],
                },
                SeriesPoint::default(),
            ],
        }
    }

    fn sample_trace_report() -> TraceReport {
        let rec = |id: u64, ok: bool| Exemplar {
            label: format!("crc32 on Wasm3 at -O1 ({id})"),
            ok,
            phases: ServerPhases {
                trace_id: id,
                enqueue_ns: 1_000,
                start_ns: 2_000,
                done_ns: 9_000,
                compile_ns: 3_000,
                exec_ns: 3_500,
                attempts: 2,
                compile_fallback: ok,
                store_repairs: 1,
            },
        };
        TraceReport {
            slow_threshold_ns: 250_000_000,
            exemplars: vec![rec(1, true), rec(2, false)],
        }
    }

    fn sample_backends() -> BackendsReport {
        let shard = |name: &str, healthy, queue_depth, forwarded, failovers| BackendStatus {
            name: name.into(),
            socket: format!("/tmp/{name}.sock"),
            healthy,
            queue_depth,
            forwarded,
            failovers,
        };
        BackendsReport {
            watermark: 64,
            shed: 3,
            backends: vec![shard("shard0", true, 4, 120, 0), shard("shard1", false, 0, 80, 2)],
        }
    }

    /// An unprofiled, untraced, first-attempt success: every optional
    /// field absent.
    fn plain_result() -> JobResult {
        JobResult {
            status: JobStatus::Ok,
            checksum: None,
            aot_compile_s: None,
            counters: None,
            recovery: Recovery::default(),
            trace: TraceDigest::default(),
            ..sample_result()
        }
    }

    /// One populated sample of every response variant, then the
    /// default-valued instance of every report (a fresh scheduler, a
    /// router that just started, telemetry switched off).
    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Submitted(1),
            Response::Pending,
            Response::Result(sample_result()),
            Response::Stats(sample_stats()),
            Response::Err("nope".into()),
            Response::Bye,
            Response::StatsExt(Box::new(sample_stats_ext())),
            Response::Health(sample_health()),
            Response::Series(sample_series()),
            Response::TraceDump(sample_trace_report()),
            Response::Busy(250),
            Response::Backends(sample_backends()),
            Response::Result(plain_result()),
            Response::StatsExt(Box::default()),
            Response::Health(HealthReport::default()),
            Response::Series(SeriesReport::default()),
            Response::TraceDump(TraceReport::default()),
            Response::Backends(BackendsReport::default()),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    fn assert_decodes_only_whole<T>(payload: Vec<u8>, decode: fn(&[u8]) -> Result<T, WireError>) {
        for cut in 0..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "{payload:?} cut to {cut} bytes decoded"
            );
        }
        let mut long = payload;
        long.push(0);
        assert!(decode(&long).is_err(), "{long:?} decoded with a trailing byte");
    }

    /// The truncation contract: a payload decodes only as a whole — no
    /// cut point, field boundary or not, yields a shorter valid message.
    #[test]
    fn every_strict_prefix_and_any_trailing_byte_is_an_error() {
        for req in sample_requests() {
            assert_decodes_only_whole(req.encode(), Request::decode);
        }
        for resp in sample_responses() {
            assert_decodes_only_whole(resp.encode(), Response::decode);
        }
    }

    /// Hostile input, one byte at a time: every sample payload with each
    /// byte past the 3-byte head overwritten in turn decodes to `Ok` or
    /// `Err` — never a panic, never an out-of-bounds index.
    #[test]
    fn every_single_byte_mutation_decodes_or_errors() {
        fn sweep<T>(mut payload: Vec<u8>, decode: fn(&[u8]) -> Result<T, WireError>) {
            for at in 3..payload.len() {
                let original = payload[at];
                for byte in [0x00, 0x01, 0x02, 0x7f, 0xff] {
                    payload[at] = byte;
                    let _ = decode(&payload);
                }
                payload[at] = original;
            }
        }
        for req in sample_requests() {
            sweep(req.encode(), Request::decode);
        }
        for resp in sample_responses() {
            sweep(resp.encode(), Response::decode);
        }
    }

    /// Every count the samples reach (element counts and string
    /// lengths), inflated to `u32::MAX`, is refused by the one check in
    /// `WireReader::count` — so before anything is allocated for it.
    #[test]
    fn every_inflated_count_is_refused_before_allocating() {
        use crate::wire::COUNT_OFFSETS;
        fn sweep<T>(payload: Vec<u8>, decode: fn(&[u8]) -> Result<T, WireError>) -> usize {
            COUNT_OFFSETS.with(|offsets| offsets.borrow_mut().clear());
            assert!(decode(&payload).is_ok());
            let offsets = COUNT_OFFSETS.with(|offsets| offsets.take());
            for at in &offsets {
                let mut inflated = payload.clone();
                inflated[*at..*at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                let err = decode(&inflated).err().expect("an inflated count decoded");
                assert_eq!(err, bad("count exceeds payload"), "count at {at}");
            }
            offsets.len()
        }
        let requests = sample_requests().into_iter();
        let requests: usize = requests.map(|m| sweep(m.encode(), Request::decode)).sum();
        let responses = sample_responses().into_iter();
        let responses: usize = responses.map(|m| sweep(m.encode(), Response::decode)).sum();
        // Counted by hand from the samples (two `Submit` benchmark names;
        // every string, list and map of the replies), so a count that
        // bypassed `WireReader::count` would show up here as a shortfall.
        assert_eq!((requests, responses), (2, 34));
    }

    /// Every payload opens with the version head, and both decoders
    /// refuse any other version with an error naming the two.
    #[test]
    fn version_head_is_checked_for_exact_equality() {
        for other in [PROTO_VERSION - 1, PROTO_VERSION + 1] {
            let mut req = Request::Ping.encode();
            assert_eq!(req[..2], PROTO_VERSION.to_le_bytes());
            req[..2].copy_from_slice(&other.to_le_bytes());
            let mut resp = Response::Pong.encode();
            assert_eq!(resp[..2], PROTO_VERSION.to_le_bytes());
            resp[..2].copy_from_slice(&other.to_le_bytes());
            for err in [
                Request::decode(&req).unwrap_err(),
                Response::decode(&resp).unwrap_err(),
            ] {
                let msg = err.to_string();
                assert!(msg.contains(&format!("v{other}")), "{msg}");
                assert!(msg.contains(&format!("v{PROTO_VERSION}")), "{msg}");
            }
        }
    }

    /// The frozen layout, byte for byte: FNV-1a over every sample
    /// encoding in order. A different hash is a layout change and needs
    /// a `PROTO_VERSION` bump along with the new literal.
    #[test]
    fn wire_bytes_are_pinned() {
        let mut all = Vec::new();
        for req in sample_requests() {
            all.extend(req.encode());
        }
        for resp in sample_responses() {
            all.extend(resp.encode());
        }
        assert_eq!(all.len(), 2045);
        assert_eq!(crate::hash::fnv64(&all), 0x1bff_6eee_f1a9_bac6);
    }

    /// A sparse histogram naming a bucket one past the end is refused
    /// rather than written out of bounds or silently dropped.
    #[test]
    fn stats_ext_rejects_bad_bucket_index() {
        // version(2) + tag + base stats (8 u64, 2 f64, absent store) +
        // queue_depth, workers, uptime_s, busy_s + count, sum, min, max
        // + bucket count(4) = offset of queue_wait's first bucket index.
        let off = 2 + 1 + (8 * 8 + 2 * 8 + 1) + 4 * 8 + 4 * 8 + 4;
        let mut bad_index = Response::StatsExt(Box::new(sample_stats_ext())).encode();
        assert_eq!(bad_index[off], 3, "expected queue_wait's first bucket");
        bad_index[off] = BUCKETS as u8;
        assert!(Response::decode(&bad_index).is_err());
    }

    #[test]
    fn health_rejects_unknown_breaker_state() {
        // The first breaker's state byte:
        // version(2) + tag + resilience(4×8) + count(4) + code(1) = 40.
        let mut bad_state = Response::Health(sample_health()).encode();
        bad_state[40] = 9;
        assert!(Response::decode(&bad_state).is_err());
    }

    /// `checks_skipped` travels inside the counter block: present on a
    /// profiled result, absent (with the block) on an unprofiled one.
    #[test]
    fn result_checks_skipped_round_trips() {
        let unprofiled = JobResult {
            counters: None,
            ..sample_result()
        };
        let with = Response::Result(sample_result()).encode();
        let without = Response::Result(unprofiled).encode();
        assert_eq!(with.len(), without.len() + 11 * 8);
        match Response::decode(&with).unwrap() {
            Response::Result(r) => assert_eq!(r.counters.unwrap().checks_skipped, 42),
            other => panic!("expected Result, got {other:?}"),
        }
    }

    /// The span digest survives a result's round trip.
    #[test]
    fn result_trace_digest_round_trips() {
        let decoded = match Response::decode(&Response::Result(sample_result()).encode()).unwrap() {
            Response::Result(r) => r,
            other => panic!("expected Result, got {other:?}"),
        };
        assert_eq!(decoded.trace, sample_result().trace);
        assert_eq!(decoded.trace.queue_ns(), 4_000);
    }

    #[test]
    fn series_rejects_bad_bucket_index() {
        let mut report = SeriesReport::default();
        report.points.push(SeriesPoint {
            lat: HistDelta {
                buckets: vec![(BUCKETS as u8, 1)],
                ..HistDelta::default()
            },
            ..SeriesPoint::default()
        });
        let bad = Response::Series(report).encode();
        assert!(Response::decode(&bad).is_err());
    }

    #[test]
    fn malformed_payloads_error() {
        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[]).is_err());
        // A well-versioned frame with an unknown or a retired tag.
        let frame = |tag: u8| {
            let mut buf = PROTO_VERSION.to_le_bytes().to_vec();
            buf.push(tag);
            buf
        };
        for tag in [10, 11, 99] {
            assert!(Request::decode(&frame(tag)).is_err(), "request tag {tag}");
        }
        for tag in [11, 12, 99] {
            assert!(Response::decode(&frame(tag)).is_err(), "response tag {tag}");
        }
        // Optional fields are strict bools: 2 is neither absent nor present.
        let mut buf = Request::Series(None).encode();
        *buf.last_mut().unwrap() = 2;
        assert!(Request::decode(&buf).is_err());
    }
}
