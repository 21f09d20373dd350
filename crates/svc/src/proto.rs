//! The `wabench-served` request/response protocol.
//!
//! Messages travel as length-prefixed frames ([`crate::wire`]); every
//! payload is `u16 version · u8 tag · body`. Decoding treats every
//! payload as untrusted and must consume it exactly: each strict prefix
//! of a valid payload, and a valid payload plus trailing bytes, is an
//! error.

use engines::EngineKind;
use obs::metrics::{HistogramSnapshot, BUCKETS};
use serde::{Deserialize, Serialize};

use fault::{BreakerSnapshot, BreakerState};

use crate::job::{JobMode, JobResult, JobSpec, JobStatus, Recovery, Scale, TraceCtx, TraceDigest};
use crate::scheduler::{EngineCounters, HealthReport, ResilienceStats, SvcStats, SvcStatsExt};
use crate::store::StoreStats;
use crate::telemetry::{
    AlertReport, ProfileReport, SeriesPoint, SeriesReport, TraceRecord, TraceReport,
};
use crate::wire::{level_byte, level_from_byte, WireError, WireReader, WireWriter};

/// The one protocol version, at the head of every request and response
/// payload. Both decoders refuse any other value: every peer is built
/// from this workspace, so a mismatch means mixed builds, not an older
/// client to accommodate. Bump it whenever a message layout changes.
pub const PROTO_VERSION: u16 = 10;

/// Client → server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enqueue a job; answered with `Submitted(id)`. The trace context
    /// joins the job's server-side spans to the client's; a default
    /// context means "untraced".
    Submit(JobSpec, TraceCtx),
    /// Non-blocking result query; `Pending` or `Result`.
    Poll(u64),
    /// Blocking result query; answered with `Result`.
    Wait(u64),
    /// Service statistics.
    Stats,
    /// Stop the server (drains queued jobs first).
    Shutdown,
    /// Extended statistics: queue depth, worker utilization, latency
    /// histograms, per-engine simulated counters.
    StatsExt,
    /// Resilience health: breaker states and fault/retry counters.
    Health,
    /// Live telemetry time series: the sampler's buffered delta window.
    /// The cursor limits the reply to points with a greater sequence
    /// number; `None` fetches the whole window.
    Series(Option<u64>),
    /// Recent and slow-request server span digests for client-side
    /// stitching.
    TraceDump,
    /// The continuous profiler's retained windows.
    ProfileDump,
    /// The SLO alert engine's firing set and transition log.
    AlertLog,
    /// The routing table of a `wabench-router`: per-backend health,
    /// forward counts, and failovers. A plain `wabench-served` answers
    /// `Err` — the cheap way to distinguish a shard from a router.
    Backends,
}

/// Server → client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// `Ping` reply.
    Pong,
    /// Job accepted under this id.
    Submitted(u64),
    /// Job not finished yet.
    Pending,
    /// A completed job's record.
    Result(JobResult),
    /// Statistics snapshot.
    Stats(SvcStats),
    /// The request could not be served.
    Err(String),
    /// Acknowledges `Shutdown`.
    Bye,
    /// Extended statistics snapshot. Boxed: the inline histogram bucket
    /// arrays dwarf every other variant.
    StatsExt(Box<SvcStatsExt>),
    /// Resilience health snapshot.
    Health(HealthReport),
    /// Live telemetry sample window.
    Series(SeriesReport),
    /// Recent/slow-request span digests.
    TraceDump(TraceReport),
    /// Continuous-profile windows.
    ProfileDump(ProfileReport),
    /// Alert firing set and transition log.
    AlertLog(AlertReport),
    /// Admission-control rejection: the tier is saturated and the job
    /// was *not* enqueued. Carries a retry-after hint in milliseconds.
    /// Only routers send this; it is not an error — the client should
    /// back off and resubmit.
    Busy(u32),
    /// A router's routing table.
    Backends(BackendsReport),
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

fn encode_backends(w: &mut WireWriter, b: &BackendsReport) {
    w.u64(b.watermark);
    w.u64(b.shed);
    w.u32(b.backends.len() as u32);
    for be in &b.backends {
        w.str(&be.name);
        w.str(&be.socket);
        w.bool(be.healthy);
        w.u64(be.queue_depth);
        w.u64(be.forwarded);
        w.u64(be.failovers);
    }
}

fn decode_backends(r: &mut WireReader<'_>) -> Result<BackendsReport, WireError> {
    let watermark = r.u64()?;
    let shed = r.u64()?;
    let n = r.u32()?;
    let mut backends = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        backends.push(BackendStatus {
            name: r.str()?,
            socket: r.str()?,
            healthy: r.bool()?,
            queue_depth: r.u64()?,
            forwarded: r.u64()?,
            failovers: r.u64()?,
        });
    }
    Ok(BackendsReport {
        watermark,
        shed,
        backends,
    })
}

fn bad(msg: &str) -> WireError {
    WireError(msg.to_string())
}

fn version_mismatch(peer: u16) -> WireError {
    WireError(format!(
        "protocol version mismatch: peer speaks v{peer}, this build speaks v{PROTO_VERSION}"
    ))
}

fn encode_spec(w: &mut WireWriter, spec: &JobSpec) {
    w.str(&spec.benchmark);
    w.u8(spec.engine.code());
    w.u8(level_byte(spec.level));
    w.u8(spec.scale.byte());
    w.u8(spec.mode.byte());
    w.bool(spec.warm);
}

fn decode_spec(r: &mut WireReader<'_>) -> Result<JobSpec, WireError> {
    let benchmark = r.str()?;
    let engine = EngineKind::from_code(r.u8()?).ok_or_else(|| bad("bad engine"))?;
    let level = level_from_byte(r.u8()?).ok_or_else(|| bad("bad level"))?;
    let scale = Scale::from_byte(r.u8()?).ok_or_else(|| bad("bad scale"))?;
    let mode = JobMode::from_byte(r.u8()?).ok_or_else(|| bad("bad mode"))?;
    let warm = r.bool()?;
    Ok(JobSpec {
        benchmark,
        engine,
        level,
        scale,
        mode,
        warm,
    })
}

fn encode_status(w: &mut WireWriter, status: &JobStatus) {
    match status {
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

fn decode_status(r: &mut WireReader<'_>) -> Result<JobStatus, WireError> {
    Ok(match r.u8()? {
        0 => JobStatus::Ok,
        1 => JobStatus::Failed(r.str()?),
        2 => JobStatus::Panicked(r.str()?),
        3 => JobStatus::TimedOut,
        _ => return Err(bad("bad status tag")),
    })
}

fn encode_counters(w: &mut WireWriter, c: &archsim::Counters) {
    for v in [
        c.instructions,
        c.cycles,
        c.branches,
        c.branch_misses,
        c.cache_references,
        c.cache_misses,
        c.l1d_accesses,
        c.l1d_misses,
        c.l1i_accesses,
        c.l1i_misses,
        c.checks_skipped,
    ] {
        w.u64(v);
    }
}

fn decode_counters(r: &mut WireReader<'_>) -> Result<archsim::Counters, WireError> {
    Ok(archsim::Counters {
        instructions: r.u64()?,
        cycles: r.u64()?,
        branches: r.u64()?,
        branch_misses: r.u64()?,
        cache_references: r.u64()?,
        cache_misses: r.u64()?,
        l1d_accesses: r.u64()?,
        l1d_misses: r.u64()?,
        l1i_accesses: r.u64()?,
        l1i_misses: r.u64()?,
        checks_skipped: r.u64()?,
    })
}

fn encode_result(w: &mut WireWriter, res: &JobResult) {
    w.u64(res.id);
    encode_spec(w, &res.spec);
    encode_status(w, &res.status);
    match res.checksum {
        Some(v) => {
            w.bool(true);
            w.i32(v);
        }
        None => w.bool(false),
    }
    w.u64(res.bytes_hash);
    w.f64(res.compile_s);
    w.f64(res.exec_s);
    match res.aot_compile_s {
        Some(v) => {
            w.bool(true);
            w.f64(v);
        }
        None => w.bool(false),
    }
    match &res.counters {
        Some(c) => {
            w.bool(true);
            encode_counters(w, c);
        }
        None => w.bool(false),
    }
    w.bool(res.warm_artifact);
    w.f64(res.wall_s);
    w.u32(res.recovery.attempts);
    w.bool(res.recovery.compile_fallback);
    w.u32(res.recovery.store_repairs);
    // The per-job span digest: echoed trace context plus the queue/run
    // timestamps on the server trace clock.
    w.u64(res.trace.trace_id);
    w.u64(res.trace.origin_ns);
    w.u64(res.trace.enqueue_ns);
    w.u64(res.trace.start_ns);
    w.u64(res.trace.done_ns);
}

fn decode_result(r: &mut WireReader<'_>) -> Result<JobResult, WireError> {
    let id = r.u64()?;
    let spec = decode_spec(r)?;
    let status = decode_status(r)?;
    let checksum = if r.bool()? { Some(r.i32()?) } else { None };
    let bytes_hash = r.u64()?;
    let compile_s = r.f64()?;
    let exec_s = r.f64()?;
    let aot_compile_s = if r.bool()? { Some(r.f64()?) } else { None };
    let counters = if r.bool()? {
        Some(decode_counters(r)?)
    } else {
        None
    };
    let warm_artifact = r.bool()?;
    let wall_s = r.f64()?;
    let recovery = Recovery {
        attempts: r.u32()?,
        compile_fallback: r.bool()?,
        store_repairs: r.u32()?,
    };
    let trace = TraceDigest {
        trace_id: r.u64()?,
        origin_ns: r.u64()?,
        enqueue_ns: r.u64()?,
        start_ns: r.u64()?,
        done_ns: r.u64()?,
    };
    Ok(JobResult {
        id,
        spec,
        status,
        checksum,
        bytes_hash,
        compile_s,
        exec_s,
        aot_compile_s,
        counters,
        warm_artifact,
        wall_s,
        recovery,
        trace,
    })
}

fn encode_stats(w: &mut WireWriter, s: &SvcStats) {
    for v in [
        s.submitted,
        s.completed,
        s.ok,
        s.failed,
        s.panicked,
        s.timed_out,
        s.cold_compiles,
        s.warm_loads,
    ] {
        w.u64(v);
    }
    w.f64(s.cold_compile_s);
    w.f64(s.warm_load_s);
    match &s.store {
        Some(st) => {
            w.bool(true);
            for v in [st.hits, st.misses, st.puts, st.evictions, st.corrupt_rejected] {
                w.u64(v);
            }
        }
        None => w.bool(false),
    }
}

fn decode_stats(r: &mut WireReader<'_>) -> Result<SvcStats, WireError> {
    let submitted = r.u64()?;
    let completed = r.u64()?;
    let ok = r.u64()?;
    let failed = r.u64()?;
    let panicked = r.u64()?;
    let timed_out = r.u64()?;
    let cold_compiles = r.u64()?;
    let warm_loads = r.u64()?;
    let cold_compile_s = r.f64()?;
    let warm_load_s = r.f64()?;
    let store = if r.bool()? {
        Some(StoreStats {
            hits: r.u64()?,
            misses: r.u64()?,
            puts: r.u64()?,
            evictions: r.u64()?,
            corrupt_rejected: r.u64()?,
        })
    } else {
        None
    };
    Ok(SvcStats {
        submitted,
        completed,
        ok,
        failed,
        panicked,
        timed_out,
        cold_compiles,
        cold_compile_s,
        warm_loads,
        warm_load_s,
        store,
    })
}

/// Histograms go over the wire sparsely: most of the 32 buckets are
/// empty for any one engine, so we send (index, count) pairs.
fn encode_histogram(w: &mut WireWriter, h: &HistogramSnapshot) {
    w.u64(h.count);
    w.u64(h.sum_ns);
    // Exact extremes travel alongside the bucketed shape.
    w.u64(h.min_ns);
    w.u64(h.max_ns);
    let nonzero: Vec<(usize, u64)> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, c)| **c != 0)
        .map(|(i, c)| (i, *c))
        .collect();
    w.u32(nonzero.len() as u32);
    for (i, c) in nonzero {
        w.u8(i as u8);
        w.u64(c);
    }
}

fn decode_histogram(r: &mut WireReader<'_>) -> Result<HistogramSnapshot, WireError> {
    let mut snapshot = HistogramSnapshot {
        count: r.u64()?,
        sum_ns: r.u64()?,
        min_ns: r.u64()?,
        max_ns: r.u64()?,
        ..HistogramSnapshot::default()
    };
    let n = r.u32()?;
    for _ in 0..n {
        let i = r.u8()? as usize;
        if i >= BUCKETS {
            return Err(bad("bad histogram bucket index"));
        }
        snapshot.buckets[i] = r.u64()?;
    }
    Ok(snapshot)
}

fn encode_stats_ext(w: &mut WireWriter, s: &SvcStatsExt) {
    encode_stats(w, &s.base);
    w.u64(s.queue_depth);
    w.u64(s.workers);
    w.f64(s.uptime_s);
    w.f64(s.busy_s);
    encode_histogram(w, &s.queue_wait);
    w.u32(s.engine_wall.len() as u32);
    for (code, h) in &s.engine_wall {
        w.u8(*code);
        encode_histogram(w, h);
    }
    // Per-engine simulated-counter aggregates.
    w.u32(s.engine_counters.len() as u32);
    for (code, agg) in &s.engine_counters {
        w.u8(*code);
        w.u64(agg.jobs);
        encode_counters(w, &agg.counters);
    }
}

fn decode_stats_ext(r: &mut WireReader<'_>) -> Result<SvcStatsExt, WireError> {
    let base = decode_stats(r)?;
    let queue_depth = r.u64()?;
    let workers = r.u64()?;
    let uptime_s = r.f64()?;
    let busy_s = r.f64()?;
    let queue_wait = decode_histogram(r)?;
    let n = r.u32()?;
    let mut engine_wall = Vec::with_capacity(n.min(64) as usize);
    for _ in 0..n {
        let code = r.u8()?;
        engine_wall.push((code, decode_histogram(r)?));
    }
    let n = r.u32()?;
    let mut engine_counters = Vec::with_capacity(n.min(64) as usize);
    for _ in 0..n {
        let code = r.u8()?;
        let jobs = r.u64()?;
        let counters = decode_counters(r)?;
        engine_counters.push((code, EngineCounters { jobs, counters }));
    }
    Ok(SvcStatsExt {
        base,
        queue_depth,
        workers,
        uptime_s,
        busy_s,
        queue_wait,
        engine_wall,
        engine_counters,
    })
}

fn encode_health(w: &mut WireWriter, h: &HealthReport) {
    for v in [
        h.resilience.retries,
        h.resilience.compile_fallbacks,
        h.resilience.store_repairs,
        h.resilience.breaker_fast_fails,
    ] {
        w.u64(v);
    }
    w.u32(h.breakers.len() as u32);
    for (code, b) in &h.breakers {
        w.u8(*code);
        w.u8(b.state.byte());
        w.u32(b.consecutive_failures);
        w.u64(b.trips);
    }
    w.u32(h.faults.len() as u32);
    for (site, rate, injected) in &h.faults {
        w.u8(*site);
        w.f64(*rate);
        w.u64(*injected);
    }
    w.u64(h.queue_depth);
    w.u64(h.peak_queue_depth);
}

fn decode_health(r: &mut WireReader<'_>) -> Result<HealthReport, WireError> {
    let resilience = ResilienceStats {
        retries: r.u64()?,
        compile_fallbacks: r.u64()?,
        store_repairs: r.u64()?,
        breaker_fast_fails: r.u64()?,
    };
    let n = r.u32()?;
    let mut breakers = Vec::with_capacity(n.min(64) as usize);
    for _ in 0..n {
        let code = r.u8()?;
        let state = BreakerState::from_byte(r.u8()?).ok_or_else(|| bad("bad breaker state"))?;
        let consecutive_failures = r.u32()?;
        let trips = r.u64()?;
        breakers.push((
            code,
            BreakerSnapshot {
                state,
                consecutive_failures,
                trips,
            },
        ));
    }
    let n = r.u32()?;
    let mut faults = Vec::with_capacity(n.min(64) as usize);
    for _ in 0..n {
        let site = r.u8()?;
        let rate = r.f64()?;
        let injected = r.u64()?;
        faults.push((site, rate, injected));
    }
    Ok(HealthReport {
        resilience,
        breakers,
        faults,
        queue_depth: r.u64()?,
        peak_queue_depth: r.u64()?,
    })
}

fn encode_series(w: &mut WireWriter, s: &SeriesReport) {
    w.u64(s.server_now_ns);
    w.u64(s.interval_ns);
    w.u32(s.points.len() as u32);
    for p in &s.points {
        for v in [
            p.seq,
            p.t_ns,
            p.interval_ns,
            p.completed,
            p.ok,
            p.failed,
            p.queue_depth,
            p.busy_workers,
            p.lat.count,
            p.lat.sum_ns,
            p.lat.p50_ns,
            p.lat.p99_ns,
        ] {
            w.u64(v);
        }
        w.u32(p.engines.len() as u32);
        for (code, jobs) in &p.engines {
            w.u8(*code);
            w.u64(*jobs);
        }
        w.u32(p.breakers.len() as u32);
        for (code, state) in &p.breakers {
            w.u8(*code);
            w.u8(*state);
        }
        // The interval's sparse latency-bucket deltas, so clients
        // can merge intervals into an honest aggregate p99 instead of
        // maxing the per-interval ones.
        w.u32(p.lat.buckets.len() as u32);
        for (i, c) in &p.lat.buckets {
            w.u8(*i);
            w.u64(*c);
        }
    }
}

fn decode_series(r: &mut WireReader<'_>) -> Result<SeriesReport, WireError> {
    let server_now_ns = r.u64()?;
    let interval_ns = r.u64()?;
    let n = r.u32()?;
    let mut points = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        let seq = r.u64()?;
        let t_ns = r.u64()?;
        let point_interval_ns = r.u64()?;
        let completed = r.u64()?;
        let ok = r.u64()?;
        let failed = r.u64()?;
        let queue_depth = r.u64()?;
        let busy_workers = r.u64()?;
        let mut lat = obs::series::HistDelta {
            count: r.u64()?,
            sum_ns: r.u64()?,
            p50_ns: r.u64()?,
            p99_ns: r.u64()?,
            buckets: Vec::new(),
        };
        let m = r.u32()?;
        let mut engines = Vec::with_capacity(m.min(64) as usize);
        for _ in 0..m {
            let code = r.u8()?;
            engines.push((code, r.u64()?));
        }
        let m = r.u32()?;
        let mut breakers = Vec::with_capacity(m.min(64) as usize);
        for _ in 0..m {
            let code = r.u8()?;
            breakers.push((code, r.u8()?));
        }
        let m = r.u32()?;
        lat.buckets.reserve(m.min(BUCKETS as u32) as usize);
        for _ in 0..m {
            let i = r.u8()?;
            if i as usize >= BUCKETS {
                return Err(bad("bad series bucket index"));
            }
            lat.buckets.push((i, r.u64()?));
        }
        points.push(SeriesPoint {
            seq,
            t_ns,
            interval_ns: point_interval_ns,
            completed,
            ok,
            failed,
            queue_depth,
            busy_workers,
            lat,
            engines,
            breakers,
        });
    }
    Ok(SeriesReport {
        server_now_ns,
        interval_ns,
        points,
    })
}

fn encode_profile_report(w: &mut WireWriter, p: &ProfileReport) {
    w.u64(p.server_now_ns);
    w.u64(p.window_ns);
    w.u32(p.windows.len() as u32);
    for win in &p.windows {
        w.u64(win.seq);
        w.u64(win.start_ns);
        w.u64(win.end_ns);
        w.u32(win.phases.len() as u32);
        for (stack, s) in &win.phases {
            w.str(stack);
            w.u64(s.count);
            w.u64(s.self_ns);
            w.u64(s.instructions);
            w.u64(s.cycles);
        }
    }
}

fn decode_profile_report(r: &mut WireReader<'_>) -> Result<ProfileReport, WireError> {
    let server_now_ns = r.u64()?;
    let window_ns = r.u64()?;
    let n = r.u32()?;
    let mut windows = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        let seq = r.u64()?;
        let start_ns = r.u64()?;
        let end_ns = r.u64()?;
        let m = r.u32()?;
        let mut phases = std::collections::BTreeMap::new();
        for _ in 0..m {
            let stack = r.str()?;
            let stat = obs::contprof::PhaseStat {
                count: r.u64()?,
                self_ns: r.u64()?,
                instructions: r.u64()?,
                cycles: r.u64()?,
            };
            phases.insert(stack, stat);
        }
        windows.push(obs::contprof::ProfileWindow {
            seq,
            start_ns,
            end_ns,
            phases,
        });
    }
    Ok(ProfileReport {
        server_now_ns,
        window_ns,
        windows,
    })
}

fn encode_alert_report(w: &mut WireWriter, a: &AlertReport) {
    w.u64(a.server_now_ns);
    w.bool(a.armed);
    w.u32(a.firing.len() as u32);
    for f in &a.firing {
        w.str(&f.rule);
        w.u64(f.since_ns);
        w.f64(f.value);
        w.f64(f.threshold);
        w.str(&f.detail);
    }
    w.u32(a.events.len() as u32);
    for e in &a.events {
        w.u64(e.seq);
        w.u64(e.t_ns);
        w.u8(e.transition.byte());
        w.str(&e.rule);
        w.f64(e.value);
        w.f64(e.threshold);
        w.str(&e.detail);
    }
}

fn decode_alert_report(r: &mut WireReader<'_>) -> Result<AlertReport, WireError> {
    let server_now_ns = r.u64()?;
    let armed = r.bool()?;
    let n = r.u32()?;
    let mut firing = Vec::with_capacity(n.min(64) as usize);
    for _ in 0..n {
        firing.push(obs::alert::FiringAlert {
            rule: r.str()?,
            since_ns: r.u64()?,
            value: r.f64()?,
            threshold: r.f64()?,
            detail: r.str()?,
        });
    }
    let n = r.u32()?;
    let mut events = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        let seq = r.u64()?;
        let t_ns = r.u64()?;
        let transition = obs::alert::Transition::from_byte(r.u8()?)
            .ok_or_else(|| bad("bad alert transition"))?;
        events.push(obs::alert::AlertEvent {
            seq,
            t_ns,
            rule: r.str()?,
            transition,
            value: r.f64()?,
            threshold: r.f64()?,
            detail: r.str()?,
        });
    }
    Ok(AlertReport {
        server_now_ns,
        armed,
        firing,
        events,
    })
}

fn encode_trace_record(w: &mut WireWriter, rec: &TraceRecord) {
    w.str(&rec.label);
    w.bool(rec.ok);
    for v in [
        rec.phases.trace_id,
        rec.phases.enqueue_ns,
        rec.phases.start_ns,
        rec.phases.done_ns,
        rec.phases.compile_ns,
        rec.phases.exec_ns,
    ] {
        w.u64(v);
    }
    w.u32(rec.phases.attempts);
    w.bool(rec.phases.compile_fallback);
    w.u32(rec.phases.store_repairs);
}

fn decode_trace_record(r: &mut WireReader<'_>) -> Result<TraceRecord, WireError> {
    let label = r.str()?;
    let ok = r.bool()?;
    Ok(TraceRecord {
        label,
        ok,
        phases: obs::stitch::ServerPhases {
            trace_id: r.u64()?,
            enqueue_ns: r.u64()?,
            start_ns: r.u64()?,
            done_ns: r.u64()?,
            compile_ns: r.u64()?,
            exec_ns: r.u64()?,
            attempts: r.u32()?,
            compile_fallback: r.bool()?,
            store_repairs: r.u32()?,
        },
    })
}

fn encode_trace_report(w: &mut WireWriter, t: &TraceReport) {
    w.u64(t.server_now_ns);
    w.u64(t.slow_threshold_ns);
    w.u32(t.recent.len() as u32);
    for rec in &t.recent {
        encode_trace_record(w, rec);
    }
    w.u32(t.exemplars.len() as u32);
    for rec in &t.exemplars {
        encode_trace_record(w, rec);
    }
}

fn decode_trace_report(r: &mut WireReader<'_>) -> Result<TraceReport, WireError> {
    let server_now_ns = r.u64()?;
    let slow_threshold_ns = r.u64()?;
    let n = r.u32()?;
    let mut recent = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        recent.push(decode_trace_record(r)?);
    }
    let n = r.u32()?;
    let mut exemplars = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        exemplars.push(decode_trace_record(r)?);
    }
    Ok(TraceReport {
        server_now_ns,
        slow_threshold_ns,
        recent,
        exemplars,
    })
}

impl Request {
    /// Encodes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u16(PROTO_VERSION);
        match self {
            Request::Ping => w.u8(0),
            Request::Submit(spec, ctx) => {
                w.u8(1);
                encode_spec(&mut w, spec);
                w.u64(ctx.trace_id);
                w.u64(ctx.origin_ns);
            }
            Request::Poll(id) => {
                w.u8(2);
                w.u64(*id);
            }
            Request::Wait(id) => {
                w.u8(3);
                w.u64(*id);
            }
            Request::Stats => w.u8(4),
            Request::Shutdown => w.u8(5),
            Request::StatsExt => w.u8(6),
            Request::Health => w.u8(7),
            Request::Series(since) => {
                w.u8(8);
                match since {
                    Some(seq) => {
                        w.bool(true);
                        w.u64(*seq);
                    }
                    None => w.bool(false),
                }
            }
            Request::TraceDump => w.u8(9),
            Request::ProfileDump => w.u8(10),
            Request::AlertLog => w.u8(11),
            Request::Backends => w.u8(12),
        }
        w.finish()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a version other than [`PROTO_VERSION`] or on
    /// malformed input (unknown tag, truncation, trailing bytes).
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = WireReader::new(payload);
        let version = r.u16()?;
        if version != PROTO_VERSION {
            return Err(version_mismatch(version));
        }
        let req = match r.u8()? {
            0 => Request::Ping,
            1 => {
                let spec = decode_spec(&mut r)?;
                let ctx = TraceCtx {
                    trace_id: r.u64()?,
                    origin_ns: r.u64()?,
                };
                Request::Submit(spec, ctx)
            }
            2 => Request::Poll(r.u64()?),
            3 => Request::Wait(r.u64()?),
            4 => Request::Stats,
            5 => Request::Shutdown,
            6 => Request::StatsExt,
            7 => Request::Health,
            8 => Request::Series(if r.bool()? { Some(r.u64()?) } else { None }),
            9 => Request::TraceDump,
            10 => Request::ProfileDump,
            11 => Request::AlertLog,
            12 => Request::Backends,
            _ => return Err(bad("bad request tag")),
        };
        r.expect_end()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u16(PROTO_VERSION);
        match self {
            Response::Pong => w.u8(0),
            Response::Submitted(id) => {
                w.u8(1);
                w.u64(*id);
            }
            Response::Pending => w.u8(2),
            Response::Result(res) => {
                w.u8(3);
                encode_result(&mut w, res);
            }
            Response::Stats(s) => {
                w.u8(4);
                encode_stats(&mut w, s);
            }
            Response::Err(msg) => {
                w.u8(5);
                w.str(msg);
            }
            Response::Bye => w.u8(6),
            Response::StatsExt(s) => {
                w.u8(7);
                encode_stats_ext(&mut w, s);
            }
            Response::Health(h) => {
                w.u8(8);
                encode_health(&mut w, h);
            }
            Response::Series(s) => {
                w.u8(9);
                encode_series(&mut w, s);
            }
            Response::TraceDump(t) => {
                w.u8(10);
                encode_trace_report(&mut w, t);
            }
            Response::ProfileDump(p) => {
                w.u8(11);
                encode_profile_report(&mut w, p);
            }
            Response::AlertLog(a) => {
                w.u8(12);
                encode_alert_report(&mut w, a);
            }
            Response::Busy(retry_after_ms) => {
                w.u8(13);
                w.u32(*retry_after_ms);
            }
            Response::Backends(b) => {
                w.u8(14);
                encode_backends(&mut w, b);
            }
        }
        w.finish()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a version other than [`PROTO_VERSION`] or on
    /// malformed input.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = WireReader::new(payload);
        let version = r.u16()?;
        if version != PROTO_VERSION {
            return Err(version_mismatch(version));
        }
        let resp = match r.u8()? {
            0 => Response::Pong,
            1 => Response::Submitted(r.u64()?),
            2 => Response::Pending,
            3 => Response::Result(decode_result(&mut r)?),
            4 => Response::Stats(decode_stats(&mut r)?),
            5 => Response::Err(r.str()?),
            6 => Response::Bye,
            7 => Response::StatsExt(Box::new(decode_stats_ext(&mut r)?)),
            8 => Response::Health(decode_health(&mut r)?),
            9 => Response::Series(decode_series(&mut r)?),
            10 => Response::TraceDump(decode_trace_report(&mut r)?),
            11 => Response::ProfileDump(decode_profile_report(&mut r)?),
            12 => Response::AlertLog(decode_alert_report(&mut r)?),
            13 => Response::Busy(r.u32()?),
            14 => Response::Backends(decode_backends(&mut r)?),
            _ => return Err(bad("bad response tag")),
        };
        r.expect_end()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wacc::OptLevel;

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

    /// One populated sample of every request variant.
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
            Request::ProfileDump,
            Request::AlertLog,
            Request::Backends,
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
        HealthReport {
            resilience: ResilienceStats {
                retries: 5,
                compile_fallbacks: 2,
                store_repairs: 3,
                breaker_fast_fails: 1,
            },
            breakers: vec![
                (
                    0,
                    BreakerSnapshot {
                        state: BreakerState::Closed,
                        consecutive_failures: 0,
                        trips: 0,
                    },
                ),
                (
                    4,
                    BreakerSnapshot {
                        state: BreakerState::Open,
                        consecutive_failures: 9,
                        trips: 2,
                    },
                ),
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
                    lat: obs::series::HistDelta {
                        count: 12,
                        sum_ns: 36_000_000,
                        p50_ns: 2_500_000,
                        p99_ns: 9_000_000,
                        buckets: vec![(13, 10), (17, 2)],
                    },
                    engines: vec![(0, 7), (5, 5)],
                    breakers: vec![(4, 1)],
                },
                SeriesPoint::default(),
            ],
        }
    }

    fn sample_trace_report() -> TraceReport {
        let rec = |id: u64, ok: bool| TraceRecord {
            label: format!("crc32 on Wasm3 at -O1 ({id})"),
            ok,
            phases: obs::stitch::ServerPhases {
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
            server_now_ns: 77_000,
            slow_threshold_ns: 250_000_000,
            recent: vec![rec(1, true), rec(2, false)],
            exemplars: vec![rec(1, true)],
        }
    }

    fn sample_profile_report() -> ProfileReport {
        let mut win = obs::contprof::ProfileWindow {
            seq: 2,
            start_ns: 20_000_000,
            end_ns: 30_000_000,
            phases: Default::default(),
        };
        win.phases.insert(
            "wasm3;exec".to_string(),
            obs::contprof::PhaseStat {
                count: 5,
                self_ns: 9_000_000,
                instructions: 1_000_000,
                cycles: 2_000_000,
            },
        );
        win.phases.insert(
            "wasm3;compile".to_string(),
            obs::contprof::PhaseStat {
                count: 5,
                self_ns: 1_000_000,
                instructions: 0,
                cycles: 0,
            },
        );
        ProfileReport {
            server_now_ns: 31_000_000,
            window_ns: 10_000_000,
            windows: vec![win],
        }
    }

    fn sample_alert_report() -> AlertReport {
        AlertReport {
            server_now_ns: 5_000,
            armed: true,
            firing: vec![obs::alert::FiringAlert {
                rule: "p99".to_string(),
                since_ns: 4_000,
                value: 21_000_000.0,
                threshold: 5_000_000.0,
                detail: "p99 21.0ms over 1s".to_string(),
            }],
            events: vec![
                obs::alert::AlertEvent {
                    seq: 0,
                    t_ns: 3_000,
                    rule: "p99".to_string(),
                    transition: obs::alert::Transition::Pending,
                    value: 20_000_000.0,
                    threshold: 5_000_000.0,
                    detail: String::new(),
                },
                obs::alert::AlertEvent {
                    seq: 1,
                    t_ns: 4_000,
                    rule: "p99".to_string(),
                    transition: obs::alert::Transition::Firing,
                    value: 21_000_000.0,
                    threshold: 5_000_000.0,
                    detail: "held".to_string(),
                },
            ],
        }
    }

    fn sample_backends() -> BackendsReport {
        BackendsReport {
            watermark: 64,
            shed: 3,
            backends: vec![
                BackendStatus {
                    name: "shard0".into(),
                    socket: "/tmp/shard0.sock".into(),
                    healthy: true,
                    queue_depth: 4,
                    forwarded: 120,
                    failovers: 0,
                },
                BackendStatus {
                    name: "shard1".into(),
                    socket: "/tmp/shard1.sock".into(),
                    healthy: false,
                    queue_depth: 0,
                    forwarded: 80,
                    failovers: 2,
                },
            ],
        }
    }

    /// One populated sample of every response variant.
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
            Response::ProfileDump(sample_profile_report()),
            Response::AlertLog(sample_alert_report()),
            Response::Busy(250),
            Response::Backends(sample_backends()),
        ]
    }

    #[test]
    fn requests_round_trip() {
        let mut reqs = sample_requests();
        reqs.push(Request::Submit(sample_spec(), TraceCtx::default()));
        reqs.push(Request::Series(None));
        for req in reqs {
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

    #[test]
    fn backends_report_round_trips() {
        let resp = Response::Backends(sample_backends());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        // An empty report (router just started) survives too.
        let empty = Response::Backends(BackendsReport::default());
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn stats_ext_round_trips() {
        let resp = Response::StatsExt(Box::new(sample_stats_ext()));
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        // Empty histograms (fresh scheduler) survive the sparse encoding.
        let empty = Response::StatsExt(Box::new(SvcStatsExt {
            base: SvcStats::default(),
            queue_depth: 0,
            workers: 1,
            uptime_s: 0.0,
            busy_s: 0.0,
            queue_wait: HistogramSnapshot::default(),
            engine_wall: Vec::new(),
            engine_counters: Vec::new(),
        }));
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn stats_ext_rejects_bad_bucket_index() {
        // Build a frame whose sparse histogram names a bucket index one
        // past the end; the decoder must refuse it rather than write
        // out of bounds or silently drop it.
        let mut w = WireWriter::new();
        w.u16(PROTO_VERSION);
        w.u8(7);
        encode_stats(&mut w, &SvcStats::default());
        w.u64(0); // queue_depth
        w.u64(1); // workers
        w.f64(0.0);
        w.f64(0.0);
        // queue_wait histogram with an out-of-range bucket index.
        w.u64(1); // count
        w.u64(1); // sum_ns
        w.u64(1); // min_ns
        w.u64(1); // max_ns
        w.u32(1);
        w.u8(BUCKETS as u8); // one past the last valid index
        w.u64(1);
        w.u32(0); // no engine histograms
        w.u32(0); // no engine counters
        assert!(Response::decode(&w.finish()).is_err());
    }

    /// The `Health` reply round-trips and rejects unknown breaker
    /// states.
    #[test]
    fn health_round_trips() {
        let resp = Response::Health(sample_health());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        // An empty report (fresh scheduler, no plan) round-trips too.
        let empty = Response::Health(HealthReport::default());
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
        // Corrupt the first breaker's state byte to an unknown value:
        // version(2) + tag + resilience(4×8) + count(4) + code(1) = 40.
        let mut bad_state = resp.encode();
        bad_state[40] = 9;
        assert!(Response::decode(&bad_state).is_err());
    }

    /// `checks_skipped` travels inside the counter block: present on a
    /// profiled result, absent (with the block) on an unprofiled one.
    #[test]
    fn result_checks_skipped_round_trips() {
        let profiled = sample_result();
        let unprofiled = JobResult {
            counters: None,
            ..sample_result()
        };
        let with = Response::Result(profiled).encode();
        let without = Response::Result(unprofiled.clone()).encode();
        assert_eq!(with.len(), without.len() + 11 * 8);
        match Response::decode(&with).unwrap() {
            Response::Result(r) => assert_eq!(r.counters.unwrap().checks_skipped, 42),
            other => panic!("expected Result, got {other:?}"),
        }
        assert_eq!(
            Response::decode(&without).unwrap(),
            Response::Result(unprofiled)
        );
    }

    /// The span digest survives a result's round trip, traced or not.
    #[test]
    fn result_trace_digest_round_trips() {
        let decoded = match Response::decode(&Response::Result(sample_result()).encode()).unwrap() {
            Response::Result(r) => r,
            other => panic!("expected Result, got {other:?}"),
        };
        assert_eq!(decoded.trace, sample_result().trace);
        assert_eq!(decoded.trace.queue_ns(), 4_000);
        let untraced = Response::Result(JobResult {
            trace: TraceDigest::default(),
            ..sample_result()
        });
        assert_eq!(Response::decode(&untraced.encode()).unwrap(), untraced);
    }

    /// The `Series` reply round-trips (empty and populated) and rejects
    /// an out-of-range bucket index.
    #[test]
    fn series_round_trips() {
        let empty = Response::Series(SeriesReport::default());
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
        let resp = Response::Series(sample_series());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);

        let mut report = SeriesReport::default();
        report.points.push(SeriesPoint {
            lat: obs::series::HistDelta {
                buckets: vec![(BUCKETS as u8, 1)],
                ..obs::series::HistDelta::default()
            },
            ..SeriesPoint::default()
        });
        let bad = Response::Series(report).encode();
        assert!(Response::decode(&bad).is_err());
    }

    /// The `ProfileDump` reply round-trips, off (default) and populated.
    #[test]
    fn profile_dump_round_trips() {
        let off = Response::ProfileDump(ProfileReport::default());
        assert_eq!(Response::decode(&off.encode()).unwrap(), off);
        let resp = Response::ProfileDump(sample_profile_report());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    /// The `AlertLog` reply round-trips (disarmed, armed + firing) and
    /// rejects unknown transition bytes.
    #[test]
    fn alert_log_round_trips() {
        let disarmed = Response::AlertLog(AlertReport::default());
        assert_eq!(Response::decode(&disarmed.encode()).unwrap(), disarmed);
        let resp = Response::AlertLog(sample_alert_report());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        // Corrupt the first event's transition byte: version(2) + tag +
        // now(8) + armed(1) + firing count(4) + one firing entry, then
        // event count(4) + seq(8) + t_ns(8) = offset of the byte.
        let firing_len = 4 + "p99".len() + 8 + 8 + 8 + 4 + "p99 21.0ms over 1s".len();
        let off = 2 + 1 + 8 + 1 + 4 + firing_len + 4 + 8 + 8;
        let mut bad_transition = resp.encode();
        assert_eq!(bad_transition[off], 0, "expected the Pending byte");
        bad_transition[off] = 9;
        assert!(Response::decode(&bad_transition).is_err());
    }

    /// The `TraceDump` reply round-trips with both record lists.
    #[test]
    fn trace_dump_round_trips() {
        let resp = Response::TraceDump(sample_trace_report());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let empty = Response::TraceDump(TraceReport::default());
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn malformed_payloads_error() {
        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[]).is_err());
        // A well-versioned frame with an unknown tag.
        let mut buf = PROTO_VERSION.to_le_bytes().to_vec();
        buf.push(99);
        assert!(Request::decode(&buf).is_err());
        assert!(Response::decode(&buf).is_err());
        // Optional fields are strict bools: 2 is neither absent nor present.
        let mut buf = Request::Series(None).encode();
        *buf.last_mut().unwrap() = 2;
        assert!(Request::decode(&buf).is_err());
    }
}
