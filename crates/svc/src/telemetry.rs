//! Live-telemetry plumbing for the service: the scheduler-side registry
//! metrics, the time-series sampler, and the per-request trace log the
//! `Series` / `TraceDump` requests serve.
//!
//! Three pieces, all inert unless explicitly enabled so simulated-figure
//! paths stay bit-identical:
//!
//! - **Registry metrics** ([`JobMetrics`]): jobs-completed/ok/failed
//!   counters (plus per-engine), queue-depth / busy-worker / breaker
//!   gauges, and a job wall-time histogram, updated by the scheduler's
//!   workers. Counters and gauges are cheap atomics; they exist even
//!   when nothing samples them.
//! - **Sampler** ([`obs::series::Sampler`] over [`series_spec`]): a
//!   background thread snapshotting those metrics every N ms into a
//!   bounded delta ring. Started only when
//!   [`TelemetryConfig::sample_interval`] is set (the `serve` path).
//! - **Trace log + exemplars** ([`Telemetry`]): every completed job's
//!   [`TraceRecord`] goes into a bounded recent-requests ring; jobs
//!   whose end-to-end latency meets the slow threshold are additionally
//!   retained in an [`obs::exemplar::ExemplarBuffer`]. `TraceDump`
//!   returns both.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use obs::exemplar::{Exemplar, ExemplarBuffer};
use obs::metrics::{self, Counter, Gauge, Histogram};
use obs::series::{self, HistDelta, Sampler, SeriesSpec};
use obs::stitch::ServerPhases;
use serde::{Deserialize, Serialize};

/// Jobs completed (any status).
pub const JOBS_COMPLETED: &str = "svc.jobs.completed";
/// Jobs completed with status `Ok`.
pub const JOBS_OK: &str = "svc.jobs.ok";
/// Jobs completed with any non-`Ok` status (failed, panicked, timed
/// out) — the numerator of the availability burn rate.
pub const JOBS_FAILED: &str = "svc.jobs.failed";
/// Jobs queued but not yet picked up by a worker (gauge).
pub const QUEUE_DEPTH: &str = "svc.queue.depth";
/// Workers currently running a job (gauge).
pub const WORKERS_BUSY: &str = "svc.workers.busy";
/// End-to-end job wall time (histogram, ns).
pub const JOB_WALL: &str = "svc.job.wall";

/// Every engine wire code ([`engines::EngineKind::code`]), including the
/// Wasmer backend variants.
pub const ENGINE_CODES: [u8; 7] = [0, 1, 2, 3, 4, 5, 6];

const FIXED_COUNTERS: usize = 3;
const FIXED_GAUGES: usize = 2;

/// Per-engine completed-jobs counter name.
pub fn engine_jobs_name(code: u8) -> String {
    format!("svc.jobs.engine.{code}")
}

/// Per-engine breaker-state gauge name (value =
/// [`fault::BreakerState::byte`]: 0 closed, 1 open, 2 half-open).
pub fn breaker_state_name(code: u8) -> String {
    format!("svc.breaker.state.{code}")
}

/// The fixed sampler spec: counters `[completed, ok, failed,
/// engine 0..=6]`, gauges `[queue depth, busy workers, breaker 0..=6]`,
/// histograms `[job wall]`. [`svc_point`] depends on exactly this
/// layout.
pub fn series_spec() -> SeriesSpec {
    let mut counters = vec![
        JOBS_COMPLETED.to_string(),
        JOBS_OK.to_string(),
        JOBS_FAILED.to_string(),
    ];
    let mut gauges = vec![QUEUE_DEPTH.to_string(), WORKERS_BUSY.to_string()];
    for code in ENGINE_CODES {
        counters.push(engine_jobs_name(code));
        gauges.push(breaker_state_name(code));
    }
    SeriesSpec {
        counters,
        gauges,
        histograms: vec![JOB_WALL.to_string()],
    }
}

/// Resolved registry handles for the scheduler's per-job hot path, so
/// workers touch atomics, not the name→handle map.
#[derive(Debug)]
pub struct JobMetrics {
    /// [`JOBS_COMPLETED`].
    pub completed: Arc<Counter>,
    /// [`JOBS_OK`].
    pub ok: Arc<Counter>,
    /// [`JOBS_FAILED`].
    pub failed: Arc<Counter>,
    /// Per-engine completed counters, indexed by engine code.
    pub engines: Vec<Arc<Counter>>,
    /// [`QUEUE_DEPTH`].
    pub queue_depth: Arc<Gauge>,
    /// [`WORKERS_BUSY`].
    pub busy: Arc<Gauge>,
    /// Per-engine breaker-state gauges, indexed by engine code.
    pub breakers: Vec<Arc<Gauge>>,
    /// [`JOB_WALL`].
    pub wall: Arc<Histogram>,
}

impl JobMetrics {
    /// Resolves (registering on first use) every handle.
    pub fn resolve() -> JobMetrics {
        JobMetrics {
            completed: metrics::counter(JOBS_COMPLETED),
            ok: metrics::counter(JOBS_OK),
            failed: metrics::counter(JOBS_FAILED),
            engines: ENGINE_CODES
                .iter()
                .map(|c| metrics::counter(&engine_jobs_name(*c)))
                .collect(),
            queue_depth: metrics::gauge(QUEUE_DEPTH),
            busy: metrics::gauge(WORKERS_BUSY),
            breakers: ENGINE_CODES
                .iter()
                .map(|c| metrics::gauge(&breaker_state_name(*c)))
                .collect(),
            wall: metrics::histogram(JOB_WALL),
        }
    }
}

/// One interval of the service time series, in service terms (protocol
/// v7 `Series` reply element). Derived from a generic
/// [`obs::series::SeriesPoint`] laid out by [`series_spec`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Engines with completions this interval: `(engine code, jobs)`,
    /// zero-delta engines omitted.
    pub engines: Vec<(u8, u64)>,
    /// Breakers not in the closed state at sample time:
    /// `(engine code, state byte)`, closed breakers omitted.
    pub breakers: Vec<(u8, u8)>,
}

impl SeriesPoint {
    /// Completions per second over the interval (0 for an empty
    /// interval).
    pub fn qps(&self) -> f64 {
        if self.interval_ns == 0 {
            0.0
        } else {
            self.completed as f64 * 1e9 / self.interval_ns as f64
        }
    }
}

/// The `Series` reply: the buffered sample window plus the
/// server clock for offset estimation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesReport {
    /// Server trace clock at reply time ([`obs::trace::now_ns`]).
    pub server_now_ns: u64,
    /// Sampler cadence, ns.
    pub interval_ns: u64,
    /// Buffered points, oldest first (already includes a closing sample
    /// taken at request time).
    pub points: Vec<SeriesPoint>,
}

/// The `ProfileDump` reply: the continuous profiler's
/// retained windows.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Server trace clock at reply time ([`obs::trace::now_ns`]).
    pub server_now_ns: u64,
    /// Configured window span, ns; 0 when the profiler is off (and
    /// `windows` is empty).
    pub window_ns: u64,
    /// Retained windows, oldest first (the sealed ring plus the
    /// in-progress window).
    pub windows: Vec<obs::contprof::ProfileWindow>,
}

/// The `AlertLog` reply: the alert engine's current firing
/// set and recent transition events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AlertReport {
    /// Server trace clock at reply time ([`obs::trace::now_ns`]).
    pub server_now_ns: u64,
    /// Whether an alert engine is armed (`--alerts` was given). When
    /// false both lists are empty — distinguishable from "armed and
    /// healthy".
    pub armed: bool,
    /// Currently firing alerts.
    pub firing: Vec<obs::alert::FiringAlert>,
    /// Recent pending/firing/resolved transitions, oldest first
    /// (bounded log).
    pub events: Vec<obs::alert::AlertEvent>,
}

/// Maps a generic sampler point laid out by [`series_spec`] into
/// service terms.
pub fn svc_point(p: &series::SeriesPoint) -> SeriesPoint {
    debug_assert_eq!(p.counters.len(), FIXED_COUNTERS + ENGINE_CODES.len());
    debug_assert_eq!(p.gauges.len(), FIXED_GAUGES + ENGINE_CODES.len());
    debug_assert_eq!(p.hists.len(), 1);
    let engines = ENGINE_CODES
        .iter()
        .enumerate()
        .filter_map(|(i, code)| {
            let jobs = p.counters.get(FIXED_COUNTERS + i).copied().unwrap_or(0);
            (jobs > 0).then_some((*code, jobs))
        })
        .collect();
    let breakers = ENGINE_CODES
        .iter()
        .enumerate()
        .filter_map(|(i, code)| {
            let state = p.gauges.get(FIXED_GAUGES + i).copied().unwrap_or(0);
            (state != 0).then_some((*code, state as u8))
        })
        .collect();
    SeriesPoint {
        seq: p.seq,
        t_ns: p.t_ns,
        interval_ns: p.interval_ns,
        completed: p.counters.first().copied().unwrap_or(0),
        ok: p.counters.get(1).copied().unwrap_or(0),
        failed: p.counters.get(2).copied().unwrap_or(0),
        queue_depth: p.gauges.first().copied().unwrap_or(0),
        busy_workers: p.gauges.get(1).copied().unwrap_or(0),
        lat: p.hists.first().cloned().unwrap_or_default(),
        engines,
        breakers,
    }
}

/// One completed request's server-side trace, as retained by the trace
/// log and the exemplar buffer and served by `TraceDump`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Human label: the job spec's display form.
    pub label: String,
    /// Whether the job finished `Ok`.
    pub ok: bool,
    /// Phase timestamps/durations on the server trace clock, keyed by
    /// the client trace id (0 = untraced submit).
    pub phases: ServerPhases,
}

/// The `TraceDump` reply.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Server trace clock at reply time ([`obs::trace::now_ns`]) — the
    /// third input to [`obs::stitch::clock_offset_ns`].
    pub server_now_ns: u64,
    /// The exemplar retention threshold, ns.
    pub slow_threshold_ns: u64,
    /// Recently completed requests, oldest first (bounded ring).
    pub recent: Vec<TraceRecord>,
    /// Slow-request exemplars at or above the threshold, oldest first.
    pub exemplars: Vec<TraceRecord>,
}

impl TraceReport {
    /// `recent` ∪ `exemplars` deduplicated, preferring `recent` order —
    /// what a stitcher should join client spans against (exemplars
    /// outlive the recent ring, so slow old requests stay joinable).
    pub fn all_records(&self) -> Vec<TraceRecord> {
        let mut out = self.recent.clone();
        for e in &self.exemplars {
            if !out
                .iter()
                .any(|r| r.phases.trace_id == e.phases.trace_id && r.phases == e.phases)
            {
                out.push(e.clone());
            }
        }
        out
    }
}

/// Recently-completed-request records retained for `TraceDump`.
pub const TRACE_LOG_CAP: usize = 512;
/// Slow exemplars retained for `TraceDump`.
pub const EXEMPLAR_CAP: usize = 64;

/// Telemetry tuning for a scheduler.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sampler cadence; `None` (the default) starts no sampler thread
    /// and `Series` reports an empty window.
    pub sample_interval: Option<Duration>,
    /// Sample points retained (ring capacity).
    pub series_cap: usize,
    /// End-to-end latency at or above which a request's trace is kept
    /// as a slow exemplar.
    pub slow_threshold: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            sample_interval: None,
            series_cap: 600,
            slow_threshold: Duration::from_millis(250),
        }
    }
}

/// The scheduler's telemetry state: optional sampler, recent-request
/// trace log, slow-request exemplars.
#[derive(Debug)]
pub struct Telemetry {
    sampler: Mutex<Option<Sampler>>,
    trace_log: Mutex<VecDeque<TraceRecord>>,
    exemplars: ExemplarBuffer,
}

impl Telemetry {
    /// Builds telemetry state, starting the sampler thread if
    /// `cfg.sample_interval` is set.
    pub fn new(cfg: &TelemetryConfig) -> Telemetry {
        let sampler = cfg
            .sample_interval
            .map(|every| Sampler::start(series_spec(), every, cfg.series_cap.max(2)));
        Telemetry {
            sampler: Mutex::new(sampler),
            trace_log: Mutex::new(VecDeque::new()),
            exemplars: ExemplarBuffer::new(cfg.slow_threshold.as_nanos() as u64, EXEMPLAR_CAP),
        }
    }

    /// Folds a completed request into the trace log (bounded FIFO) and
    /// offers it to the exemplar buffer.
    pub fn record(&self, rec: TraceRecord) {
        self.exemplars.offer(Exemplar {
            label: rec.label.clone(),
            phases: rec.phases,
        });
        let mut log = self.trace_log.lock().expect("trace log");
        if log.len() == TRACE_LOG_CAP {
            log.pop_front();
        }
        log.push_back(rec);
    }

    /// Takes a closing sample, so the freshest interval is in the next
    /// read (no-op without a sampler).
    pub fn close_window(&self) {
        if let Some(sampler) = self.sampler.lock().expect("sampler slot").as_ref() {
            sampler.sample_now();
        }
    }

    /// The buffered points with `seq` above `since` (the whole window
    /// for `None`), copied without the rest of the window and without
    /// taking a sample ([`Telemetry::close_window`] does that). Empty
    /// (but well-formed) when no sampler is running.
    pub fn series(&self, since: Option<u64>) -> SeriesReport {
        let slot = self.sampler.lock().expect("sampler slot");
        let (interval_ns, points) = match slot.as_ref() {
            Some(sampler) => (
                sampler.interval().as_nanos() as u64,
                sampler.window(since).iter().map(svc_point).collect(),
            ),
            None => (0, Vec::new()),
        };
        SeriesReport {
            server_now_ns: obs::trace::now_ns(),
            interval_ns,
            points,
        }
    }

    /// The `TraceDump` reply: recent requests plus slow exemplars.
    pub fn trace_dump(&self) -> TraceReport {
        TraceReport {
            server_now_ns: obs::trace::now_ns(),
            slow_threshold_ns: self.exemplars.threshold_ns(),
            recent: self
                .trace_log
                .lock()
                .expect("trace log")
                .iter()
                .cloned()
                .collect(),
            exemplars: self
                .exemplars
                .window()
                .into_iter()
                .map(|e| TraceRecord {
                    label: e.label,
                    ok: true,
                    phases: e.phases,
                })
                .collect(),
        }
    }

    /// Stops and joins the sampler thread, if any (idempotent).
    pub fn stop(&self) {
        if let Some(mut sampler) = self.sampler.lock().expect("sampler slot").take() {
            sampler.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_layout_matches_svc_point_mapping() {
        let spec = series_spec();
        assert_eq!(spec.counters.len(), FIXED_COUNTERS + ENGINE_CODES.len());
        assert_eq!(spec.gauges.len(), FIXED_GAUGES + ENGINE_CODES.len());
        assert_eq!(spec.histograms, vec![JOB_WALL.to_string()]);
        assert_eq!(spec.counters[0], JOBS_COMPLETED);
        assert_eq!(spec.counters[FIXED_COUNTERS], engine_jobs_name(0));
        assert_eq!(spec.gauges[FIXED_GAUGES + 6], breaker_state_name(6));

        let mut generic = series::SeriesPoint {
            seq: 9,
            t_ns: 1_000,
            interval_ns: 500_000_000,
            counters: vec![0; spec.counters.len()],
            gauges: vec![0; spec.gauges.len()],
            hists: vec![HistDelta {
                count: 4,
                sum_ns: 4_000,
                p50_ns: 900,
                p99_ns: 1_800,
                buckets: vec![(9, 4)],
            }],
        };
        generic.counters[0] = 5; // completed
        generic.counters[1] = 4; // ok
        generic.counters[2] = 1; // failed
        generic.counters[FIXED_COUNTERS + 5] = 5; // engine code 5
        generic.gauges[0] = 3; // queue depth
        generic.gauges[1] = 2; // busy
        generic.gauges[FIXED_GAUGES + 1] = 1; // breaker code 1 open

        let p = svc_point(&generic);
        assert_eq!(p.seq, 9);
        assert_eq!((p.completed, p.ok, p.failed), (5, 4, 1));
        assert_eq!((p.queue_depth, p.busy_workers), (3, 2));
        assert_eq!(p.engines, vec![(5u8, 5u64)], "zero-delta engines omitted");
        assert_eq!(p.breakers, vec![(1u8, 1u8)], "closed breakers omitted");
        assert_eq!(p.lat.count, 4);
        assert_eq!(p.lat.buckets, vec![(9, 4)], "bucket deltas pass through");
        assert!((p.qps() - 10.0).abs() < 1e-9, "5 jobs / 0.5s");
    }

    #[test]
    fn telemetry_off_is_empty_but_well_formed() {
        let t = Telemetry::new(&TelemetryConfig::default());
        t.close_window(); // no-op without a sampler
        let s = t.series(None);
        assert_eq!(s.interval_ns, 0);
        assert!(s.points.is_empty());
        assert!(s.server_now_ns > 0);
        t.stop(); // idempotent no-op
    }

    #[test]
    fn trace_log_bounds_and_exemplars_gate() {
        let cfg = TelemetryConfig {
            slow_threshold: Duration::from_millis(1),
            ..TelemetryConfig::default()
        };
        let t = Telemetry::new(&cfg);
        let n = TRACE_LOG_CAP as u64 + 2;
        for i in 0..n {
            let slow = i == n - 1; // only the last one crosses 1ms
            t.record(TraceRecord {
                label: format!("job-{i}"),
                ok: true,
                phases: ServerPhases {
                    trace_id: 100 + i,
                    enqueue_ns: 1_000,
                    start_ns: 2_000,
                    done_ns: 1_000 + if slow { 2_000_000 } else { 10_000 },
                    ..ServerPhases::default()
                },
            });
        }
        let dump = t.trace_dump();
        assert_eq!(dump.slow_threshold_ns, 1_000_000);
        assert_eq!(dump.recent.len(), TRACE_LOG_CAP, "log is bounded");
        let ids: Vec<u64> = dump.recent.iter().map(|r| r.phases.trace_id).collect();
        assert_eq!(ids, (102..100 + n).collect::<Vec<u64>>(), "oldest evicted");
        assert_eq!(dump.exemplars.len(), 1, "only the slow request kept");
        assert_eq!(dump.exemplars[0].phases.trace_id, 100 + n - 1);
        // The slow one is in both recent and exemplars; all_records dedups it.
        assert_eq!(dump.all_records().len(), TRACE_LOG_CAP);
    }
}
