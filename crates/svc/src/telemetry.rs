//! Live-telemetry plumbing for the service: the scheduler's job
//! metrics, the time-series sampler, and the per-request trace log the
//! `Series` / `TraceDump` requests serve.
//!
//! Three pieces, all inert unless explicitly enabled so simulated-figure
//! paths stay bit-identical:
//!
//! - **Job metrics** ([`JobMetrics`], one per scheduler, sized by
//!   [`ENGINE_COUNT`]): jobs-completed/ok/failed counters, per-engine
//!   job, compile-nanosecond and exec-nanosecond counters,
//!   queue-depth / busy-worker / breaker gauges, and a job wall-time
//!   histogram, updated by the scheduler's workers. Counters and gauges
//!   are cheap atomics; they exist even when nothing samples them.
//! - **Sampler** ([`obs::series::Sampler`] over those metrics): a
//!   background thread writing one [`SeriesPoint`] of deltas every N ms
//!   into a ring of [`SERIES_CAP`] points; its per-engine deltas are
//!   the live engine × phase profile. Started only when
//!   [`crate::scheduler::Config::sample_interval`] is set (the `serve`
//!   path).
//! - **Trace log + exemplars** ([`Telemetry`]): every completed job's
//!   [`TraceRecord`] goes into a bounded recent-requests ring; jobs
//!   whose end-to-end latency meets [`SLOW_THRESHOLD`] are additionally
//!   retained in an [`obs::exemplar::ExemplarBuffer`]. `TraceDump`
//!   returns both.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use obs::exemplar::{Exemplar, ExemplarBuffer};
use obs::series::Sampler;
use obs::stitch::ServerPhases;
use serde::{Deserialize, Serialize};

pub use obs::series::{JobMetrics, SeriesPoint};

/// Engine wire codes ([`engines::EngineKind::code`]) run below this,
/// the Wasmer backend variants included.
pub const ENGINE_COUNT: usize = 7;

/// An engine wire code's name in profile stacks (`wasm3;exec`).
pub fn engine_name(code: u8) -> &'static str {
    engines::EngineKind::from_code(code).map_or("unknown", engines::EngineKind::name)
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
/// Sample points the series ring retains (2.5 minutes at the `serve`
/// default 250 ms cadence).
pub const SERIES_CAP: usize = 600;
/// End-to-end latency at or above which a request's trace is kept as a
/// slow exemplar.
pub const SLOW_THRESHOLD: Duration = Duration::from_millis(250);

/// The scheduler's telemetry state: optional sampler, recent-request
/// trace log, slow-request exemplars.
#[derive(Debug)]
pub struct Telemetry {
    sampler: Mutex<Option<Sampler>>,
    trace_log: Mutex<VecDeque<TraceRecord>>,
    exemplars: ExemplarBuffer,
}

impl Telemetry {
    /// Builds telemetry state, starting a sampler thread over `metrics`
    /// if `sample_interval` is set.
    pub fn new(sample_interval: Option<Duration>, metrics: &Arc<JobMetrics>) -> Telemetry {
        let sampler =
            sample_interval.map(|every| Sampler::start(Arc::clone(metrics), every, SERIES_CAP));
        Telemetry {
            sampler: Mutex::new(sampler),
            trace_log: Mutex::new(VecDeque::new()),
            exemplars: ExemplarBuffer::new(SLOW_THRESHOLD.as_nanos() as u64, EXEMPLAR_CAP),
        }
    }

    /// Folds a completed request into the trace log (bounded FIFO) and
    /// offers it to the exemplar buffer — only when it crosses the
    /// threshold, so a fast job copies no label.
    pub fn record(&self, rec: TraceRecord) {
        if rec.phases.total_ns() >= self.exemplars.threshold_ns() {
            self.exemplars.offer(Exemplar {
                label: rec.label.clone(),
                phases: rec.phases,
            });
        }
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
                sampler.window(since),
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
    fn telemetry_off_is_empty_but_well_formed() {
        let t = Telemetry::new(None, &Arc::new(JobMetrics::new(ENGINE_COUNT)));
        t.close_window(); // no-op without a sampler
        let s = t.series(None);
        assert_eq!(s.interval_ns, 0);
        assert!(s.points.is_empty());
        assert!(s.server_now_ns > 0);
        t.stop(); // idempotent no-op
    }

    #[test]
    fn trace_log_bounds_and_exemplars_gate() {
        let t = Telemetry::new(None, &Arc::new(JobMetrics::new(ENGINE_COUNT)));
        let n = TRACE_LOG_CAP as u64 + 2;
        for i in 0..n {
            let slow = i == n - 1; // only the last one crosses 250ms
            t.record(TraceRecord {
                label: format!("job-{i}"),
                ok: true,
                phases: ServerPhases {
                    trace_id: 100 + i,
                    enqueue_ns: 1_000,
                    start_ns: 2_000,
                    done_ns: 1_000 + if slow { 300_000_000 } else { 10_000 },
                    ..ServerPhases::default()
                },
            });
        }
        let dump = t.trace_dump();
        assert_eq!(dump.slow_threshold_ns, 250_000_000);
        assert_eq!(dump.recent.len(), TRACE_LOG_CAP, "log is bounded");
        let ids: Vec<u64> = dump.recent.iter().map(|r| r.phases.trace_id).collect();
        assert_eq!(ids, (102..100 + n).collect::<Vec<u64>>(), "oldest evicted");
        assert_eq!(dump.exemplars.len(), 1, "only the slow request kept");
        assert_eq!(dump.exemplars[0].phases.trace_id, 100 + n - 1);
        // The slow one is in both recent and exemplars; all_records dedups it.
        assert_eq!(dump.all_records().len(), TRACE_LOG_CAP);
    }
}
