//! Live-telemetry plumbing for the service: the scheduler's job
//! metrics, the time-series sampler, and the slow-request exemplars the
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
//! - **Exemplars** ([`Telemetry`]): a job whose end-to-end latency
//!   meets [`SLOW_THRESHOLD`] is retained in an
//!   [`obs::exemplar::ExemplarBuffer`], which `TraceDump` returns. Every
//!   job's own timeline travels in its [`crate::JobResult`]
//!   ([`crate::JobResult::phases`]); nothing else keeps a copy.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use obs::exemplar::{Exemplar, ExemplarBuffer};
use obs::series::Sampler;
use obs::stitch::ServerPhases;
use serde::{Deserialize, Serialize};

use crate::job::JobResult;

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

/// The `TraceDump` reply: the slow-request exemplars.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// The exemplar retention threshold, ns.
    pub slow_threshold_ns: u64,
    /// Slow-request exemplars at or above the threshold, oldest first.
    pub exemplars: Vec<Exemplar>,
}

/// Slow exemplars retained for `TraceDump`.
pub const EXEMPLAR_CAP: usize = 64;
/// Sample points the series ring retains (2.5 minutes at the `serve`
/// default 250 ms cadence).
pub const SERIES_CAP: usize = 600;
/// End-to-end latency at or above which a request's trace is kept as a
/// slow exemplar.
pub const SLOW_THRESHOLD: Duration = Duration::from_millis(250);

/// The scheduler's telemetry state: optional sampler and slow-request
/// exemplars.
#[derive(Debug)]
pub struct Telemetry {
    sampler: Mutex<Option<Sampler>>,
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
            exemplars: ExemplarBuffer::new(SLOW_THRESHOLD.as_nanos() as u64, EXEMPLAR_CAP),
        }
    }

    /// Offers a completed job to the exemplar buffer. Only a job at or
    /// above the threshold gets a label built, so a fast job allocates
    /// nothing here.
    pub fn record(&self, result: &JobResult, phases: ServerPhases) {
        if phases.total_ns() >= self.exemplars.threshold_ns() {
            self.exemplars.offer(Exemplar {
                label: result.spec.to_string(),
                ok: result.ok(),
                phases,
            });
        }
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

    /// The `TraceDump` reply: the slow exemplars.
    pub fn trace_dump(&self) -> TraceReport {
        TraceReport {
            slow_threshold_ns: self.exemplars.threshold_ns(),
            exemplars: self.exemplars.window(),
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
    fn only_slow_jobs_become_exemplars_with_their_own_outcome() {
        use crate::job::{JobSpec, JobStatus, Scale, TraceDigest};

        let t = Telemetry::new(None, &Arc::new(JobMetrics::new(ENGINE_COUNT)));
        let spec = JobSpec::exec(
            "crc32",
            engines::EngineKind::Wasm3,
            wacc::OptLevel::O1,
            Scale::Test,
        );
        let job = |trace_id: u64, took_ns: u64, status: JobStatus| {
            let mut result = JobResult::new(&spec, status);
            result.trace = TraceDigest {
                trace_id,
                enqueue_ns: 1_000,
                start_ns: 2_000,
                done_ns: 1_000 + took_ns,
                ..TraceDigest::default()
            };
            result
        };
        let fast = job(1, 10_000, JobStatus::Ok);
        let slow_ok = job(2, 300_000_000, JobStatus::Ok);
        let slow_failed = job(3, 400_000_000, JobStatus::Failed("trap".into()));
        let slow_timed_out = job(4, 500_000_000, JobStatus::TimedOut);
        for result in [&fast, &slow_ok, &slow_failed, &slow_timed_out] {
            t.record(result, result.phases());
        }
        let dump = t.trace_dump();
        assert_eq!(dump.slow_threshold_ns, 250_000_000);
        let kept: Vec<(u64, bool)> =
            dump.exemplars.iter().map(|e| (e.phases.trace_id, e.ok)).collect();
        assert_eq!(kept, [(2, true), (3, false), (4, false)], "slow jobs, real outcomes");
        assert_eq!(dump.exemplars[1].label, spec.to_string());
    }
}
