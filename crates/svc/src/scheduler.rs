//! The concurrent job scheduler: a work queue plus a worker pool.
//!
//! Submission assigns monotonically increasing ids; `drain_sorted`
//! returns results ordered by id, so downstream consumers see results
//! in submission order no matter how jobs interleaved across workers —
//! the property that keeps `--jobs N` harness tables identical in
//! structure to serial runs.
//!
//! Isolation: each job runs on its own execution thread under
//! `catch_unwind`. A panicking job (the deliberate checksum-mismatch
//! panic included) produces a `Panicked` result; a job that outlives
//! the per-job timeout produces `TimedOut` and its thread is abandoned
//! (it finishes in the background and its late result is discarded —
//! safe Rust cannot preempt a running computation). Workers themselves
//! never die.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fault::{Breaker, BreakerConfig, BreakerEvent, BreakerSnapshot, FaultPlan};
use obs::alert::{AlertEngine, AlertEvent, AlertSpec, Observation, Transition};
use obs::contprof::ContProf;
use obs::metrics::{Histogram, HistogramSnapshot};

use crate::exec::{self, ExecEnv};
use crate::job::{JobResult, JobSpec, JobStatus, TraceCtx, TraceDigest};
use crate::store::{ArtifactStore, StoreStats};
use crate::telemetry::{
    AlertReport, JobMetrics, ProfileReport, SeriesPoint, SeriesReport, Telemetry, TelemetryConfig,
    TraceRecord, TraceReport,
};

/// Sealed profile windows retained by the continuous profiler.
const PROFILE_WINDOW_CAP: usize = 64;

/// Series points embedded in a postmortem bundle (most recent first in
/// time, oldest first in the array).
const POSTMORTEM_SERIES_TAIL: usize = 64;

/// Trace-log records embedded in a postmortem bundle.
const POSTMORTEM_TRACE_TAIL: usize = 16;

/// Retry tuning: exponential backoff with deterministic jitter.
///
/// Attempt `k` (1-based) sleeps `backoff_base × 2^(k-1)` plus a jitter
/// in `[0, backoff/2)` derived from `fault::mix64(job id ^ attempt)` —
/// deterministic for a given job, decorrelated across jobs — capped at
/// `backoff_cap` and always bounded by the job's remaining deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker threads.
    pub workers: usize,
    /// Hard per-job deadline, measured from the moment a worker starts
    /// the job and spanning every retry attempt and backoff sleep.
    pub timeout: Duration,
    /// Artifact-store directory (`None` = no on-disk store).
    pub store_dir: Option<PathBuf>,
    /// Artifact-store size cap in bytes.
    pub store_cap_bytes: u64,
    /// Retry policy for failed/panicked attempts.
    pub retry: RetryPolicy,
    /// Per-engine circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Optional deterministic fault-injection plan, threaded through
    /// job execution and the artifact store.
    pub faults: Option<Arc<FaultPlan>>,
    /// Live-telemetry tuning. The default starts no
    /// sampler thread; trace digests and the recent-request log are
    /// always maintained (cheap, bounded) so `TraceDump` works even on
    /// a sampler-less scheduler.
    pub telemetry: TelemetryConfig,
    /// SLO alert rules. `None` (the default) arms no
    /// engine: nothing is evaluated, `AlertLog` reports disarmed, and
    /// no postmortem is ever written.
    pub alerts: Option<AlertSpec>,
    /// Where firing alerts snapshot postmortem bundles. `None` disables
    /// the flight recorder even when alerts are armed.
    pub postmortem_dir: Option<PathBuf>,
    /// Continuous-profiler window span. `None` (the
    /// default) aggregates nothing and `ProfileDump` reports the
    /// profiler off.
    pub profile_window: Option<Duration>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            workers: 4,
            timeout: Duration::from_secs(120),
            store_dir: None,
            store_cap_bytes: 256 << 20,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            faults: None,
            telemetry: TelemetryConfig::default(),
            alerts: None,
            postmortem_dir: None,
            profile_window: None,
        }
    }
}

/// The alert engine plus its pump cursor and flight-recorder target.
struct AlertRuntime {
    engine: AlertEngine,
    /// Highest series seq already fed to the engine; the pump only
    /// feeds newer points, so re-pumping is idempotent.
    last_seq: Option<u64>,
    postmortem_dir: Option<PathBuf>,
}

/// Aggregate counters from the resilience layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Retry attempts beyond each job's first.
    pub retries: u64,
    /// Jobs that degraded to the interpreter tier after a JIT compile
    /// failure.
    pub compile_fallbacks: u64,
    /// Corrupt store entries recompiled and written back in place.
    pub store_repairs: u64,
    /// Jobs rejected without running because their engine's circuit
    /// breaker was open.
    pub breaker_fast_fails: u64,
}

/// What the `Health` request reports: breaker states,
/// resilience counters, and (when a fault plan is active) per-site
/// injected-fault tallies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Aggregate resilience counters.
    pub resilience: ResilienceStats,
    /// Per-engine breaker snapshots, keyed by
    /// [`engines::EngineKind::code`], sorted by code. Engines appear
    /// once they have completed at least one job.
    pub breakers: Vec<(u8, BreakerSnapshot)>,
    /// Per-site `(site code, configured rate, injected count)` from the
    /// active fault plan; empty when no plan is installed.
    pub faults: Vec<(u8, f64, u64)>,
    /// Jobs queued but not yet picked up by a worker, at snapshot time.
    pub queue_depth: u64,
    /// High-water mark of the queue depth since the scheduler started —
    /// a saturation signal for open-loop load generators: a peak well
    /// above the worker count means arrivals outran service capacity.
    pub peak_queue_depth: u64,
}

/// Aggregate service statistics (scheduler + artifact store).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SvcStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed (any status).
    pub completed: u64,
    /// ... of which succeeded.
    pub ok: u64,
    /// ... failed cleanly.
    pub failed: u64,
    /// ... panicked (isolated).
    pub panicked: u64,
    /// ... hit the per-job timeout.
    pub timed_out: u64,
    /// Cold compiles measured by `Exec` jobs.
    pub cold_compiles: u64,
    /// Total seconds across cold compiles.
    pub cold_compile_s: f64,
    /// Warm artifact loads measured by `Exec` jobs.
    pub warm_loads: u64,
    /// Total seconds across warm artifact loads.
    pub warm_load_s: f64,
    /// Artifact-store counters, when a store is attached.
    pub store: Option<StoreStats>,
}

impl SvcStats {
    /// Mean cold compile seconds (0 if none).
    pub fn cold_compile_avg_s(&self) -> f64 {
        if self.cold_compiles == 0 {
            0.0
        } else {
            self.cold_compile_s / self.cold_compiles as f64
        }
    }

    /// Mean warm artifact-load seconds (0 if none).
    pub fn warm_load_avg_s(&self) -> f64 {
        if self.warm_loads == 0 {
            0.0
        } else {
            self.warm_load_s / self.warm_loads as f64
        }
    }
}

/// Summed simulated counters from an engine's successful profiled jobs.
///
/// IPC/MPKI figures derive from the summed [`archsim::Counters`], so a
/// daemon can report per-engine architectural behavior live (`stats-ext`)
/// without retaining per-job results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineCounters {
    /// Profiled jobs folded in.
    pub jobs: u64,
    /// Field-wise sums of those jobs' counters.
    pub counters: archsim::Counters,
}

/// Extended statistics: everything in [`SvcStats`] plus queue and
/// latency observability. Served over the wire by the `StatsExt`
/// protocol message.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SvcStatsExt {
    /// The classic counters (the `Stats` reply).
    pub base: SvcStats,
    /// Jobs queued but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Seconds since the scheduler started.
    pub uptime_s: f64,
    /// Summed seconds workers spent running jobs (≤ uptime × workers).
    pub busy_s: f64,
    /// Submit-to-dequeue latency distribution.
    pub queue_wait: HistogramSnapshot,
    /// Per-engine job wall-time distributions, keyed by
    /// [`engines::EngineKind::code`], sorted by code.
    pub engine_wall: Vec<(u8, HistogramSnapshot)>,
    /// Per-engine simulated counter aggregates from profiled jobs,
    /// keyed by [`engines::EngineKind::code`], sorted by code. Empty
    /// until a `Profiled` job succeeds.
    pub engine_counters: Vec<(u8, EngineCounters)>,
}

impl SvcStatsExt {
    /// Worker-pool utilization in `[0, 1]` (0 when no time has passed).
    pub fn utilization(&self) -> f64 {
        let capacity = self.uptime_s * self.workers as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_s / capacity).clamp(0.0, 1.0)
        }
    }
}

/// One queued job, with everything the worker needs to stamp its span
/// digest.
struct Queued {
    id: u64,
    spec: JobSpec,
    enqueued: Instant,
    ctx: TraceCtx,
    /// Server trace clock at submit time ([`obs::trace::now_ns`]).
    enqueue_ns: u64,
}

struct Inner {
    timeout: Duration,
    retry: RetryPolicy,
    queue: Mutex<VecDeque<Queued>>,
    queue_cv: Condvar,
    results: Mutex<HashMap<u64, JobResult>>,
    done_cv: Condvar,
    outstanding: AtomicU64,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    env: ExecEnv,
    stats: Mutex<SvcStats>,
    workers_n: usize,
    started: Instant,
    busy_ns: AtomicU64,
    peak_queue: AtomicU64,
    queue_wait: Histogram,
    engine_wall: Mutex<HashMap<u8, Arc<Histogram>>>,
    engine_counters: Mutex<HashMap<u8, EngineCounters>>,
    breaker_cfg: BreakerConfig,
    breakers: Mutex<HashMap<u8, Breaker>>,
    resilience: Mutex<ResilienceStats>,
    metrics: JobMetrics,
    telemetry: Telemetry,
    contprof: Mutex<Option<ContProf>>,
    alerts: Mutex<Option<AlertRuntime>>,
    /// Called by a worker after each result is published.
    on_complete: Mutex<Option<CompletionHook>>,
}

type CompletionHook = Box<dyn Fn() + Send + Sync>;

/// The running scheduler: submit jobs, poll/wait for results.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Scheduler {
    /// Starts `cfg.workers` workers (opening the artifact store first,
    /// if configured).
    ///
    /// # Errors
    ///
    /// I/O errors opening the artifact store.
    pub fn start(cfg: Config) -> std::io::Result<Scheduler> {
        let store = match &cfg.store_dir {
            Some(dir) => Some(ArtifactStore::open(dir, cfg.store_cap_bytes)?),
            None => None,
        };
        let inner = Arc::new(Inner {
            timeout: cfg.timeout,
            retry: cfg.retry,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            results: Mutex::new(HashMap::new()),
            done_cv: Condvar::new(),
            outstanding: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            env: ExecEnv::with_faults(store, cfg.faults),
            stats: Mutex::new(SvcStats::default()),
            workers_n: cfg.workers.max(1),
            started: Instant::now(),
            busy_ns: AtomicU64::new(0),
            peak_queue: AtomicU64::new(0),
            queue_wait: Histogram::default(),
            engine_wall: Mutex::new(HashMap::new()),
            engine_counters: Mutex::new(HashMap::new()),
            breaker_cfg: cfg.breaker,
            breakers: Mutex::new(HashMap::new()),
            resilience: Mutex::new(ResilienceStats::default()),
            metrics: JobMetrics::resolve(),
            telemetry: Telemetry::new(&cfg.telemetry),
            contprof: Mutex::new(
                cfg.profile_window
                    .map(|w| ContProf::new(w, PROFILE_WINDOW_CAP)),
            ),
            alerts: Mutex::new(cfg.alerts.map(|spec| AlertRuntime {
                engine: AlertEngine::new(spec),
                last_seq: None,
                postmortem_dir: cfg.postmortem_dir.clone(),
            })),
            on_complete: Mutex::new(None),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("wabench-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Ok(Scheduler { inner, workers })
    }

    /// Enqueues an untraced job; returns its id.
    pub fn submit(&self, spec: JobSpec) -> u64 {
        self.submit_traced(spec, TraceCtx::default())
    }

    /// Enqueues a job carrying a client trace context;
    /// returns its id. The context is echoed on the result's span
    /// digest so client spans can be stitched to server spans.
    pub fn submit_traced(&self, spec: JobSpec, ctx: TraceCtx) -> u64 {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.outstanding.fetch_add(1, Ordering::SeqCst);
        {
            let mut queue = self.inner.queue.lock().expect("queue lock");
            queue.push_back(Queued {
                id,
                spec,
                enqueued: Instant::now(),
                ctx,
                enqueue_ns: obs::trace::now_ns(),
            });
            let depth = queue.len() as u64;
            self.inner.peak_queue.fetch_max(depth, Ordering::Relaxed);
            self.inner.metrics.queue_depth.set(depth);
        }
        self.inner.queue_cv.notify_one();
        {
            let mut stats = self.inner.stats.lock().expect("stats lock");
            stats.submitted += 1;
        }
        id
    }

    /// Installs the hook a worker calls after each job's result is
    /// claimable and `outstanding` has dropped, replacing any earlier
    /// one. The reactor front end wakes its loop from here, so parked
    /// `Wait`s and `Shutdown`s resolve on completion, not on a timer.
    pub fn on_complete(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.inner.on_complete.lock().expect("hook lock") = Some(Box::new(hook));
    }

    /// Non-blocking result lookup (result stays claimable by `wait`).
    pub fn poll(&self, id: u64) -> Option<JobResult> {
        self.inner
            .results
            .lock()
            .expect("results lock")
            .get(&id)
            .cloned()
    }

    /// Non-blocking result claim: removes and returns the result if the
    /// job has completed. The reactor front-end resolves parked `Wait`
    /// requests with this from the tick after a completion wake
    /// ([`Scheduler::on_complete`]), so results don't accumulate
    /// the way repeated [`Scheduler::poll`] clones would let them.
    pub fn try_take(&self, id: u64) -> Option<JobResult> {
        self.inner
            .results
            .lock()
            .expect("results lock")
            .remove(&id)
    }

    /// Blocks until job `id` completes; removes and returns its result.
    pub fn wait(&self, id: u64) -> JobResult {
        let mut results = self.inner.results.lock().expect("results lock");
        loop {
            if let Some(res) = results.remove(&id) {
                return res;
            }
            results = self.inner.done_cv.wait(results).expect("results lock");
        }
    }

    /// Whether every submitted job has completed — the non-blocking
    /// counterpart of [`Scheduler::wait_idle`], checked by the reactor
    /// after each completion wake while a `Shutdown` is parked.
    pub fn idle(&self) -> bool {
        self.inner.outstanding.load(Ordering::SeqCst) == 0
    }

    /// Blocks until every submitted job has completed.
    pub fn wait_idle(&self) {
        let mut results = self.inner.results.lock().expect("results lock");
        while self.inner.outstanding.load(Ordering::SeqCst) != 0 {
            results = self.inner.done_cv.wait(results).expect("results lock");
        }
    }

    /// Waits for idle, then removes and returns all results sorted by
    /// id (= submission order).
    pub fn drain_sorted(&self) -> Vec<JobResult> {
        self.wait_idle();
        let mut out: Vec<JobResult> = self
            .inner
            .results
            .lock()
            .expect("results lock")
            .drain()
            .map(|(_, r)| r)
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }

    /// Statistics snapshot (store counters folded in).
    pub fn stats(&self) -> SvcStats {
        let mut stats = *self.inner.stats.lock().expect("stats lock");
        if let Some(store) = &self.inner.env.store {
            stats.store = Some(store.lock().expect("store lock").stats());
        }
        stats
    }

    /// Extended statistics snapshot: the base counters plus queue depth,
    /// worker utilization, and latency histograms.
    pub fn stats_ext(&self) -> SvcStatsExt {
        let base = self.stats();
        let queue_depth = self.inner.queue.lock().expect("queue lock").len() as u64;
        let mut engine_wall: Vec<(u8, HistogramSnapshot)> = self
            .inner
            .engine_wall
            .lock()
            .expect("engine wall lock")
            .iter()
            .map(|(code, h)| (*code, h.snapshot()))
            .collect();
        engine_wall.sort_by_key(|(code, _)| *code);
        let mut engine_counters: Vec<(u8, EngineCounters)> = self
            .inner
            .engine_counters
            .lock()
            .expect("engine counters lock")
            .iter()
            .map(|(code, agg)| (*code, *agg))
            .collect();
        engine_counters.sort_by_key(|(code, _)| *code);
        SvcStatsExt {
            base,
            queue_depth,
            workers: self.inner.workers_n as u64,
            uptime_s: self.inner.started.elapsed().as_secs_f64(),
            busy_s: self.inner.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
            queue_wait: self.inner.queue_wait.snapshot(),
            engine_wall,
            engine_counters,
        }
    }

    /// Resilience counters (retries, fallbacks, repairs, fast-fails).
    pub fn resilience(&self) -> ResilienceStats {
        *self.inner.resilience.lock().expect("resilience lock")
    }

    /// Health snapshot: resilience counters, per-engine breaker states,
    /// and injected-fault tallies from the active plan (if any). Served
    /// over the wire by the `Health` request. Also pumps
    /// the alert engine, so health polls advance alert state.
    pub fn health(&self) -> HealthReport {
        pump_alerts(&self.inner);
        health_of(&self.inner)
    }

    /// Live telemetry sample window (`Series`): empty but
    /// well-formed when the scheduler was started without a sampler.
    pub fn series(&self) -> SeriesReport {
        self.series_since(None)
    }

    /// Like [`Scheduler::series`], but with points at or below the
    /// `since` cursor filtered out: a watcher passes the
    /// last seq it saw and receives only the gap. Also pumps the alert
    /// engine, so watching a server advances alert state.
    pub fn series_since(&self, since: Option<u64>) -> SeriesReport {
        pump_alerts(&self.inner);
        let mut report = self.inner.telemetry.series();
        if let Some(seq) = since {
            report.points.retain(|p| p.seq > seq);
        }
        report
    }

    /// Recent and slow-request span digests (`TraceDump`).
    pub fn trace_dump(&self) -> TraceReport {
        self.inner.telemetry.trace_dump()
    }

    /// The continuous profiler's retained windows
    /// (`ProfileDump`): `window_ns == 0` and no windows when the
    /// profiler is off.
    pub fn profile_dump(&self) -> ProfileReport {
        let prof = self.inner.contprof.lock().expect("contprof lock");
        ProfileReport {
            server_now_ns: obs::trace::now_ns(),
            window_ns: prof.as_ref().map_or(0, ContProf::window_ns),
            windows: prof.as_ref().map(ContProf::windows).unwrap_or_default(),
        }
    }

    /// The alert engine's firing set and transition log
    /// (`AlertLog`), after pumping any unseen series points through the
    /// rules. Disarmed schedulers report `armed: false` and empty
    /// lists.
    pub fn alert_log(&self) -> AlertReport {
        pump_alerts(&self.inner);
        let slot = self.inner.alerts.lock().expect("alerts lock");
        match slot.as_ref() {
            Some(rt) => AlertReport {
                server_now_ns: obs::trace::now_ns(),
                armed: true,
                firing: rt.engine.firing(),
                events: rt.engine.log(),
            },
            None => AlertReport {
                server_now_ns: obs::trace::now_ns(),
                armed: false,
                firing: Vec::new(),
                events: Vec::new(),
            },
        }
    }

    /// Stops accepting work, drains queued jobs, joins the workers.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.inner.telemetry.stop();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.inner.telemetry.stop();
    }
}

/// Assembles the health report from the shared scheduler state (used by
/// both the `Health` handler and the flight recorder).
fn health_of(inner: &Inner) -> HealthReport {
    let mut breakers: Vec<(u8, BreakerSnapshot)> = inner
        .breakers
        .lock()
        .expect("breakers lock")
        .iter()
        .map(|(code, b)| (*code, b.snapshot()))
        .collect();
    breakers.sort_by_key(|(code, _)| *code);
    let faults = match &inner.env.faults {
        Some(plan) => plan
            .injected()
            .into_iter()
            .map(|(site, n)| (site.code(), plan.rate(site), n))
            .collect(),
        None => Vec::new(),
    };
    HealthReport {
        resilience: *inner.resilience.lock().expect("resilience lock"),
        breakers,
        faults,
        queue_depth: inner.queue.lock().expect("queue lock").len() as u64,
        peak_queue_depth: inner.peak_queue.load(Ordering::Relaxed),
    }
}

/// Feeds any series points the alert engine has not seen through the
/// rules, and snapshots a postmortem bundle on each transition to
/// firing. A no-op (one uncontended lock) when alerts are disarmed.
///
/// Evaluation is pull-based: workers pump on job completion and the
/// server pumps on `Health`/`Series`/`AlertLog` requests, so alert
/// state advances deterministically with the observation stream rather
/// than on its own thread.
fn pump_alerts(inner: &Inner) {
    let mut slot = inner.alerts.lock().expect("alerts lock");
    let Some(rt) = slot.as_mut() else {
        return;
    };
    let report = inner.telemetry.series();
    for p in &report.points {
        if rt.last_seq.is_some_and(|seen| p.seq <= seen) {
            continue;
        }
        rt.last_seq = Some(p.seq);
        let phase_shares = inner
            .contprof
            .lock()
            .expect("contprof lock")
            .as_ref()
            .map(ContProf::current_shares)
            .unwrap_or_default();
        let observation = Observation {
            t_ns: p.t_ns,
            interval_ns: p.interval_ns,
            completed: p.completed,
            failed: p.failed,
            lat_count: p.lat.count,
            p99_ns: p.lat.p99_ns,
            lat_buckets: p.lat.buckets.clone(),
            queue_depth: p.queue_depth,
            breakers_open: p.breakers.iter().filter(|(_, s)| *s == 1).count() as u32,
            phase_shares,
        };
        for event in rt.engine.observe(observation) {
            match event.transition {
                Transition::Pending => obs::debug!(
                    "alert {} pending: {} (threshold {})",
                    event.rule,
                    event.value,
                    event.threshold
                ),
                Transition::Firing => {
                    obs::warn!(
                        "alert {} firing: {} (threshold {}) {}",
                        event.rule,
                        event.value,
                        event.threshold,
                        event.detail
                    );
                    if let Some(dir) = rt.postmortem_dir.clone() {
                        let firing = rt.engine.firing();
                        if let Err(e) =
                            write_postmortem(inner, &dir, &event, &firing, &report.points)
                        {
                            obs::error!("postmortem write failed: {e}");
                        }
                    }
                }
                Transition::Resolved => {
                    obs::info!("alert {} resolved", event.rule);
                }
            }
        }
    }
}

/// JSON string literal (quoted + escaped).
fn jstr(s: &str) -> String {
    format!("\"{}\"", obs::json::escape(s))
}

/// Snapshots the flight-recorder postmortem bundle for a firing alert:
/// the triggering rule and values, the recent series tail, slow-request
/// exemplars, the trace-log tail, the current profile window, and the
/// health report. Versioned JSON, one file per firing transition, named
/// by event seq + rule so simulated-clock reruns are byte-stable.
fn write_postmortem(
    inner: &Inner,
    dir: &Path,
    event: &AlertEvent,
    firing: &[obs::alert::FiringAlert],
    series_tail: &[SeriesPoint],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\"schema\":\"wabench-postmortem\",\"version\":1,");
    out.push_str(&format!(
        "\"alert\":{{\"seq\":{},\"t_ns\":{},\"rule\":{},\"value\":{},\"threshold\":{},\"detail\":{}}},",
        event.seq,
        event.t_ns,
        jstr(&event.rule),
        event.value,
        event.threshold,
        jstr(&event.detail)
    ));
    out.push_str("\"firing\":[");
    for (i, f) in firing.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"since_ns\":{},\"value\":{},\"threshold\":{},\"detail\":{}}}",
            jstr(&f.rule),
            f.since_ns,
            f.value,
            f.threshold,
            jstr(&f.detail)
        ));
    }
    out.push_str("],\"series\":[");
    let skip = series_tail.len().saturating_sub(POSTMORTEM_SERIES_TAIL);
    for (i, p) in series_tail.iter().skip(skip).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"t_ns\":{},\"interval_ns\":{},\"completed\":{},\"ok\":{},\"failed\":{},\"queue_depth\":{},\"busy_workers\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            p.seq,
            p.t_ns,
            p.interval_ns,
            p.completed,
            p.ok,
            p.failed,
            p.queue_depth,
            p.busy_workers,
            p.lat.p50_ns,
            p.lat.p99_ns
        ));
    }
    out.push_str("],");
    let dump = inner.telemetry.trace_dump();
    out.push_str("\"exemplars\":[");
    for (i, rec) in dump.exemplars.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"label\":{},\"total_ns\":{},\"attempts\":{},\"compile_fallback\":{}}}",
            jstr(&rec.label),
            rec.phases.done_ns.saturating_sub(rec.phases.enqueue_ns),
            rec.phases.attempts,
            rec.phases.compile_fallback
        ));
    }
    out.push_str("],\"trace_tail\":[");
    let skip = dump.recent.len().saturating_sub(POSTMORTEM_TRACE_TAIL);
    for (i, rec) in dump.recent.iter().skip(skip).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"label\":{},\"ok\":{},\"total_ns\":{}}}",
            jstr(&rec.label),
            rec.ok,
            rec.phases.done_ns.saturating_sub(rec.phases.enqueue_ns)
        ));
    }
    out.push_str("],");
    {
        let prof = inner.contprof.lock().expect("contprof lock");
        match prof.as_ref().and_then(|p| p.windows().into_iter().last()) {
            Some(w) => out.push_str(&format!(
                "\"profile\":{{\"window_ns\":{},\"seq\":{},\"folded\":{}}},",
                prof.as_ref().map_or(0, ContProf::window_ns),
                w.seq,
                jstr(&w.folded())
            )),
            None => out.push_str("\"profile\":null,"),
        }
    }
    let health = health_of(inner);
    out.push_str(&format!(
        "\"health\":{{\"retries\":{},\"compile_fallbacks\":{},\"store_repairs\":{},\"breaker_fast_fails\":{},\"queue_depth\":{},\"peak_queue_depth\":{},",
        health.resilience.retries,
        health.resilience.compile_fallbacks,
        health.resilience.store_repairs,
        health.resilience.breaker_fast_fails,
        health.queue_depth,
        health.peak_queue_depth
    ));
    out.push_str("\"breakers\":[");
    for (i, (code, b)) in health.breakers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"engine\":{},\"state\":{},\"trips\":{}}}",
            code,
            jstr(b.state.name()),
            b.trips
        ));
    }
    out.push_str("],\"faults\":[");
    for (i, (code, rate, injected)) in health.faults.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let site = fault::Site::from_code(*code).map_or("unknown", fault::Site::key);
        out.push_str(&format!(
            "{{\"site\":{},\"rate\":{},\"injected\":{}}}",
            jstr(site),
            rate,
            injected
        ));
    }
    out.push_str("]}}");
    std::fs::create_dir_all(dir)?;
    let name = format!("postmortem-{}-{}.json", event.seq, event.rule);
    std::fs::write(dir.join(name), out)
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            // The span covers this worker's own blocking wait — a real,
            // non-overlapping region on its timeline. The *per-job* wait
            // (submit to dequeue, which may span a previous job on this
            // worker) goes into the queue_wait histogram instead.
            let _wait = obs::span!("svc.queue.wait");
            let mut queue = inner.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    inner.metrics.queue_depth.set(queue.len() as u64);
                    break Some(job);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = inner.queue_cv.wait(queue).expect("queue lock");
            }
        };
        let Some(Queued {
            id,
            spec,
            enqueued,
            ctx,
            enqueue_ns,
        }) = job
        else {
            return;
        };
        inner
            .queue_wait
            .observe_ns(enqueued.elapsed().as_nanos() as u64);
        let _run = obs::span!(
            "svc.job.run",
            id = id,
            bench = spec.benchmark,
            engine = spec.engine.name(),
            level = spec.level
        );
        // Injected scheduling delay: sleeps before the job's deadline
        // clock starts, so it models queue pressure, not job slowness.
        if let Some(plan) = &inner.env.faults {
            // Backend-kill chaos: a `crash` site takes the whole daemon
            // down the moment a worker picks up a job. Unlike
            // `worker_panic` (caught and retried in-process) nothing
            // recovers here — the site exists so multi-node failover
            // can be exercised by arming one shard to die mid-load.
            if plan.transient(fault::Site::Crash) {
                eprintln!("wabench-served: injected crash (fault site `crash`); aborting");
                std::process::abort();
            }
            if let Some(delay) = plan.job_delay() {
                std::thread::sleep(delay);
            }
        }
        let t_run = Instant::now();
        let start_ns = obs::trace::now_ns();
        inner.metrics.busy.add(1);
        let mut result = run_with_retries(inner, id, &spec, t_run);
        inner.metrics.busy.sub(1);
        let done_ns = obs::trace::now_ns();
        result.id = id;
        result.trace = TraceDigest {
            trace_id: ctx.trace_id,
            origin_ns: ctx.origin_ns,
            enqueue_ns,
            start_ns,
            done_ns,
        };
        inner
            .busy_ns
            .fetch_add(t_run.elapsed().as_nanos() as u64, Ordering::Relaxed);
        inner
            .engine_wall
            .lock()
            .expect("engine wall lock")
            .entry(spec.engine.code())
            .or_default()
            .observe_ns((result.wall_s * 1e9) as u64);
        if result.ok() {
            if let Some(c) = &result.counters {
                let mut aggs = inner.engine_counters.lock().expect("engine counters lock");
                let agg = aggs.entry(spec.engine.code()).or_default();
                agg.jobs += 1;
                agg.counters.accumulate(c);
            }
        }
        {
            let mut stats = inner.stats.lock().expect("stats lock");
            stats.completed += 1;
            match &result.status {
                JobStatus::Ok => stats.ok += 1,
                JobStatus::Failed(_) => stats.failed += 1,
                JobStatus::Panicked(_) => stats.panicked += 1,
                JobStatus::TimedOut => stats.timed_out += 1,
            }
            if result.ok() && matches!(result.spec.mode, crate::job::JobMode::Exec) {
                if result.warm_artifact {
                    stats.warm_loads += 1;
                    stats.warm_load_s += result.compile_s;
                } else {
                    stats.cold_compiles += 1;
                    stats.cold_compile_s += result.compile_s;
                }
            }
        }
        {
            let mut res = inner.resilience.lock().expect("resilience lock");
            res.retries += result.recovery.retries() as u64;
            res.compile_fallbacks += result.recovery.compile_fallback as u64;
            res.store_repairs += result.recovery.store_repairs as u64;
        }
        // Registry metrics + trace log for the live-telemetry surface
        // (Series/TraceDump). The wall histogram measures
        // enqueue→done: the latency a waiting client actually observed.
        inner.metrics.completed.inc();
        if result.ok() {
            inner.metrics.ok.inc();
        } else {
            inner.metrics.failed.inc();
        }
        if let Some(c) = inner.metrics.engines.get(spec.engine.code() as usize) {
            c.inc();
        }
        inner
            .metrics
            .wall
            .observe_ns(done_ns.saturating_sub(enqueue_ns));
        inner.telemetry.record(TraceRecord {
            label: spec.to_string(),
            ok: result.ok(),
            phases: obs::stitch::ServerPhases {
                trace_id: ctx.trace_id,
                enqueue_ns,
                start_ns,
                done_ns,
                compile_ns: (result.compile_s.max(0.0) * 1e9) as u64,
                exec_ns: (result.exec_s.max(0.0) * 1e9) as u64,
                attempts: result.recovery.attempts,
                compile_fallback: result.recovery.compile_fallback,
                store_repairs: result.recovery.store_repairs,
            },
        });
        // Continuous profiler: fold the job's phase costs into the
        // current window (engine × phase wall self-time, plus simulated
        // counters when the job was profiled). Off by default.
        {
            let mut prof = inner.contprof.lock().expect("contprof lock");
            if let Some(prof) = prof.as_mut() {
                let engine = spec.engine.name();
                let compile_ns = (result.compile_s.max(0.0) * 1e9) as u64;
                let exec_ns = (result.exec_s.max(0.0) * 1e9) as u64;
                let (instructions, cycles) = result
                    .counters
                    .map_or((0, 0), |c| (c.instructions, c.cycles));
                if compile_ns > 0 {
                    prof.record(done_ns, engine, "compile", compile_ns, 0, 0);
                }
                if exec_ns > 0 || instructions > 0 {
                    prof.record(done_ns, engine, "exec", exec_ns, instructions, cycles);
                }
            }
        }
        {
            // Insert and decrement under the results lock: waiters check
            // `outstanding` while holding it, so publishing both under
            // the lock rules out a lost wakeup.
            let mut results = inner.results.lock().expect("results lock");
            results.insert(id, result);
            inner.outstanding.fetch_sub(1, Ordering::SeqCst);
        }
        inner.done_cv.notify_all();
        if let Some(hook) = &*inner.on_complete.lock().expect("hook lock") {
            hook();
        }
        // Evaluate alert rules against any new telemetry samples (no-op
        // when disarmed). After the result is published, so a firing
        // alert's postmortem sees the job that tripped it.
        pump_alerts(inner);
    }
}

/// A zeroed failure result for a spec.
fn failed_result(spec: &JobSpec, status: JobStatus) -> JobResult {
    JobResult {
        id: 0,
        spec: spec.clone(),
        status,
        checksum: None,
        bytes_hash: 0,
        compile_s: 0.0,
        exec_s: 0.0,
        aot_compile_s: None,
        counters: None,
        warm_artifact: false,
        wall_s: 0.0,
        recovery: crate::job::Recovery::default(),
        trace: TraceDigest::default(),
    }
}

/// Drives one job to a final result: circuit-breaker admission, then up
/// to `retry.max_attempts` isolated attempts under one shared deadline
/// (`t_run + timeout`), with exponential backoff + deterministic jitter
/// between attempts. Failed and panicked attempts retry; a timeout is
/// final (the deadline is already spent).
fn run_with_retries(inner: &Arc<Inner>, id: u64, spec: &JobSpec, t_run: Instant) -> JobResult {
    let code = spec.engine.code();
    let admitted = {
        let mut breakers = inner.breakers.lock().expect("breakers lock");
        let b = breakers
            .entry(code)
            .or_insert_with(|| Breaker::new(inner.breaker_cfg));
        let admitted = b.admit();
        // Mirror the state into the telemetry gauge (admission may have
        // moved an open breaker to half-open).
        if let Some(g) = inner.metrics.breakers.get(code as usize) {
            g.set(b.snapshot().state.byte() as u64);
        }
        admitted
    };
    if !admitted {
        inner
            .resilience
            .lock()
            .expect("resilience lock")
            .breaker_fast_fails += 1;
        obs::metrics::counter("svc.breaker.fast_fail").inc();
        return failed_result(
            spec,
            JobStatus::Failed(format!(
                "circuit breaker open for {} (cooling down)",
                spec.engine.name()
            )),
        );
    }
    let deadline = t_run + inner.timeout;
    let mut attempt = 1u32;
    let mut result = loop {
        let result = run_isolated(inner, spec, attempt, deadline);
        if result.ok()
            || result.status == JobStatus::TimedOut
            || attempt >= inner.retry.max_attempts
        {
            break result;
        }
        // Exponential backoff with deterministic jitter, bounded by the
        // cap and by what's left of the deadline.
        let base = inner.retry.backoff_base.saturating_mul(1 << (attempt - 1));
        let base = base.min(inner.retry.backoff_cap);
        let jitter_ns = if base.is_zero() {
            0
        } else {
            fault::mix64(id ^ ((attempt as u64) << 48)) % (base.as_nanos() as u64 / 2 + 1)
        };
        let backoff = base + Duration::from_nanos(jitter_ns);
        let remaining = deadline.saturating_duration_since(Instant::now());
        if backoff >= remaining {
            break result;
        }
        obs::metrics::counter("svc.retry").inc();
        obs::debug!(
            "job {id} attempt {attempt} {}: retrying in {backoff:?}",
            match &result.status {
                JobStatus::Failed(m) | JobStatus::Panicked(m) => m.as_str(),
                _ => "failed",
            }
        );
        std::thread::sleep(backoff);
        attempt += 1;
    };
    result.recovery.attempts = attempt;
    let event = {
        let mut breakers = inner.breakers.lock().expect("breakers lock");
        let b = breakers.get_mut(&code).expect("breaker inserted above");
        let event = b.record(result.ok());
        if let Some(g) = inner.metrics.breakers.get(code as usize) {
            g.set(b.snapshot().state.byte() as u64);
        }
        event
    };
    if let Some(event) = event {
        let (counter, what) = match event {
            BreakerEvent::Opened => ("svc.breaker.open", "tripped open"),
            BreakerEvent::Reopened => ("svc.breaker.reopen", "re-opened (probe failed)"),
            BreakerEvent::Closed => ("svc.breaker.close", "closed (healed)"),
        };
        obs::metrics::counter(counter).inc();
        obs::warn!("circuit breaker for {} {what}", spec.engine.name());
    }
    result
}

/// Runs one attempt on a dedicated thread with panic isolation, bounded
/// by the job's remaining deadline. The engine instances the job builds
/// are `Rc`-based and live entirely on that thread.
fn run_isolated(inner: &Arc<Inner>, spec: &JobSpec, attempt: u32, deadline: Instant) -> JobResult {
    let (tx, rx) = mpsc::channel();
    let job_inner = Arc::clone(inner);
    let job_spec = spec.clone();
    let handle = std::thread::Builder::new()
        .name("wabench-job".to_string())
        .spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                exec::execute_attempt(&job_spec, &job_inner.env, attempt)
            }));
            let _ = tx.send(outcome);
        })
        .expect("spawn job thread");
    let remaining = deadline.saturating_duration_since(Instant::now());
    match rx.recv_timeout(remaining) {
        Ok(Ok(result)) => {
            let _ = handle.join();
            result
        }
        Ok(Err(payload)) => {
            let _ = handle.join();
            // `&*payload`, not `&payload`: the latter would unsize the
            // Box itself into `dyn Any` and every downcast would miss.
            failed_result(spec, JobStatus::Panicked(panic_message(&*payload)))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Abandon the thread; its late send goes nowhere.
            failed_result(spec, JobStatus::TimedOut)
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            failed_result(spec, JobStatus::Panicked("job thread died".to_string()))
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobMode, Scale};
    use engines::EngineKind;
    use wacc::OptLevel;

    /// Regression test: every derived statistic on a freshly started
    /// (zero-job) scheduler must be a finite number, never NaN from a
    /// zero division.
    #[test]
    fn zero_job_stats_have_no_nan() {
        let sched = Scheduler::start(Config {
            workers: 2,
            ..Config::default()
        })
        .unwrap();
        let stats = sched.stats();
        assert_eq!(stats.cold_compile_avg_s(), 0.0);
        assert_eq!(stats.warm_load_avg_s(), 0.0);
        let ext = sched.stats_ext();
        assert_eq!(ext.queue_depth, 0);
        assert_eq!(ext.workers, 2);
        assert!(ext.utilization().is_finite());
        assert!((0.0..=1.0).contains(&ext.utilization()));
        assert_eq!(ext.queue_wait.count, 0);
        assert_eq!(ext.queue_wait.quantile_ns(0.99), 0);
        assert_eq!(ext.queue_wait.mean_ns(), 0.0);
        assert!(ext.engine_wall.is_empty());
        assert!(ext.engine_counters.is_empty());
        sched.shutdown();
    }

    /// Profiled jobs fold their simulated counters into per-engine
    /// aggregates; plain exec jobs do not contribute.
    #[test]
    fn profiled_jobs_aggregate_engine_counters() {
        let sched = Scheduler::start(Config {
            workers: 2,
            ..Config::default()
        })
        .unwrap();
        let profiled = |_| JobSpec {
            mode: JobMode::Profiled,
            ..JobSpec::exec("crc32", EngineKind::Wamr, OptLevel::O1, Scale::Test)
        };
        sched.submit(profiled(0));
        sched.submit(profiled(1));
        sched.submit(JobSpec::exec(
            "crc32",
            EngineKind::Wasm3,
            OptLevel::O1,
            Scale::Test,
        ));
        let results = sched.drain_sorted();
        assert!(results.iter().all(JobResult::ok));
        let per_job = results[0].counters.expect("profiled job has counters");
        let ext = sched.stats_ext();
        assert_eq!(ext.engine_counters.len(), 1, "exec job must not appear");
        let (code, agg) = ext.engine_counters[0];
        assert_eq!(code, EngineKind::Wamr.code());
        assert_eq!(agg.jobs, 2);
        // Same spec twice on a deterministic simulator: the sum is
        // exactly twice one job's counters.
        assert_eq!(agg.counters.instructions, 2 * per_job.instructions);
        assert!(agg.counters.ipc() > 0.0);
        sched.shutdown();
    }

    /// `stats_ext` on a scheduler that has run real jobs reports queue
    /// and per-engine latency distributions.
    #[test]
    fn stats_ext_tracks_real_jobs() {
        let sched = Scheduler::start(Config {
            workers: 2,
            ..Config::default()
        })
        .unwrap();
        for _ in 0..3 {
            sched.submit(JobSpec::exec(
                "crc32",
                EngineKind::Wasm3,
                OptLevel::O1,
                Scale::Test,
            ));
        }
        let results = sched.drain_sorted();
        assert!(results.iter().all(JobResult::ok));
        let ext = sched.stats_ext();
        assert_eq!(ext.base.completed, 3);
        assert_eq!(ext.queue_depth, 0);
        assert_eq!(ext.queue_wait.count, 3);
        assert!(ext.busy_s > 0.0);
        assert!(ext.uptime_s >= ext.busy_s / ext.workers as f64);
        let (code, wall) = &ext.engine_wall[0];
        assert_eq!(*code, EngineKind::Wasm3.code());
        assert_eq!(wall.count, 3);
        assert!(wall.mean_ns() > 0.0);
        sched.shutdown();
    }

    #[test]
    fn results_drain_in_submission_order() {
        let sched = Scheduler::start(Config {
            workers: 3,
            ..Config::default()
        })
        .unwrap();
        for kind in EngineKind::all() {
            sched.submit(JobSpec::exec("crc32", kind, OptLevel::O1, Scale::Test));
        }
        let results = sched.drain_sorted();
        assert_eq!(results.len(), 5);
        let ids: Vec<u64> = results.iter().map(|r| r.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert!(results.iter().all(JobResult::ok));
        sched.shutdown();
    }

    #[test]
    fn timeout_is_enforced() {
        let sched = Scheduler::start(Config {
            workers: 1,
            timeout: Duration::from_millis(100),
            ..Config::default()
        })
        .unwrap();
        let hang = JobSpec {
            mode: JobMode::SelfTestHang,
            ..JobSpec::exec("crc32", EngineKind::Wasm3, OptLevel::O0, Scale::Test)
        };
        let id = sched.submit(hang);
        let res = sched.wait(id);
        assert_eq!(res.status, JobStatus::TimedOut);
        sched.shutdown();
    }
}
