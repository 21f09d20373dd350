//! The open-loop run loop.
//!
//! One submitter thread walks the arrival schedule: it sleeps until
//! each *intended* arrival offset, submits the sampled job without
//! waiting for earlier results, and hands `(job id, intended instant,
//! cell)` to [`COLLECTORS`] collector threads. Collectors block on
//! results and record latency as `collection time − intended arrival`
//! into [`obs::metrics::Histogram`]s — never from the send time, so a
//! stalled service *inflates* the recorded tail instead of silently
//! pausing the clock (the coordinated-omission trap a closed-loop
//! driver falls into). Each collector also keeps the job's client span
//! beside the server timeline its result carries
//! ([`svc::JobResult::phases`]), which is all a stitched trace needs.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use obs::metrics::{Histogram, HistogramSnapshot};
use obs::stitch::{ClientSpan, ServerPhases};
use svc::job::{JobResult, Outcome, Scale, TraceCtx};
use svc::proto::BackendsReport;
use svc::server::{Client, Submission};

use crate::mix::Mix;
use crate::{arrivals, traces};

/// Result-collector threads per phase, each on its own connection.
pub const COLLECTORS: usize = 2;

/// One run phase: a full arrival schedule at one warm/cold setting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// `cold` or `warm`.
    pub name: String,
    /// Whether jobs consult the artifact store.
    pub warm: bool,
}

impl Phase {
    /// Parses a comma-joined phase list (`cold`, `warm`, `cold,warm`).
    ///
    /// # Errors
    ///
    /// A message naming the unknown phase.
    pub fn parse_list(s: &str) -> Result<Vec<Phase>, String> {
        s.split(',')
            .map(|p| match p.trim() {
                "cold" => Ok(Phase {
                    name: "cold".into(),
                    warm: false,
                }),
                "warm" => Ok(Phase {
                    name: "warm".into(),
                    warm: true,
                }),
                other => Err(format!("unknown phase {other:?} (want cold or warm)")),
            })
            .collect()
    }
}

/// A full run description.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed for arrivals and the job mix.
    pub seed: u64,
    /// The job mix.
    pub mix: Mix,
    /// Workload scale.
    pub scale: Scale,
    /// Target arrival rate, jobs per second.
    pub qps: f64,
    /// Jobs per phase.
    pub jobs: usize,
    /// Phases, in order.
    pub phases: Vec<Phase>,
    /// The `wabench-served` or `wabench-router` socket to drive.
    pub socket: PathBuf,
}

/// Run-level outcome totals.
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    /// Jobs submitted across all phases.
    pub submitted: u64,
    /// Jobs whose results were collected.
    pub completed: u64,
    /// ... of which clean.
    pub ok: u64,
    /// ... correct but degraded (e.g. interpreter fallback).
    pub degraded: u64,
    /// ... failed/panicked/timed out.
    pub failed: u64,
    /// Transport-level errors talking to the service.
    pub protocol_errors: u64,
    /// Submits the target refused with a `Busy` reply (router
    /// admission control). Refused work, not errors: the run keeps
    /// going and the report records how much was turned away.
    pub shed: u64,
    /// Wall seconds from first intended arrival to last collection.
    pub wall_s: f64,
    /// Peak scheduler queue depth (from `Health`; 0 if unknown).
    pub peak_queue_depth: u64,
}

impl Totals {
    /// Sustained throughput: completed / wall_s.
    pub fn qps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.completed as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// What a run produced: totals, latency per cell and overall, and the
/// routing table when the target was a router.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Outcome totals.
    pub totals: Totals,
    /// Latency per `engine/level` cell key (e.g. `Wasmtime/-O2`),
    /// measured from *intended* arrival to collected completion, in
    /// first-seen order; cells that collected nothing are left out.
    pub cells: Vec<(String, HistogramSnapshot)>,
    /// All-cell latency distribution.
    pub latency: HistogramSnapshot,
    /// The router's `Backends` reply, when the target was a
    /// `wabench-router` socket (`None` for plain shards).
    pub backends: Option<BackendsReport>,
    /// One entry per collected job: its client-side `submit → response`
    /// span, keyed by the deterministic trace ids
    /// ([`traces::trace_ids`]), and the server timeline its result
    /// carried — the input of [`obs::stitch::stitch`].
    pub requests: Vec<(ClientSpan, ServerPhases)>,
}

/// Shared tallies the collectors update.
#[derive(Default)]
struct Tallies {
    completed: AtomicU64,
    ok: AtomicU64,
    degraded: AtomicU64,
    failed: AtomicU64,
    protocol_errors: AtomicU64,
    shed: AtomicU64,
}

impl Tallies {
    fn record(&self, res: &JobResult) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        match res.outcome() {
            Outcome::Clean => self.ok.fetch_add(1, Ordering::Relaxed),
            Outcome::Degraded => self.degraded.fetch_add(1, Ordering::Relaxed),
            Outcome::Failed => self.failed.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// Executes a run: all phases, latency recording, report assembly.
///
/// # Errors
///
/// Configuration errors (empty mix, bad rate) and a failure to
/// *connect* to the socket. Per-job transport errors do not abort the
/// run — they are tallied as [`Totals::protocol_errors`].
pub fn execute(cfg: &RunConfig) -> Result<RunReport, String> {
    if cfg.mix.cells.is_empty() {
        return Err("job mix has no cells".to_string());
    }
    if !(cfg.qps.is_finite() && cfg.qps > 0.0) {
        return Err("qps must be positive".to_string());
    }
    if cfg.jobs == 0 || cfg.phases.is_empty() {
        return Err("need at least one job and one phase".to_string());
    }
    let path = &cfg.socket;
    let mut submitter =
        Client::connect(path).map_err(|e| format!("connect {}: {e}", path.display()))?;

    // One histogram per engine×level cell key, plus a global one.
    let mut key_index: HashMap<String, usize> = HashMap::new();
    let mut keys: Vec<String> = Vec::new();
    let key_of_cell: Vec<usize> = cfg
        .mix
        .cells
        .iter()
        .map(|c| {
            let key = c.cell_key();
            *key_index.entry(key.clone()).or_insert_with(|| {
                keys.push(key);
                keys.len() - 1
            })
        })
        .collect();
    let per_key: Arc<Vec<Histogram>> =
        Arc::new((0..keys.len()).map(|_| Histogram::default()).collect());
    let global = Arc::new(Histogram::default());
    let tallies = Arc::new(Tallies::default());
    let requests: Arc<Mutex<Vec<(ClientSpan, ServerPhases)>>> = Arc::new(Mutex::new(Vec::new()));

    let mut submitted = 0u64;
    let mut wall_s = 0.0f64;
    for (phase_idx, phase) in cfg.phases.iter().enumerate() {
        let schedule = arrivals::schedule(cfg.seed, phase_idx as u64, cfg.jobs, cfg.qps);
        let sample = cfg.mix.sample(cfg.seed, phase_idx as u64, cfg.jobs);
        let trace_ids = traces::trace_ids(cfg.seed, phase_idx as u64, cfg.jobs);

        let (tx, rx) = mpsc::channel::<Pending>();
        let rx = Arc::new(Mutex::new(rx));
        let handles: Vec<_> = (0..COLLECTORS)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let per_key = Arc::clone(&per_key);
                let global = Arc::clone(&global);
                let tallies = Arc::clone(&tallies);
                let requests = Arc::clone(&requests);
                let path = path.clone();
                std::thread::spawn(move || {
                    collect(&path, &rx, &per_key, &global, &tallies, &requests);
                })
            })
            .collect();

        let start = Instant::now();
        for ((offset, &cell_idx), &trace_id) in schedule.iter().zip(&sample).zip(&trace_ids) {
            let intended = start + *offset;
            let now = Instant::now();
            if intended > now {
                std::thread::sleep(intended - now);
            }
            let spec = cfg.mix.spec(cell_idx, cfg.scale, phase.warm);
            let begin_ns = obs::trace::now_ns();
            let ctx = TraceCtx {
                trace_id,
                origin_ns: begin_ns,
            };
            match submitter.try_submit_traced(spec, ctx) {
                Ok(Submission::Accepted(id)) => {
                    submitted += 1;
                    // Collector gone ⇒ nothing will record this job; the
                    // tally below still counts the submission.
                    let _ = tx.send(Pending {
                        id,
                        intended,
                        key: key_of_cell[cell_idx],
                        trace_id,
                        begin_ns,
                    });
                }
                // A router refusing admission is refused work, not a
                // broken wire: tallied separately, the loop keeps its
                // arrival schedule (open-loop — no retry storm).
                Ok(Submission::Busy { .. }) => {
                    tallies.shed.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    tallies.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(tx);
        for h in handles {
            let _ = h.join();
        }
        wall_s += start.elapsed().as_secs_f64();
    }

    // Saturation signal: the scheduler's queue high-water mark.
    let peak_queue_depth = submitter.health().map_or(0, |h| h.peak_queue_depth);
    // Routed runs also capture per-shard attribution: a plain shard
    // refuses `Backends` with an `Err` reply, which reads as `None`.
    let backends = submitter.backends().ok();
    let requests = std::mem::take(&mut *requests.lock().expect("request log"));

    let cells = keys
        .into_iter()
        .zip(per_key.iter())
        .map(|(key, h)| (key, h.snapshot()))
        .filter(|(_, snap)| snap.count > 0)
        .collect();
    Ok(RunReport {
        totals: Totals {
            submitted,
            completed: tallies.completed.load(Ordering::Relaxed),
            ok: tallies.ok.load(Ordering::Relaxed),
            degraded: tallies.degraded.load(Ordering::Relaxed),
            failed: tallies.failed.load(Ordering::Relaxed),
            protocol_errors: tallies.protocol_errors.load(Ordering::Relaxed),
            shed: tallies.shed.load(Ordering::Relaxed),
            wall_s,
            peak_queue_depth,
        },
        cells,
        latency: global.snapshot(),
        backends,
        requests,
    })
}

/// One in-flight job as handed from the submitter to the collectors.
struct Pending {
    id: u64,
    intended: Instant,
    key: usize,
    trace_id: u64,
    begin_ns: u64,
}

/// Pulls one pending job off the shared channel.
fn next_job(rx: &Mutex<mpsc::Receiver<Pending>>) -> Option<Pending> {
    rx.lock().expect("collector channel lock").recv().ok()
}

fn record(
    job: &Pending,
    res: &JobResult,
    per_key: &[Histogram],
    global: &Histogram,
    tallies: &Tallies,
    requests: &Mutex<Vec<(ClientSpan, ServerPhases)>>,
) {
    // Intended arrival → observed completion: queueing delay a stalled
    // worker causes lands in the tail instead of being omitted.
    let lat_ns = Instant::now().duration_since(job.intended).as_nanos() as u64;
    per_key[job.key].observe_ns(lat_ns);
    global.observe_ns(lat_ns);
    tallies.record(res);
    let client = ClientSpan {
        trace_id: job.trace_id,
        begin_ns: job.begin_ns,
        end_ns: obs::trace::now_ns(),
    };
    requests.lock().expect("request log").push((client, res.phases()));
}

fn collect(
    path: &Path,
    rx: &Mutex<mpsc::Receiver<Pending>>,
    per_key: &[Histogram],
    global: &Histogram,
    tallies: &Tallies,
    requests: &Mutex<Vec<(ClientSpan, ServerPhases)>>,
) {
    let mut client = match Client::connect(path) {
        Ok(c) => c,
        Err(_) => {
            // Drain so the submitter is not blocked; every lost job is a
            // protocol error.
            while next_job(rx).is_some() {
                tallies.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
    };
    while let Some(job) = next_job(rx) {
        match client.wait(job.id) {
            Ok(res) => record(&job, &res, per_key, global, tallies, requests),
            Err(_) => {
                tallies.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
