//! The open-loop run loop.
//!
//! One submitter thread walks the arrival schedule: it sleeps until
//! each *intended* arrival offset, submits the sampled job without
//! waiting for earlier results, and hands `(job id, intended instant,
//! cell)` to a pool of collector threads. Collectors block on results
//! and record latency as `collection time − intended arrival` into
//! [`obs::metrics::Histogram`]s — never from the send time, so a
//! stalled service *inflates* the recorded tail instead of silently
//! pausing the clock (the coordinated-omission trap a closed-loop
//! driver falls into).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use obs::metrics::{Histogram, HistogramSnapshot};
use obs::stitch::ClientSpan;
use obs::trace::Trace;
use svc::job::{JobResult, Outcome, Scale, TraceCtx};
use svc::scheduler::{Config, HealthReport, Scheduler};
use svc::proto::BackendsReport;
use svc::server::{Client, Submission};
use svc::telemetry::TraceReport;

use crate::mix::Mix;
use crate::{arrivals, traces};

/// What the generator drives.
#[derive(Debug, Clone)]
pub enum Target {
    /// An in-process scheduler (spun up and torn down by the run).
    InProc {
        /// Worker threads.
        workers: usize,
        /// Fault plan spec (`wabench-fault` grammar), if any.
        faults: Option<String>,
        /// Artifact-store directory for warm-phase hits, if any.
        store_dir: Option<PathBuf>,
    },
    /// A live `wabench-served` daemon over its Unix socket.
    Socket {
        /// Socket path.
        path: PathBuf,
    },
}

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
    /// What to drive.
    pub target: Target,
    /// Collector threads (0 = pick from the target).
    pub collectors: usize,
    /// Fetch the server's `TraceDump` after the run and stitch it
    /// against the collected client spans into [`RunReport::stitched`].
    pub stitch: bool,
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
    /// Transport-level errors talking to the service (0 in-process).
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
    /// `wabench-router` socket (`None` for plain shards and in-process).
    pub backends: Option<BackendsReport>,
    /// Client-side `submit → response` spans, one per collected job,
    /// keyed by the deterministic trace ids ([`traces::trace_ids`]).
    pub client_spans: Vec<ClientSpan>,
    /// The stitched client+server Chrome trace, when
    /// [`RunConfig::stitch`] was set and the dump matched any spans.
    pub stitched: Option<Trace>,
}

/// Either side of the service boundary, submit half.
enum Submitter {
    InProc(Arc<Scheduler>),
    Socket(Client),
}

impl Submitter {
    /// Submits, distinguishing a router's `Busy` admission refusal
    /// from a transport failure. In-process targets have
    /// no admission layer and always accept.
    fn submit_traced(
        &mut self,
        spec: svc::job::JobSpec,
        ctx: TraceCtx,
    ) -> Result<Submission, String> {
        match self {
            Submitter::InProc(s) => Ok(Submission::Accepted(s.submit_traced(spec, ctx))),
            Submitter::Socket(c) => c.try_submit_traced(spec, ctx).map_err(|e| e.to_string()),
        }
    }

    /// The router's routing table, when the target is one. Plain
    /// `wabench-served` shards refuse `Backends` with an `Err` reply
    /// and in-process targets have no routing tier — both yield `None`.
    fn backends(&mut self) -> Option<BackendsReport> {
        match self {
            Submitter::InProc(_) => None,
            Submitter::Socket(c) => c.backends().ok(),
        }
    }

    fn health(&mut self) -> Result<HealthReport, String> {
        match self {
            Submitter::InProc(s) => Ok(s.health()),
            Submitter::Socket(c) => c.health().map_err(|e| e.to_string()),
        }
    }

    fn trace_dump(&mut self) -> Result<TraceReport, String> {
        match self {
            Submitter::InProc(s) => Ok(s.trace_dump()),
            Submitter::Socket(c) => c.trace_dump().map_err(|e| e.to_string()),
        }
    }
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
/// Configuration errors (bad fault plan, empty mix), store I/O errors,
/// and a failure to *connect* to a socket target. Per-job transport
/// errors do not abort the run — they are tallied as
/// [`Totals::protocol_errors`].
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

    // Spin up / connect to the target.
    let (mut submitter, sched, workers) = match &cfg.target {
        Target::InProc {
            workers,
            faults,
            store_dir,
        } => {
            let plan = match faults {
                Some(spec) => Some(Arc::new(
                    fault::FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?,
                )),
                None => None,
            };
            let sched = Arc::new(
                Scheduler::start(Config {
                    workers: (*workers).max(1),
                    store_dir: store_dir.clone(),
                    faults: plan,
                    ..Config::default()
                })
                .map_err(|e| format!("scheduler start: {e}"))?,
            );
            (
                Submitter::InProc(Arc::clone(&sched)),
                Some(sched),
                (*workers).max(1),
            )
        }
        Target::Socket { path } => (
            Submitter::Socket(
                Client::connect(path).map_err(|e| format!("connect {}: {e}", path.display()))?,
            ),
            None,
            0,
        ),
    };

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
    let spans: Arc<Mutex<Vec<ClientSpan>>> = Arc::new(Mutex::new(Vec::new()));

    let collectors = if cfg.collectors > 0 {
        cfg.collectors
    } else {
        workers.max(2)
    };

    let mut submitted = 0u64;
    let mut wall_s = 0.0f64;
    for (phase_idx, phase) in cfg.phases.iter().enumerate() {
        let schedule = arrivals::schedule(cfg.seed, phase_idx as u64, cfg.jobs, cfg.qps);
        let sample = cfg.mix.sample(cfg.seed, phase_idx as u64, cfg.jobs);
        let trace_ids = traces::trace_ids(cfg.seed, phase_idx as u64, cfg.jobs);

        let (tx, rx) = mpsc::channel::<Pending>();
        let rx = Arc::new(Mutex::new(rx));
        let handles: Vec<_> = (0..collectors)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let per_key = Arc::clone(&per_key);
                let global = Arc::clone(&global);
                let tallies = Arc::clone(&tallies);
                let spans = Arc::clone(&spans);
                match (&sched, &cfg.target) {
                    (Some(s), _) => {
                        let s = Arc::clone(s);
                        std::thread::spawn(move || {
                            collect_inproc(&s, &rx, &per_key, &global, &tallies, &spans);
                        })
                    }
                    (None, Target::Socket { path }) => {
                        let path = path.clone();
                        std::thread::spawn(move || {
                            collect_socket(&path, &rx, &per_key, &global, &tallies, &spans);
                        })
                    }
                    (None, Target::InProc { .. }) => unreachable!("inproc always has sched"),
                }
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
            match submitter.submit_traced(spec, ctx) {
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
    // Routed runs also capture per-shard attribution (None elsewhere).
    let backends = submitter.backends();
    let client_spans = std::mem::take(&mut *spans.lock().expect("span log"));
    // Stitch while the target is still up: bracket the dump fetch on
    // the client clock for the round-trip offset estimate.
    let stitched = if cfg.stitch {
        let before_ns = obs::trace::now_ns();
        let report = submitter.trace_dump()?;
        let after_ns = obs::trace::now_ns();
        let trace = traces::stitch_report(&client_spans, &report, before_ns, after_ns);
        if trace.threads.is_empty() {
            return Err(format!(
                "stitch matched no requests: {} client spans vs {} server records",
                client_spans.len(),
                report.all_records().len()
            ));
        }
        Some(trace)
    } else {
        None
    };
    drop(submitter);
    drop(sched); // joins the in-process workers

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
        client_spans,
        stitched,
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
    spans: &Mutex<Vec<ClientSpan>>,
) {
    // Intended arrival → observed completion: queueing delay a stalled
    // worker causes lands in the tail instead of being omitted.
    let lat_ns = Instant::now().duration_since(job.intended).as_nanos() as u64;
    per_key[job.key].observe_ns(lat_ns);
    global.observe_ns(lat_ns);
    tallies.record(res);
    spans.lock().expect("span log").push(ClientSpan {
        trace_id: job.trace_id,
        begin_ns: job.begin_ns,
        end_ns: obs::trace::now_ns(),
    });
}

fn collect_inproc(
    sched: &Scheduler,
    rx: &Mutex<mpsc::Receiver<Pending>>,
    per_key: &[Histogram],
    global: &Histogram,
    tallies: &Tallies,
    spans: &Mutex<Vec<ClientSpan>>,
) {
    while let Some(job) = next_job(rx) {
        let res = sched.wait(job.id);
        record(&job, &res, per_key, global, tallies, spans);
    }
}

fn collect_socket(
    path: &std::path::Path,
    rx: &Mutex<mpsc::Receiver<Pending>>,
    per_key: &[Histogram],
    global: &Histogram,
    tallies: &Tallies,
    spans: &Mutex<Vec<ClientSpan>>,
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
            Ok(res) => record(&job, &res, per_key, global, tallies, spans),
            Err(_) => {
                tallies.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
