//! # router — `wabench-router`, the multi-node serving tier
//!
//! Fronts N `wabench-served` shards behind one Unix socket speaking
//! the same wire protocol (`svc::proto`), turning the single-node
//! daemon into a horizontally scalable fleet:
//!
//! - **Sharding** — submits route over a consistent-hash [`ring`] keyed
//!   by the artifact store's content address (benchmark × opt level ×
//!   engine), so a module's compiled artifacts stay hot in one shard's
//!   store. See `docs/DEPLOYMENT.md`.
//! - **Health probes** — a background thread sends the
//!   `Health` request against every shard on a fixed cadence, feeding
//!   per-backend liveness and queue depth into routing decisions.
//! - **Failover** — a per-backend circuit breaker ([`fault::Breaker`])
//!   opens after consecutive transport failures; submits skip open or
//!   unreachable backends and fail over to the next ring replica, and
//!   jobs stranded on a crashed shard are resubmitted from the router's
//!   saved spec.
//! - **Admission control** — when the fleet's aggregate queue depth
//!   crosses a watermark, new submits are refused with the
//!   `Busy` reply (carrying a retry-after hint) instead of deepening
//!   the overload.
//!
//! The router runs on the same nonblocking [`svc::reactor`] as the
//! daemon itself; forwarded exchanges are short unix-socket round
//! trips, and `Wait`s park in the reactor and are driven by `Poll`s
//! against the owning shard from the tick hook.
//!
//! `Stats` and `Health` are answered with the shards' replies summed.
//! Per-shard observability requests (`Series`, `TraceDump`) are
//! answered with an `Err` prefixed `router:` pointing at the shard
//! sockets — `wabench-served top` and `doctor` key off that prefix to
//! degrade gracefully.

#![warn(missing_docs)]

pub mod ring;

use std::collections::HashMap;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fault::{Breaker, BreakerConfig};
use svc::job::{JobSpec, TraceCtx};
use svc::proto::{BackendStatus, BackendsReport, Request, Response};
use svc::reactor::{Action, Handler, Resolution, Token};
use svc::scheduler::HealthReport;
use svc::server::{bind_socket, SocketGuard};
use svc::wire::{level_byte, read_frame, write_frame};
use svc::JobResult;

use ring::Ring;

/// Static description of one shard.
#[derive(Debug, Clone)]
pub struct BackendCfg {
    /// Operator-facing label (defaults to `shard-N`).
    pub name: String,
    /// The shard's Unix socket path.
    pub socket: PathBuf,
}

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The shard fleet, in ring-label order.
    pub backends: Vec<BackendCfg>,
    /// Aggregate queue-depth watermark: at or above it, submits are
    /// shed with `Busy`.
    pub watermark: u64,
    /// The retry hint carried in `Busy` replies, milliseconds.
    pub retry_after_ms: u32,
    /// Health-probe cadence.
    pub probe_interval: Duration,
    /// Per-backend breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            backends: Vec::new(),
            watermark: 64,
            retry_after_ms: 250,
            probe_interval: Duration::from_millis(100),
            breaker: BreakerConfig {
                // Transport failures are decisive (a dead socket stays
                // dead); trip fast so failover doesn't retry a corpse
                // for long, and re-probe on the probe cadence.
                threshold: 2,
                cooldown: Duration::from_millis(500),
            },
        }
    }
}

/// Live per-backend state shared between the reactor handler and the
/// probe thread.
struct BackendState {
    cfg: BackendCfg,
    healthy: AtomicBool,
    queue_depth: AtomicU64,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    breaker: Mutex<Breaker>,
}

impl BackendState {
    fn admit(&self) -> bool {
        self.breaker.lock().expect("breaker lock").admit()
    }

    fn record(&self, ok: bool) {
        self.breaker.lock().expect("breaker lock").record(ok);
        if !ok {
            self.healthy.store(false, Ordering::Relaxed);
        }
    }
}

/// State shared by the handler and the probe thread.
struct Shared {
    backends: Vec<BackendState>,
    watermark: u64,
    shed: AtomicU64,
    stop_probes: AtomicBool,
}

impl Shared {
    /// Aggregate queue depth across the fleet, from the latest probes.
    fn aggregate_depth(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.queue_depth.load(Ordering::Relaxed))
            .sum()
    }

    fn report(&self) -> BackendsReport {
        BackendsReport {
            watermark: self.watermark,
            shed: self.shed.load(Ordering::Relaxed),
            backends: self
                .backends
                .iter()
                .map(|b| BackendStatus {
                    name: b.cfg.name.clone(),
                    socket: b.cfg.socket.display().to_string(),
                    healthy: b.healthy.load(Ordering::Relaxed),
                    queue_depth: b.queue_depth.load(Ordering::Relaxed),
                    forwarded: b.forwarded.load(Ordering::Relaxed),
                    failovers: b.failovers.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// One routed job the router is tracking: where it lives now and what
/// to resubmit if that shard dies.
struct JobEntry {
    spec: JobSpec,
    ctx: TraceCtx,
    backend: usize,
    backend_id: u64,
    /// Backends already tried (including the current one); failover
    /// never returns to these.
    tried: Vec<usize>,
}

/// Outcome of driving one routed job forward.
enum JobStep {
    Done(Box<JobResult>),
    Pending,
    Lost(String),
}

/// The reactor handler implementing the routing tier.
pub struct Router {
    shared: Arc<Shared>,
    ring: Ring,
    retry_after_ms: u32,
    /// Persistent forwarding connection per backend, rebuilt on error.
    conns: Vec<Option<UnixStream>>,
    jobs: HashMap<u64, JobEntry>,
    next_id: u64,
    waits: Vec<(Token, u64)>,
}

/// The store's content-address key projected onto what the router can
/// see pre-compile: benchmark × opt level × engine. Two submits of the
/// same module at the same level land on the same shard, whose
/// artifact store then serves the warm hit.
fn route_key(spec: &JobSpec) -> Vec<u8> {
    format!(
        "{}|{}|{}",
        spec.benchmark,
        level_byte(spec.level),
        spec.engine.code()
    )
    .into_bytes()
}

/// One blocking request/response exchange on an established stream.
fn exchange(stream: &mut UnixStream, req: &Request) -> io::Result<Response> {
    write_frame(stream, &req.encode())?;
    let payload = read_frame(stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "backend hung up"))?;
    Ok(Response::decode(&payload)?)
}

impl Router {
    /// Builds the routing tier and spawns its probe thread. The probe
    /// thread stops (and is detached) when the router is dropped.
    pub fn new(cfg: &RouterConfig) -> Router {
        let shared = Arc::new(Shared {
            backends: cfg
                .backends
                .iter()
                .map(|b| BackendState {
                    cfg: b.clone(),
                    healthy: AtomicBool::new(false),
                    queue_depth: AtomicU64::new(0),
                    forwarded: AtomicU64::new(0),
                    failovers: AtomicU64::new(0),
                    breaker: Mutex::new(Breaker::new(cfg.breaker)),
                })
                .collect(),
            watermark: cfg.watermark,
            shed: AtomicU64::new(0),
            stop_probes: AtomicBool::new(false),
        });
        spawn_probes(Arc::clone(&shared), cfg.probe_interval);
        let labels: Vec<String> = cfg.backends.iter().map(|b| b.name.clone()).collect();
        Router {
            shared,
            ring: Ring::new(&labels),
            retry_after_ms: cfg.retry_after_ms,
            conns: cfg.backends.iter().map(|_| None).collect(),
            jobs: HashMap::new(),
            next_id: 1,
            waits: Vec::new(),
        }
    }

    /// The fleet report served to `Backends` requests.
    pub fn report(&self) -> BackendsReport {
        self.shared.report()
    }

    /// Forwards one request to backend `idx` over its persistent
    /// connection, reconnecting once on a broken stream.
    fn forward(&mut self, idx: usize, req: &Request) -> io::Result<Response> {
        if self.conns[idx].is_none() {
            self.conns[idx] = Some(UnixStream::connect(&self.shared.backends[idx].cfg.socket)?);
        }
        let stream = self.conns[idx].as_mut().expect("connected above");
        match exchange(stream, req) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                // The persistent stream may simply be stale (backend
                // restarted); one fresh connect decides whether the
                // backend is actually gone.
                self.conns[idx] = None;
                let mut fresh = UnixStream::connect(&self.shared.backends[idx].cfg.socket)
                    .map_err(|_| e)?;
                let resp = exchange(&mut fresh, req)?;
                self.conns[idx] = Some(fresh);
                Ok(resp)
            }
        }
    }

    /// Routes a submit across the ring replicas for its key, skipping
    /// open breakers and failing over past dead backends. Returns the
    /// response to send the client.
    fn route_submit(&mut self, spec: JobSpec, ctx: TraceCtx) -> Response {
        let depth = self.shared.aggregate_depth();
        if depth >= self.shared.watermark {
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            return Response::Busy(self.retry_after_ms);
        }
        let order = self.ring.replicas(&route_key(&spec));
        let mut tried = Vec::new();
        for idx in order {
            tried.push(idx);
            if !self.shared.backends[idx].admit() {
                // Open breaker: fail over without spending a connect.
                self.shared.backends[idx]
                    .failovers
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match self.forward(idx, &Request::Submit(spec.clone(), ctx)) {
                Ok(Response::Submitted(backend_id)) => {
                    self.shared.backends[idx].record(true);
                    self.shared.backends[idx]
                        .forwarded
                        .fetch_add(1, Ordering::Relaxed);
                    let id = self.next_id;
                    self.next_id += 1;
                    self.jobs.insert(
                        id,
                        JobEntry {
                            spec,
                            ctx,
                            backend: idx,
                            backend_id,
                            tried,
                        },
                    );
                    return Response::Submitted(id);
                }
                Ok(other) => {
                    // The backend answered but refused (Err) or spoke
                    // nonsense — don't breaker-trip protocol refusals,
                    // but don't queue the job there either.
                    obs::warn!(
                        "backend {} refused submit: {:?}",
                        self.shared.backends[idx].cfg.name,
                        other
                    );
                    self.shared.backends[idx]
                        .failovers
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    obs::warn!(
                        "backend {} unreachable on submit: {e}",
                        self.shared.backends[idx].cfg.name
                    );
                    self.shared.backends[idx].record(false);
                    self.shared.backends[idx]
                        .failovers
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Response::Err("router: no healthy backend accepted the job".to_string())
    }

    /// Drives one tracked job a step forward: polls its current shard,
    /// and on a dead shard resubmits the saved spec to the next
    /// untried replica.
    fn step_job(&mut self, id: u64) -> JobStep {
        let Some(entry) = self.jobs.get(&id) else {
            return JobStep::Lost(format!("router: unknown job id {id}"));
        };
        let (backend, backend_id) = (entry.backend, entry.backend_id);
        match self.forward(backend, &Request::Poll(backend_id)) {
            Ok(Response::Result(mut res)) => {
                self.shared.backends[backend].record(true);
                self.jobs.remove(&id);
                res.id = id;
                JobStep::Done(Box::new(res))
            }
            Ok(Response::Pending) => {
                self.shared.backends[backend].record(true);
                JobStep::Pending
            }
            Ok(other) => {
                // A shard that restarted forgets its ids and answers
                // Pending=never / Err — treat like a dead shard and
                // resubmit elsewhere.
                obs::warn!(
                    "backend {} lost job {backend_id}: {other:?}",
                    self.shared.backends[backend].cfg.name
                );
                self.resubmit(id)
            }
            Err(e) => {
                obs::warn!(
                    "backend {} unreachable on poll: {e}",
                    self.shared.backends[backend].cfg.name
                );
                self.shared.backends[backend].record(false);
                self.resubmit(id)
            }
        }
    }

    /// Moves a stranded job to the next untried ring replica.
    fn resubmit(&mut self, id: u64) -> JobStep {
        let Some(entry) = self.jobs.get(&id) else {
            return JobStep::Lost(format!("router: unknown job id {id}"));
        };
        let (spec, ctx) = (entry.spec.clone(), entry.ctx);
        let order = self.ring.replicas(&route_key(&spec));
        let dead = entry.backend;
        let tried = entry.tried.clone();
        self.shared.backends[dead]
            .failovers
            .fetch_add(1, Ordering::Relaxed);
        for idx in order {
            if tried.contains(&idx) || !self.shared.backends[idx].admit() {
                continue;
            }
            match self.forward(idx, &Request::Submit(spec.clone(), ctx)) {
                Ok(Response::Submitted(backend_id)) => {
                    self.shared.backends[idx].record(true);
                    self.shared.backends[idx]
                        .forwarded
                        .fetch_add(1, Ordering::Relaxed);
                    let entry = self.jobs.get_mut(&id).expect("entry exists");
                    entry.backend = idx;
                    entry.backend_id = backend_id;
                    entry.tried.push(idx);
                    return JobStep::Pending;
                }
                Ok(_) | Err(_) => {
                    self.shared.backends[idx].record(false);
                    continue;
                }
            }
        }
        self.jobs.remove(&id);
        JobStep::Lost(format!(
            "router: job {id} lost (shard died, no untried replica left)"
        ))
    }

    /// Aggregates `Stats` across reachable shards: counters, times and
    /// worker counts sum; uptime is the oldest shard's, so the fleet's
    /// utilization is busy time over that uptime times every worker.
    fn aggregate_stats(&mut self) -> Response {
        let mut sum = svc::scheduler::SvcStats::default();
        for idx in 0..self.shared.backends.len() {
            if let Ok(Response::Stats(s)) = self.forward(idx, &Request::Stats) {
                sum.submitted += s.submitted;
                sum.completed += s.completed;
                sum.ok += s.ok;
                sum.failed += s.failed;
                sum.panicked += s.panicked;
                sum.timed_out += s.timed_out;
                sum.cold_compiles += s.cold_compiles;
                sum.cold_compile_s += s.cold_compile_s;
                sum.warm_loads += s.warm_loads;
                sum.warm_load_s += s.warm_load_s;
                sum.workers += s.workers;
                sum.uptime_s = sum.uptime_s.max(s.uptime_s);
                sum.busy_s += s.busy_s;
                if let Some(st) = s.store {
                    let agg = sum.store.get_or_insert_with(Default::default);
                    agg.hits += st.hits;
                    agg.misses += st.misses;
                    agg.puts += st.puts;
                    agg.evictions += st.evictions;
                    agg.corrupt_rejected += st.corrupt_rejected;
                }
            }
        }
        Response::Stats(sum)
    }

    /// Aggregates `Health` across reachable shards: resilience counters
    /// and queue depths sum; per-engine breakers and fault sites are
    /// per-shard detail and stay empty here (the `Backends` reply is
    /// the router-level health surface).
    fn aggregate_health(&mut self) -> Response {
        let mut sum = HealthReport::default();
        for idx in 0..self.shared.backends.len() {
            if let Ok(Response::Health(h)) = self.forward(idx, &Request::Health) {
                sum.resilience.retries += h.resilience.retries;
                sum.resilience.compile_fallbacks += h.resilience.compile_fallbacks;
                sum.resilience.store_repairs += h.resilience.store_repairs;
                sum.resilience.breaker_fast_fails += h.resilience.breaker_fast_fails;
                sum.queue_depth += h.queue_depth;
                sum.peak_queue_depth += h.peak_queue_depth;
            }
        }
        Response::Health(sum)
    }
}

impl Handler for Router {
    fn handle(&mut self, token: Token, payload: &[u8]) -> Action {
        let response = match Request::decode(payload) {
            Err(e) => Response::Err(e.to_string()),
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Submit(spec, ctx)) => self.route_submit(spec, ctx),
            Ok(Request::Poll(id)) => match self.step_job(id) {
                JobStep::Done(res) => Response::Result(*res),
                JobStep::Pending => Response::Pending,
                JobStep::Lost(msg) => Response::Err(msg),
            },
            Ok(Request::Wait(id)) => {
                if self.jobs.contains_key(&id) {
                    self.waits.push((token, id));
                    return Action::Park;
                }
                Response::Err(format!("router: unknown job id {id}"))
            }
            Ok(Request::Stats) => self.aggregate_stats(),
            Ok(Request::Health) => self.aggregate_health(),
            Ok(Request::Backends) => Response::Backends(self.report()),
            Ok(Request::Series(_)) => per_shard_err("series"),
            Ok(Request::TraceDump) => per_shard_err("trace-dump"),
            Ok(Request::Shutdown) => {
                // Stop the router only; shards are drained individually
                // (docs/OPERATIONS.md). Parked waits on *other*
                // connections are dropped with the reactor.
                return Action::Bye(Response::Bye.encode());
            }
        };
        Action::Respond(response.encode())
    }

    fn tick(&mut self, done: &mut Vec<(Token, Resolution)>) {
        if self.waits.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.waits);
        for (token, id) in parked {
            match self.step_job(id) {
                JobStep::Done(res) => done.push((
                    token,
                    Resolution::Respond(Response::Result(*res).encode()),
                )),
                JobStep::Pending => self.waits.push((token, id)),
                JobStep::Lost(msg) => {
                    done.push((token, Resolution::Respond(Response::Err(msg).encode())))
                }
            }
        }
    }

    fn conn_closed(&mut self, conn: u64) {
        self.waits.retain(|(token, _)| token.conn != conn);
    }

    /// Parked `Wait`s resolve only by polling their shards from the
    /// tick, so they keep the reactor on its short timer — until the
    /// backend streams join the reactor's poll set (ROADMAP 6(a)) and
    /// a shard's reply can wake it instead.
    fn parked(&self) -> bool {
        !self.waits.is_empty()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shared.stop_probes.store(true, Ordering::Relaxed);
    }
}

fn per_shard_err(what: &str) -> Response {
    Response::Err(format!(
        "router: {what} is per-shard; query a shard socket directly (see docs/DEPLOYMENT.md)"
    ))
}

/// Background health probes: one thread, fresh connections (never the
/// reactor's forwarding streams), sending the `Health` request.
fn spawn_probes(shared: Arc<Shared>, interval: Duration) {
    std::thread::spawn(move || {
        while !shared.stop_probes.load(Ordering::Relaxed) {
            for b in &shared.backends {
                let health = svc::server::Client::connect(&b.cfg.socket)
                    .and_then(|mut c| c.health());
                match health {
                    Ok(h) => {
                        b.queue_depth.store(h.queue_depth, Ordering::Relaxed);
                        b.healthy.store(true, Ordering::Relaxed);
                        b.breaker.lock().expect("breaker lock").record(true);
                    }
                    Err(_) => {
                        b.healthy.store(false, Ordering::Relaxed);
                        // Probes observe but don't trip the breaker:
                        // tripping is reserved for real forwarding
                        // failures so a slow-to-start shard isn't
                        // penalized before it ever takes traffic.
                    }
                }
            }
            std::thread::sleep(interval);
        }
    });
}

/// Binds `path` and serves the routing tier on the shared reactor until
/// a client sends `Shutdown`. Socket hygiene matches `wabench-served`:
/// stale socket files are replaced, live ones refuse the bind, and the
/// file is unlinked on every exit path.
///
/// # Errors
///
/// I/O errors binding or polling the socket.
pub fn serve(path: &Path, cfg: &RouterConfig) -> io::Result<()> {
    let listener = bind_socket(path)?;
    let _guard = SocketGuard::new(path);
    let mut handler = Router::new(cfg);
    svc::reactor::run(&listener, &mut handler)
}
