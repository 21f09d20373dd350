//! # svc — the wabench execution service
//!
//! The paper treats standalone Wasm runtimes as *server-side*
//! infrastructure; this crate is the workspace's serving layer. It turns
//! the (benchmark × engine × opt-level) measurement matrix, which the
//! harness otherwise walks strictly serially, into schedulable **jobs**
//! executed by a worker pool, backed by a **content-addressed on-disk
//! artifact store** so repeated service traffic skips compilation.
//!
//! Three pieces:
//!
//! - [`store::ArtifactStore`] — an on-disk cache keyed by
//!   `(content hash, opt level, engine)` holding both compiled `.wasm`
//!   bytes from WaCC and engine AOT artifacts. Entries carry versioned
//!   headers and payload checksums; anything corrupt is rejected and
//!   dropped (AOT payloads additionally pass through the engines crate's
//!   untrusted `RegCode::try_new` path). The store is size-capped with
//!   LRU eviction.
//! - [`scheduler::Scheduler`] — a work queue plus worker pool. Engine
//!   state is `Rc`-based and deliberately **not** `Send`, so every job
//!   builds its engine instances on the thread that executes it; only
//!   `Send` data (wasm bytes, artifacts, results) crosses threads. Jobs
//!   get a hard per-job timeout and panic isolation: a checksum-mismatch
//!   panic fails that job's [`job::JobResult`], never the fleet.
//! - [`server`] — `wabench-served`, a Unix-domain-socket daemon speaking
//!   the length-prefixed binary protocol of [`proto`]
//!   (submit / poll / wait / stats / health), plus a blocking client.
//!
//! The service also carries a **resilience layer**
//! (see `docs/OPERATIONS.md`): the scheduler retries failed jobs with
//! exponential backoff under a per-job deadline, trips a per-engine
//! circuit breaker after repeated failures, falls back from a failing
//! JIT compile to the interpreter tier (surfaced as a *degraded*
//! result), and repairs corrupt artifact-store entries in place. The
//! whole layer is exercised deterministically through `wabench-fault`'s
//! seeded fault-injection plans (`WABENCH_FAULTS`).
//!
//! The service is also observable *live* (see
//! [`telemetry`]): submits carry a client-originated trace id, every
//! result returns a per-job span digest ([`job::TraceDigest`]), and the
//! `Series` / `TraceDump` requests serve a bounded time-series window
//! and the slow-request span trees that `wabench-served top`, `doctor`
//! and `trace-dump` read; a client stitches its own requests' timelines
//! from the results it already holds.
//!
//! The harness's `--jobs N` flag drives the fig1/fig4/fig7 measurement
//! matrices through the scheduler; assembly of the output tables stays
//! serial and ordered, so tables are independent of job completion
//! order.

#![warn(missing_docs)]

pub mod exec;
pub mod hash;
pub mod job;
pub mod proto;
#[cfg(unix)]
pub mod reactor;
pub mod scheduler;
#[cfg(unix)]
pub mod server;
pub mod store;
pub mod telemetry;
pub mod wire;

pub use job::{JobMode, JobResult, JobSpec, JobStatus, Outcome, Recovery, Scale, TraceCtx, TraceDigest};
pub use scheduler::{Config, HealthReport, ResilienceStats, RetryPolicy, Scheduler, SvcStats};
pub use store::{ArtifactKey, ArtifactStore, GetOutcome, StoreStats};
pub use telemetry::{SeriesReport, TraceReport};
