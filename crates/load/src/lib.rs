//! # load — open-loop load generation and tail-latency suites
//!
//! The paper characterizes runtimes one execution at a time; this crate
//! answers the serving question the ROADMAP's north star asks: *what
//! QPS does the stack sustain at a p99 SLO?* It drives a
//! `wabench-served` daemon or a `wabench-router` over its Unix socket
//! with an **open-loop** workload:
//!
//! - **Seeded Poisson arrivals** ([`arrivals`]): submission times are
//!   drawn ahead of time from a [`fault::mix64`]-based stream, so a run
//!   is a pure function of its `--seed` (like `wabench-fault` plans).
//! - **Figure-matrix job mixes** ([`mix`]): traffic is sampled from the
//!   fig1–fig9 engine×level×mode matrices via [`harness::matrix`], at a
//!   chosen scale, in cold-store and warm-store phases.
//! - **Coordinated-omission-safe latency** ([`run`]): latency is
//!   recorded from each job's *intended* arrival time, never its send
//!   time, into [`obs::metrics::Histogram`]s — a stalled worker makes
//!   the recorded tail worse, it cannot pause the clock.
//! - **End-to-end request traces** ([`traces`]): every submit carries a
//!   deterministic client-originated trace id; each job's client-side
//!   `submit → response` span is stitched against the server timeline
//!   its own result carries into one Chrome trace, through a router as
//!   well as against one shard.
//!
//! A run reports its totals and per-cell latency on stdout and exits
//! nonzero when it was unhealthy; it writes no artifact. Performance is
//! measured, recorded and gated in one place, the repo benchmark
//! (`benchmark/README.md`), which links only [`rng`], [`arrivals`] and
//! [`traces`] from this crate.

#![warn(missing_docs)]

pub mod arrivals;
pub mod mix;
pub mod rng;
pub mod run;
pub mod traces;

use svc::job::Scale;

/// The CLI spelling of a scale (matches `Scale::parse`).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Profile => "profile",
        Scale::Timing => "timing",
    }
}
