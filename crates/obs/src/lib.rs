//! # obs — tracing, metrics, and trace export for the wabench stack
//!
//! The paper's whole contribution is *measurement*; this crate makes the
//! reproduction's own internals measurable. Three pieces:
//!
//! - **Spans** ([`trace`], the [`span!`] macro): named, attributed,
//!   nested timing regions recorded into per-thread fixed-capacity ring
//!   buffers ([`ring`]) with a lock-free producer path. The default sink
//!   is [`trace::Sink::Null`]: a disabled [`span!`] costs one relaxed
//!   atomic load and touches nothing else, so plain timing runs stay
//!   bit-identical to uninstrumented ones.
//! - **Metrics** ([`metrics`]): counter, gauge and fixed-bucket latency
//!   histogram types with p50/p95/p99 summaries. Each is a field of the
//!   struct that owns the count — a scheduler's job metrics
//!   ([`series::JobMetrics`]), a load run's latency histograms — never
//!   a name in a process-global table.
//! - **Exporters**: Chrome trace-event JSON ([`chrome`], loadable in
//!   Perfetto / `chrome://tracing`), a `perf report`-style span
//!   profile ([`prof`]: self time per call path, with the optional
//!   [`trace::SpanCounters`] span payloads attributed beside it), and
//!   flamegraph folded stacks ([`folded`], self wall time), all nesting
//!   spans by one walk
//!   in [`prof`]; [`json`] carries the tiny parser the round-trip
//!   validators are built on.
//!
//! Live-telemetry pieces ride on those: a background sampler of the
//! service's job metrics feeding a bounded delta ring and the one
//! window merge over it ([`series`]) — job counts, latency, and the
//! engine × phase self-time profile alike — a threshold-gated
//! slow-request exemplar buffer ([`exemplar`]), a client/server
//! trace stitcher that places each request by its own clock bounds
//! ([`stitch`]). None of them run unless explicitly started, preserving
//! the bit-identical-when-off contract.
//!
//! There is also a leveled [`log!`] macro family (respecting
//! `WABENCH_LOG=error|warn|info|debug`, [`logger`]) that replaces the
//! scattered `eprintln!` progress lines in the binaries, and [`cli`],
//! the declarative command-line table every binary parses from.
//!
//! ```
//! obs::trace::install(obs::trace::Sink::Ring);
//! {
//!     let _outer = obs::span!("compile", module = "crc32");
//!     let _inner = obs::span!("pass", name = "const_fold");
//! }
//! let trace = obs::trace::drain();
//! let json = obs::chrome::export_string(&trace);
//! let summary = obs::chrome::validate(&json).unwrap();
//! assert!(summary.spans >= 2);
//! obs::trace::install(obs::trace::Sink::Null);
//! ```
//!
//! This crate deliberately depends on nothing in the workspace, so every
//! other crate (wacc, engines, svc, harness) can depend on it.

#![warn(missing_docs)]

pub mod chrome;
pub mod cli;
pub mod exemplar;
pub mod folded;
pub mod json;
pub mod logger;
pub mod metrics;
pub mod prof;
pub mod ring;
pub mod series;
pub mod stitch;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use trace::{SpanCounters, SpanEvent, SpanGuard, ThreadTrace, Trace};

/// Opens a timing span that ends when the returned guard drops.
///
/// `span!("name")` records just the name; `span!("name", key = expr,
/// ...)` formats the attributes with [`std::fmt::Display`] into a
/// `key=value` detail string — but only when tracing is enabled, so the
/// disabled path never allocates or formats.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name, || None)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::trace::SpanGuard::enter($name, || {
            let mut s = String::new();
            $(
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(concat!(stringify!($k), "="));
                {
                    use std::fmt::Write as _;
                    let _ = write!(s, "{}", $v);
                }
            )+
            Some(s.into_boxed_str())
        })
    };
}

/// Logs a line at the given [`logger::Level`] if `WABENCH_LOG` permits.
///
/// The default level is `info`, chosen so existing progress output is
/// preserved verbatim; `WABENCH_LOG=error` silences progress,
/// `WABENCH_LOG=debug` adds diagnostics. Setting `WABENCH_LOG_TS=1`
/// prefixes each line with seconds since the first logged line
/// ([`logger::prefix`]); without it the output is byte-identical to the
/// historical `eprintln!` lines.
#[macro_export]
macro_rules! log {
    ($lvl:expr, $($arg:tt)*) => {
        if $crate::logger::enabled($lvl) {
            eprintln!("{}{}", $crate::logger::prefix(), format_args!($($arg)*));
        }
    };
}

/// Logs at [`logger::Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log!($crate::logger::Level::Error, $($arg)*) };
}

/// Logs at [`logger::Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log!($crate::logger::Level::Warn, $($arg)*) };
}

/// Logs at [`logger::Level::Info`] (the default visibility threshold).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log!($crate::logger::Level::Info, $($arg)*) };
}

/// Logs at [`logger::Level::Debug`] (hidden unless `WABENCH_LOG=debug`).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log!($crate::logger::Level::Debug, $($arg)*) };
}
