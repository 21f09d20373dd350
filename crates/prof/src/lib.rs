//! Profiling toolkit for the benchmark suite.
//!
//! The crate ties the observability layer ([`obs`]) and the
//! architectural simulator ([`archsim`]) into a workflow the paper's
//! own methodology section describes: profile a benchmark matrix and
//! attribute hardware-counter figures to execution phases.
//!
//! - [`measure`] runs one profiled benchmark × engine × opt-level cell
//!   and collects its wall time plus the deterministic simulator
//!   counters.
//! - [`workload`] captures a ring-buffer trace of a scheduler-driven
//!   job matrix for flamegraph export.
//! - [`collapse`] converts an exported Chrome trace back into folded
//!   stacks for `flamegraph.pl`-style tooling.
//!
//! The `wabench-prof` binary exposes all of this as `report`, `fold`
//! and `collapse`, plus `windows`/`wdiff` over a live daemon's
//! continuous profiler. It explains where time goes; it does not gate
//! on it — performance is measured and gated by the repo benchmark
//! (`benchmark/README.md`).

pub mod collapse;
pub mod measure;
pub mod workload;

pub use measure::{measure_cell, CellMeasurement, CellSpec};
