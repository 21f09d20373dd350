//! The four workloads: which cells each one runs and how `--seed` turns
//! the fixed cell list into a job order, an arrival schedule and trace ids.
//!
//! The *cells* of a workload are fixed: a program draw that changed with
//! the seed would move every metric by far more than any bound (programs
//! differ 30× in cost), so two seeds could never be compared. The seed
//! decides what a load generator is free to decide: the order jobs are
//! submitted in, when open-loop jobs are due, and the trace ids.

use engines::{Backend, EngineKind};
use load::rng::Rng;
use suite::Group;
use svc::job::{JobMode, JobSpec, Scale};
use wacc::OptLevel;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Engine dispatch loops: 8 programs × 5 engines at profile scale.
    ExecBatch,
    /// Compile pipeline and store writes: every job misses a fresh store.
    CompileCold,
    /// The architectural simulator: profiled jobs with exact counters.
    ArchProfiled,
    /// The serving path: a `wabench-served` child answering store hits.
    ServeWarm,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 4] = [
        Workload::ExecBatch,
        Workload::CompileCold,
        Workload::ArchProfiled,
        Workload::ServeWarm,
    ];

    /// The manifest name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExecBatch => "exec_batch",
            Workload::CompileCold => "compile_cold",
            Workload::ArchProfiled => "arch_profiled",
            Workload::ServeWarm => "serve_warm",
        }
    }

    /// Parses a manifest name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fixed cell list of one round, in a canonical order.
    pub fn cells(self) -> Vec<JobSpec> {
        match self {
            Workload::ExecBatch => exec_batch_cells(),
            Workload::CompileCold => compile_cold_cells(),
            Workload::ArchProfiled => arch_profiled_cells(),
            Workload::ServeWarm => serve_warm_cells(),
        }
    }
}

/// `exec_batch` programs, one stratum per suite group so every kind of
/// inner loop is present: a hash table (JetStream2), integer bit
/// twiddling and byte scanning (MiBench), four dense/stencil float
/// kernels (PolyBench) and a whole application. Chosen so one round of
/// 40 jobs is about a second on two workers.
pub const EXEC_BATCH_PROGRAMS: [&str; 8] = [
    "hashset",
    "sha",
    "stringsearch",
    "gemm",
    "lu",
    "jacobi-2d",
    "floyd-warshall",
    "bzip2",
];

/// `arch_profiled` programs: the cheapest member of each group that has
/// one cheap enough (profiling slows a job 5–16×), so a round of 36
/// simulated jobs still fits several times into a run.
pub const ARCH_PROFILED_PROGRAMS: [&str; 6] =
    ["basicmath", "nussinov", "trmm", "lu", "cholesky", "whitedb"];

/// The three compiling tiers `compile_cold` exercises, one engine each.
pub const COMPILE_COLD_ENGINES: [EngineKind; 3] = [
    EngineKind::Wasmtime,
    EngineKind::Wavm,
    EngineKind::Wasmer(Backend::Singlepass),
];

/// The engines `serve_warm` loads artifacts for (the default
/// configuration of each compiling runtime).
pub const SERVE_WARM_ENGINES: [EngineKind; 3] = [
    EngineKind::Wasmtime,
    EngineKind::Wavm,
    EngineKind::Wasmer(Backend::Cranelift),
];

/// The 34 programs whose test-scale run is about a millisecond
/// (PolyBench and JetStream2), so compile or load cost is not drowned by
/// execution.
pub fn light_programs() -> Vec<&'static str> {
    suite::all()
        .iter()
        .filter(|b| matches!(b.group, Group::PolyBench | Group::JetStream2))
        .map(|b| b.name)
        .collect()
}

fn spec(
    benchmark: &str,
    engine: EngineKind,
    level: OptLevel,
    scale: Scale,
    mode: JobMode,
    warm: bool,
) -> JobSpec {
    JobSpec {
        benchmark: benchmark.to_string(),
        engine,
        level,
        scale,
        mode,
        warm,
    }
}

fn exec_batch_cells() -> Vec<JobSpec> {
    let mut cells = Vec::new();
    for name in EXEC_BATCH_PROGRAMS {
        for engine in EngineKind::all() {
            cells.push(spec(
                name,
                engine,
                OptLevel::O2,
                Scale::Profile,
                JobMode::Exec,
                false,
            ));
        }
    }
    cells
}

fn compile_cold_cells() -> Vec<JobSpec> {
    let mut cells = Vec::new();
    for name in light_programs() {
        for engine in COMPILE_COLD_ENGINES {
            for level in OptLevel::all() {
                // warm=true with an empty store: look up, miss, compile,
                // precompile, put.
                cells.push(spec(name, engine, level, Scale::Test, JobMode::Exec, true));
            }
            cells.push(spec(
                name,
                engine,
                OptLevel::O2,
                Scale::Test,
                JobMode::ExecAot,
                false,
            ));
        }
    }
    cells
}

fn arch_profiled_cells() -> Vec<JobSpec> {
    let mut cells = Vec::new();
    for name in ARCH_PROFILED_PROGRAMS {
        for engine in EngineKind::all() {
            cells.push(spec(
                name,
                engine,
                OptLevel::O2,
                Scale::Profile,
                JobMode::Profiled,
                false,
            ));
        }
        // The engine field is ignored by the native baseline.
        cells.push(spec(
            name,
            EngineKind::Wavm,
            OptLevel::O2,
            Scale::Profile,
            JobMode::ProfiledNative,
            false,
        ));
    }
    cells
}

fn serve_warm_cells() -> Vec<JobSpec> {
    let mut cells = Vec::new();
    for name in light_programs() {
        for engine in SERVE_WARM_ENGINES {
            cells.push(spec(
                name,
                engine,
                OptLevel::O2,
                Scale::Test,
                JobMode::Exec,
                true,
            ));
        }
    }
    cells
}

/// Salt of the job-order stream (disjoint from `load`'s arrival, mix and
/// trace-id salts).
const ORDER_SALT: u64 = 0x0b_e7c4;

/// The order round `round` submits its `n` cells in: a Fisher–Yates
/// shuffle that is a pure function of `(seed, round)`.
pub fn round_order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed, ORDER_SALT ^ round);
    for i in (1..n).rev() {
        order.swap(i, rng.next_index(i + 1));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_lists_have_the_documented_shape() {
        assert_eq!(light_programs().len(), 34);
        assert_eq!(Workload::ExecBatch.cells().len(), 40);
        assert_eq!(Workload::CompileCold.cells().len(), 34 * 3 * 5);
        assert_eq!(Workload::ArchProfiled.cells().len(), 36);
        assert_eq!(Workload::ServeWarm.cells().len(), 102);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for cell in w.cells() {
                assert!(
                    suite::by_name(&cell.benchmark).is_some(),
                    "{}",
                    cell.benchmark
                );
            }
        }
        assert_eq!(Workload::parse("serve_routed"), None);
    }

    #[test]
    fn same_seed_same_job_list_other_seed_other_list() {
        let a = round_order(12, 0, 40);
        assert_eq!(a, round_order(12, 0, 40));
        assert_ne!(a, round_order(13, 0, 40));
        assert_ne!(a, round_order(12, 1, 40));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn arrival_schedules_follow_the_seed() {
        let a = load::arrivals::schedule(12, 1, 200, 150.0);
        assert_eq!(a, load::arrivals::schedule(12, 1, 200, 150.0));
        assert_ne!(a, load::arrivals::schedule(13, 1, 200, 150.0));
        assert_eq!(
            load::traces::trace_ids(12, 0, 8),
            load::traces::trace_ids(12, 0, 8)
        );
    }
}
