//! The `--jobs N` warm pass: runs each experiment's measurement matrix
//! through the `wabench-svc` scheduler and stores the clean results in
//! the [`crate::runner`] memo.
//!
//! A scheduler worker and an inline measurement both end in
//! [`svc::exec::execute`], so a pre-filled cell is the value a serial
//! run would have measured for it. The table-assembly code in
//! [`crate::experiments`] iterates benchmarks and engines in the same
//! deterministic order either way and finds its cells already in the
//! memo: tables come out structurally identical to a serial run — same
//! rows, same columns, same ordering — regardless of how the jobs
//! interleaved across workers. Simulated experiments (fig6–fig9) are
//! bit-identical too, because the architectural simulator is
//! deterministic.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fault::FaultPlan;
use svc::job::{JobMode, JobResult, JobSpec};
use svc::scheduler::{Config, ResilienceStats, Scheduler};

use crate::matrix::{self, MatrixCell};
use crate::runner::{self, Scale};

/// The jobs an experiment will measure, deduplicated across experiments
/// (fig1, fig3 and fig4 share their O2 JIT runs, the four simulated
/// figures share all their profiled runs): the figure's
/// [`matrix::preset`] plus the baselines its tables divide by.
fn specs_for(id: &str, scale: Scale, seen: &mut HashSet<JobSpec>) -> Vec<JobSpec> {
    let name = if crate::is_simulated(id) { "arch" } else { id };
    // fig5 (memory) has no preset: it is measured outside the memo, and
    // warming it would change what the experiment measures.
    let mut cells = Vec::new();
    for cell in matrix::preset(name).unwrap_or_default() {
        match cell.mode {
            // An AOT speedup is relative to the same engine's JIT run.
            JobMode::ExecAot => cells.push(MatrixCell {
                mode: JobMode::Exec,
                ..cell
            }),
            // Simulated counters are normalized to the native baseline
            // (one per benchmark; `seen` drops the repeats).
            JobMode::Profiled => cells.push(MatrixCell {
                engine: runner::NATIVE_ENGINE,
                mode: JobMode::ProfiledNative,
                ..cell
            }),
            _ => {}
        }
        cells.push(cell);
    }
    let mut specs: Vec<JobSpec> = cells.iter().map(|c| c.spec(scale, false)).collect();
    specs.retain(|spec| seen.insert(spec.clone()));
    specs
}

/// Options for [`run_batch`] and [`warm_matrix_opts`]: worker count
/// plus the resilience knobs the chaos path uses.
#[derive(Debug, Clone, Default)]
pub struct WarmOptions {
    /// Scheduler worker threads.
    pub jobs: usize,
    /// Deterministic fault-injection plan (chaos mode). With a plan
    /// armed, failed and degraded cells are *skipped* instead of
    /// aborting the run — table assembly remeasures them inline and
    /// fault-free, so figures stay bit-identical to a fault-free run.
    pub faults: Option<Arc<FaultPlan>>,
    /// Artifact-store directory for the warm pass (`None` = in-memory
    /// only). Reusing a directory across runs exercises store
    /// corruption detection and repair.
    pub store_dir: Option<PathBuf>,
}

/// What a warm pass did: how much of the matrix it pre-filled, which
/// cells were recovered-but-degraded or failed (left for the inline
/// path), and the scheduler's resilience counters.
#[derive(Debug, Clone, Default)]
pub struct WarmSummary {
    /// Jobs executed.
    pub jobs: usize,
    /// Clean results stored in the runner memo.
    pub primed: usize,
    /// Cells that succeeded through a degradation path (interpreter
    /// fallback); never stored, so table assembly remeasures them.
    pub degraded: Vec<String>,
    /// Cells that failed even after retries; table assembly measures
    /// them from scratch.
    pub failed: Vec<String>,
    /// Scheduler resilience counters (retries, fallbacks, repairs,
    /// breaker fast-fails).
    pub resilience: ResilienceStats,
    /// Total faults the plan injected across all sites (0 without a
    /// plan).
    pub injected: u64,
}

/// Runs the measurement matrices for `ids` through a `jobs`-worker
/// scheduler and stores every result in the runner memo. Returns the
/// number of jobs executed.
///
/// # Panics
///
/// Panics if any job fails — a failed measurement (bad compile, wrong
/// checksum) would also abort a serial run, just later.
pub fn warm_matrix(ids: &[(&str, Scale)], jobs: usize) -> usize {
    warm_matrix_opts(
        ids,
        &WarmOptions {
            jobs,
            ..WarmOptions::default()
        },
    )
    .jobs
}

/// [`warm_matrix`] with resilience options. Only *clean* results enter
/// the memo: degraded cells measured the wrong tier and failed cells
/// produced nothing, so both are skipped and measured inline later —
/// output tables stay correct (and simulated figures bit-identical)
/// under any fault plan.
///
/// # Panics
///
/// Without a fault plan, panics if any job fails (matching
/// [`warm_matrix`]). With a plan armed, failures are expected and
/// reported in the summary instead.
pub fn warm_matrix_opts(ids: &[(&str, Scale)], opts: &WarmOptions) -> WarmSummary {
    let _span = obs::span!("harness.warm_matrix", jobs = opts.jobs, figures = ids.len());
    let mut seen = HashSet::new();
    let mut specs = Vec::new();
    for (id, scale) in ids {
        specs.extend(specs_for(id, *scale, &mut seen));
    }
    let mut summary = WarmSummary::default();
    if specs.is_empty() {
        return summary;
    }
    let (results, resilience) = run_batch(&specs, opts).unwrap_or_else(|e| panic!("parallel {e}"));

    summary.jobs = results.len();
    for res in results {
        if !res.ok() {
            obs::warn!("chaos: job failed, will be measured inline: {}", res.spec);
            summary.failed.push(res.spec.to_string());
            continue;
        }
        if res.degraded() {
            // Correct checksum, wrong tier: the timings would poison the
            // figure, so leave the cell for the clean inline path.
            obs::warn!("chaos: degraded cell not primed: {}", res.spec);
            summary.degraded.push(res.spec.to_string());
            continue;
        }
        runner::insert(res);
        summary.primed += 1;
    }
    summary.resilience = resilience;
    summary.injected = opts.faults.as_ref().map_or(0, |p| p.injected_total());
    summary
}

/// Runs `specs` on a fresh scheduler sized and armed by `opts` and
/// returns their results in submission order with the scheduler's
/// resilience counters: the one start → submit → drain loop behind the
/// warm pass and `wabench-harness run --jobs N`.
///
/// # Errors
///
/// The scheduler failing to start, or — without a fault plan, where
/// every job must succeed — the first failed job.
pub fn run_batch(
    specs: &[JobSpec],
    opts: &WarmOptions,
) -> Result<(Vec<JobResult>, ResilienceStats), String> {
    let sched = Scheduler::start(Config {
        workers: opts.jobs,
        timeout: Duration::from_secs(600),
        store_dir: opts.store_dir.clone(),
        store_cap_bytes: if opts.store_dir.is_some() { 256 << 20 } else { 0 },
        faults: opts.faults.clone(),
        ..Config::default()
    })
    .map_err(|e| format!("scheduler: {e}"))?;
    for spec in specs {
        sched.submit(spec.clone());
    }
    let results = sched.drain_sorted();
    if opts.faults.is_none() {
        if let Some(bad) = results.iter().find(|r| !r.ok()) {
            return Err(format!("job failed: {} — {:?}", bad.spec, bad.status));
        }
    }
    Ok((results, sched.resilience()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::EngineKind;
    use wacc::OptLevel;

    #[test]
    fn matrices_deduplicate_shared_runs() {
        let mut seen = HashSet::new();
        let fig1 = specs_for("fig1", Scale::Test, &mut seen);
        assert_eq!(fig1.len(), suite::all().len() * 5);
        // fig3's O2 JIT Exec runs are already covered by fig1; only the
        // AOT half remains.
        let fig3 = specs_for("fig3", Scale::Test, &mut seen);
        assert_eq!(fig3.len(), suite::all().len() * 3);
        assert!(fig3.iter().all(|s| s.mode == JobMode::ExecAot));
        // The four simulated figures share one profiled matrix.
        let fig6 = specs_for("fig6", Scale::Test, &mut seen);
        assert_eq!(fig6.len(), suite::all().len() * 6);
        assert!(specs_for("fig7", Scale::Test, &mut seen).is_empty());
        assert!(specs_for("fig8", Scale::Test, &mut seen).is_empty());
        assert!(specs_for("fig9", Scale::Test, &mut seen).is_empty());
    }

    #[test]
    fn one_memo_serves_inline_and_warm_results() {
        // Inline: the first call measures, the second is a hit —
        // identical down to the bit.
        let crc = suite::by_name("crc32").unwrap();
        let t1 = runner::run_engine(crc, EngineKind::Wasm3, OptLevel::O1, Scale::Test);
        let t2 = runner::run_engine(crc, EngineKind::Wasm3, OptLevel::O1, Scale::Test);
        assert_eq!(t1.compile_s.to_bits(), t2.compile_s.to_bits());
        assert_eq!(t1.exec_s.to_bits(), t2.exec_s.to_bits());
        assert!(t1.total() > 0.0);

        // Warm: the accessor returns what the scheduler measured (its
        // ids start at 1; an inline result carries 0), not a remeasure.
        let n_jobs = warm_matrix(&[("fig2", Scale::Test)], 4);
        assert_eq!(n_jobs, suite::all().len() * 3);
        let cell = matrix::preset("fig2").unwrap()[0];
        let warm = runner::measure(&cell.spec(Scale::Test, false));
        assert_ne!(warm.id, 0, "cell was remeasured inline");
        let b = suite::by_name(cell.benchmark).unwrap();
        let t = runner::run_engine(b, cell.engine, cell.level, Scale::Test);
        assert_eq!(t.compile_s.to_bits(), warm.compile_s.to_bits());
        assert_eq!(t.exec_s.to_bits(), warm.exec_s.to_bits());
    }

    /// The bit-identity the simulated figures rely on: a cell profiled
    /// inline and the same cell profiled by a scheduler worker retire
    /// the same counters.
    #[test]
    fn inline_and_scheduled_profiles_agree() {
        let spec = JobSpec {
            mode: JobMode::Profiled,
            ..JobSpec::exec("gemm", EngineKind::Wasmtime, OptLevel::O1, Scale::Test)
        };
        let inline = runner::measure(&spec).counters;
        assert!(inline.is_some_and(|c| c.instructions > 0));
        let sched = Scheduler::start(Config {
            workers: 2,
            ..Config::default()
        })
        .expect("start scheduler");
        sched.submit(spec.clone());
        sched.submit(spec);
        let results = sched.drain_sorted();
        sched.shutdown();
        assert_eq!(results.len(), 2);
        for res in results {
            assert!(res.ok(), "{:?}", res.status);
            assert_eq!(res.counters, inline);
        }
    }
}
