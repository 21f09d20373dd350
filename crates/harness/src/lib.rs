//! # harness — experiment drivers
//!
//! Regenerates every table and figure of the paper's evaluation from the
//! systems built in this workspace. Each `experiments::fig*` function runs
//! the measurement and returns [`report::Report`]s; the `wabench-harness`
//! binary renders them and (with `all`) writes `EXPERIMENTS.md`.
//!
//! Absolute numbers differ from the paper's Xeon testbed (our substrate is
//! a simulator), but each report carries the paper's reported values in a
//! note so the *shape* can be compared directly.

#![warn(missing_docs)]

pub mod experiments;
pub mod matrix;
pub mod parallel;
pub mod report;
pub mod runner;
pub mod stats;

use report::Report;
use runner::Scale;

/// An experiment driver: runs at a scale, returns the reports it built.
pub type ExperimentFn = fn(Scale) -> Vec<Report>;

/// All experiment entry points, in paper order, with ids used by the CLI.
pub fn experiment_list() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("fig1", experiments::fig1 as ExperimentFn),
        ("fig2", experiments::fig2),
        ("fig3", experiments::fig3_table4),
        ("fig4", experiments::fig4),
        ("fig5", experiments::fig5),
        ("fig6", experiments::fig6),
        ("fig7", experiments::fig7),
        ("fig8", experiments::fig8_table5),
        ("fig9", experiments::fig9_fig10),
    ]
}

/// Whether an experiment uses the architectural simulator (these default
/// to a smaller scale; full workloads would take hours under simulation).
pub fn is_simulated(id: &str) -> bool {
    matches!(id, "fig6" | "fig7" | "fig8" | "fig9")
}

/// The "Static analysis & IR verification" section appended to
/// `EXPERIMENTS.md` by `wabench-harness all`, describing the guarantees
/// under which every number above was measured.
pub fn static_analysis_section() -> String {
    let verifying = if engines::jit::verify::enabled() {
        "was ON for this run"
    } else {
        "was OFF for this run (release build without `--features verify-ir`)"
    };
    format!(
        "### Static analysis & IR verification\n\n\
         Every compiled-tier measurement above was produced by a JIT\n\
         pipeline that is checkable after every pass: `wabench-analysis`\n\
         rebuilds the CFG of each lowered function and runs a reaching-defs\n\
         dataflow to reject use-before-def, dangling or mid-instruction\n\
         branch targets, malformed terminators, and any pass that drops or\n\
         reorders an observable side effect (stores, global writes,\n\
         `memory.grow`, calls). Verification {verifying}; it is always on in\n\
         debug builds, and its cost is accounted separately\n\
         (`PassStats::verify_ns`) so modeled compile work is never inflated.\n\n\
         Suite hygiene is enforced the same way at the source level:\n\
         `cargo run -p wabench-harness -- lint` sweeps all 50\n\
         WaCC programs for unused variables/functions, unreachable\n\
         statements, constant division by zero, and constant out-of-bounds\n\
         accesses, and exits nonzero on findings (`scripts/verify.sh` runs\n\
         it as part of the tier-1 gate).\n"
    )
}

/// The "Static analysis & check elimination" section appended to
/// `EXPERIMENTS.md` by `wabench-harness all`, describing the interval
/// analysis, the proof-carrying elimination pass, and how to regenerate
/// and read the audit report.
pub fn check_elimination_section() -> String {
    "### Static analysis & check elimination\n\n\
     On top of the verifier, `wabench-analysis` runs an interval\n\
     abstract interpretation over the lowered register IR (value ranges\n\
     per register, widening with thresholds plus two narrowing passes\n\
     for termination, and branch refinement so `if i < n` tightens `i`\n\
     on the taken edge). The Cranelift- and LLVM-analogue tiers use it to\n\
     eliminate runtime safety checks — bounds checks whose address\n\
     interval fits the declared minimum memory, division guards whose\n\
     divisor interval excludes zero (and, for signed division, excludes\n\
     the `INT_MIN / -1` overflow pair), and float-truncation guards\n\
     whose source interval fits the target width. Every elimination\n\
     records a machine-checkable proof obligation (the interval fact and\n\
     the guarded site); `jit::verify` re-derives each obligation from\n\
     scratch with an independent analysis run, so an unsound or tampered\n\
     proof is rejected rather than trusted, both after optimization and\n\
     when an AOT artifact is loaded (a serving process re-derives once\n\
     per distinct artifact and reuses that verdict only for byte-identical\n\
     reloads). The interpreter tiers consult the same facts at load\n\
     time: statically safe sites keep the host-side\n\
     check (defense in depth) but skip the modeled check cost, and the\n\
     skips are attributed via the `checks_skipped` simulated counter.\n\n\
     To see what the analysis proves on the suite, run\n\n\
     ```sh\n\
     cargo run --release -p wabench-harness -- audit --md\n\
     ```\n\n\
     which compiles all 50 programs at every opt level and reports, per\n\
     module: total checks, checks eliminated with proofs, residual\n\
     checks, blocks proven unreachable, sites proven to always trap, and\n\
     constant-address accesses. The run fails on any proof violation;\n\
     `scripts/verify.sh` gates on zero violations and a floor on\n\
     eliminated checks under `--features verify-ir`.\n"
        .to_string()
}

/// The "Observability" section appended to `EXPERIMENTS.md` by
/// `wabench-harness all`, describing how any number above can be broken
/// down into its compiler/engine/service phases.
pub fn observability_section() -> String {
    "### Observability\n\n\
     Every binary in this workspace is instrumented with `wabench-obs`\n\
     spans: WaCC passes (`wacc.parse`/`wacc.opt`/`wacc.pass`), engine\n\
     phases (`engine.decode`/`engine.validate`, per-tier `jit.compile`\n\
     and `jit.pass`, `engine.execute`), matrix cells and figures\n\
     (`svc.job.exec`, `harness.figure`), and scheduler phases\n\
     (`svc.queue.wait`, `svc.job.run`). Tracing is off by default and\n\
     the disabled path is one relaxed atomic load, so the numbers above\n\
     are bit-identical with or without the instrumentation compiled in.\n\n\
     To see where a run's time went, add `--trace-out trace.json` (a\n\
     Chrome trace-event file loadable in Perfetto or `chrome://tracing`)\n\
     or `--report` (a plain-text hierarchical self-time table, printed\n\
     to stderr) to `wabench-harness` or `wabench-harness run`. A\n\
     sample self-time report for `wabench-harness run crc32 --report`\n\
     attributes the run's wall clock to `engine.execute`, `jit.pass`,\n\
     `wacc.parse` and friends, with per-span counts, totals, and\n\
     self-time percentages. `wabench-served serve --trace-out` does the\n\
     same for the service; its\n\
     `stats` reply also carries the worker count, uptime, busy time\n\
     and utilization, summed over every shard when a router answers.\n"
        .to_string()
}

/// The "Profiling" section appended last to `EXPERIMENTS.md` by
/// `wabench-harness all`, mapping the attributed profile columns back
/// to the paper's figures.
pub fn profiling_section() -> String {
    "### Profiling\n\n\
     Two tools sit on the span rings described above.\n\
     `wabench-harness report` prints a `perf report`-style table per\n\
     phase: each attributed span row carries retired instructions, IPC,\n\
     and branch/L1D/L1I/LLC MPKI sampled from the architectural\n\
     simulator at span entry/exit. The columns map onto the paper's\n\
     architectural figures: instructions are the quantity behind\n\
     Figure 6, IPC behind Figure 7, branch MPKI behind Figure 8 and\n\
     Table 5, and L1 data/instruction and LLC MPKI behind Figures 9–10 —\n\
     but broken down per phase (compile vs. execute) instead of per\n\
     whole run. Any `--trace-out FILE` whose name ends in `.folded`\n\
     writes Brendan-Gregg folded stacks (`thread;span;span N`, weighted\n\
     by self wall nanoseconds) ready for `flamegraph.pl` instead of a\n\
     Chrome trace — `wabench-harness run crc32 --jobs 4 --trace-out\n\
     stacks.folded` profiles a job matrix through the scheduler. Both\n\
     views and the self-time table nest spans by one aggregator\n\
     (`obs::prof::aggregate`). These tools explain where time goes;\n\
     performance itself is measured and gated by the repo benchmark\n\
     (`benchmark/README.md`).\n"
        .to_string()
}

/// Aliases accepted by the CLI for individual tables/figures.
pub fn resolve_alias(name: &str) -> Option<&'static str> {
    Some(match name {
        "fig1" | "figure1" => "fig1",
        "fig2" | "fig11" => "fig2",
        "fig3" | "fig12" | "table4" => "fig3",
        "fig4" => "fig4",
        "fig5" | "fig13" => "fig5",
        "fig6" | "fig14" => "fig6",
        "fig7" => "fig7",
        "fig8" | "table5" => "fig8",
        "fig9" | "fig10" => "fig9",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    /// `wabench-harness all` rewrites EXPERIMENTS.md from the figures
    /// plus these generated sections, so anything after the last one
    /// was written by hand and would be lost on regeneration.
    /// (`static_analysis_section` is left out: its text depends on the
    /// `verify-ir` feature.)
    #[test]
    fn experiments_md_ends_with_the_generated_sections() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
        assert!(doc.contains(&super::check_elimination_section()));
        assert!(doc.contains(&super::observability_section()));
        assert!(
            doc.ends_with(&super::profiling_section()),
            "EXPERIMENTS.md must end with profiling_section(); \
             hand-written text after it is dropped by `wabench-harness all`"
        );
    }
}
