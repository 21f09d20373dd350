//! The `wabench-harness` binary: regenerates the paper's tables/figures,
//! and hosts the suite tools `run`, `report`, `lint` and `audit`. Every
//! command's flags are declared once in [`COMMANDS`]; `wabench-harness`
//! with no arguments prints them.
//!
//! Every cell is measured by `svc::exec::execute` and remembered in one
//! memo. With `--jobs N` (N > 1) the measurement matrix first runs
//! through the `wabench-svc` scheduler on N workers, which only
//! pre-fills that memo; the tables are then assembled in the same
//! serial order from it — same rows, same order.
//!
//! `--faults PLAN` (or `WABENCH_FAULTS`) arms deterministic fault
//! injection in the warm pass for chaos testing: failed and degraded
//! cells are skipped and measured inline, fault-free, during table
//! assembly, so output tables are unaffected. A greppable `resilience:` summary line
//! reports what was injected and recovered. `--store DIR` gives the
//! warm pass an on-disk artifact store (reusing a directory across runs
//! exercises corruption detection/repair).
//!
//! `--trace-out FILE` writes the run's spans as a Chrome trace, or as
//! wall-time folded stacks for `flamegraph.pl` when FILE ends in
//! `.folded`; `--report` prints the span profile (`obs::prof::render`) to stderr.
//!
//! Exit codes: 0 success, 1 a failed `run` or `report` job or lint/audit
//! findings, 2 usage error (and compile or I/O errors in `lint`/`audit`).

mod audit;
mod lint;
mod report;
mod run;

use harness::parallel::WarmOptions;
use harness::runner::Scale;
use harness::{experiment_list, is_simulated, resolve_alias};
use obs::cli::{self, Args, Command, Flag};

const TRACE_OUT: Flag = Flag::value("--trace-out", "FILE", "write a Chrome trace of the run (*.folded: folded stacks)");
const REPORT: Flag = Flag::switch("--report", "print the span profile table to stderr");
const LEVEL: Flag = Flag::value("--level", "L", "WaCC level O0..O3");

#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command::new("", &[
        Flag::value("--scale", "S", "test|profile|timing (default: test for fig3, else profile)"),
        Flag::value("--jobs", "N", "pre-fill the memo on N scheduler workers").default("1"),
        Flag::value("--out", "FILE", "also write the markdown here (all: default EXPERIMENTS.md)"),
        TRACE_OUT,
        REPORT,
        Flag::value("--faults", "PLAN", "fault plan for the --jobs warm pass (else WABENCH_FAULTS)"),
        Flag::value("--store", "DIR", "artifact store for the --jobs warm pass"),
    ]).takes("<fig1..fig14|table4|table5|all>"),
    run::COMMAND,
    report::COMMAND,
    lint::COMMAND,
    audit::COMMAND,
];

fn main() {
    let a = cli::parse("wabench-harness", COMMANDS);
    match a.command() {
        "" => a.traced(|| experiments(&a)),
        "run" => std::process::exit(a.traced(|| run::run(&a))),
        "report" => std::process::exit(report::run(&a)),
        "lint" => lint::run(&a),
        "audit" => audit::run(&a),
        other => unreachable!("{other} is in COMMANDS but not dispatched"),
    }
}

fn experiments(a: &Args) {
    let target = a.positional();
    let scale_override = a.opt("--scale", "test|profile|timing", Scale::parse);
    let jobs: usize = a.get("--jobs", "a positive integer", cli::positive);
    let out_file = a.opt("--out", "a file", cli::text);

    // Default scales: AOT experiments run the short-running
    // configuration (where the paper notes AOT matters most); the
    // rest use the medium scale. Override with --scale.
    let scale_for = |id: &str| {
        let _ = is_simulated(id);
        scale_override.unwrap_or(if id == "fig3" {
            Scale::Test
        } else {
            Scale::Profile
        })
    };

    let ids: Vec<&'static str> = if target == "all" {
        experiment_list().into_iter().map(|(id, _)| id).collect()
    } else {
        match resolve_alias(target) {
            Some(id) => vec![id],
            None => a.fail(format!("unknown experiment {target:?}")),
        }
    };

    let faults = {
        let parsed = match a.opt("--faults", "a plan", cli::text) {
            Some(spec) => fault::FaultPlan::parse(&spec).map(Some),
            None => fault::FaultPlan::from_env(),
        };
        parsed
            .unwrap_or_else(|e| a.fail(format!("bad fault plan: {e}")))
            .map(std::sync::Arc::new)
    };
    if faults.is_some() && jobs <= 1 {
        obs::warn!("--faults only affects the parallel warm pass; use --jobs N (N > 1)");
    }

    if jobs > 1 {
        let matrix: Vec<(&str, Scale)> = ids.iter().map(|id| (*id, scale_for(id))).collect();
        obs::info!("warming measurement matrix on {jobs} workers...");
        if let Some(plan) = &faults {
            obs::warn!("chaos mode: fault injection armed: {plan}");
        }
        let summary = harness::parallel::warm_matrix_opts(
            &matrix,
            &WarmOptions {
                jobs,
                faults: faults.clone(),
                store_dir: a.opt("--store", "a directory", cli::path),
            },
        );
        obs::info!("warmed {} of {} measurements", summary.primed, summary.jobs);
        if faults.is_some() {
            // One greppable line the chaos smoke asserts against.
            let r = &summary.resilience;
            println!(
                "resilience: jobs={} primed={} degraded={} failed={} retries={} fallbacks={} repairs={} breaker_fast_fails={} injected={}",
                summary.jobs,
                summary.primed,
                summary.degraded.len(),
                summary.failed.len(),
                r.retries,
                r.compile_fallbacks,
                r.store_repairs,
                r.breaker_fast_fails,
                summary.injected
            );
        }
    }

    let mut output = String::new();
    let run_one = |id: &str, output: &mut String| {
        let (_, f) = experiment_list()
            .into_iter()
            .find(|(eid, _)| *eid == id)
            .expect("known experiment");
        let scale = scale_for(id);
        obs::info!("running {id} ({scale:?} scale)...");
        let _span = obs::span!("harness.figure", id = id, scale = format_args!("{scale:?}"));
        for report in f(scale) {
            let md = report.to_markdown();
            print!("{md}");
            output.push_str(&md);
        }
    };

    if target == "all" {
        output.push_str(
            "# EXPERIMENTS — paper vs. measured\n\n\
             Regenerated by `cargo run -p wabench-harness --release -- all`.\n\
             Each table carries the paper's reported numbers in a trailing note;\n\
             absolute values are not comparable (different substrate), shapes are.\n\n",
        );
        output.push_str(
            "Parallel regeneration: one kernel, one memo. Every cell of fig1–fig4\n\
             and fig6–fig9 is measured by the same function (`svc::exec::execute`)\n\
             and remembered by its job spec, so a cell two figures share (fig1's\n\
             column, fig3's JIT baseline, fig4's -O2 column) is one measurement.\n\
             `--jobs N` only pre-fills that memo from N wabench-svc scheduler\n\
             workers; tables are then assembled in deterministic serial order, so\n\
             their structure is independent of how jobs interleaved. fig5 (memory)\n\
             is always measured during assembly. The simulated figures (fig6–fig9)\n\
             are bit-identical to a serial run; wall-clock tables vary run to run\n\
             either way.\n\n",
        );
        if jobs > 1 {
            output.push_str(&format!(
                "This file was regenerated with `--jobs {jobs}`.\n\n"
            ));
        }
        for id in &ids {
            run_one(id, &mut output);
        }
        output.push_str(&harness::static_analysis_section());
        output.push_str(&harness::check_elimination_section());
        output.push_str(&harness::observability_section());
        output.push_str(&harness::profiling_section());
        let path = out_file.unwrap_or_else(|| "EXPERIMENTS.md".to_string());
        std::fs::write(&path, &output).expect("write experiments file");
        obs::info!("wrote {path}");
    } else {
        run_one(ids[0], &mut output);
        if let Some(path) = out_file {
            std::fs::write(&path, &output).expect("write output file");
        }
    }
}
