//! The `wabench-harness` binary: regenerates the paper's tables/figures.
//!
//! ```text
//! wabench-harness <experiment|all> [--scale test|profile|timing] [--jobs N] [--out FILE]
//! ```
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

use harness::parallel::WarmOptions;
use harness::runner::Scale;
use harness::{experiment_list, is_simulated, resolve_alias};

const USAGE: &str =
    "usage: wabench-harness <fig1..fig14|table4|table5|all> [--scale test|profile|timing] [--jobs N] [--out FILE] [--trace-out FILE] [--report] [--faults PLAN] [--store DIR]";

fn usage_exit() -> ! {
    obs::error!("{USAGE}");
    std::process::exit(2);
}

fn parse_scale(s: &str) -> Scale {
    Scale::parse(s).unwrap_or_else(|| {
        obs::error!("unknown scale {s:?} (use test|profile|timing)");
        std::process::exit(2);
    })
}

/// The value of `--flag VALUE`, or usage + exit 2 when the flag is the
/// last argument.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => {
            obs::error!("missing value for {flag}");
            usage_exit();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_exit();
    }
    let mut target = String::new();
    let mut scale_override: Option<Scale> = None;
    let mut out_file: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut self_report = false;
    let mut jobs = 1usize;
    let mut faults_arg: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => scale_override = Some(parse_scale(flag_value(&args, &mut i, "--scale"))),
            "--out" => out_file = Some(flag_value(&args, &mut i, "--out").to_string()),
            "--trace-out" => {
                trace_out = Some(flag_value(&args, &mut i, "--trace-out").to_string())
            }
            "--report" => self_report = true,
            "--faults" => faults_arg = Some(flag_value(&args, &mut i, "--faults").to_string()),
            "--store" => store_dir = Some(flag_value(&args, &mut i, "--store").to_string()),
            "--jobs" => {
                jobs = flag_value(&args, &mut i, "--jobs")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| {
                        obs::error!("--jobs needs a positive integer");
                        usage_exit();
                    })
            }
            other => target = other.to_string(),
        }
        i += 1;
    }
    if target.is_empty() {
        usage_exit();
    }
    if trace_out.is_some() || self_report {
        obs::trace::install(obs::trace::Sink::Ring);
    }

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
        match resolve_alias(&target) {
            Some(id) => vec![id],
            None => {
                obs::error!("unknown experiment {target:?}");
                std::process::exit(2);
            }
        }
    };

    let faults = {
        let parsed = match &faults_arg {
            Some(spec) => fault::FaultPlan::parse(spec).map(Some),
            None => fault::FaultPlan::from_env(),
        };
        parsed
            .unwrap_or_else(|e| {
                obs::error!("bad fault plan: {e}");
                usage_exit();
            })
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
                store_dir: store_dir.as_ref().map(std::path::PathBuf::from),
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

    if trace_out.is_some() || self_report {
        let trace = obs::trace::drain();
        obs::trace::install(obs::trace::Sink::Null);
        if let Some(path) = trace_out {
            let path = std::path::PathBuf::from(path);
            obs::chrome::export_file(&trace, &path).expect("write trace file");
            obs::info!("wrote {} ({} spans)", path.display(), trace.span_count());
        }
        if self_report {
            eprint!("{}", obs::report::render(&trace));
        }
    }
}
