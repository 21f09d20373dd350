//! `wabench-benchmark` — the repo benchmark. See `README.md` beside
//! this package for the workloads, the metrics and how to read them.
//!
//! ```text
//! wabench-benchmark [run] --workload W --seed N --seconds S --trace 0|1
//! wabench-benchmark all [--seed N] [--seconds S] [--workload W]... [--traced] [--repeat K]
//! wabench-benchmark check-manifest
//! wabench-benchmark compare A.json B.json
//! ```
//!
//! Every subcommand also takes `--root DIR` (where `BENCHMARK.json`
//! lives, default `.`), `--out DIR` (default `benchmark/out`) and
//! `--served PATH` (the `wabench-served` binary; default: beside this
//! executable). `benchmark/run.sh` builds both binaries and passes its
//! arguments through.

mod analyze;
mod compare;
mod daemon;
mod drive;
mod inproc;
mod manifest;
mod metrics;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use compare::RunRow;
use report::RunArgs;
use workloads::Workload;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 12;

struct Cli {
    command: String,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    root: PathBuf,
    out: PathBuf,
    served: PathBuf,
    files: Vec<PathBuf>,
}

fn usage() -> String {
    "usage: wabench-benchmark [run] --workload W --seed N --seconds S --trace 0|1\n       \
     wabench-benchmark all [--seed N] [--seconds S] [--workload W]... [--traced] [--repeat K]\n       \
     wabench-benchmark check-manifest\n       \
     wabench-benchmark compare A.json B.json\n\
     options everywhere: --root DIR  --out DIR  --served PATH\n\
     workloads: exec_batch compile_cold arch_profiled serve_warm"
        .to_string()
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let beside_exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("wabench-served")))
        .unwrap_or_else(|| PathBuf::from("wabench-served"));
    let mut cli = Cli {
        command: "run".into(),
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat: 1,
        root: PathBuf::from("."),
        out: PathBuf::from("benchmark/out"),
        served: beside_exe,
        files: Vec::new(),
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            cli.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                cli.workloads
                    .push(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => cli.trace = true,
            "--repeat" => {
                cli.repeat = value("--repeat")?
                    .parse()
                    .map_err(|_| "--repeat needs a whole number")?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--root" => cli.root = PathBuf::from(value("--root")?),
            "--out" => cli.out = PathBuf::from(value("--out")?),
            "--served" => cli.served = PathBuf::from(value("--served")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => cli.files.push(PathBuf::from(file)),
        }
    }
    Ok(cli)
}

/// One run in this process: measure, check, print, write the result file.
fn cmd_run(cli: &Cli) -> Result<bool, String> {
    let [workload] = cli.workloads[..] else {
        return Err("run needs exactly one --workload".into());
    };
    let manifest = manifest::load(&cli.root)?;
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(manifest.run_seconds as f64),
        trace: cli.trace,
        served: cli.served.clone(),
        out: cli.out.clone(),
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let outcome = match workload {
        Workload::ServeWarm => serve::run(&args)?,
        _ => inproc::run(&args)?,
    };
    metrics::check_complete(report::defs(args.trace), &outcome.values)?;
    let path = report::result_path(&args.out, workload, args.trace);
    std::fs::write(&path, report::run_json(&args, &outcome))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report::print_human(&args, &outcome);
    println!("{}", report::final_line(&args, &outcome));
    Ok(outcome.verdict.failed == 0)
}

/// Runs one workload in a fresh process (so its peak RSS is its own) and
/// parses the result line.
fn child_run(
    cli: &Cli,
    workload: Workload,
    trace: bool,
    repeat: usize,
    seconds: f64,
) -> Result<RunRow, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("run")
        .args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--root")
        .arg(&cli.root)
        .arg("--out")
        .arg(&cli.out)
        .arg("--served")
        .arg(&cli.served)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    let (correct, attempted, failed, metrics) = compare::parse_final_line(last).map_err(|e| {
        format!(
            "{} (trace {}): {e}; exit {}",
            workload.name(),
            u8::from(trace),
            output.status
        )
    })?;
    Ok(RunRow {
        workload: workload.name().to_string(),
        trace: u8::from(trace),
        seed: cli.seed,
        repeat,
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Every workload untraced (and traced with `--traced`), `--repeat`
/// times; writes `result.json`; with two or more repeats, checks that
/// the even and the odd repeats agree within the manifest's bounds.
fn cmd_all(cli: &Cli) -> Result<bool, String> {
    let manifest = manifest::load(&cli.root)?;
    let seconds = cli.seconds.unwrap_or(manifest.run_seconds as f64);
    let workloads = if cli.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        cli.workloads.clone()
    };
    let mut runs = Vec::new();
    for repeat in 0..cli.repeat {
        for &workload in &workloads {
            runs.push(child_run(cli, workload, false, repeat, seconds)?);
            if cli.trace {
                runs.push(child_run(cli, workload, true, repeat, seconds)?);
            }
        }
    }
    let settings = [
        ("seed", cli.seed as f64),
        ("seconds", seconds),
        ("repeat", cli.repeat as f64),
        ("nproc", report::nproc() as f64),
        ("rate_lo_qps", serve::RATE_LO_QPS),
        ("rate_hi_qps", serve::RATE_HI_QPS),
        ("tail_limit_ms", serve::TAIL_LIMIT_MS),
        ("lateness_limit_ms", serve::LATENESS_LIMIT_MS),
    ];
    let path = cli.out.join("result.json");
    std::fs::write(&path, compare::result_json(&settings, &runs))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    let mut ok = runs.iter().all(|r| r.correct);
    if cli.repeat >= 2 {
        let (even, odd): (Vec<RunRow>, Vec<RunRow>) =
            runs.into_iter().partition(|r| r.repeat % 2 == 0);
        let (table, agree) = compare::compare(&even, &odd, &manifest);
        println!("self-agreement, even repeats (A) against odd repeats (B):\n{table}");
        ok &= agree;
    }
    Ok(ok)
}

fn cmd_compare(cli: &Cli) -> Result<bool, String> {
    let [a, b] = &cli.files[..] else {
        return Err("compare needs two result files".into());
    };
    let manifest = manifest::load(&cli.root)?;
    let read = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        compare::parse_result(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (table, ok) = compare::compare(&read(a)?, &read(b)?, &manifest);
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match cli.command.as_str() {
        "run" => cmd_run(&cli),
        "all" => cmd_all(&cli),
        "compare" => cmd_compare(&cli),
        "check-manifest" => manifest::load(&cli.root).map(|m| {
            println!(
                "BENCHMARK.json ok: {} workloads, {} end-to-end and {} per-layer metrics",
                m.workloads.len(),
                m.end_to_end.len(),
                m.per_layer.len()
            );
            true
        }),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wabench-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
