//! `wabench-run`: execute a `.wasm` file — or a registered benchmark by
//! name — on a chosen engine with the in-memory WASI host; the
//! reproduction's standalone-runtime CLI.
//!
//! ```text
//! wabench-run module.wasm [--engine E] [--invoke NAME] [--stdin FILE]
//! wabench-run <benchmark>  [--engine E] [--level O0..O3] [--scale test|profile|timing] [--jobs N]
//! ```
//!
//! Either form accepts `--trace-out FILE` (write a Chrome trace-event
//! JSON loadable in Perfetto / `chrome://tracing`) and `--report`
//! (print a hierarchical self-time report to stderr). Benchmark mode
//! with `--jobs N` routes N copies of the run through the `wabench-svc`
//! scheduler so the trace includes queue-wait and job-run phases.

use std::path::PathBuf;
use std::time::Duration;

use engines::{Backend, Engine, EngineKind};
use svc::scheduler::{Config, Scheduler};
use svc::{JobSpec, Scale as JobScale};
use wacc::OptLevel;
use wasi_rt::WasiCtx;
use wasm_core::types::Value;

const USAGE: &str = "usage: wabench-run <module.wasm|benchmark> [--engine E] [--invoke NAME] \
     [--stdin FILE] [--level O0..O3] [--scale test|profile|timing] [--jobs N] \
     [--trace-out FILE] [--report]";

struct Opts {
    target: String,
    kind: EngineKind,
    entry: String,
    stdin_file: Option<String>,
    level: OptLevel,
    scale: JobScale,
    jobs: usize,
    trace_out: Option<PathBuf>,
    report: bool,
}

fn parse_engine(s: &str) -> EngineKind {
    match s {
        "wasmtime" => EngineKind::Wasmtime,
        "wavm" => EngineKind::Wavm,
        "wasmer" => EngineKind::Wasmer(Backend::Cranelift),
        "wasmer-singlepass" => EngineKind::Wasmer(Backend::Singlepass),
        "wasmer-llvm" => EngineKind::Wasmer(Backend::Llvm),
        "wasm3" => EngineKind::Wasm3,
        "wamr" => EngineKind::Wamr,
        other => {
            obs::error!("unknown engine {other:?}");
            std::process::exit(2);
        }
    }
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        target: String::new(),
        kind: EngineKind::Wasmtime,
        entry: "_start".to_string(),
        stdin_file: None,
        level: OptLevel::O2,
        scale: JobScale::Test,
        jobs: 0,
        trace_out: None,
        report: false,
    };
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            obs::error!("missing value for {flag}");
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--engine" => opts.kind = parse_engine(&value(&args, &mut i, "--engine")),
            "--invoke" => opts.entry = value(&args, &mut i, "--invoke"),
            "--stdin" => opts.stdin_file = Some(value(&args, &mut i, "--stdin")),
            "--level" => {
                opts.level = match value(&args, &mut i, "--level").as_str() {
                    "O0" | "o0" | "0" => OptLevel::O0,
                    "O1" | "o1" | "1" => OptLevel::O1,
                    "O2" | "o2" | "2" => OptLevel::O2,
                    "O3" | "o3" | "3" => OptLevel::O3,
                    other => {
                        obs::error!("unknown opt level {other:?} (use O0..O3)");
                        std::process::exit(2);
                    }
                }
            }
            "--scale" => {
                let v = value(&args, &mut i, "--scale");
                opts.scale = JobScale::parse(&v).unwrap_or_else(|| {
                    obs::error!("unknown scale {v:?} (use test|profile|timing)");
                    std::process::exit(2);
                })
            }
            "--jobs" => {
                opts.jobs = value(&args, &mut i, "--jobs").parse().unwrap_or_else(|_| {
                    obs::error!("--jobs needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value(&args, &mut i, "--trace-out"))),
            "--report" => opts.report = true,
            other if other.starts_with('-') => {
                obs::error!("unknown flag {other:?}");
                obs::error!("{USAGE}");
                std::process::exit(2);
            }
            other => opts.target = other.to_string(),
        }
        i += 1;
    }
    if opts.target.is_empty() {
        obs::error!("{USAGE}");
        std::process::exit(2);
    }
    opts
}

/// File mode: the original `wabench-run module.wasm` behavior.
fn run_file(opts: &Opts) -> i32 {
    let bytes = match std::fs::read(&opts.target) {
        Ok(b) => b,
        Err(e) => {
            obs::error!("{}: {e}", opts.target);
            return 1;
        }
    };
    let engine = Engine::new(opts.kind);
    let module = match engine.compile(&bytes) {
        Ok(m) => m,
        Err(e) => {
            obs::error!("{}: {e}", opts.target);
            return 1;
        }
    };
    let mut ctx = WasiCtx::new();
    if let Some(path) = &opts.stdin_file {
        match std::fs::read(path) {
            Ok(content) => ctx.push_stdin(&content),
            Err(e) => {
                obs::error!("{path}: {e}");
                return 1;
            }
        }
    }
    let mut instance = match module.instantiate(&wasi_rt::imports(), Box::new(ctx)) {
        Ok(i) => i,
        Err(e) => {
            obs::error!("instantiate: {e}");
            return 1;
        }
    };
    let exit_code = match instance.invoke(&opts.entry, &[]) {
        Ok(_) => 0,
        Err(engines::Trap::Exit(code)) => code,
        Err(t) => {
            obs::error!("trap: {t}");
            101
        }
    };
    let ctx = instance
        .host_data()
        .downcast_ref::<WasiCtx>()
        .expect("wasi host data");
    use std::io::Write as _;
    std::io::stdout().write_all(ctx.stdout()).expect("stdout");
    std::io::stderr().write_all(ctx.stderr()).expect("stderr");
    exit_code
}

/// Benchmark mode: compile with WaCC, then either run locally or push
/// through the scheduler.
fn run_bench(opts: &Opts, b: &'static suite::Benchmark) -> i32 {
    let n = opts.scale.arg(b);
    if opts.jobs > 0 {
        let sched = match Scheduler::start(Config {
            workers: opts.jobs,
            timeout: Duration::from_secs(600),
            store_dir: None,
            store_cap_bytes: 0,
            ..Config::default()
        }) {
            Ok(s) => s,
            Err(e) => {
                obs::error!("scheduler: {e}");
                return 1;
            }
        };
        for _ in 0..opts.jobs.max(1) {
            sched.submit(JobSpec::exec(b.name, opts.kind, opts.level, opts.scale));
        }
        let results = sched.drain_sorted();
        sched.shutdown();
        for res in &results {
            if !res.ok() {
                obs::error!("job failed: {:?}", res.status);
                return 1;
            }
        }
        let r = &results[0];
        obs::info!(
            "{} on {} ({:?}, n={n}): compile {:.3} ms, exec {:.3} ms ({} jobs via scheduler)",
            b.name,
            opts.kind.name(),
            opts.level,
            r.compile_s * 1e3,
            r.exec_s * 1e3,
            results.len()
        );
        println!("{}", r.checksum.unwrap_or(0));
        return 0;
    }
    let bytes = match b.compile(opts.level) {
        Ok(b) => b,
        Err(e) => {
            obs::error!("{}: compile: {e}", b.name);
            return 1;
        }
    };
    let engine = Engine::new(opts.kind);
    let t0 = std::time::Instant::now();
    let module = match engine.compile(&bytes) {
        Ok(m) => m,
        Err(e) => {
            obs::error!("{}: {e}", b.name);
            return 1;
        }
    };
    let compile_s = t0.elapsed().as_secs_f64();
    let mut instance = match module.instantiate(&wasi_rt::imports(), Box::new(WasiCtx::new())) {
        Ok(i) => i,
        Err(e) => {
            obs::error!("instantiate: {e}");
            return 1;
        }
    };
    let t1 = std::time::Instant::now();
    let out = match instance.invoke("run", &[Value::I32(n)]) {
        Ok(v) => v,
        Err(t) => {
            obs::error!("trap: {t}");
            return 101;
        }
    };
    let exec_s = t1.elapsed().as_secs_f64();
    let got = match out {
        Some(Value::I32(v)) => v,
        other => {
            obs::error!("run() returned {other:?}");
            return 1;
        }
    };
    let expected = (b.native)(n);
    if got != expected {
        obs::error!("{}: checksum mismatch: got {got}, want {expected}", b.name);
        return 1;
    }
    obs::info!(
        "{} on {} ({:?}, n={n}): compile {:.3} ms, exec {:.3} ms, checksum ok",
        b.name,
        opts.kind.name(),
        opts.level,
        compile_s * 1e3,
        exec_s * 1e3
    );
    println!("{got}");
    0
}

fn main() {
    let opts = parse_opts();
    let tracing = opts.trace_out.is_some() || opts.report;
    if tracing {
        obs::trace::install(obs::trace::Sink::Ring);
    }
    let code = {
        let _span = obs::span!("run", target = opts.target);
        match suite::by_name(&opts.target) {
            Some(b) => run_bench(&opts, b),
            None => run_file(&opts),
        }
    };
    if tracing {
        let trace = obs::trace::drain();
        obs::trace::install(obs::trace::Sink::Null);
        if let Some(path) = &opts.trace_out {
            match obs::chrome::export_file(&trace, path) {
                Ok(()) => obs::info!("wrote {} ({} spans)", path.display(), trace.span_count()),
                Err(e) => {
                    obs::error!("{}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if opts.report {
            eprint!("{}", obs::report::render(&trace));
        }
    }
    std::process::exit(code);
}
