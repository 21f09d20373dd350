//! `wabench-harness run`: execute a `.wasm` file — or a registered
//! benchmark by name — on a chosen engine with the in-memory WASI host;
//! the reproduction's standalone-runtime CLI.
//!
//! A benchmark is measured by the kernel behind every figure cell
//! (`harness::runner::measure`, one `svc::exec::execute`); with
//! `--jobs N`, N copies go through the `wabench-svc` scheduler instead,
//! so a `--trace-out` trace includes queue-wait and job-run phases. A
//! file is compiled, instantiated and its `--invoke` export called.

use engines::{Engine, EngineKind};
use harness::parallel::{run_batch, WarmOptions};
use harness::runner::Scale;
use obs::cli::{self, Args, Command, Flag};
use svc::JobSpec;
use wacc::OptLevel;
use wasi_rt::WasiCtx;

#[rustfmt::skip]
pub const COMMAND: Command = Command::new("run", &[
    Flag::value("--engine", "E", "wasmtime|wavm|wasmer|wasmer-singlepass|wasmer-llvm|wasm3|wamr").default("wasmtime"),
    Flag::value("--invoke", "NAME", "export to call (file mode)").default("_start"),
    Flag::value("--stdin", "FILE", "standard input for the module (file mode)"),
    crate::LEVEL.default("O2"),
    Flag::value("--scale", "S", "test|profile|timing (benchmark mode)").default("test"),
    Flag::value("--jobs", "N", "run N copies through the scheduler (benchmark mode)"),
    crate::TRACE_OUT,
    crate::REPORT,
]).takes("<module.wasm|benchmark>");

/// `run`; returns the process exit code.
pub fn run(a: &Args) -> i32 {
    let target = a.positional();
    let kind = a.get("--engine", "an engine name", EngineKind::parse);
    let _span = obs::span!("run", target = target);
    match suite::by_name(target) {
        Some(b) => run_bench(a, b, kind),
        None => run_file(a, target, kind),
    }
}

/// File mode: compile, instantiate, call `--invoke`, relay WASI output.
fn run_file(a: &Args, path: &str, kind: EngineKind) -> i32 {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            obs::error!("{path}: {e}");
            return 1;
        }
    };
    let engine = Engine::new(kind);
    let module = match engine.compile(&bytes) {
        Ok(m) => m,
        Err(e) => {
            obs::error!("{path}: {e}");
            return 1;
        }
    };
    let mut ctx = WasiCtx::new();
    if let Some(stdin) = a.opt("--stdin", "a file", cli::path) {
        match std::fs::read(&stdin) {
            Ok(content) => ctx.push_stdin(&content),
            Err(e) => {
                obs::error!("{}: {e}", stdin.display());
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
    let exit_code = match instance.invoke(&a.get("--invoke", "an export name", cli::text), &[]) {
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

/// Benchmark mode: one measured run, or `--jobs N` copies through the
/// scheduler; prints the checksum.
fn run_bench(a: &Args, b: &'static suite::Benchmark, kind: EngineKind) -> i32 {
    let level = a.get("--level", "a level O0..O3", OptLevel::parse);
    let scale = a.get("--scale", "test|profile|timing", Scale::parse);
    let spec = JobSpec::exec(b.name, kind, level, scale);
    let (res, how) = match a.opt("--jobs", "a positive integer", cli::positive) {
        None => (harness::runner::measure(&spec), ", checksum ok".to_string()),
        Some(jobs) => {
            let opts = WarmOptions {
                jobs,
                ..WarmOptions::default()
            };
            match run_batch(&vec![spec; jobs], &opts) {
                Ok((results, _)) => (results[0].clone(), format!(" ({jobs} jobs via scheduler)")),
                Err(e) => {
                    obs::error!("{e}");
                    return 1;
                }
            }
        }
    };
    obs::info!(
        "{} on {} ({level:?}, n={}): compile {:.3} ms, exec {:.3} ms{how}",
        b.name,
        kind.name(),
        scale.arg(b),
        res.compile_s * 1e3,
        res.exec_s * 1e3,
    );
    println!("{}", res.checksum.unwrap_or(0));
    0
}
