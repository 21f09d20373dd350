//! The measurement memo shared by all experiments.
//!
//! Every figure cell is measured by [`svc::exec::execute`] — the same
//! function a scheduler worker runs — in one process-wide fault-free
//! [`ExecEnv`], and remembered by its [`JobSpec`]. A serial run fills
//! the memo inline, one miss at a time; `--jobs N` (`crate::parallel`)
//! only pre-fills it from scheduler results. Either way the tables are
//! assembled from the same memo in the same deterministic row order,
//! and a cell two figures share is one measurement.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

use archsim::Counters;
use engines::account::MemoryReport;
use engines::{Engine, EngineKind};
use suite::Benchmark;
use svc::exec::ExecEnv;
use svc::job::{JobMode, JobResult, JobSpec};
use wacc::OptLevel;
use wasi_rt::WasiCtx;
use wasm_core::types::Value;

pub use svc::job::Scale;

static ENV: LazyLock<ExecEnv> = LazyLock::new(|| ExecEnv::new(None));
static MEMO: LazyLock<Mutex<HashMap<JobSpec, JobResult>>> = LazyLock::new(Mutex::default);

/// The environment inline measurements run in: no store, no fault plan.
pub fn env() -> &'static ExecEnv {
    &ENV
}

/// Compiles a benchmark (cached in [`env`]).
pub fn wasm_bytes(b: &Benchmark, level: OptLevel) -> Arc<[u8]> {
    ENV.wasm_bytes(b, level).expect("registered benchmarks compile")
}

/// The measurement of one cell. A miss executes the job inline on the
/// calling thread and stores the result; a hit returns the stored one,
/// so repeated calls agree to the bit.
///
/// # Panics
///
/// Panics if the job fails or produces a wrong checksum (measurement
/// results would be meaningless).
pub fn measure(spec: &JobSpec) -> JobResult {
    if let Some(hit) = MEMO.lock().expect("memo lock").get(spec) {
        return hit.clone();
    }
    let res = svc::exec::execute(spec, &ENV);
    assert!(res.ok(), "{spec}: {:?}", res.status);
    insert(res)
}

/// Stores a clean result measured elsewhere (the `--jobs N` warm pass)
/// and returns what the memo now holds for its cell: the first result
/// stored wins, so a cell never changes value within a run.
pub fn insert(res: JobResult) -> JobResult {
    MEMO.lock()
        .expect("memo lock")
        .entry(res.spec.clone())
        .or_insert(res)
        .clone()
}

fn cell(
    b: &Benchmark,
    engine: EngineKind,
    level: OptLevel,
    scale: Scale,
    mode: JobMode,
) -> JobResult {
    measure(&JobSpec {
        mode,
        ..JobSpec::exec(b.name, engine, level, scale)
    })
}

/// A timed engine execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecTime {
    /// Seconds spent in decode+validate+compile/translate (artifact load
    /// for an AOT cell).
    pub compile_s: f64,
    /// Seconds spent executing (instantiate + run).
    pub exec_s: f64,
}

impl ExecTime {
    /// Total runtime seconds, the paper's "execution time".
    pub fn total(&self) -> f64 {
        self.compile_s + self.exec_s
    }

    fn of(res: &JobResult) -> ExecTime {
        ExecTime {
            compile_s: res.compile_s,
            exec_s: res.exec_s,
        }
    }
}

/// Wall-clock components of a fresh compile + run of `b` on an engine.
pub fn run_engine(b: &Benchmark, kind: EngineKind, level: OptLevel, scale: Scale) -> ExecTime {
    ExecTime::of(&cell(b, kind, level, scale, JobMode::Exec))
}

/// The AOT split: seconds building the artifact ahead of time, then the
/// artifact load + run.
pub fn run_engine_aot(
    b: &Benchmark,
    kind: EngineKind,
    level: OptLevel,
    scale: Scale,
) -> (f64, ExecTime) {
    let res = cell(b, kind, level, scale, JobMode::ExecAot);
    let aot_s = res.aot_compile_s.expect("aot job reports compile time");
    (aot_s, ExecTime::of(&res))
}

/// Times the native implementation.
pub fn run_native(b: &Benchmark, n: i32) -> f64 {
    let t0 = std::time::Instant::now();
    let v = (b.native)(n);
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(v);
    dt
}

/// Simulated counters of a compile (with cost replay for compiling
/// engines) + run under the architectural simulator.
pub fn run_profiled(b: &Benchmark, kind: EngineKind, level: OptLevel, scale: Scale) -> Counters {
    cell(b, kind, level, scale, JobMode::Profiled)
        .counters
        .expect("profiled job reports counters")
}

/// The engine field of a `ProfiledNative` cell. The job ignores it; one
/// fixed value keeps the baseline a single memo entry.
pub const NATIVE_ENGINE: EngineKind = EngineKind::Wavm;

/// The native baseline for architectural experiments: best-code (LLVM
/// tier) execution with *no* compilation events — the steady-state
/// instruction stream a native binary would retire.
pub fn run_native_profiled(b: &Benchmark, level: OptLevel, scale: Scale) -> Counters {
    cell(b, NATIVE_ENGINE, level, scale, JobMode::ProfiledNative)
        .counters
        .expect("profiled job reports counters")
}

/// Runs and reports the instance's memory breakdown.
pub fn run_memory(kind: EngineKind, bytes: &[u8], n: i32) -> MemoryReport {
    let _span = obs::span!("harness.cell.memory", engine = kind.name(), n = n);
    let engine = Engine::new(kind);
    let compiled = engine.compile(bytes).expect("compile");
    let mut inst = compiled
        .instantiate(&wasi_rt::imports(), Box::new(WasiCtx::new()))
        .expect("instantiate");
    inst.invoke("run", &[Value::I32(n)]).expect("run");
    inst.memory_report()
}

/// Native process baseline RSS for MRSS normalization (code + libc +
/// allocator of a small static binary).
pub const NATIVE_BASE_RSS: usize = 1 << 21; // 2 MiB

/// The paper's engine presentation order.
pub fn engines() -> [EngineKind; 5] {
    EngineKind::all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crc() -> &'static Benchmark {
        suite::by_name("crc32").expect("registered")
    }

    #[test]
    fn engine_run_verifies_checksum() {
        let t = run_engine(crc(), EngineKind::Wasmtime, OptLevel::O2, Scale::Test);
        assert!(t.compile_s > 0.0 && t.exec_s > 0.0);
    }

    #[test]
    fn aot_split_reported() {
        let (aot_s, t) = run_engine_aot(crc(), EngineKind::Wavm, OptLevel::O2, Scale::Test);
        assert!(aot_s > 0.0);
        assert!(t.exec_s > 0.0);
    }

    #[test]
    fn profiled_counters_nonzero() {
        let c = run_profiled(crc(), EngineKind::Wamr, OptLevel::O2, Scale::Test);
        assert!(c.instructions > 0);
        assert!(c.cycles > 0);
        let native = run_native_profiled(crc(), OptLevel::O2, Scale::Test);
        assert!(native.instructions < c.instructions);
    }

    #[test]
    fn memory_report_nonzero() {
        let b = crc();
        let bytes = wasm_bytes(b, OptLevel::O2);
        let r = run_memory(EngineKind::Wasm3, &bytes, b.sizes.test);
        assert!(r.linear_memory_peak > 0);
        assert!(r.total() > r.linear_memory_peak);
    }
}
