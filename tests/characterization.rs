//! Tests that pin the *characterization shapes* the paper reports — if a
//! refactor breaks one of these, the reproduction no longer tells the
//! paper's story.

use engines::{Backend, Engine, EngineKind};
use harness::runner::{self, Scale};
use wacc::OptLevel;

fn counters(kind: EngineKind, name: &str) -> archsim::Counters {
    let b = suite::by_name(name).expect("registered");
    runner::run_profiled(b, kind, OptLevel::O2, Scale::Test)
}

fn native_counters(name: &str) -> archsim::Counters {
    let b = suite::by_name(name).expect("registered");
    runner::run_native_profiled(b, OptLevel::O2, Scale::Test)
}

/// Finding 1/6 shape: instruction counts order as
/// native < compiled tiers < Wasm3 < WAMR.
#[test]
fn instruction_count_ordering() {
    for name in ["crc32", "gemm", "quicksort"] {
        let native = native_counters(name).instructions;
        let wasmtime = counters(EngineKind::Wasmtime, name).instructions;
        let wasm3 = counters(EngineKind::Wasm3, name).instructions;
        let wamr = counters(EngineKind::Wamr, name).instructions;
        assert!(native < wasmtime, "{name}: native {native} < wasmtime {wasmtime}");
        assert!(wasmtime < wasm3, "{name}: wasmtime {wasmtime} < wasm3 {wasm3}");
        assert!(wasm3 < wamr, "{name}: wasm3 {wasm3} < wamr {wamr}");
    }
}

/// Finding 7 shape: interpreters take more branch-prediction misses than
/// the compiled tiers, but their miss *ratios* stay within the same order
/// of magnitude as native (the dispatch branch is largely predictable).
#[test]
fn branch_prediction_shape() {
    for name in ["crc32", "sha"] {
        let native = native_counters(name);
        let wasmtime = counters(EngineKind::Wasmtime, name);
        let wasm3 = counters(EngineKind::Wasm3, name);
        assert!(
            wasm3.branch_misses > wasmtime.branch_misses,
            "{name}: interpreter misses {} > compiled {}",
            wasm3.branch_misses,
            wasmtime.branch_misses
        );
        // The paper's Table 5 finding: ITTAGE-class history predictors make
        // the dispatch branch nearly free — interpreter miss *ratios* stay
        // in the low single digits, comparable to (often below) native.
        assert!(
            wasm3.branch_miss_ratio() < 0.05,
            "{name}: wasm3 dispatch should be nearly fully predictable, got {:.1}%",
            wasm3.branch_miss_ratio() * 100.0
        );
        assert!(native.branch_miss_ratio() < 0.10, "{name}");
    }
}

/// Interpreter code personality: an interpreter fetches its bytecode as
/// *data* (large D-side traffic, small hot I-side loop); compiled code is
/// fetched on the I-side.
#[test]
fn icache_vs_dcache_personality() {
    let name = "crc32";
    let wamr = counters(EngineKind::Wamr, name);
    let wasmtime = counters(EngineKind::Wasmtime, name);
    // The interpreter's D-side accesses dwarf the compiled tier's.
    assert!(
        wamr.l1d_accesses > 2 * wasmtime.l1d_accesses,
        "interpreter D-side {} vs compiled {}",
        wamr.l1d_accesses,
        wasmtime.l1d_accesses
    );
}

/// Finding 2 shape: on compute kernels the optimizing backends beat
/// SinglePass in executed work.
#[test]
fn backend_quality_ordering() {
    let sp = counters(EngineKind::Wasmer(Backend::Singlepass), "gemm");
    let cl = counters(EngineKind::Wasmer(Backend::Cranelift), "gemm");
    assert!(
        cl.instructions < sp.instructions,
        "cranelift {} should retire less than singlepass {}",
        cl.instructions,
        sp.instructions
    );
}

/// Finding 3 shape: AOT removes compile work, and the LLVM-analogue tier
/// has the most to remove.
#[test]
fn aot_compile_cost_ordering() {
    let b = suite::by_name("gnuchess").expect("registered");
    let bytes = runner::wasm_bytes(b, OptLevel::O2);
    let wavm = Engine::new(EngineKind::Wavm);
    let wasmtime = Engine::new(EngineKind::Wasmtime);
    let stats_wavm = wavm.compile(&bytes).expect("compile").compile_stats();
    let stats_wasmtime = wasmtime.compile(&bytes).expect("compile").compile_stats();
    assert!(
        stats_wavm.total_work() > 2 * stats_wasmtime.total_work(),
        "LLVM-analogue compile work {} should far exceed Cranelift-analogue {}",
        stats_wavm.total_work(),
        stats_wasmtime.total_work()
    );
    // Loading an artifact does no compile work at all.
    let artifact = wavm.precompile(&bytes).expect("precompile");
    let loaded = wavm.load_artifact(&artifact).expect("load");
    assert_eq!(loaded.compile_stats().total_work(), 0);
}

/// Finding 5 shape: memory overhead orders WAVM > Wasmtime/Wasmer > the
/// interpreters, and every engine exceeds the guest's own footprint.
#[test]
fn memory_overhead_ordering() {
    let b = suite::by_name("whitedb").expect("registered");
    let bytes = runner::wasm_bytes(b, OptLevel::O2);
    let n = b.sizes.test;
    let overhead = |kind| runner::run_memory(kind, &bytes, n).runtime_overhead();
    let wavm = overhead(EngineKind::Wavm);
    let wasmtime = overhead(EngineKind::Wasmtime);
    let wasm3 = overhead(EngineKind::Wasm3);
    let wamr = overhead(EngineKind::Wamr);
    assert!(wavm > wasmtime, "WAVM {wavm} > Wasmtime {wasmtime}");
    assert!(wasmtime > wasm3, "Wasmtime {wasmtime} > Wasm3 {wasm3}");
    assert!(wasmtime > wamr, "Wasmtime {wasmtime} > WAMR {wamr}");
}

/// Finding 4 shape: interpreters benefit more from `-O2` input than the
/// optimizing tiers (which re-optimize anyway).
#[test]
fn opt_level_sensitivity_shape() {
    let b = suite::by_name("gemm").expect("registered");
    let gain = |kind| {
        let c0 = runner::run_profiled(b, kind, OptLevel::O0, Scale::Test).instructions as f64;
        let c2 = runner::run_profiled(b, kind, OptLevel::O2, Scale::Test).instructions as f64;
        c0 / c2
    };
    let interp_gain = gain(EngineKind::Wasm3);
    let jit_gain = gain(EngineKind::Wavm);
    assert!(
        interp_gain > jit_gain,
        "interpreter gain {interp_gain:.2} should exceed optimizing-tier gain {jit_gain:.2}"
    );
    assert!(interp_gain > 1.2, "O2 should help interpreters: {interp_gain:.2}");
}
