//! Pins the simulated counters: one fixed WaCC program profiled on every
//! engine must reproduce the exact `Counters` captured before the
//! simulator's hot paths were last rewritten. Any change here means the
//! simulation itself moved, not just its host cost.

use archsim::{ArchSim, Counters};
use engines::{Backend, Engine, EngineKind};
use wasm_core::types::Value;

/// A loop, loads and stores, recursive calls, and a multi-way branch.
const PROGRAM: &str = r#"
memory 2;

fn fib(n: i32) -> i32 {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}

fn depth(n: i32) -> i32 {
    if (n == 0) {
        return 0;
    }
    return 1 + depth(n - 1);
}

fn classify(v: i32) -> i32 {
    let k: i32 = v & 7;
    if (k == 0) {
        return v + 1;
    } else if (k == 1) {
        return v * 3;
    } else if (k == 2) {
        return v ^ 0x55;
    } else if (k == 3) {
        return v >>> 1;
    } else if (k == 4) {
        return v - 7;
    } else {
        return v & 0xff;
    }
}

export fn run(n: i32) -> i32 {
    let s: i32 = 0;
    for (let i: i32 = 0; i < n; i += 1) {
        store_i32(1024 + ((i * 97) % 12288) * 4, i * 40503);
    }
    for (let i: i32 = 0; i < n; i += 1) {
        let v: i32 = load_i32(1024 + ((i * 7) % 12288) * 4);
        s += classify(v >>> (i & 15));
    }
    return s + fib(12) + depth(40);
}
"#;

fn profile(kind: EngineKind) -> Counters {
    let bytes = wacc::compile_to_bytes(PROGRAM, wacc::OptLevel::O2).expect("compiles");
    let compiled = Engine::new(kind).compile(&bytes).expect("engine compiles");
    let mut inst = compiled
        .instantiate(&wasi_rt::imports(), Box::new(wasi_rt::WasiCtx::new()))
        .expect("instantiates");
    let mut sim = ArchSim::new();
    let out = inst
        .invoke_profiled("run", &[Value::I32(2000)], &mut sim)
        .expect("runs");
    assert!(matches!(out, Some(Value::I32(_))), "{kind}: {out:?}");
    sim.counters()
}

/// Captured at the parent of the one-pass cache / loop-free ITTAGE
/// rewrite, before any archsim edit.
const PINNED: [(EngineKind, Counters); 5] = [
    (
        EngineKind::Wasmtime,
        Counters {
            instructions: 185432,
            cycles: 82311,
            branches: 16219,
            branch_misses: 489,
            cache_references: 824,
            cache_misses: 824,
            l1d_accesses: 6508,
            l1d_misses: 1456,
            l1i_accesses: 85693,
            l1i_misses: 13,
            checks_skipped: 4000,
        },
    ),
    (
        EngineKind::Wavm,
        Counters {
            instructions: 183432,
            cycles: 81811,
            branches: 16219,
            branch_misses: 489,
            cache_references: 824,
            cache_misses: 824,
            l1d_accesses: 6508,
            l1d_misses: 1456,
            l1i_accesses: 83693,
            l1i_misses: 13,
            checks_skipped: 4000,
        },
    ),
    (
        EngineKind::Wasmer(Backend::Cranelift),
        Counters {
            instructions: 185432,
            cycles: 82311,
            branches: 16219,
            branch_misses: 489,
            cache_references: 824,
            cache_misses: 824,
            l1d_accesses: 6508,
            l1d_misses: 1456,
            l1i_accesses: 85693,
            l1i_misses: 13,
            checks_skipped: 4000,
        },
    ),
    (
        EngineKind::Wasm3,
        Counters {
            instructions: 703735,
            cycles: 223168,
            branches: 122419,
            branch_misses: 1050,
            cache_references: 815,
            cache_misses: 815,
            l1d_accesses: 320104,
            l1d_misses: 1545,
            l1i_accesses: 110200,
            l1i_misses: 1,
            checks_skipped: 0,
        },
    ),
    (
        EngineKind::Wamr,
        Counters {
            instructions: 1643503,
            cycles: 579748,
            branches: 162403,
            branch_misses: 9176,
            cache_references: 813,
            cache_misses: 813,
            l1d_accesses: 411504,
            l1d_misses: 1540,
            l1i_accesses: 146184,
            l1i_misses: 1,
            checks_skipped: 4000,
        },
    ),
];

#[test]
fn counters_are_pinned_on_every_engine() {
    assert_eq!(PINNED.len(), EngineKind::all().len());
    for (kind, pinned) in PINNED {
        assert_eq!(profile(kind), pinned, "{kind}: simulated counters moved");
    }
}
