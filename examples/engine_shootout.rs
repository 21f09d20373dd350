//! Compare every execution configuration on one benchmark: the five
//! engines, Wasmer's three backends, AOT on/off, and all four compiler
//! optimization levels.
//!
//! ```sh
//! cargo run --release --example engine_shootout -- quicksort
//! ```

use engines::{Backend, EngineKind};
use harness::report::{ratio, secs};
use harness::runner;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "quicksort".into());
    let b = suite::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name:?}");
        std::process::exit(2);
    });
    let scale = runner::Scale::Profile;
    let o2 = wacc::OptLevel::O2;
    println!("== {} (n = {}) ==\n", b.name, scale.arg(b));

    println!("-- engines (at -O2) --");
    let base = runner::run_engine(b, EngineKind::Wasmtime, o2, scale).total();
    for kind in EngineKind::all() {
        let t = runner::run_engine(b, kind, o2, scale).total();
        println!("  {:<18} {:>10}  {:>7} of Wasmtime", kind.name(), secs(t), ratio(t / base));
    }

    println!("\n-- Wasmer backends --");
    for backend in Backend::all() {
        let t = runner::run_engine(b, EngineKind::Wasmer(backend), o2, scale).total();
        println!("  {:<18} {:>10}", backend.to_string(), secs(t));
    }

    println!("\n-- AOT (WAVM) --");
    let jit = runner::run_engine(b, EngineKind::Wavm, o2, scale);
    let (aot_compile, aot) = runner::run_engine_aot(b, EngineKind::Wavm, o2, scale);
    println!("  JIT total          {:>10}", secs(jit.total()));
    println!("  AOT compile (once) {:>10}", secs(aot_compile));
    println!("  AOT load + exec    {:>10}  ({} speedup)", secs(aot.total()), ratio(jit.total() / aot.total()));

    println!("\n-- optimization levels (Wasm3) --");
    let t0 = runner::run_engine(b, EngineKind::Wasm3, wacc::OptLevel::O0, scale).total();
    for level in wacc::OptLevel::all() {
        let t = runner::run_engine(b, EngineKind::Wasm3, level, scale).total();
        println!("  {:<5} {:>10}  ({} speedup vs -O0)", level.to_string(), secs(t), ratio(t0 / t));
    }
}
