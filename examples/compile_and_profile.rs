//! Architectural profiling: run a benchmark on two engines under the
//! cache/branch-predictor simulator and compare the counters — the
//! reproduction's version of `perf stat`.
//!
//! ```sh
//! cargo run --release --example compile_and_profile -- gemm
//! ```

use engines::EngineKind;
use harness::runner;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gemm".into());
    let b = suite::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name:?}");
        std::process::exit(2);
    });
    let (level, scale) = (wacc::OptLevel::O2, runner::Scale::Test);
    let n = scale.arg(b);

    println!("{} (n = {n}), counters from the architectural simulator:\n", b.name);
    println!(
        "{:<10} {:>14} {:>14} {:>6} {:>12} {:>9} {:>12} {:>9}",
        "config", "instructions", "cycles", "IPC", "branches", "miss%", "LLC refs", "miss%"
    );
    let native = runner::run_native_profiled(b, level, scale);
    let print_row = |label: &str, c: &archsim::Counters| {
        println!(
            "{label:<10} {:>14} {:>14} {:>6.2} {:>12} {:>8.2}% {:>12} {:>8.2}%",
            c.instructions,
            c.cycles,
            c.ipc(),
            c.branches,
            c.branch_miss_ratio() * 100.0,
            c.cache_references,
            c.cache_miss_ratio() * 100.0,
        );
    };
    print_row("native", &native);
    for kind in EngineKind::all() {
        let c = runner::run_profiled(b, kind, level, scale);
        print_row(kind.name(), &c);
    }
}
