//! Run one WABench benchmark across all engines and print the paper-style
//! normalized execution times.
//!
//! ```sh
//! cargo run --release --example run_wabench -- crc32 [test|profile|timing]
//! ```

use engines::EngineKind;
use harness::runner;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("crc32");
    let scale = match args.get(1).map(String::as_str) {
        Some("timing") => runner::Scale::Timing,
        Some("test") => runner::Scale::Test,
        _ => runner::Scale::Profile,
    };
    let Some(b) = suite::by_name(name) else {
        eprintln!("unknown benchmark {name:?}; available:");
        for b in suite::all() {
            eprintln!("  {:16} [{}] {}", b.name, b.group, b.description);
        }
        std::process::exit(2);
    };

    let n = scale.arg(b);
    println!("{} ({}, {}), n = {n}", b.name, b.group, b.domain);

    let native_s = harness::stats::time_secs(
        || {
            std::hint::black_box((b.native)(n));
        },
        0.1,
        10,
    );
    println!("  {:<10} {:>12}", "native", harness::report::secs(native_s));

    for kind in EngineKind::all() {
        let t = runner::run_engine(b, kind, wacc::OptLevel::O2, scale);
        println!(
            "  {:<10} {:>12}  (compile {}, exec {})  {:>8} vs native",
            kind.name(),
            harness::report::secs(t.total()),
            harness::report::secs(t.compile_s),
            harness::report::secs(t.exec_s),
            harness::report::ratio(t.total() / native_s),
        );
    }
}
