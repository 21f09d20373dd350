//! `wabench-harness report`: the attributed counter profile of one or
//! more profiled cells — a `perf report`-style table (`obs::prof`) with
//! wall self time, self instructions, IPC and the paper's MPKI columns
//! per span path.
//!
//! Each cell is one `svc::exec::execute` of a `Profiled` job, the
//! measurement every simulated figure cell gets, recorded under the
//! ring sink; the table is rendered from the drained trace. Simulated
//! counters repeat exactly between runs; wall times do not.

use engines::EngineKind;
use harness::runner::Scale;
use obs::cli::{Args, Command, Flag};
use svc::job::{JobMode, JobSpec};
use wacc::OptLevel;

#[rustfmt::skip]
pub const COMMAND: Command = Command::new("report", &[
    Flag::value("--bench", "B", "benchmark").default("crc32").many(),
    Flag::value("--engine", "E", "engine (default: every engine)").many(),
    crate::LEVEL.default("O2"),
    Flag::value("--scale", "S", "test|profile|timing").default("test"),
]);

/// `report`; returns the process exit code.
pub fn run(a: &Args) -> i32 {
    let level = a.get("--level", "a level O0..O3", OptLevel::parse);
    let scale = a.get("--scale", "test|profile|timing", Scale::parse);
    let benches: Vec<&suite::Benchmark> = a
        .all("--bench")
        .into_iter()
        .map(|name| {
            suite::by_name(name)
                .unwrap_or_else(|| a.fail(format!("--bench: no benchmark named {name:?}")))
        })
        .collect();
    let given = a.all("--engine");
    let engines: Vec<EngineKind> = if given.is_empty() {
        EngineKind::all().to_vec()
    } else {
        given
            .into_iter()
            .map(|e| {
                EngineKind::parse(e)
                    .unwrap_or_else(|| a.fail(format!("--engine needs an engine name, not {e:?}")))
            })
            .collect()
    };

    obs::trace::install(obs::trace::Sink::Ring);
    for b in benches {
        // Compile the module up front so the job's wall time does not
        // pay for WaCC.
        harness::runner::wasm_bytes(b, level);
        for &kind in &engines {
            let job = JobSpec {
                mode: JobMode::Profiled,
                ..JobSpec::exec(b.name, kind, level, scale)
            };
            let res = svc::exec::execute(&job, harness::runner::env());
            if !res.ok() {
                obs::trace::install(obs::trace::Sink::Null);
                obs::error!("{} × {}: {:?}", b.name, kind.name(), res.status);
                return 1;
            }
        }
    }
    let trace = obs::trace::drain();
    obs::trace::install(obs::trace::Sink::Null);
    print!("{}", obs::prof::render(&trace));
    0
}
