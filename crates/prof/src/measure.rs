//! The measurement behind `wabench-prof report`.
//!
//! A measurement is one [`svc::exec::execute`] of a `Profiled` job —
//! the measurement every simulated figure cell gets: fresh engine,
//! fresh simulator, compile + execute under [`archsim`]. Wall-clock
//! time varies between runs (and machines); the simulated counters do
//! not — the simulator is deterministic, so one run's counters
//! characterize the cell exactly.

use archsim::Counters;
use engines::EngineKind;
use suite::Benchmark;
use svc::job::{JobMode, JobSpec};
use wacc::OptLevel;

pub use harness::runner::Scale;

/// One benchmark × engine × opt-level × scale cell.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec<'a> {
    /// The benchmark to run.
    pub bench: &'a Benchmark,
    /// The engine under test.
    pub engine: EngineKind,
    /// Source optimization level.
    pub level: OptLevel,
    /// Workload scale.
    pub scale: Scale,
}

/// What [`measure_cell`] collected.
#[derive(Debug, Clone)]
pub struct CellMeasurement {
    /// Wall-clock seconds of the run.
    pub wall_s: f64,
    /// Simulated counters for the cell.
    pub counters: Counters,
}

/// Runs `spec` once, verifying the checksum.
///
/// The run emits a `svc.job.exec` span carrying the cell's full
/// counter totals, so a ring-sink capture of a measurement session
/// yields an attributed profile for free.
///
/// # Errors
///
/// A message naming the cell on compile failure or trap.
///
/// # Panics
///
/// Panics on a checksum mismatch, like every other measurement.
pub fn measure_cell(spec: &CellSpec<'_>) -> Result<CellMeasurement, String> {
    let job = JobSpec {
        mode: JobMode::Profiled,
        ..JobSpec::exec(spec.bench.name, spec.engine, spec.level, spec.scale)
    };
    // Compile the module up front so the wall time does not pay for
    // WaCC.
    harness::runner::wasm_bytes(spec.bench, spec.level);
    let res = svc::exec::execute(&job, harness::runner::env());
    if !res.ok() {
        let (bench, engine) = (spec.bench.name, spec.engine.name());
        return Err(format!("{bench} × {engine}: {:?}", res.status));
    }
    Ok(CellMeasurement {
        wall_s: res.wall_s,
        counters: res.counters.expect("profiled job reports counters"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_deterministic() {
        let b = suite::by_name("crc32").expect("registered");
        let spec = CellSpec {
            bench: b,
            engine: EngineKind::Wasm3,
            level: OptLevel::O1,
            scale: Scale::Test,
        };
        let a = measure_cell(&spec).expect("measure");
        let b2 = measure_cell(&spec).expect("measure");
        assert!(a.wall_s > 0.0);
        // Deterministic simulation: counters agree across sessions.
        assert_eq!(a.counters, b2.counters);
        assert!(a.counters.instructions > 0);
    }
}
