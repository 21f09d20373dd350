//! The repetition driver behind `wabench-prof record` and `diff`.
//!
//! Each repetition is one [`svc::exec::execute`] of a `Profiled` job —
//! the measurement every simulated figure cell gets: fresh engine,
//! fresh simulator, compile + execute under [`archsim`]. Wall-clock
//! time varies between repetitions (and machines); the simulated
//! counters do not — the simulator is deterministic, so a single
//! repetition's counters characterize the cell exactly.

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
    /// Wall-clock seconds per repetition (already scaled by the
    /// slowdown multiplier).
    pub wall_s: Vec<f64>,
    /// Simulated counters for the cell (identical across repetitions).
    pub counters: Counters,
}

/// Runs `spec` for `reps` repetitions, verifying the checksum each
/// time. `slowdown` multiplies the recorded wall times — it exists so
/// the regression detector can be exercised end-to-end (a synthetic
/// 2× slowdown must trip the diff); production callers pass `1.0`.
///
/// Each repetition emits a `svc.job.exec` span carrying the cell's full
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
pub fn measure_cell(
    spec: &CellSpec<'_>,
    reps: u32,
    slowdown: f64,
) -> Result<CellMeasurement, String> {
    let job = JobSpec {
        mode: JobMode::Profiled,
        ..JobSpec::exec(spec.bench.name, spec.engine, spec.level, spec.scale)
    };
    // Compile the module up front so no repetition's wall time pays
    // for WaCC.
    harness::runner::wasm_bytes(spec.bench, spec.level);
    let mut wall_s = Vec::with_capacity(reps as usize);
    let mut counters = Counters::default();
    for _ in 0..reps.max(1) {
        let res = svc::exec::execute(&job, harness::runner::env());
        if !res.ok() {
            let (bench, engine) = (spec.bench.name, spec.engine.name());
            return Err(format!("{bench} × {engine}: {:?}", res.status));
        }
        wall_s.push(res.wall_s * slowdown);
        counters = res.counters.expect("profiled job reports counters");
    }
    Ok(CellMeasurement { wall_s, counters })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_deterministic_and_scaled() {
        let b = suite::by_name("crc32").expect("registered");
        let spec = CellSpec {
            bench: b,
            engine: EngineKind::Wasm3,
            level: OptLevel::O1,
            scale: Scale::Test,
        };
        let a = measure_cell(&spec, 2, 1.0).expect("measure");
        let b2 = measure_cell(&spec, 1, 1.0).expect("measure");
        assert_eq!(a.wall_s.len(), 2);
        assert!(a.wall_s.iter().all(|w| *w > 0.0));
        // Deterministic simulation: counters agree across sessions.
        assert_eq!(a.counters, b2.counters);
        assert!(a.counters.instructions > 0);
    }

    #[test]
    fn zero_reps_still_measures_once() {
        let b = suite::by_name("crc32").expect("registered");
        let spec = CellSpec {
            bench: b,
            engine: EngineKind::Wasm3,
            level: OptLevel::O0,
            scale: Scale::Test,
        };
        let m = measure_cell(&spec, 0, 1.0).expect("measure");
        assert_eq!(m.wall_s.len(), 1);
    }
}
