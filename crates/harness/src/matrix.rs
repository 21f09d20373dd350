//! The paper's figure matrices as *data*: which benchmark × engine ×
//! opt-level × measurement-mode cells each figure sweeps.
//!
//! The experiment drivers in [`crate::experiments`] take their columns
//! from these matrices, the `--jobs N` warm pass ([`crate::parallel`])
//! schedules their cells, and the load generator draws from them to
//! build a realistic service job mix. Keeping one definition here means
//! the three cannot drift: a cell the load generator stresses or the
//! warm pass pre-fills is a cell a figure actually measures.

use engines::{Backend, EngineKind};
use svc::job::{JobMode, JobSpec, Scale};
use wacc::OptLevel;

/// One schedulable cell of a figure's sweep. Scale and warm/cold are
/// run-level choices, not part of the matrix (see [`MatrixCell::spec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixCell {
    /// Registered benchmark name.
    pub benchmark: &'static str,
    /// Engine the cell runs on.
    pub engine: EngineKind,
    /// WaCC optimization level.
    pub level: OptLevel,
    /// Measurement mode (Exec for wall-clock figures, ExecAot for the
    /// AOT figure, Profiled for the architectural ones).
    pub mode: JobMode,
}

impl MatrixCell {
    /// Converts the cell into a service job at the given scale.
    pub fn spec(&self, scale: Scale, warm: bool) -> JobSpec {
        JobSpec {
            benchmark: self.benchmark.to_string(),
            engine: self.engine,
            level: self.level,
            scale,
            mode: self.mode,
            warm,
        }
    }

    /// The `engine × level` cell label `wabench-load` aggregates on
    /// (benchmarks within a cell share a latency distribution), e.g.
    /// `Wasmtime/-O2`.
    pub fn cell_key(&self) -> String {
        format!("{}/{}", self.engine.name(), self.level)
    }
}

/// Preset names accepted by [`preset`], in presentation order.
pub const PRESETS: [&str; 5] = ["fig1", "fig2", "fig3", "fig4", "arch"];

/// A preset's axes: the engines and opt levels it sweeps over every
/// benchmark, and how each cell is measured. The only place a figure's
/// engine and level lists are written down.
fn axes(name: &str) -> Option<(Vec<EngineKind>, Vec<OptLevel>, JobMode)> {
    let every_runtime = EngineKind::all().to_vec();
    Some(match name {
        // Figure 1: every benchmark on every runtime, O2, wall-clock.
        "fig1" => (every_runtime, vec![OptLevel::O2], JobMode::Exec),
        // Figure 2: Wasmer's three JIT backends, baseline first.
        "fig2" => (
            vec![
                EngineKind::Wasmer(Backend::Singlepass),
                EngineKind::Wasmer(Backend::Cranelift),
                EngineKind::Wasmer(Backend::Llvm),
            ],
            vec![OptLevel::O2],
            JobMode::Exec,
        ),
        // Figure 3: AOT compile/load split on the compiling runtimes.
        "fig3" => (
            vec![
                EngineKind::Wasmtime,
                EngineKind::Wavm,
                EngineKind::Wasmer(Backend::Cranelift),
            ],
            vec![OptLevel::O2],
            JobMode::ExecAot,
        ),
        // Figure 4: the optimization-level sweep on every runtime.
        "fig4" => (every_runtime, OptLevel::all().to_vec(), JobMode::Exec),
        // Figures 6–9: simulated architectural counters, every runtime.
        "arch" => (every_runtime, vec![OptLevel::O2], JobMode::Profiled),
        _ => return None,
    })
}

/// The cells behind a named figure matrix, or `None` for an unknown
/// name. `"arch"` covers the architectural figures 6–9, which all sweep
/// the same engine×benchmark grid under the simulator.
pub fn preset(name: &str) -> Option<Vec<MatrixCell>> {
    let (engines, levels, mode) = axes(name)?;
    Some(product(&engines, &levels, mode))
}

/// The engines of a preset, in presentation (column) order.
///
/// # Panics
///
/// Panics on a name outside [`PRESETS`].
pub fn engines(name: &str) -> Vec<EngineKind> {
    axes(name).expect("known preset").0
}

/// The opt levels of a preset, ascending.
///
/// # Panics
///
/// Panics on a name outside [`PRESETS`].
pub fn levels(name: &str) -> Vec<OptLevel> {
    axes(name).expect("known preset").1
}

fn product(engines: &[EngineKind], levels: &[OptLevel], mode: JobMode) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for b in suite::all() {
        for engine in engines {
            for level in levels {
                cells.push(MatrixCell {
                    benchmark: b.name,
                    engine: *engine,
                    level: *level,
                    mode,
                });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_the_figures() {
        let n = suite::all().len();
        assert_eq!(preset("fig1").unwrap().len(), n * 5);
        assert_eq!(preset("fig2").unwrap().len(), n * 3);
        assert_eq!(preset("fig3").unwrap().len(), n * 3);
        assert_eq!(preset("fig4").unwrap().len(), n * 5 * 4);
        assert_eq!(preset("arch").unwrap().len(), n * 5);
        assert!(preset("fig99").is_none());
        for name in PRESETS {
            assert!(preset(name).is_some(), "{name} must resolve");
        }
    }

    #[test]
    fn modes_match_the_figures() {
        assert!(preset("fig1").unwrap().iter().all(|c| c.mode == JobMode::Exec));
        assert!(preset("fig3").unwrap().iter().all(|c| c.mode == JobMode::ExecAot));
        assert!(preset("arch").unwrap().iter().all(|c| c.mode == JobMode::Profiled));
    }

    #[test]
    fn cells_convert_to_jobs() {
        let cell = preset("fig1").unwrap()[0];
        let spec = cell.spec(Scale::Test, true);
        assert_eq!(spec.benchmark, cell.benchmark);
        assert_eq!(spec.mode, JobMode::Exec);
        assert!(spec.warm);
        assert!(cell.cell_key().contains('/'));
    }
}
