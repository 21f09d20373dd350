//! Job mixes: which cells a run draws its jobs from.
//!
//! A mix is a named set of [`harness::matrix`] cells plus a
//! deterministic sampler. The presets are exactly the paper's figure
//! matrices, so the traffic a load run generates is made of cells the
//! figures actually measure.

use harness::matrix::{self, MatrixCell};
use svc::job::{JobSpec, Scale};

use crate::rng::Rng;

/// Job-mix draws use this salt stream (disjoint from arrivals).
const MIX_SALT: u64 = 0x317;

/// A named set of matrix cells to draw jobs from.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Preset name (printed in the run summary).
    pub name: String,
    /// The cells; sampling is uniform over this list.
    pub cells: Vec<MatrixCell>,
}

impl Mix {
    /// Resolves a [`harness::matrix`] preset name.
    pub fn preset(name: &str) -> Option<Mix> {
        Some(Mix {
            name: name.to_string(),
            cells: matrix::preset(name)?,
        })
    }

    /// Draws `n` cell indexes, deterministic in `(seed, phase)`.
    pub fn sample(&self, seed: u64, phase: u64, n: usize) -> Vec<usize> {
        let mut rng = Rng::new(seed, MIX_SALT ^ phase);
        (0..n).map(|_| rng.next_index(self.cells.len())).collect()
    }

    /// The job for one sampled index.
    pub fn spec(&self, index: usize, scale: Scale, warm: bool) -> JobSpec {
        self.cells[index].spec(scale, warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_and_unknown_names_do_not() {
        for name in matrix::PRESETS {
            let mix = Mix::preset(name).expect("preset resolves");
            assert!(!mix.cells.is_empty());
            assert_eq!(mix.name, name);
        }
        assert!(Mix::preset("nope").is_none());
    }

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        let mix = Mix::preset("fig1").unwrap();
        let a = mix.sample(7, 0, 200);
        assert_eq!(a, mix.sample(7, 0, 200));
        assert_ne!(a, mix.sample(8, 0, 200));
        assert_ne!(a, mix.sample(7, 1, 200));
        assert!(a.iter().all(|&i| i < mix.cells.len()));
        // 200 draws over a 250-cell matrix must not collapse onto one
        // cell — the sampler actually spreads.
        let first = a[0];
        assert!(a.iter().any(|&i| i != first));
    }
}
