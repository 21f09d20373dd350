//! Pinned output of the interval analysis across the whole suite.
//!
//! The range analysis decides which checks the JIT tiers eliminate (and
//! the proofs an AOT artifact carries) and which sites the interpreters
//! mark safe. Any change to its fixpoint that moves a single interval
//! shows up here: one FNV-1a digest over the AOT artifact bytes of every
//! suite program at O0–O3 on all three compiled tiers, plus the
//! `safe_wasm_sites` marks both interpreters build their code from.

use engines::jit::verify::safe_wasm_sites;
use engines::{Backend, Engine, EngineKind};

/// A refactor or speed-up of the analysis must reproduce this bit for
/// bit; a change meant to move proofs updates it and says why.
const PINNED: u64 = 6_301_558_516_315_245_731;

struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn analysis_output_is_pinned_across_the_suite() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut artifact_bytes = 0usize;
    for b in suite::all() {
        for level in wacc::OptLevel::all() {
            let bytes = b.compile(level).expect("compile");
            for backend in Backend::all() {
                let artifact = Engine::new(EngineKind::Wasmer(backend))
                    .precompile(&bytes)
                    .expect("precompile");
                artifact_bytes += artifact.len();
                h.write(&(artifact.len() as u64).to_le_bytes());
                h.write(&artifact);
            }
            let module = wasm_core::decode::decode(&bytes).expect("decode");
            for f in &module.funcs {
                let marks = safe_wasm_sites(&module, f);
                h.write(&(marks.len() as u64).to_le_bytes());
                h.write(&marks.iter().map(|&m| m as u8).collect::<Vec<u8>>());
            }
        }
    }
    assert_eq!(h.0, PINNED, "analysis output moved ({artifact_bytes} artifact bytes)");
}
