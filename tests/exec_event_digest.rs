//! Pinned profiled-event stream of the compiled tiers across the suite.
//!
//! The register-IR executor shared by the three compiled tiers reports
//! every modeled fetch, µop, data access, branch and skipped check to the
//! [`Profiler`]; the architectural simulator behind Figures 6–10 and
//! Table 5 consumes exactly that stream. This test folds the whole stream
//! into one FNV-1a digest — every event with all of its fields, each
//! run's result, and a hash of the final memory image — over every suite
//! program at test scale on Singlepass, Cranelift and LLVM. A change to how
//! the executor dispatches or encodes its ops must reproduce it bit for
//! bit: same events per source op.

use engines::profiler::BranchKind;
use engines::{Backend, Engine, EngineKind, Profiler};
use wasi_rt::WasiCtx;
use wasm_core::types::Value;

/// A change meant to move the modeled events updates this and says why.
const PINNED: u64 = 13_306_004_325_367_327_500;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words (one multiply per field keeps the debug build
/// fast enough), with a tag word per event kind so that adjacent events
/// cannot alias.
struct Digest {
    h: u64,
    events: u64,
}

impl Digest {
    fn word(&mut self, w: u64) {
        self.h = (self.h ^ w).wrapping_mul(FNV_PRIME);
    }

    fn event(&mut self, tag: u64) {
        self.events += 1;
        self.word(tag);
    }
}

impl Profiler for Digest {
    fn fetch(&mut self, addr: u64, len: u32) {
        self.event(1);
        self.word(addr);
        self.word(u64::from(len));
    }

    fn uops(&mut self, n: u64) {
        self.event(2);
        self.word(n);
    }

    fn read(&mut self, addr: u64, len: u32) {
        self.event(3);
        self.word(addr);
        self.word(u64::from(len));
    }

    fn write(&mut self, addr: u64, len: u32) {
        self.event(4);
        self.word(addr);
        self.word(u64::from(len));
    }

    fn branch(&mut self, site: u64, kind: BranchKind, taken: bool, target: u64) {
        self.event(5);
        self.word(site);
        self.word(kind as u64);
        self.word(u64::from(taken));
        self.word(target);
    }

    fn check_skipped(&mut self) {
        self.event(6);
    }
}

/// Which WaCC level each program runs at: the suite rotates through
/// O0–O3 so every level is covered while the test stays a few seconds in
/// a debug build.
fn level_for(i: usize) -> wacc::OptLevel {
    wacc::OptLevel::all()[i % wacc::OptLevel::all().len()]
}

#[test]
fn compiled_tier_events_are_pinned_across_the_suite() {
    let mut d = Digest { h: FNV_OFFSET, events: 0 };
    for (i, b) in suite::all().iter().enumerate() {
        let bytes = b.compile(level_for(i)).expect("compile");
        for backend in Backend::all() {
            let compiled = Engine::new(EngineKind::Wasmer(backend))
                .compile(&bytes)
                .expect("compile");
            let mut inst = compiled
                .instantiate(&wasi_rt::imports(), Box::new(WasiCtx::new()))
                .expect("instantiate");
            let out = inst.invoke_profiled("run", &[Value::I32(b.sizes.test)], &mut d);
            let result = match out {
                Ok(Some(Value::I32(v))) => v,
                other => panic!("{} on {backend}: {other:?}", b.name),
            };
            d.word(7);
            d.word(u64::from(result as u32));
            let mem = inst.memory().expect("suite programs export memory");
            let image = mem.slice(0, mem.size_bytes() as u32).expect("whole memory");
            let mut m = Digest { h: FNV_OFFSET, events: 0 };
            for chunk in image.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                m.word(u64::from_le_bytes(w));
            }
            d.word(8);
            d.word(m.h);
        }
    }
    assert_eq!(d.h, PINNED, "compiled-tier events moved ({} events)", d.events);
}
