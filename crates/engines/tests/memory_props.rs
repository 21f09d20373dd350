//! Property tests for `LinearMemory`: reads and writes must agree with a
//! flat byte-array reference model, bounds checks must be exact, `grow`
//! must respect limits and preserve contents, and a clone must be deep.
//! A fresh instance must never see the bytes of an instance dropped
//! before it.

use engines::memory::LinearMemory;
use engines::{Engine, EngineKind, Imports};
use proptest::prelude::*;
use wasm_core::builder::ModuleBuilder;
use wasm_core::instr::{Instr, MemArg};
use wasm_core::types::{FuncType, Limits, ValType, Value};

const PAGE: u64 = 65536;

#[derive(Debug, Clone)]
enum Op {
    Write(u32, u32, [u8; 8]),
    Read(u32, u32),
    Grow(u32),
}

fn op_strategy(max_pages: u32) -> impl Strategy<Value = Op> {
    let span = max_pages as u64 * PAGE;
    prop_oneof![
        4 => (0..span as u32, 0u32..16, any::<[u8; 8]>()).prop_map(|(a, o, d)| Op::Write(a, o, d)),
        4 => (0..span as u32, 0u32..16).prop_map(|(a, o)| Op::Read(a, o)),
        1 => (0u32..3).prop_map(Op::Grow),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every read/write/grow agrees with a plain `Vec<u8>` model, and every
    /// out-of-bounds access traps in both.
    #[test]
    fn memory_matches_flat_model(
        min in 0u32..2,
        ops in proptest::collection::vec(op_strategy(4), 1..200)
    ) {
        let max = 3u32;
        let mut mem = LinearMemory::new(Limits { min, max: Some(max) });
        let mut model: Vec<u8> = vec![0; (min as u64 * PAGE) as usize];

        for op in ops {
            match op {
                Op::Write(addr, offset, data) => {
                    let ea = addr as u64 + offset as u64;
                    let real = mem.write::<8>(addr, offset, data);
                    if ea + 8 <= model.len() as u64 {
                        prop_assert!(real.is_ok(), "in-bounds write trapped at {ea}");
                        model[ea as usize..ea as usize + 8].copy_from_slice(&data);
                    } else {
                        prop_assert!(real.is_err(), "oob write succeeded at {ea}");
                    }
                }
                Op::Read(addr, offset) => {
                    let ea = addr as u64 + offset as u64;
                    let real = mem.read::<8>(addr, offset);
                    if ea + 8 <= model.len() as u64 {
                        let expect: [u8; 8] =
                            model[ea as usize..ea as usize + 8].try_into().unwrap();
                        prop_assert_eq!(real.expect("in-bounds read"), expect);
                    } else {
                        prop_assert!(real.is_err(), "oob read succeeded at {ea}");
                    }
                }
                Op::Grow(delta) => {
                    let old_pages = (model.len() as u64 / PAGE) as u32;
                    let got = mem.grow(delta);
                    if old_pages + delta <= max {
                        prop_assert_eq!(got, old_pages as i32);
                        model.resize(((old_pages + delta) as u64 * PAGE) as usize, 0);
                    } else {
                        prop_assert_eq!(got, -1, "grow past max succeeded");
                    }
                }
            }
            prop_assert_eq!(mem.size_bytes(), model.len());
        }

        // Full-content agreement at the end.
        let all = mem.slice(0, model.len() as u32).expect("full slice");
        prop_assert_eq!(all, &model[..]);
        // Peak covers the current size; resident never exceeds peak.
        prop_assert!(mem.peak_bytes() >= mem.size_bytes());
        prop_assert!(mem.resident_bytes() <= mem.peak_bytes());
    }

    /// Typed loads round-trip typed stores at arbitrary aligned and
    /// unaligned addresses.
    #[test]
    fn typed_round_trip(addr in 0u32..(PAGE as u32 - 8), v32 in any::<i32>(), v64 in any::<i64>()) {
        let mut mem = LinearMemory::new(Limits { min: 1, max: Some(1) });
        mem.store_i32(addr, 0, v32).unwrap();
        prop_assert_eq!(mem.load_i32(addr, 0).unwrap(), v32);
        mem.store_i64(addr, 0, v64).unwrap();
        prop_assert_eq!(mem.load_i64(addr, 0).unwrap(), v64);
        // Little-endian byte order, as wasm requires.
        let lo = mem.read::<1>(addr, 0).unwrap()[0];
        prop_assert_eq!(lo, v64 as u8);
    }

    /// A clone is deep: writes to either side are invisible to the other,
    /// and the clone starts byte-identical.
    #[test]
    fn clone_is_deep(
        pages in 0u32..3,
        before in proptest::collection::vec((0u32..3 * PAGE as u32, any::<u8>()), 0..32),
        after in proptest::collection::vec((0u32..3 * PAGE as u32, any::<u8>()), 1..32),
    ) {
        let mut mem = LinearMemory::new(Limits { min: pages, max: None });
        for &(addr, b) in &before {
            let _ = mem.write::<1>(addr, 0, [b]);
        }
        let image = |m: &LinearMemory| m.slice(0, m.size_bytes() as u32).unwrap().to_vec();
        let original = image(&mem);
        let mut copy = mem.clone();
        prop_assert_eq!(image(&copy), original.clone());
        for &(addr, b) in &after {
            let _ = mem.write::<1>(addr, 0, [b]);
        }
        prop_assert_eq!(image(&copy), original);
        let written = image(&mem);
        for &(addr, b) in &after {
            let _ = copy.write::<1>(addr, 0, [!b]);
        }
        prop_assert_eq!(image(&mem), written);
    }

    /// `grow` preserves existing contents verbatim.
    #[test]
    fn grow_preserves_contents(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        at in 0u32..PAGE as u32,
    ) {
        let at = at.min(PAGE as u32 - data.len() as u32);
        let mut mem = LinearMemory::new(Limits { min: 1, max: Some(4) });
        mem.write_slice(at, &data).unwrap();
        assert_eq!(mem.grow(2), 1);
        let back = mem.slice(at, data.len() as u32).unwrap();
        prop_assert_eq!(back, &data[..]);
        // The newly-grown pages read as zeros.
        let fresh = mem.slice(PAGE as u32, 2 * PAGE as u32).unwrap();
        prop_assert!(fresh.iter().all(|b| *b == 0));
    }
}

/// A 256-page (16 MiB) module exporting `poke(addr, v)` and `peek(addr)`.
fn poke_peek_module() -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    b.memory(256, None);
    let arg = MemArg { align: 2, offset: 0 };
    let poke = b.begin_func(FuncType::new(&[ValType::I32, ValType::I32], &[]));
    b.emit(Instr::LocalGet(0));
    b.emit(Instr::LocalGet(1));
    b.emit(Instr::I32Store(arg));
    b.finish_func();
    let peek = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
    b.emit(Instr::LocalGet(0));
    b.emit(Instr::I32Load(arg));
    b.finish_func();
    b.export_func("poke", poke).export_func("peek", peek);
    wasm_core::encode::encode(&b.build())
}

/// Dropping an instance and instantiating the same compiled module again
/// gives zeroed memory: nothing written by the first instance survives
/// into the second, on an interpreter and on a compiled tier.
#[test]
fn fresh_instance_never_sees_old_bytes() {
    let bytes = poke_peek_module();
    let last_page = 255 * PAGE as i32;
    for kind in [EngineKind::Wamr, EngineKind::Wasmtime] {
        let compiled = Engine::new(kind).compile(&bytes).unwrap();
        for round in 0..4 {
            let mut inst = compiled.instantiate(&Imports::new(), Box::new(())).unwrap();
            for addr in (last_page..last_page + PAGE as i32).step_by(4096) {
                let seen = inst.invoke("peek", &[Value::I32(addr)]).unwrap();
                assert_eq!(seen, Some(Value::I32(0)), "{kind:?} round {round} at {addr:#x}");
                inst.invoke("poke", &[Value::I32(addr), Value::I32(-1)]).unwrap();
            }
            assert_eq!(inst.memory().unwrap().resident_bytes(), 256 * PAGE as usize);
        }
    }
}
