//! Ahead-of-time compilation artifacts.
//!
//! An artifact is a self-contained binary image of a compiled module:
//! loading it skips decoding, validation, lowering, and optimization —
//! exactly the cost AOT removes in the paper's Figure 3 / Table 4. The
//! format is a compact custom binary encoding (real AOT images are
//! binary, and the workspace deliberately carries no serialization
//! framework dependency).

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Mutex;

use crate::error::EngineError;
use crate::jit::exec::RegCode;
use crate::jit::ir::{RFunc, ROp};
use crate::jit::Tier;
use analysis::range;
use wasm_core::instr::{Instr, MemArg};
use wasm_core::leb::{self, Reader};

/// Artifact magic: `WAOT`.
const MAGIC: &[u8; 4] = b"WAOT";
/// Artifact format version. Version 2 added the per-function minimum
/// memory size and check-elimination proof obligations; loading
/// re-derives every obligation, so a tampered artifact is rejected.
const VERSION: u32 = 2;

/// Serializes a compiled module into an AOT artifact.
pub fn to_bytes(code: &RegCode, tier: Tier) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(MAGIC);
    leb::write_u32(&mut out, VERSION);
    out.push(match tier {
        Tier::Singlepass => 0,
        Tier::Cranelift => 1,
        Tier::Llvm => 2,
    });
    // Embed the module (needed for types/exports/data at instantiation).
    let module_bytes = wasm_core::encode::encode(&code.module);
    leb::write_u32(&mut out, module_bytes.len() as u32);
    out.extend_from_slice(&module_bytes);
    // Compiled functions.
    leb::write_u32(&mut out, code.funcs.len() as u32);
    for f in &code.funcs {
        write_func(&mut out, f);
    }
    out
}

/// Deserializes an AOT artifact, re-deriving every proof obligation.
///
/// # Errors
///
/// Returns [`EngineError::BadArtifact`] on malformed input, wrong magic or
/// version; the embedded module is re-decoded and must be well-formed.
pub fn from_bytes(bytes: &[u8]) -> Result<(RegCode, Tier), EngineError> {
    read(bytes, true)
}

/// [`from_bytes`], with proof re-derivation skipped when `check_proofs`
/// is false. Only for bytes a [`VerifiedArtifacts`] holds: an earlier
/// load re-derived the proofs of exactly these bytes.
pub(crate) fn read(bytes: &[u8], check_proofs: bool) -> Result<(RegCode, Tier), EngineError> {
    let bad = |m: &str| EngineError::BadArtifact(m.to_string());
    let mut r = Reader::new(bytes);
    if r.bytes(4).map_err(|_| bad("truncated header"))? != MAGIC {
        return Err(bad("wrong magic"));
    }
    let version = r.u32().map_err(|_| bad("truncated version"))?;
    if version != VERSION {
        return Err(EngineError::BadArtifact(format!(
            "unsupported artifact version {version}"
        )));
    }
    let tier = match r.byte().map_err(|_| bad("truncated tier"))? {
        0 => Tier::Singlepass,
        1 => Tier::Cranelift,
        2 => Tier::Llvm,
        t => return Err(EngineError::BadArtifact(format!("unknown tier {t}"))),
    };
    let mlen = r.u32().map_err(|_| bad("truncated module length"))? as usize;
    let module_bytes = r.bytes(mlen).map_err(|_| bad("truncated module"))?;
    let module = wasm_core::decode::decode(module_bytes)?;
    let nfuncs = r.u32().map_err(|_| bad("truncated func count"))? as usize;
    if nfuncs != module.funcs.len() {
        return Err(bad("function count mismatch"));
    }
    // Counts are untrusted: cap every pre-allocation by what the remaining
    // bytes could possibly encode (each element costs at least one byte).
    let mut funcs = Vec::with_capacity(nfuncs.min(r.remaining()));
    for _ in 0..nfuncs {
        funcs.push(read_func(&mut r).map_err(|_| bad("truncated function"))?);
    }
    let code = RegCode::try_new(Rc::new(module), funcs, check_proofs)
        .map_err(|e| EngineError::BadArtifact(format!("invalid code: {e}")))?;
    Ok((code, tier))
}

/// Artifacts whose proof obligations passed full re-derivation, kept by
/// their exact bytes so a repeat load of the same artifact can skip the
/// interval analysis that dominates loading.
///
/// Only a load through [`crate::Engine::load_artifact_in`] inserts, and
/// only after that load re-derived every proof. A hit needs the whole
/// artifact to be byte-equal to a remembered one; the hash merely picks
/// which entries to compare, so neither a hash collision nor an artifact
/// edited in place (same store key, different bytes) can skip a check.
/// At most [`VerifiedArtifacts::CAP`] entries are kept, oldest evicted
/// first.
#[derive(Default)]
pub struct VerifiedArtifacts {
    inner: Mutex<Verified>,
}

impl std::fmt::Debug for VerifiedArtifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.lock();
        f.debug_struct("VerifiedArtifacts")
            .field("entries", &v.entries.len())
            .field("hits", &v.hits)
            .finish()
    }
}

#[derive(Default)]
struct Verified {
    /// `(bucket, bytes)`, oldest first.
    entries: VecDeque<(u64, Box<[u8]>)>,
    hits: u64,
}

/// Bytes that pick an artifact's bucket: the header and the start of the
/// embedded module.
const BUCKET_PREFIX: usize = 64;

/// An artifact's bucket: FNV-1a over its first [`BUCKET_PREFIX`] bytes.
/// Constant cost at any size, and deliberately coarse: an artifact whose
/// code or proofs were edited shares its original's bucket, so only byte
/// equality ever tells the two apart.
fn bucket(bytes: &[u8]) -> u64 {
    bytes[..bytes.len().min(BUCKET_PREFIX)]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

impl VerifiedArtifacts {
    /// Entries kept before the oldest is evicted.
    pub const CAP: usize = 256;

    /// An empty memo.
    pub fn new() -> VerifiedArtifacts {
        VerifiedArtifacts::default()
    }

    /// Artifacts currently remembered.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Loads that skipped proof re-derivation.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Verified> {
        // The state is always consistent between statements, so a panic
        // elsewhere while holding the lock cannot leave it half-updated.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// True (and counted as a hit) when `bytes` passed a full check.
    pub(crate) fn contains(&self, bytes: &[u8]) -> bool {
        let b = bucket(bytes);
        let mut v = self.lock();
        let hit = v.entries.iter().any(|(eb, e)| *eb == b && **e == *bytes);
        v.hits += u64::from(hit);
        hit
    }

    /// Remembers `bytes`, whose proofs were just re-derived in full.
    pub(crate) fn insert(&self, bytes: &[u8]) {
        let b = bucket(bytes);
        let mut v = self.lock();
        if v.entries.iter().any(|(eb, e)| *eb == b && **e == *bytes) {
            return; // a concurrent load of the same bytes got here first
        }
        if v.entries.len() == Self::CAP {
            v.entries.pop_front();
        }
        v.entries.push_back((b, bytes.into()));
    }
}

fn write_func(out: &mut Vec<u8>, f: &RFunc) {
    leb::write_u32(out, f.nparams as u32);
    leb::write_u32(out, f.nlocals as u32);
    leb::write_u32(out, f.nregs as u32);
    out.push(f.result as u8);
    leb::write_u32(out, f.tables.len() as u32);
    for t in &f.tables {
        leb::write_u32(out, t.len() as u32);
        for e in t {
            leb::write_u32(out, *e);
        }
    }
    leb::write_u32(out, f.ops.len() as u32);
    for op in &f.ops {
        write_op(out, op);
    }
    leb::write_u64(out, f.mem_min_bytes);
    leb::write_u32(out, f.proofs.len() as u32);
    for p in &f.proofs {
        write_obligation(out, p);
    }
}

/// Guard sentinel for "no dominating guard".
const NO_GUARD: u32 = u32::MAX;

fn write_obligation(out: &mut Vec<u8>, p: &range::Obligation) {
    leb::write_u32(out, p.op);
    out.push(match p.kind {
        range::CheckKind::MemInBounds => 0,
        range::CheckKind::DivSafe => 1,
        range::CheckKind::TruncSafe => 2,
    });
    match p.fact {
        range::Fact::Int(iv) => {
            out.push(0);
            leb::write_u64(out, iv.lo as u64);
            leb::write_u64(out, iv.hi as u64);
        }
        range::Fact::Float(fv) => {
            out.push(1);
            leb::write_u64(out, fv.lo.to_bits());
            leb::write_u64(out, fv.hi.to_bits());
            out.push(fv.nan as u8);
        }
    }
    leb::write_u32(out, p.guard.unwrap_or(NO_GUARD));
}

fn read_obligation(r: &mut Reader<'_>) -> Result<range::Obligation, wasm_core::DecodeError> {
    fn bad(r: &Reader<'_>) -> wasm_core::DecodeError {
        wasm_core::DecodeError {
            offset: r.pos(),
            kind: wasm_core::error::DecodeErrorKind::UnknownOpcode(0),
        }
    }
    let op = r.u32()?;
    let kind = match r.byte()? {
        0 => range::CheckKind::MemInBounds,
        1 => range::CheckKind::DivSafe,
        2 => range::CheckKind::TruncSafe,
        _ => return Err(bad(r)),
    };
    let fact = match r.byte()? {
        0 => {
            let lo = r.u64()? as i64;
            let hi = r.u64()? as i64;
            range::Fact::Int(range::Interval { lo, hi })
        }
        1 => {
            let lo = f64::from_bits(r.u64()?);
            let hi = f64::from_bits(r.u64()?);
            let nan = r.byte()? != 0;
            range::Fact::Float(range::FInterval { lo, hi, nan })
        }
        _ => return Err(bad(r)),
    };
    let g = r.u32()?;
    Ok(range::Obligation { op, kind, fact, guard: (g != NO_GUARD).then_some(g) })
}

fn read_func(r: &mut Reader<'_>) -> Result<RFunc, wasm_core::DecodeError> {
    // Frame dimensions are u16 in the IR; an overflowing count is corrupt,
    // not truncatable.
    let dim = |r: &mut Reader<'_>, v: u32| {
        u16::try_from(v).map_err(|_| wasm_core::DecodeError {
            offset: r.pos(),
            kind: wasm_core::DecodeErrorKind::IntTooLarge,
        })
    };
    let v = r.u32()?;
    let nparams = dim(r, v)?;
    let v = r.u32()?;
    let nlocals = dim(r, v)?;
    let v = r.u32()?;
    let nregs = dim(r, v)?;
    let result = r.byte()? != 0;
    let ntables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables.min(r.remaining()));
    for _ in 0..ntables {
        let n = r.u32()? as usize;
        let mut t = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            t.push(r.u32()?);
        }
        tables.push(t);
    }
    let nops = r.u32()? as usize;
    let mut ops = Vec::with_capacity(nops.min(r.remaining()));
    for _ in 0..nops {
        ops.push(read_op(r)?);
    }
    let mem_min_bytes = r.u64()?;
    let nproofs = r.u32()? as usize;
    let mut proofs = Vec::with_capacity(nproofs.min(r.remaining()));
    for _ in 0..nproofs {
        proofs.push(read_obligation(r)?);
    }
    Ok(RFunc {
        ops,
        nparams,
        nlocals,
        nregs,
        result,
        tables,
        mem_min_bytes,
        proofs,
    })
}

/// Encodes an [`Instr`] operator as its binary opcode byte.
fn instr_byte(i: Instr) -> u8 {
    if let Some(b) = wasm_core::opcode::simple_to_byte(&i) {
        return b;
    }
    if let Some((b, _)) = wasm_core::opcode::mem_opcode(&i) {
        return b;
    }
    unreachable!("IR operators always have opcode bytes: {i:?}")
}

fn instr_from_byte(b: u8) -> Option<Instr> {
    wasm_core::opcode::simple_from_byte(b)
        .or_else(|| wasm_core::opcode::mem_from_byte(b, MemArg::default()))
}

fn write_op(out: &mut Vec<u8>, op: &ROp) {
    use ROp::*;
    match *op {
        Const { rd, bits } => {
            out.push(0);
            leb::write_u32(out, rd as u32);
            leb::write_u64(out, bits);
        }
        Move { rd, rs } => {
            out.push(1);
            leb::write_u32(out, rd as u32);
            leb::write_u32(out, rs as u32);
        }
        Bin { op, rd, ra, rb } => {
            out.push(2);
            out.push(instr_byte(op));
            leb::write_u32(out, rd as u32);
            leb::write_u32(out, ra as u32);
            leb::write_u32(out, rb as u32);
        }
        Un { op, rd, ra } => {
            out.push(3);
            out.push(instr_byte(op));
            leb::write_u32(out, rd as u32);
            leb::write_u32(out, ra as u32);
        }
        Load { op, rd, addr, offset } => {
            out.push(4);
            out.push(instr_byte(op));
            leb::write_u32(out, rd as u32);
            leb::write_u32(out, addr as u32);
            leb::write_u32(out, offset);
        }
        Store { op, addr, val, offset } => {
            out.push(5);
            out.push(instr_byte(op));
            leb::write_u32(out, addr as u32);
            leb::write_u32(out, val as u32);
            leb::write_u32(out, offset);
        }
        Select { rd, cond, a, b } => {
            out.push(6);
            leb::write_u32(out, rd as u32);
            leb::write_u32(out, cond as u32);
            leb::write_u32(out, a as u32);
            leb::write_u32(out, b as u32);
        }
        GlobalGet { rd, idx } => {
            out.push(7);
            leb::write_u32(out, rd as u32);
            leb::write_u32(out, idx);
        }
        GlobalSet { idx, rs } => {
            out.push(8);
            leb::write_u32(out, idx);
            leb::write_u32(out, rs as u32);
        }
        MemSize { rd } => {
            out.push(9);
            leb::write_u32(out, rd as u32);
        }
        MemGrow { rd, rs } => {
            out.push(10);
            leb::write_u32(out, rd as u32);
            leb::write_u32(out, rs as u32);
        }
        Jump { target } => {
            out.push(11);
            leb::write_u32(out, target);
        }
        BrIf { cond, target } => {
            out.push(12);
            leb::write_u32(out, cond as u32);
            leb::write_u32(out, target);
        }
        BrIfZ { cond, target } => {
            out.push(13);
            leb::write_u32(out, cond as u32);
            leb::write_u32(out, target);
        }
        BrCmp { op, ra, rb, target } => {
            out.push(14);
            out.push(instr_byte(op));
            leb::write_u32(out, ra as u32);
            leb::write_u32(out, rb as u32);
            leb::write_u32(out, target);
        }
        BrCmpZ { op, ra, rb, target } => {
            out.push(15);
            out.push(instr_byte(op));
            leb::write_u32(out, ra as u32);
            leb::write_u32(out, rb as u32);
            leb::write_u32(out, target);
        }
        BrTable { idx, table } => {
            out.push(16);
            leb::write_u32(out, idx as u32);
            leb::write_u32(out, table);
        }
        Call { f, args, nargs, ret } => {
            out.push(17);
            leb::write_u32(out, f);
            leb::write_u32(out, args as u32);
            out.push(nargs);
            out.push(ret as u8);
        }
        CallIndirect { type_idx, elem, args, nargs, ret } => {
            out.push(18);
            leb::write_u32(out, type_idx);
            leb::write_u32(out, elem as u32);
            leb::write_u32(out, args as u32);
            out.push(nargs);
            out.push(ret as u8);
        }
        Ret { rs, has } => {
            out.push(19);
            leb::write_u32(out, rs as u32);
            out.push(has as u8);
        }
        Trap => out.push(20),
        Nop => out.push(21),
        Bin2 { op1, op2, rd, ra, rb, rc, swapped } => {
            out.push(23);
            out.push(instr_byte(op1));
            out.push(instr_byte(op2));
            leb::write_u32(out, rd as u32);
            leb::write_u32(out, ra as u32);
            leb::write_u32(out, rb as u32);
            leb::write_u32(out, rc as u32);
            out.push(swapped as u8);
        }
        BinImm { op, rd, ra, imm } => {
            out.push(22);
            out.push(instr_byte(op));
            leb::write_u32(out, rd as u32);
            leb::write_u32(out, ra as u32);
            leb::write_u64(out, imm);
        }
    }
}

fn read_op(r: &mut Reader<'_>) -> Result<ROp, wasm_core::DecodeError> {
    use ROp::*;
    fn bad() -> wasm_core::DecodeError {
        wasm_core::DecodeError {
            offset: 0,
            kind: wasm_core::error::DecodeErrorKind::UnknownOpcode(0),
        }
    }
    let tag = r.byte()?;
    Ok(match tag {
        0 => Const {
            rd: r.u32()? as u16,
            bits: r.u64()?,
        },
        1 => Move {
            rd: r.u32()? as u16,
            rs: r.u32()? as u16,
        },
        2 => {
            let op = instr_from_byte(r.byte()?).ok_or_else(bad)?;
            Bin {
                op,
                rd: r.u32()? as u16,
                ra: r.u32()? as u16,
                rb: r.u32()? as u16,
            }
        }
        3 => {
            let op = instr_from_byte(r.byte()?).ok_or_else(bad)?;
            Un {
                op,
                rd: r.u32()? as u16,
                ra: r.u32()? as u16,
            }
        }
        4 => {
            let op = instr_from_byte(r.byte()?).ok_or_else(bad)?;
            Load {
                op,
                rd: r.u32()? as u16,
                addr: r.u32()? as u16,
                offset: r.u32()?,
            }
        }
        5 => {
            let op = instr_from_byte(r.byte()?).ok_or_else(bad)?;
            Store {
                op,
                addr: r.u32()? as u16,
                val: r.u32()? as u16,
                offset: r.u32()?,
            }
        }
        6 => Select {
            rd: r.u32()? as u16,
            cond: r.u32()? as u16,
            a: r.u32()? as u16,
            b: r.u32()? as u16,
        },
        7 => GlobalGet {
            rd: r.u32()? as u16,
            idx: r.u32()?,
        },
        8 => GlobalSet {
            idx: r.u32()?,
            rs: r.u32()? as u16,
        },
        9 => MemSize {
            rd: r.u32()? as u16,
        },
        10 => MemGrow {
            rd: r.u32()? as u16,
            rs: r.u32()? as u16,
        },
        11 => Jump { target: r.u32()? },
        12 => BrIf {
            cond: r.u32()? as u16,
            target: r.u32()?,
        },
        13 => BrIfZ {
            cond: r.u32()? as u16,
            target: r.u32()?,
        },
        14 => {
            let op = instr_from_byte(r.byte()?).ok_or_else(bad)?;
            BrCmp {
                op,
                ra: r.u32()? as u16,
                rb: r.u32()? as u16,
                target: r.u32()?,
            }
        }
        15 => {
            let op = instr_from_byte(r.byte()?).ok_or_else(bad)?;
            BrCmpZ {
                op,
                ra: r.u32()? as u16,
                rb: r.u32()? as u16,
                target: r.u32()?,
            }
        }
        16 => BrTable {
            idx: r.u32()? as u16,
            table: r.u32()?,
        },
        17 => Call {
            f: r.u32()?,
            args: r.u32()? as u16,
            nargs: r.byte()?,
            ret: r.byte()? != 0,
        },
        18 => CallIndirect {
            type_idx: r.u32()?,
            elem: r.u32()? as u16,
            args: r.u32()? as u16,
            nargs: r.byte()?,
            ret: r.byte()? != 0,
        },
        19 => Ret {
            rs: r.u32()? as u16,
            has: r.byte()? != 0,
        },
        20 => Trap,
        21 => Nop,
        22 => {
            let op = instr_from_byte(r.byte()?).ok_or_else(bad)?;
            BinImm {
                op,
                rd: r.u32()? as u16,
                ra: r.u32()? as u16,
                imm: r.u64()?,
            }
        }
        23 => {
            let op1 = instr_from_byte(r.byte()?).ok_or_else(bad)?;
            let op2 = instr_from_byte(r.byte()?).ok_or_else(bad)?;
            Bin2 {
                op1,
                op2,
                rd: r.u32()? as u16,
                ra: r.u32()? as u16,
                rb: r.u32()? as u16,
                rc: r.u32()? as u16,
                swapped: r.byte()? != 0,
            }
        }
        _ => return Err(bad()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jit::compile_module;
    use wasm_core::builder::ModuleBuilder;
    use wasm_core::instr::{BlockType, Instr};
    use wasm_core::types::{FuncType, ValType};

    fn sample() -> RegCode {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
        let l = b.new_local(ValType::I32);
        b.emit(Instr::Block(BlockType::Empty));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::I32Const(10));
        b.emit(Instr::I32LtS);
        b.emit(Instr::BrIf(0));
        b.emit(Instr::I32Const(4));
        b.emit(Instr::LocalSet(l));
        b.emit(Instr::End);
        b.emit(Instr::LocalGet(l));
        b.finish_func();
        b.export_func("f", f);
        let m = b.build();
        wasm_core::validate::validate(&m).unwrap();
        compile_module(Rc::new(m), Tier::Cranelift).unwrap().0
    }

    #[test]
    fn artifact_round_trips() {
        let code = sample();
        let bytes = to_bytes(&code, Tier::Cranelift);
        let (loaded, tier) = from_bytes(&bytes).unwrap();
        assert_eq!(tier, Tier::Cranelift);
        assert_eq!(loaded.funcs, code.funcs);
        assert_eq!(*loaded.module, *code.module);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_bytes(b"not an artifact").is_err());
        let code = sample();
        let mut bytes = to_bytes(&code, Tier::Llvm);
        bytes[0] = b'X';
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let code = sample();
        let bytes = to_bytes(&code, Tier::Singlepass);
        for cut in [5, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn proofs_round_trip_and_tampering_is_rejected() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.begin_func(FuncType::new(&[], &[ValType::I64]));
        b.emit(Instr::I32Const(64));
        b.emit(Instr::I64Load(Default::default()));
        b.finish_func();
        b.export_func("f", f);
        let m = b.build();
        wasm_core::validate::validate(&m).unwrap();
        let mut code = compile_module(Rc::new(m), Tier::Cranelift).unwrap().0;
        assert!(!code.funcs[0].proofs.is_empty(), "const-address load should be proven");

        // Honest proofs survive the round trip (and its re-derivation).
        let (loaded, _) = from_bytes(&to_bytes(&code, Tier::Cranelift)).unwrap();
        assert_eq!(loaded.funcs[0].proofs, code.funcs[0].proofs);

        // A widened (unsafe) claim must be rejected at load time.
        code.funcs[0].proofs[0].fact =
            range::Fact::Int(range::Interval::new(0, i32::MAX as i64));
        let err = from_bytes(&to_bytes(&code, Tier::Cranelift));
        assert!(
            matches!(&err, Err(EngineError::BadArtifact(m)) if m.contains("proof")),
            "{err:?}"
        );
    }

    #[test]
    fn loaded_artifact_executes() {
        use crate::profiler::NullProfiler;
        use crate::store::{Imports, Runtime};
        let code = sample();
        let bytes = to_bytes(&code, Tier::Cranelift);
        let (loaded, _) = from_bytes(&bytes).unwrap();
        let mut rt = Runtime::instantiate(&loaded.module, &Imports::new(), Box::new(())).unwrap();
        let idx = loaded.module.exported_func("f").unwrap();
        assert_eq!(loaded.invoke(&mut rt, idx, &[5], &mut NullProfiler).unwrap(), Some(0));
        assert_eq!(loaded.invoke(&mut rt, idx, &[50], &mut NullProfiler).unwrap(), Some(4));
    }
}
