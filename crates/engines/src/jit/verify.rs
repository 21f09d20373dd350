//! Adapter between the register IR and the `wabench-analysis` verifier.
//!
//! [`view_of`] lowers an [`RFunc`] into the substrate-neutral
//! [`IrView`] the `analysis` crate checks: per op, the registers read
//! and written, the branch targets, whether control falls through, and a
//! rendering of the op's observable side effect. The pass driver in
//! `opt` calls [`check`] / [`check_pass`] after lowering and after every
//! pass when verification is [`enabled`] (debug builds, or the
//! `verify-ir` feature in release builds).
//!
//! Effect renderings deliberately contain no register numbers — copy
//! propagation renames registers freely — but do pin down everything a
//! pass must not change: the memory op and its constant offset, the
//! global index, the callee and arity. Trapping arithmetic is *not* part
//! of the trace: constant folding only rewrites a div/rem/trunc after
//! proving it cannot trap, which legitimately removes the trap site.

use crate::jit::ir::{RFunc, ROp, Reg};
use analysis::verify::{effect_trace_all, effects_preserved, verify, IrView, OpInfo, Violation};

/// Whether IR verification is active in this build.
pub fn enabled() -> bool {
    cfg!(any(debug_assertions, feature = "verify-ir"))
}

fn op_name(op: &ROp) -> &'static str {
    match op {
        ROp::Const { .. } => "Const",
        ROp::Move { .. } => "Move",
        ROp::Bin { .. } => "Bin",
        ROp::Bin2 { .. } => "Bin2",
        ROp::BinImm { .. } => "BinImm",
        ROp::Un { .. } => "Un",
        ROp::Load { .. } => "Load",
        ROp::Store { .. } => "Store",
        ROp::Select { .. } => "Select",
        ROp::GlobalGet { .. } => "GlobalGet",
        ROp::GlobalSet { .. } => "GlobalSet",
        ROp::MemSize { .. } => "MemSize",
        ROp::MemGrow { .. } => "MemGrow",
        ROp::Jump { .. } => "Jump",
        ROp::BrIf { .. } => "BrIf",
        ROp::BrIfZ { .. } => "BrIfZ",
        ROp::BrCmp { .. } => "BrCmp",
        ROp::BrCmpZ { .. } => "BrCmpZ",
        ROp::BrTable { .. } => "BrTable",
        ROp::Call { .. } => "Call",
        ROp::CallIndirect { .. } => "CallIndirect",
        ROp::Ret { .. } => "Ret",
        ROp::Trap => "Trap",
        ROp::Nop => "Nop",
    }
}

fn op_effect(op: &ROp) -> Option<String> {
    match *op {
        ROp::Store { op, offset, .. } => Some(format!("store {op:?}+{offset}")),
        ROp::GlobalSet { idx, .. } => Some(format!("global.set {idx}")),
        ROp::MemGrow { .. } => Some("memory.grow".to_string()),
        ROp::Call { f, nargs, ret, .. } => Some(format!("call {f} nargs={nargs} ret={ret}")),
        ROp::CallIndirect { type_idx, nargs, ret, .. } => {
            Some(format!("call_indirect type={type_idx} nargs={nargs} ret={ret}"))
        }
        _ => None,
    }
}

/// Builds the verifier's view of `f`.
pub fn view_of(f: &RFunc) -> IrView {
    let ops = f
        .ops
        .iter()
        .map(|op| {
            // `ROp::uses()` reports `[None; 3]` for calls ("handled
            // specially" everywhere): expand the contiguous argument
            // block, and the element-index register for indirect calls.
            let mut uses: Vec<u32> =
                op.uses().into_iter().flatten().map(u32::from).collect();
            match *op {
                ROp::Call { args, nargs, .. } => {
                    uses.extend((args..args + nargs as Reg).map(u32::from));
                }
                ROp::CallIndirect { elem, args, nargs, .. } => {
                    uses.push(u32::from(elem));
                    uses.extend((args..args + nargs as Reg).map(u32::from));
                }
                _ => {}
            }
            let targets = match *op {
                ROp::BrTable { table, .. } => f.tables[table as usize].clone(),
                _ => op.target().into_iter().collect(),
            };
            OpInfo {
                name: op_name(op),
                uses,
                def: op.def().map(u32::from),
                targets,
                falls_through: !op.is_terminator(),
                effect: op_effect(op),
            }
        })
        .collect();
    IrView {
        ops,
        nregs: u32::from(f.nregs),
        // Parameters and zero-initialized locals hold values on entry.
        entry_defined: u32::from(f.nlocals),
    }
}

/// Runs the verifier over `f`, returning all violations.
pub fn verify_rfunc(f: &RFunc) -> Vec<Violation> {
    verify(&view_of(f))
}

/// The function's observable side-effect trace in linear op order. The
/// pipeline never deletes an effectful op (it can only rewrite in place
/// or no-op pure defs), so every pass must preserve this exactly.
pub fn effect_trace(f: &RFunc) -> Vec<String> {
    effect_trace_all(&view_of(f))
}

fn fail(stage: &str, f: &RFunc, violations: &[Violation]) -> ! {
    let mut msg = format!(
        "IR verification failed after `{stage}` \
         (nregs={}, nlocals={}, {} ops): {} violation(s)",
        f.nregs,
        f.nlocals,
        f.ops.len(),
        violations.len()
    );
    for v in violations {
        msg.push_str("\n  - ");
        msg.push_str(&v.to_string());
    }
    if f.ops.len() <= 200 {
        msg.push_str("\nops:");
        for (i, op) in f.ops.iter().enumerate() {
            msg.push_str(&format!("\n  {i:4}: {op:?}"));
        }
    }
    panic!("{msg}");
}

/// Verifies `f` after `stage` (e.g. `"lower"`), panicking with full
/// context on any violation.
pub fn check(stage: &str, f: &RFunc) {
    let violations = verify_rfunc(f);
    if !violations.is_empty() {
        fail(stage, f, &violations);
    }
}

/// Verifies `f` after the pass named `pass` and checks the side-effect
/// trace against `before` (taken just before the pass ran).
pub fn check_pass(pass: &str, f: &RFunc, before: &[String]) {
    let mut violations = verify_rfunc(f);
    if let Some(v) = effects_preserved(pass, before, &effect_trace(f)) {
        violations.push(v);
    }
    if !violations.is_empty() {
        fail(pass, f, &violations);
    }
}

// ---------------------------------------------------------------------------
// Range-analysis adapter (interval domain over the register IR)
// ---------------------------------------------------------------------------

use analysis::range::{
    AbsOp, BinOpKind, Check, CmpKind, FBin, Guard, IntBin, Interval, MonoF, Operand, Transfer,
    UnKind, Width,
};
use wasm_core::instr::Instr;

fn int_bin_kind(op: &Instr) -> Option<(Width, IntBin)> {
    use Instr::*;
    Some(match op {
        I32Add => (Width::W32, IntBin::Add),
        I32Sub => (Width::W32, IntBin::Sub),
        I32Mul => (Width::W32, IntBin::Mul),
        I32DivS => (Width::W32, IntBin::DivS),
        I32DivU => (Width::W32, IntBin::DivU),
        I32RemS => (Width::W32, IntBin::RemS),
        I32RemU => (Width::W32, IntBin::RemU),
        I32And => (Width::W32, IntBin::And),
        I32Or => (Width::W32, IntBin::Or),
        I32Xor => (Width::W32, IntBin::Xor),
        I32Shl => (Width::W32, IntBin::Shl),
        I32ShrS => (Width::W32, IntBin::ShrS),
        I32ShrU => (Width::W32, IntBin::ShrU),
        I32Rotl | I32Rotr => (Width::W32, IntBin::Rot),
        I64Add => (Width::W64, IntBin::Add),
        I64Sub => (Width::W64, IntBin::Sub),
        I64Mul => (Width::W64, IntBin::Mul),
        I64DivS => (Width::W64, IntBin::DivS),
        I64DivU => (Width::W64, IntBin::DivU),
        I64RemS => (Width::W64, IntBin::RemS),
        I64RemU => (Width::W64, IntBin::RemU),
        I64And => (Width::W64, IntBin::And),
        I64Or => (Width::W64, IntBin::Or),
        I64Xor => (Width::W64, IntBin::Xor),
        I64Shl => (Width::W64, IntBin::Shl),
        I64ShrS => (Width::W64, IntBin::ShrS),
        I64ShrU => (Width::W64, IntBin::ShrU),
        I64Rotl | I64Rotr => (Width::W64, IntBin::Rot),
        _ => return None,
    })
}

fn float_bin_kind(op: &Instr) -> Option<(Width, FBin)> {
    use Instr::*;
    Some(match op {
        F32Add => (Width::W32, FBin::Add),
        F32Sub => (Width::W32, FBin::Sub),
        F32Mul => (Width::W32, FBin::Mul),
        F32Div => (Width::W32, FBin::Div),
        F32Min => (Width::W32, FBin::Min),
        F32Max => (Width::W32, FBin::Max),
        F32Copysign => (Width::W32, FBin::CopySign),
        F64Add => (Width::W64, FBin::Add),
        F64Sub => (Width::W64, FBin::Sub),
        F64Mul => (Width::W64, FBin::Mul),
        F64Div => (Width::W64, FBin::Div),
        F64Min => (Width::W64, FBin::Min),
        F64Max => (Width::W64, FBin::Max),
        F64Copysign => (Width::W64, FBin::CopySign),
        _ => return None,
    })
}

fn cmp_guard_kind(op: &Instr) -> Option<(Width, CmpKind)> {
    use Instr::*;
    Some(match op {
        I32Eq => (Width::W32, CmpKind::Eq),
        I32Ne => (Width::W32, CmpKind::Ne),
        I32LtS => (Width::W32, CmpKind::LtS),
        I32LtU => (Width::W32, CmpKind::LtU),
        I32GtS => (Width::W32, CmpKind::GtS),
        I32GtU => (Width::W32, CmpKind::GtU),
        I32LeS => (Width::W32, CmpKind::LeS),
        I32LeU => (Width::W32, CmpKind::LeU),
        I32GeS => (Width::W32, CmpKind::GeS),
        I32GeU => (Width::W32, CmpKind::GeU),
        I64Eq => (Width::W64, CmpKind::Eq),
        I64Ne => (Width::W64, CmpKind::Ne),
        I64LtS => (Width::W64, CmpKind::LtS),
        I64LtU => (Width::W64, CmpKind::LtU),
        I64GtS => (Width::W64, CmpKind::GtS),
        I64GtU => (Width::W64, CmpKind::GtU),
        I64LeS => (Width::W64, CmpKind::LeS),
        I64LeU => (Width::W64, CmpKind::LeU),
        I64GeS => (Width::W64, CmpKind::GeS),
        I64GeU => (Width::W64, CmpKind::GeU),
        _ => return None,
    })
}

fn is_float_cmp(op: &Instr) -> bool {
    use Instr::*;
    matches!(
        op,
        F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge | F64Eq | F64Ne | F64Lt | F64Gt | F64Le
            | F64Ge
    )
}

fn bin_op_kind(op: &Instr) -> Option<BinOpKind> {
    if let Some((w, k)) = int_bin_kind(op) {
        Some(BinOpKind::Int(w, k))
    } else if let Some((w, k)) = float_bin_kind(op) {
        Some(BinOpKind::Float(w, k))
    } else if cmp_guard_kind(op).is_some() || is_float_cmp(op) {
        Some(BinOpKind::Cmp)
    } else {
        None
    }
}

/// Width and signedness of a trapping division/remainder. The `signed`
/// flag marks the `MIN / -1` overflow case, which only `div_s` has
/// (`rem_s` of `MIN % -1` is defined as 0).
fn div_parts(op: &Instr) -> Option<(Width, bool)> {
    use Instr::*;
    Some(match op {
        I32DivS => (Width::W32, true),
        I64DivS => (Width::W64, true),
        I32DivU | I32RemS | I32RemU => (Width::W32, false),
        I64DivU | I64RemS | I64RemU => (Width::W64, false),
        _ => return None,
    })
}

fn div_check(op: &Instr, divisor: Option<Operand>, dividend: Option<Operand>) -> Option<Check> {
    div_parts(op).map(|(w, signed)| Check::Div { w, signed, divisor, dividend })
}

fn trunc_parts(op: &Instr) -> Option<(bool, Width)> {
    use Instr::*;
    Some(match op {
        I32TruncF32S | I32TruncF64S => (true, Width::W32),
        I32TruncF32U | I32TruncF64U => (false, Width::W32),
        I64TruncF32S | I64TruncF64S => (true, Width::W64),
        I64TruncF32U | I64TruncF64U => (false, Width::W64),
        _ => return None,
    })
}

fn un_kind(op: &Instr) -> Option<UnKind> {
    use Instr::*;
    Some(match op {
        I32Eqz | I64Eqz => UnKind::Eqz,
        I32Clz | I32Ctz | I32Popcnt => UnKind::BitCount(Width::W32),
        I64Clz | I64Ctz | I64Popcnt => UnKind::BitCount(Width::W64),
        I32WrapI64 => UnKind::Wrap,
        I64ExtendI32S => UnKind::ExtendS,
        I64ExtendI32U => UnKind::ExtendU,
        I32Extend8S | I64Extend8S => UnKind::Sext { bits: 8 },
        I32Extend16S | I64Extend16S => UnKind::Sext { bits: 16 },
        I64Extend32S => UnKind::Sext { bits: 32 },
        I32TruncF32S | I32TruncF64S => UnKind::Trunc { signed: true, dst: Width::W32 },
        I32TruncF32U | I32TruncF64U => UnKind::Trunc { signed: false, dst: Width::W32 },
        I64TruncF32S | I64TruncF64S => UnKind::Trunc { signed: true, dst: Width::W64 },
        I64TruncF32U | I64TruncF64U => UnKind::Trunc { signed: false, dst: Width::W64 },
        F32ConvertI32S => UnKind::Convert { signed: true, src: Width::W32, dst: Width::W32 },
        F32ConvertI32U => UnKind::Convert { signed: false, src: Width::W32, dst: Width::W32 },
        F32ConvertI64S => UnKind::Convert { signed: true, src: Width::W64, dst: Width::W32 },
        F32ConvertI64U => UnKind::Convert { signed: false, src: Width::W64, dst: Width::W32 },
        F64ConvertI32S => UnKind::Convert { signed: true, src: Width::W32, dst: Width::W64 },
        F64ConvertI32U => UnKind::Convert { signed: false, src: Width::W32, dst: Width::W64 },
        F64ConvertI64S => UnKind::Convert { signed: true, src: Width::W64, dst: Width::W64 },
        F64ConvertI64U => UnKind::Convert { signed: false, src: Width::W64, dst: Width::W64 },
        F32DemoteF64 => UnKind::Demote,
        F64PromoteF32 => UnKind::Promote,
        F32Neg => UnKind::FNeg(Width::W32),
        F64Neg => UnKind::FNeg(Width::W64),
        F32Abs => UnKind::FAbs(Width::W32),
        F64Abs => UnKind::FAbs(Width::W64),
        F32Sqrt => UnKind::FMono(Width::W32, MonoF::Sqrt),
        F64Sqrt => UnKind::FMono(Width::W64, MonoF::Sqrt),
        F32Ceil => UnKind::FMono(Width::W32, MonoF::Ceil),
        F64Ceil => UnKind::FMono(Width::W64, MonoF::Ceil),
        F32Floor => UnKind::FMono(Width::W32, MonoF::Floor),
        F64Floor => UnKind::FMono(Width::W64, MonoF::Floor),
        F32Trunc => UnKind::FMono(Width::W32, MonoF::Trunc),
        F64Trunc => UnKind::FMono(Width::W64, MonoF::Trunc),
        F32Nearest => UnKind::FMono(Width::W32, MonoF::Nearest),
        F64Nearest => UnKind::FMono(Width::W64, MonoF::Nearest),
        I32ReinterpretF32 | I64ReinterpretF64 | F32ReinterpretI32 | F64ReinterpretI64 => {
            UnKind::Reinterpret
        }
        _ => return None,
    })
}

fn load_range(op: &Instr) -> Interval {
    use Instr::*;
    match op {
        I32Load8U(_) | I64Load8U(_) => Interval::new(0, 255),
        I32Load8S(_) | I64Load8S(_) => Interval::new(-128, 127),
        I32Load16U(_) | I64Load16U(_) => Interval::new(0, 65535),
        I32Load16S(_) | I64Load16S(_) => Interval::new(-32768, 32767),
        I32Load(_) | I64Load32S(_) => analysis::range::I32_RANGE,
        I64Load32U(_) => Interval::new(0, u32::MAX as i64),
        _ => Interval::TOP,
    }
}

fn flow_of(f: &RFunc, i: usize) -> analysis::cfg::OpFlow {
    let op = &f.ops[i];
    let targets = match *op {
        ROp::BrTable { table, .. } => f.tables[table as usize].clone(),
        _ => op.target().into_iter().collect(),
    };
    analysis::cfg::OpFlow { targets, falls_through: !op.is_terminator() }
}

/// Resolves the value register `r` held when op `at` read it into an
/// operand still valid in the edge state of the branch at `branch`
/// (i.e. after all ops before the branch have executed): a constant, or
/// a register whose defining value provably survives to the branch.
/// Follows `Move` copy chains back to locals and constants.
fn resolve_operand(
    f: &RFunc,
    block_start: usize,
    branch: usize,
    r: Reg,
    at: usize,
) -> Option<Operand> {
    let mut r = r;
    let mut at = at;
    loop {
        let def = (block_start..at).rev().find(|&k| f.ops[k].def() == Some(r));
        match def {
            Some(k) => match f.ops[k] {
                ROp::Move { rs, .. } => {
                    r = rs;
                    at = k;
                }
                ROp::Const { bits, .. } => return Some(Operand::Const(bits)),
                _ => {
                    return if (at..branch).any(|j| f.ops[j].def() == Some(r)) {
                        None
                    } else {
                        Some(Operand::Reg(u32::from(r)))
                    };
                }
            },
            None => {
                // Defined before the block (local, param, or earlier
                // block): usable as long as nothing in between clobbers.
                return if (at..branch).any(|j| f.ops[j].def() == Some(r)) {
                    None
                } else {
                    Some(Operand::Reg(u32::from(r)))
                };
            }
        }
    }
}

/// Recovers a comparison guard for a `BrIf`/`BrIfZ` whose condition was
/// produced by a compare in the same basic block — the common shape of
/// unoptimized lowered code, where `cmp_fuse` has not run.
fn peek_guard(f: &RFunc, leader: &[bool], i: usize, cond: Reg, negate: bool) -> Option<Guard> {
    let block_start = (0..=i).rev().find(|&l| leader[l]).unwrap_or(0);
    let k = (block_start..i).rev().find(|&k| f.ops[k].def() == Some(cond))?;
    let (op, ra, rb_imm) = match f.ops[k] {
        ROp::Bin { op, ra, rb, .. } => (op, ra, Ok(rb)),
        ROp::BinImm { op, ra, imm, .. } => (op, ra, Err(imm)),
        _ => return None,
    };
    let (w, kind) = cmp_guard_kind(&op)?;
    // The condition register must still hold the compare result.
    if (k + 1..i).any(|j| f.ops[j].def() == Some(cond)) {
        return None;
    }
    let a = resolve_operand(f, block_start, i, ra, k)?;
    let b = match rb_imm {
        Ok(rb) => resolve_operand(f, block_start, i, rb, k)?,
        Err(imm) => Operand::Const(imm),
    };
    Some(Guard { kind: if negate { kind.negate() } else { kind }, w, a, b })
}

/// Lowers `f` into the `analysis::range` op vocabulary.
pub(crate) fn abs_ops(f: &RFunc) -> Vec<AbsOp> {
    let n = f.ops.len();
    let mut leader = vec![false; n.max(1)];
    if !leader.is_empty() {
        leader[0] = true;
    }
    for i in 0..n {
        let flow = flow_of(f, i);
        for &t in &flow.targets {
            leader[t as usize] = true;
        }
        if (!flow.targets.is_empty() || !flow.falls_through) && i + 1 < n {
            leader[i + 1] = true;
        }
    }

    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let flow = flow_of(f, i);
        let reg = |r: Reg| Operand::Reg(u32::from(r));
        let (def, transfer, guard, check) = match f.ops[i] {
            ROp::Const { rd, bits } => (Some(rd), Transfer::Bits(bits), None, None),
            ROp::Move { rd, rs } => (Some(rd), Transfer::Copy(u32::from(rs)), None, None),
            ROp::Bin { op, rd, ra, rb } => {
                let t = match bin_op_kind(&op) {
                    Some(k) => Transfer::Bin { op: k, a: reg(ra), b: reg(rb) },
                    None => Transfer::Opaque,
                };
                (Some(rd), t, None, div_check(&op, Some(reg(rb)), Some(reg(ra))))
            }
            ROp::BinImm { op, rd, ra, imm } => {
                let t = match bin_op_kind(&op) {
                    Some(k) => Transfer::Bin { op: k, a: reg(ra), b: Operand::Const(imm) },
                    None => Transfer::Opaque,
                };
                (Some(rd), t, None, div_check(&op, Some(Operand::Const(imm)), Some(reg(ra))))
            }
            ROp::Bin2 { op1, op2, rd, ra, rb, rc, swapped } => {
                let t = match (bin_op_kind(&op1), bin_op_kind(&op2)) {
                    (Some(k1), Some(k2)) => Transfer::Chain {
                        op1: k1,
                        op2: k2,
                        a: reg(ra),
                        b: reg(rb),
                        c: reg(rc),
                        swapped,
                    },
                    _ => Transfer::Opaque,
                };
                let c1 = div_check(&op1, Some(reg(rb)), Some(reg(ra)));
                let c2 = div_check(
                    &op2,
                    if swapped { None } else { Some(reg(rc)) },
                    if swapped { Some(reg(rc)) } else { None },
                );
                let check = match (c1, c2) {
                    // Both halves can trap: keep an unprovable residual
                    // so the pair is never eliminated.
                    (Some(_), Some(Check::Div { w, signed, .. })) => {
                        Some(Check::Div { w, signed, divisor: None, dividend: None })
                    }
                    (a, b) => a.or(b),
                };
                (Some(rd), t, None, check)
            }
            ROp::Un { op, rd, ra } => {
                let t = match un_kind(&op) {
                    Some(k) => Transfer::Un { op: k, a: u32::from(ra) },
                    None => Transfer::Opaque,
                };
                let check = trunc_parts(&op)
                    .map(|(signed, dst)| Check::Trunc { src: u32::from(ra), signed, dst });
                (Some(rd), t, None, check)
            }
            ROp::Load { op, rd, addr, offset } => (
                Some(rd),
                Transfer::Range(load_range(&op)),
                None,
                Some(Check::Mem {
                    addr: u32::from(addr),
                    offset: u64::from(offset),
                    len: u64::from(crate::interp::tree::load_width(&op)),
                }),
            ),
            ROp::Store { op, addr, offset, .. } => (
                None,
                Transfer::Opaque,
                None,
                Some(Check::Mem {
                    addr: u32::from(addr),
                    offset: u64::from(offset),
                    len: u64::from(crate::interp::tree::store_width(&op)),
                }),
            ),
            ROp::Select { rd, a, b, .. } => {
                (Some(rd), Transfer::Join(u32::from(a), u32::from(b)), None, None)
            }
            ROp::GlobalGet { rd, .. } => (Some(rd), Transfer::Opaque, None, None),
            ROp::MemSize { rd } => (Some(rd), Transfer::Range(Interval::new(0, 65536)), None, None),
            ROp::MemGrow { rd, .. } => {
                (Some(rd), Transfer::Range(Interval::new(-1, 65536)), None, None)
            }
            ROp::BrIf { cond, .. } => {
                let g = peek_guard(f, &leader, i, cond, false).unwrap_or(Guard {
                    kind: CmpKind::Ne,
                    w: Width::W32,
                    a: Operand::Reg(u32::from(cond)),
                    b: Operand::Const(0),
                });
                (None, Transfer::Opaque, Some(g), None)
            }
            ROp::BrIfZ { cond, .. } => {
                let g = peek_guard(f, &leader, i, cond, true).unwrap_or(Guard {
                    kind: CmpKind::Eq,
                    w: Width::W32,
                    a: Operand::Reg(u32::from(cond)),
                    b: Operand::Const(0),
                });
                (None, Transfer::Opaque, Some(g), None)
            }
            ROp::BrCmp { op, ra, rb, .. } => {
                let g = cmp_guard_kind(&op).map(|(w, kind)| Guard {
                    kind,
                    w,
                    a: resolve_operand(f, 0, i, ra, i).unwrap_or(reg(ra)),
                    b: resolve_operand(f, 0, i, rb, i).unwrap_or(reg(rb)),
                });
                (None, Transfer::Opaque, g, None)
            }
            ROp::BrCmpZ { op, ra, rb, .. } => {
                let g = cmp_guard_kind(&op).map(|(w, kind)| Guard {
                    kind: kind.negate(),
                    w,
                    a: resolve_operand(f, 0, i, ra, i).unwrap_or(reg(ra)),
                    b: resolve_operand(f, 0, i, rb, i).unwrap_or(reg(rb)),
                });
                (None, Transfer::Opaque, g, None)
            }
            ROp::Call { args, ret, .. } | ROp::CallIndirect { args, ret, .. } => {
                (if ret { Some(args) } else { None }, Transfer::Opaque, None, None)
            }
            ROp::GlobalSet { .. }
            | ROp::Jump { .. }
            | ROp::BrTable { .. }
            | ROp::Ret { .. }
            | ROp::Trap
            | ROp::Nop => (None, Transfer::Opaque, None, None),
        };
        out.push(AbsOp { flow, def: def.map(u32::from), transfer, guard, check });
    }
    out
}

/// Independently re-derives every proof obligation attached to `f`.
/// Returns one message per rejected obligation; empty means every
/// eliminated check is sound.
pub fn check_proofs(f: &RFunc) -> Vec<String> {
    if f.proofs.is_empty() {
        return Vec::new();
    }
    if f.ops.is_empty() {
        return vec!["proofs attached to an empty function".to_string()];
    }
    let ops = abs_ops(f);
    analysis::range::check_obligations(
        &ops,
        usize::from(f.nregs),
        usize::from(f.nparams),
        f.mem_min_bytes,
        &f.proofs,
    )
}

/// Static range-analysis summary of `f` for audit reports.
pub fn audit_rfunc(f: &RFunc) -> analysis::range::AuditFacts {
    if f.ops.is_empty() {
        return analysis::range::AuditFacts::default();
    }
    analysis::range::audit(
        &abs_ops(f),
        usize::from(f.nregs),
        usize::from(f.nparams),
        f.mem_min_bytes,
    )
}

/// Per-body-instruction safety marks for the interpreter tiers.
///
/// Runs the range analysis over the *unoptimized* lowering of `func` and
/// maps every provably safe check (bounds, division, truncation guard)
/// back through the lowering source map to the decoded instruction that
/// produced it. Interpreters consult the marks at decode time: a marked
/// site still performs its host-side check as defense in depth, but skips
/// the modeled check cost and reports the skip to the profiler.
pub fn safe_wasm_sites(
    module: &wasm_core::module::Module,
    func: &wasm_core::module::Func,
) -> Vec<bool> {
    use analysis::range::{div_safe, mem_safe, read_float, read_int, trunc_safe};
    let mut marks = vec![false; func.body.len()];
    let Ok((rf, srcmap)) = super::lower::lower_with_map(module, func) else {
        return marks;
    };
    if rf.ops.is_empty() {
        return marks;
    }
    let ops = abs_ops(&rf);
    let an = analysis::range::analyze(&ops, usize::from(rf.nregs), usize::from(rf.nparams));
    an.walk(&ops, |i, st| {
        let safe = match &ops[i].check {
            Some(Check::Mem { addr, offset, len }) => mem_safe(
                read_int(st, Operand::Reg(*addr), Width::W32),
                *offset,
                *len,
                rf.mem_min_bytes,
            ),
            Some(Check::Div { w, signed, divisor: Some(dv), dividend }) => {
                let dd = dividend.map(|d| read_int(st, d, *w));
                div_safe(read_int(st, *dv, *w), dd, *w, *signed)
            }
            Some(Check::Trunc { src, signed, dst }) => {
                trunc_safe(read_float(st, Operand::Reg(*src), Width::W64), *signed, *dst)
            }
            _ => false,
        };
        if safe {
            marks[srcmap[i] as usize] = true;
        }
    });
    marks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_arguments_are_expanded_as_uses() {
        let call = ROp::Call { f: 2, args: 3, nargs: 2, ret: true };
        let f = RFunc {
            ops: vec![call, ROp::Ret { rs: 3, has: true }],
            nparams: 0,
            nlocals: 0,
            nregs: 5,
            result: true,
            tables: Vec::new(),
            ..RFunc::default()
        };
        let view = view_of(&f);
        assert_eq!(view.ops[0].uses, vec![3, 4]);
        assert_eq!(view.ops[0].def, Some(3));

        let ind = ROp::CallIndirect { type_idx: 0, elem: 2, args: 3, nargs: 1, ret: false };
        let f2 = RFunc { ops: vec![ind, ROp::Ret { rs: 0, has: false }], nregs: 5, ..f };
        let view2 = view_of(&f2);
        assert_eq!(view2.ops[0].uses, vec![2, 3]);
        assert_eq!(view2.ops[0].def, None);
    }

    #[test]
    fn br_table_targets_come_from_the_pool() {
        let f = RFunc {
            ops: vec![
                ROp::Const { rd: 0, bits: 1 },
                ROp::BrTable { idx: 0, table: 0 },
                ROp::Ret { rs: 0, has: false },
                ROp::Ret { rs: 0, has: false },
            ],
            nparams: 0,
            nlocals: 0,
            nregs: 1,
            result: false,
            tables: vec![vec![2, 3, 2]],
            ..RFunc::default()
        };
        let view = view_of(&f);
        assert_eq!(view.ops[1].targets, vec![2, 3, 2]);
        assert!(!view.ops[1].falls_through);
        assert!(verify_rfunc(&f).is_empty());
    }

    #[test]
    fn effect_trace_has_no_registers() {
        use wasm_core::instr::{Instr, MemArg};
        let store = Instr::I32Store(MemArg { align: 2, offset: 16 });
        let f = RFunc {
            ops: vec![
                ROp::Const { rd: 0, bits: 0 },
                ROp::Store { op: store, addr: 0, val: 0, offset: 16 },
                ROp::Ret { rs: 0, has: false },
            ],
            nparams: 0,
            nlocals: 0,
            nregs: 1,
            result: false,
            tables: Vec::new(),
            ..RFunc::default()
        };
        let trace = effect_trace(&f);
        assert_eq!(trace.len(), 1);
        assert!(trace[0].contains("+16"), "{trace:?}");

        // Renaming the registers must not perturb the trace.
        let mut g = f.clone();
        g.nregs = 2;
        g.ops[0] = ROp::Const { rd: 1, bits: 0 };
        g.ops[1] = ROp::Store { op: store, addr: 1, val: 1, offset: 16 };
        assert_eq!(effect_trace(&g), trace);
    }

    #[test]
    fn use_before_def_is_caught_through_the_adapter() {
        let f = RFunc {
            ops: vec![
                ROp::Move { rd: 0, rs: 1 }, // r1 is a stack slot, never assigned
                ROp::Ret { rs: 0, has: true },
            ],
            nparams: 1,
            nlocals: 1,
            nregs: 2,
            result: true,
            tables: Vec::new(),
            ..RFunc::default()
        };
        let v = verify_rfunc(&f);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("not definitely assigned"), "{v:?}");
    }
}
