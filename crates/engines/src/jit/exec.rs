//! The register-IR executor used by all compiled tiers.
//!
//! In the real systems this would be machine code; here a tight dispatch
//! loop over register ops plays that role. The profiled personality
//! reflects compiled code: instructions fetched from the I-side code
//! region, no per-op indirect dispatch, direct branches where the compiler
//! resolved them, and operands in registers (no operand-stack memory
//! traffic).

use crate::error::Trap;
use crate::interp::tree::{load_op, load_width, store_op, store_width};
use crate::jit::ir::{RFunc, ROp};
use crate::numeric::{self, BinFn, UnFn};
use crate::profiler::{BranchKind, Profiler, CODE_BASE, GLOBALS_BASE, HEAP_BASE, STACK_BASE};
use crate::store::Runtime;
use wasm_core::instr::InstrClass;
use wasm_core::module::Module;
use std::rc::Rc;

/// Estimated encoded bytes per IR op ("machine code").
const OP_BYTES: u64 = 8;

/// A numeric handler resolved at compile time. Calling through these
/// function pointers (instead of re-decoding the operator on every
/// execution) is the portable analogue of the machine code a real JIT
/// emits.
#[derive(Clone, Copy)]
enum Resolved {
    Bin(BinFn),
    Bin2(BinFn, BinFn),
    Un(UnFn),
    Other,
}

impl std::fmt::Debug for Resolved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Resolved::Bin(_) => "Bin",
            Resolved::Bin2(..) => "Bin2",
            Resolved::Un(_) => "Un",
            Resolved::Other => "Other",
        };
        f.write_str(s)
    }
}

/// Compiled code for an entire module.
#[derive(Debug)]
pub struct RegCode {
    /// The source module (types, exports, br_tables).
    pub module: Rc<Module>,
    /// Compiled functions (module-defined only).
    pub funcs: Vec<RFunc>,
    /// Profiled code base address per function.
    pub func_base: Vec<u64>,
    /// Imported function count.
    pub num_imported: u32,
    /// Per-function resolved numeric handlers, parallel to `funcs[i].ops`.
    resolved: Vec<Vec<Resolved>>,
    /// Per-op "check statically proven redundant" flags, parallel to
    /// `funcs[i].ops`, materialized from each function's proof
    /// obligations. Safe sites skip the modeled check cost (the host
    /// bounds check stays as defense in depth).
    safe: Vec<Vec<bool>>,
}

impl RegCode {
    /// Assembles compiled functions into executable code, assigning code
    /// addresses.
    ///
    /// # Panics
    ///
    /// Panics if a function violates the executor's invariants — trusted
    /// compiler output must be well-formed, so a violation is a compiler
    /// bug. Untrusted (deserialized) input goes through `RegCode::try_new`
    /// via `aot::from_bytes`.
    pub fn new(module: Rc<Module>, funcs: Vec<RFunc>) -> RegCode {
        for (i, f) in funcs.iter().enumerate() {
            if let Err(e) = check_code(f, i, &module) {
                panic!("compiler invariant violated in function {i}: {e}");
            }
        }
        RegCode::new_unchecked(module, funcs)
    }

    /// Assembles compiled functions from an untrusted source (an AOT
    /// artifact), validating every invariant the executor relies on.
    /// Proof obligations are re-derived only when `check_proofs`: false
    /// is for code decoded from artifact bytes whose proofs an earlier
    /// load already re-derived in full (`aot::VerifiedArtifacts`); every
    /// structural check runs either way.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub(crate) fn try_new(
        module: Rc<Module>,
        funcs: Vec<RFunc>,
        check_proofs: bool,
    ) -> Result<RegCode, String> {
        if funcs.len() != module.funcs.len() {
            return Err(format!(
                "artifact has {} functions, module defines {}",
                funcs.len(),
                module.funcs.len()
            ));
        }
        for (i, f) in funcs.iter().enumerate() {
            check_code(f, i, &module).map_err(|e| format!("function {i}: {e}"))?;
        }
        if check_proofs {
            // Untrusted proofs get the full treatment: re-derive every
            // obligation from scratch. A corrupt or malicious artifact
            // must not buy itself skipped checks.
            let _span = obs::span!("engine.aot.verify");
            let t0 = std::time::Instant::now();
            for (i, f) in funcs.iter().enumerate() {
                let violations = crate::jit::verify::check_proofs(f);
                if let Some(v) = violations.first() {
                    return Err(format!("function {i}: unsound elimination proof: {v}"));
                }
            }
            obs::metrics::histogram("engine.aot.verify")
                .observe_ns(t0.elapsed().as_nanos() as u64);
        }
        Ok(RegCode::new_unchecked(module, funcs))
    }

    fn new_unchecked(module: Rc<Module>, funcs: Vec<RFunc>) -> RegCode {
        let mut func_base = Vec::with_capacity(funcs.len());
        let mut cursor = CODE_BASE + 0x10_0000; // past the runtime stubs
        let mut resolved = Vec::with_capacity(funcs.len());
        let mut safe = Vec::with_capacity(funcs.len());
        for f in &funcs {
            func_base.push(cursor);
            cursor += f.ops.len() as u64 * OP_BYTES;
            let mut s = vec![false; f.ops.len()];
            for proof in &f.proofs {
                s[proof.op as usize] = true;
            }
            safe.push(s);
            resolved.push(
                f.ops
                    .iter()
                    .map(|op| match op {
                        ROp::Bin { op, .. }
                        | ROp::BinImm { op, .. }
                        | ROp::BrCmp { op, .. }
                        | ROp::BrCmpZ { op, .. } => Resolved::Bin(numeric::binary_fn(*op)),
                        ROp::Bin2 { op1, op2, .. } => {
                            Resolved::Bin2(numeric::binary_fn(*op1), numeric::binary_fn(*op2))
                        }
                        ROp::Un { op, .. } => Resolved::Un(numeric::unary_fn(*op)),
                        _ => Resolved::Other,
                    })
                    .collect(),
            );
        }
        RegCode {
            num_imported: module.num_imported_funcs() as u32,
            module,
            funcs,
            func_base,
            resolved,
            safe,
        }
    }

    /// Total "machine code" bytes, for memory accounting.
    pub fn code_bytes(&self) -> usize {
        self.funcs.iter().map(|f| f.machine_code_bytes()).sum()
    }

    /// Invokes function `func_idx` with raw argument slots.
    ///
    /// # Errors
    ///
    /// Returns any trap raised during execution.
    pub fn invoke<P: Profiler>(
        &self,
        rt: &mut Runtime,
        func_idx: u32,
        args: &[u64],
        p: &mut P,
    ) -> Result<Option<u64>, Trap> {
        // One contiguous frame arena per invocation: compiled code keeps
        // its register frames on the machine stack, not the heap.
        let mut frames: Vec<u64> = Vec::with_capacity(4096);
        self.call(rt, func_idx, args, 0, &mut frames, p)
    }

    fn call<P: Profiler>(
        &self,
        rt: &mut Runtime,
        func_idx: u32,
        args: &[u64],
        depth: usize,
        frames: &mut Vec<u64>,
        p: &mut P,
    ) -> Result<Option<u64>, Trap> {
        if depth >= rt.call_depth_limit {
            return Err(Trap::StackOverflow);
        }
        if func_idx < self.num_imported {
            return rt.call_host(func_idx, args).map(Some);
        }
        let fi = (func_idx - self.num_imported) as usize;
        let f = &self.funcs[fi];
        let base = self.func_base[fi];
        let resolved = &self.resolved[fi];
        let safe = &self.safe[fi];

        let frame_base = frames.len();
        frames.resize(frame_base + f.nregs as usize, 0);
        frames[frame_base..frame_base + args.len()].copy_from_slice(args);
        // Frame setup: compiled code spills the frame to the real stack.
        p.write(STACK_BASE + depth as u64 * 256, (f.nregs as u32).min(16) * 8);
        p.uops(2);
        rt.peak_value_stack = rt.peak_value_stack.max(frames.len());

        let result = self.exec_frame(rt, f, base, resolved, safe, frame_base, depth, frames, p);
        frames.truncate(frame_base);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_frame<P: Profiler>(
        &self,
        rt: &mut Runtime,
        f: &RFunc,
        base: u64,
        resolved: &[Resolved],
        safe: &[bool],
        frame_base: usize,
        depth: usize,
        frames: &mut Vec<u64>,
        p: &mut P,
    ) -> Result<Option<u64>, Trap> {

        macro_rules! reg {
            ($r:expr) => {
                // SAFETY: check_code proved the operand index < nregs, and
                // the frame [frame_base, frame_base + nregs) is allocated.
                unsafe { *frames.get_unchecked(frame_base + $r as usize) }
            };
        }
        macro_rules! set_reg {
            ($r:expr, $v:expr) => {{
                let v = $v;
                // SAFETY: as above.
                unsafe { *frames.get_unchecked_mut(frame_base + $r as usize) = v }
            }};
        }
        let mut pc: usize = 0;
        // Accounts µops for an op carrying an implicit safety check:
        // proven-safe sites skip the modeled check µop and report the
        // skip; `checked` is the cost with the check included.
        macro_rules! checked_uops {
            ($checked:expr) => {{
                let c: u64 = $checked;
                // SAFETY: `safe` is parallel to `f.ops`, and `pc` is in
                // bounds by the loop invariant below.
                if unsafe { *safe.get_unchecked(pc) } {
                    p.uops((c - 1).max(1));
                    p.check_skipped();
                } else {
                    p.uops(c);
                }
            }};
        }
        // SAFETY throughout this loop: `check_code` proved every register
        // operand < nregs (the frame size) and every branch target < the
        // op count, and the final op is a terminator, so `pc` always stays
        // in bounds between branches.
        loop {
            let op = unsafe { f.ops.get_unchecked(pc) };
            let site = base + pc as u64 * OP_BYTES;
            p.fetch(site, OP_BYTES as u32);

            match *op {
                ROp::Const { rd, bits } => {
                    set_reg!(rd, bits);
                    p.uops(1);
                }
                ROp::Move { rd, rs } => {
                    set_reg!(rd, reg!(rs));
                    p.uops(1);
                }
                ROp::Bin { op, rd, ra, rb } => {
                    let h = match resolved[pc] {
                        Resolved::Bin(h) => h,
                        _ => unreachable!("resolved table parallel to ops"),
                    };
                    set_reg!(rd, h(reg!(ra), reg!(rb))?);
                    checked_uops!(op_cost(op.class()));
                }
                ROp::Bin2 { op1, op2, rd, ra, rb, rc, swapped } => {
                    let (h1, h2) = match resolved[pc] {
                        Resolved::Bin2(h1, h2) => (h1, h2),
                        _ => unreachable!("resolved table parallel to ops"),
                    };
                    let _ = (op1, op2);
                    let v1 = h1(reg!(ra), reg!(rb))?;
                    let v = if swapped {
                        h2(reg!(rc), v1)?
                    } else {
                        h2(v1, reg!(rc))?
                    };
                    set_reg!(rd, v);
                    checked_uops!(2);
                }
                ROp::BinImm { op, rd, ra, imm } => {
                    let h = match resolved[pc] {
                        Resolved::Bin(h) => h,
                        _ => unreachable!("resolved table parallel to ops"),
                    };
                    set_reg!(rd, h(reg!(ra), imm)?);
                    checked_uops!(op_cost(op.class()));
                }
                ROp::Un { op, rd, ra } => {
                    let h = match resolved[pc] {
                        Resolved::Un(h) => h,
                        _ => unreachable!("resolved table parallel to ops"),
                    };
                    set_reg!(rd, h(reg!(ra))?);
                    checked_uops!(op_cost(op.class()));
                }
                ROp::Load { op, rd, addr, offset } => {
                    let a = reg!(addr) as u32;
                    let mem = rt.memory.as_ref().expect("validated memory");
                    set_reg!(rd, load_op(mem, &op, a, offset)?);
                    p.read(HEAP_BASE + a as u64 + offset as u64, load_width(&op));
                    // Address computation + access, plus the bounds check
                    // unless the compiler proved it redundant.
                    checked_uops!(2);
                }
                ROp::Store { op, addr, val, offset } => {
                    let a = reg!(addr) as u32;
                    let mem = rt.memory.as_mut().expect("validated memory");
                    store_op(mem, &op, a, offset, reg!(val))?;
                    p.write(HEAP_BASE + a as u64 + offset as u64, store_width(&op));
                    checked_uops!(2);
                }
                ROp::Select { rd, cond, a, b } => {
                    let v = if reg!(cond) as u32 != 0 { reg!(a) } else { reg!(b) };
                    set_reg!(rd, v);
                    p.uops(1); // cmov
                }
                ROp::GlobalGet { rd, idx } => {
                    set_reg!(rd, rt.globals[idx as usize]);
                    p.read(GLOBALS_BASE + idx as u64 * 8, 8);
                    p.uops(1);
                }
                ROp::GlobalSet { idx, rs } => {
                    rt.globals[idx as usize] = reg!(rs);
                    p.write(GLOBALS_BASE + idx as u64 * 8, 8);
                    p.uops(1);
                }
                ROp::MemSize { rd } => {
                    let v = rt.memory.as_ref().expect("validated memory").size_pages() as u64;
                    set_reg!(rd, v);
                    p.uops(2);
                }
                ROp::MemGrow { rd, rs } => {
                    let delta = reg!(rs) as u32;
                    let v = rt.memory.as_mut().expect("validated memory").grow(delta) as u32 as u64;
                    set_reg!(rd, v);
                    p.uops(20);
                }
                ROp::Jump { target } => {
                    p.branch(site, BranchKind::Uncond, true, base + target as u64 * OP_BYTES);
                    p.uops(1);
                    pc = target as usize;
                    continue;
                }
                ROp::BrIf { cond, target } => {
                    let taken = reg!(cond) as u32 != 0;
                    p.branch(site, BranchKind::Cond, taken, base + target as u64 * OP_BYTES);
                    p.uops(1);
                    if taken {
                        pc = target as usize;
                        continue;
                    }
                }
                ROp::BrIfZ { cond, target } => {
                    let taken = reg!(cond) as u32 == 0;
                    p.branch(site, BranchKind::Cond, taken, base + target as u64 * OP_BYTES);
                    p.uops(1);
                    if taken {
                        pc = target as usize;
                        continue;
                    }
                }
                ROp::BrCmp { op, ra, rb, target } => {
                    let h = match resolved[pc] {
                        Resolved::Bin(h) => h,
                        _ => unreachable!("resolved table parallel to ops"),
                    };
                    let _ = op;
                    let taken = h(reg!(ra), reg!(rb))? as u32 != 0;
                    p.branch(site, BranchKind::Cond, taken, base + target as u64 * OP_BYTES);
                    p.uops(1); // cmp+jcc pair retires as a fused µop
                    if taken {
                        pc = target as usize;
                        continue;
                    }
                }
                ROp::BrCmpZ { op, ra, rb, target } => {
                    let h = match resolved[pc] {
                        Resolved::Bin(h) => h,
                        _ => unreachable!("resolved table parallel to ops"),
                    };
                    let _ = op;
                    let taken = h(reg!(ra), reg!(rb))? as u32 == 0;
                    p.branch(site, BranchKind::Cond, taken, base + target as u64 * OP_BYTES);
                    p.uops(1);
                    if taken {
                        pc = target as usize;
                        continue;
                    }
                }
                ROp::BrTable { idx, table } => {
                    let t = &f.tables[table as usize];
                    let sel = (reg!(idx) as u32 as usize).min(t.len() - 1);
                    let target = t[sel];
                    p.read(site + 4, 8); // jump-table entry load
                    p.branch(site, BranchKind::Indirect, true, base + target as u64 * OP_BYTES);
                    p.uops(2);
                    pc = target as usize;
                    continue;
                }
                ROp::Call { f: callee, args, nargs, ret } => {
                    let a = frame_base + args as usize;
                    let mut call_buf = [0u64; 16];
                    let call_vec;
                    let call_args: &[u64] = if nargs as usize <= 16 {
                        call_buf[..nargs as usize]
                            .copy_from_slice(&frames[a..a + nargs as usize]);
                        &call_buf[..nargs as usize]
                    } else {
                        call_vec = frames[a..a + nargs as usize].to_vec();
                        &call_vec
                    };
                    p.branch(site, BranchKind::Call, true, CODE_BASE + callee as u64 * 0x80);
                    p.uops(2);
                    let r = self.call(rt, callee, call_args, depth + 1, frames, p)?;
                    if ret {
                        set_reg!(args, r.expect("typed result"));
                    }
                }
                ROp::CallIndirect { type_idx, elem, args, nargs, ret } => {
                    let e = reg!(elem) as u32;
                    let callee = rt
                        .table
                        .get(e as usize)
                        .copied()
                        .flatten()
                        .ok_or(Trap::UndefinedElement)?;
                    let want = &self.module.types[type_idx as usize];
                    let have = self.module.func_type(callee).ok_or(Trap::UndefinedElement)?;
                    if want != have {
                        return Err(Trap::IndirectCallTypeMismatch);
                    }
                    let a = frame_base + args as usize;
                    let mut call_buf = [0u64; 16];
                    let call_vec;
                    let call_args: &[u64] = if nargs as usize <= 16 {
                        call_buf[..nargs as usize]
                            .copy_from_slice(&frames[a..a + nargs as usize]);
                        &call_buf[..nargs as usize]
                    } else {
                        call_vec = frames[a..a + nargs as usize].to_vec();
                        &call_vec
                    };
                    p.read(crate::profiler::META_BASE + e as u64 * 8, 8); // table slot
                    p.branch(site, BranchKind::IndirectCall, true, CODE_BASE + callee as u64 * 0x80);
                    p.uops(4); // bounds + signature check
                    let r = self.call(rt, callee, call_args, depth + 1, frames, p)?;
                    if ret {
                        set_reg!(args, r.expect("typed result"));
                    }
                }
                ROp::Ret { rs, has } => {
                    p.branch(site, BranchKind::Ret, true, CODE_BASE);
                    p.uops(1);
                    return Ok(if has { Some(reg!(rs)) } else { None });
                }
                ROp::Trap => return Err(Trap::Unreachable),
                ROp::Nop => {}
            }
            pc += 1;
        }
    }
}

/// Checks the invariants the executor relies on for its unchecked
/// register-file and code indexing (the analogue of a JIT trusting its own
/// emitted code), plus every module reference the execution loop indexes
/// without bounds checks: callees, call signatures, globals, and types.
///
/// `func_idx` is the function's position among the module-defined
/// functions (the artifact/compiler index, excluding imports).
///
/// # Errors
///
/// Returns a description of the first violated invariant. For trusted
/// compiler output a violation is a compiler bug ([`RegCode::new`]
/// panics on it); for a deserialized artifact it means corrupt or
/// malicious input ([`RegCode::try_new`] reports it).
fn check_code(f: &RFunc, func_idx: usize, module: &Module) -> Result<(), String> {
    let nregs = f.nregs;
    let nops = f.ops.len() as u32;
    let num_imported = module.num_imported_funcs() as u32;
    let check_reg = |r: u16| {
        if r < nregs {
            Ok(())
        } else {
            Err(format!("register {r} out of frame ({nregs})"))
        }
    };
    let check_target = |t: u32| {
        if t == u32::MAX {
            Err("unpatched branch target".to_string())
        } else if t < nops {
            Ok(())
        } else {
            Err(format!("branch target {t} out of function ({nops} ops)"))
        }
    };
    // The call protocol copies the caller's argument slice into the callee
    // frame and wraps the result per the callee's signature, so frame
    // geometry and the wasm type must agree.
    let sig = module
        .func_type(num_imported + func_idx as u32)
        .ok_or("function has no module type")?;
    if f.nparams as usize != sig.params.len() {
        return Err(format!(
            "{} params in code, {} in signature",
            f.nparams,
            sig.params.len()
        ));
    }
    if f.result == sig.results.is_empty() {
        return Err("result flag disagrees with signature".to_string());
    }
    if f.nlocals < f.nparams || f.nregs < f.nlocals {
        return Err(format!(
            "frame geometry inverted: {} params, {} locals, {} regs",
            f.nparams, f.nlocals, f.nregs
        ));
    }
    if nops == 0 {
        return Err("empty function body".to_string());
    }
    for op in &f.ops {
        for u in op.uses().into_iter().flatten() {
            check_reg(u)?;
        }
        if let Some(d) = op.def() {
            check_reg(d)?;
        }
        if let Some(t) = op.target() {
            check_target(t)?;
        }
        // Operator class must match the op shape, or handler resolution
        // (`binary_fn`/`unary_fn`/`load_op`/`store_op`) has no entry.
        match op {
            ROp::Bin { op, .. }
            | ROp::BinImm { op, .. }
            | ROp::BrCmp { op, .. }
            | ROp::BrCmpZ { op, .. }
                if !numeric::is_binary(*op) =>
            {
                return Err(format!("{op:?} is not a binary operator"));
            }
            ROp::Bin2 { op1, op2, .. }
                if !numeric::is_binary(*op1) || !numeric::is_binary(*op2) =>
            {
                return Err(format!("{op1:?}/{op2:?} is not a binary operator"));
            }
            ROp::Un { op, .. } if !numeric::is_unary(*op) => {
                return Err(format!("{op:?} is not a unary operator"));
            }
            ROp::Load { op, .. } if !crate::interp::tree::is_load_op(op) => {
                return Err(format!("{op:?} is not a load"));
            }
            ROp::Store { op, .. } if !crate::interp::tree::is_store_op(op) => {
                return Err(format!("{op:?} is not a store"));
            }
            _ => {}
        }
        match op {
            ROp::Call { f: callee, args, nargs, ret } => {
                let csig = module
                    .func_type(*callee)
                    .ok_or_else(|| format!("callee {callee} out of module"))?;
                check_call_window(*args, *nargs, *ret, csig, nregs)?;
            }
            ROp::CallIndirect { type_idx, elem, args, nargs, ret } => {
                check_reg(*elem)?;
                let tsig = module
                    .types
                    .get(*type_idx as usize)
                    .ok_or_else(|| format!("call type {type_idx} out of module"))?;
                check_call_window(*args, *nargs, *ret, tsig, nregs)?;
            }
            ROp::GlobalGet { idx, .. } | ROp::GlobalSet { idx, .. }
                if *idx as usize >= module.total_globals() =>
            {
                return Err(format!("global {idx} out of module"));
            }
            ROp::BrTable { table, .. } => {
                let t = f
                    .tables
                    .get(*table as usize)
                    .ok_or_else(|| format!("jump table {table} out of function"))?;
                if t.is_empty() {
                    return Err("empty jump table".to_string());
                }
                for e in t {
                    check_target(*e)?;
                }
            }
            ROp::Ret { has, .. } if *has != f.result => {
                return Err("return arity disagrees with signature".to_string());
            }
            _ => {}
        }
    }
    // The last op must not fall off the end.
    if !f.ops.last().expect("non-empty").is_terminator() {
        return Err("function may fall off the end".to_string());
    }
    // Proof obligations must cite real ops (the semantic re-derivation
    // happens in `verify::check_proofs`; this keeps indexing safe).
    for p in &f.proofs {
        if p.op as usize >= f.ops.len() {
            return Err(format!("proof obligation cites op {} out of function", p.op));
        }
    }
    Ok(())
}

/// Checks a call's argument window against the frame and its arity and
/// result flag against the callee signature.
fn check_call_window(
    args: u16,
    nargs: u8,
    ret: bool,
    callee_sig: &wasm_core::types::FuncType,
    nregs: u16,
) -> Result<(), String> {
    if nargs as usize != callee_sig.params.len() {
        return Err(format!(
            "{} call args, callee takes {}",
            nargs,
            callee_sig.params.len()
        ));
    }
    if ret && callee_sig.results.is_empty() {
        return Err("call expects a result from a void callee".to_string());
    }
    if args as u32 + nargs as u32 > nregs as u32 {
        return Err("call argument window out of frame".to_string());
    }
    // The result is written back to the window base, so the base register
    // must exist even for a zero-argument call.
    if ret && args >= nregs {
        return Err("call result register out of frame".to_string());
    }
    Ok(())
}

/// µop cost of a numeric op in compiled code.
fn op_cost(class: InstrClass) -> u64 {
    match class {
        InstrClass::SlowArith => 20,
        InstrClass::FloatArith => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jit::lower::lower;
    use crate::jit::opt::{optimize, PassConfig};
    use crate::profiler::{CountingProfiler, NullProfiler};
    use crate::store::Imports;
    use wasm_core::builder::ModuleBuilder;
    use wasm_core::instr::{BlockType, Instr};
    use wasm_core::types::{FuncType, ValType};

    fn compile(m: Module, config: &PassConfig) -> RegCode {
        wasm_core::validate::validate(&m).unwrap();
        let module = Rc::new(m);
        let funcs: Vec<RFunc> = module
            .funcs
            .iter()
            .map(|f| {
                let mut rf = lower(&module, f).unwrap();
                optimize(&mut rf, config);
                rf
            })
            .collect();
        RegCode::new(module, funcs)
    }

    fn run(m: Module, name: &str, args: &[u64], config: &PassConfig) -> Result<Option<u64>, Trap> {
        let idx = m.exported_func(name).unwrap();
        let code = compile(m, config);
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        code.invoke(&mut rt, idx, args, &mut NullProfiler)
    }

    fn loop_sum_module() -> Module {
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
        let sum = b.new_local(ValType::I32);
        let i = b.new_local(ValType::I32);
        b.emit(Instr::Loop(BlockType::Empty));
        b.emit(Instr::LocalGet(i));
        b.emit(Instr::I32Const(1));
        b.emit(Instr::I32Add);
        b.emit(Instr::LocalSet(i));
        b.emit(Instr::LocalGet(sum));
        b.emit(Instr::LocalGet(i));
        b.emit(Instr::I32Add);
        b.emit(Instr::LocalSet(sum));
        b.emit(Instr::LocalGet(i));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::I32LtS);
        b.emit(Instr::BrIf(0));
        b.emit(Instr::End);
        b.emit(Instr::LocalGet(sum));
        b.finish_func();
        b.export_func("sum", f);
        b.build()
    }

    #[test]
    fn loop_sum_all_tiers_agree() {
        for config in [PassConfig::none(), PassConfig::standard(), PassConfig::aggressive()] {
            assert_eq!(
                run(loop_sum_module(), "sum", &[100], &config).unwrap(),
                Some(5050),
                "{config:?}"
            );
        }
    }

    #[test]
    fn optimized_code_executes_fewer_ops() {
        let m = loop_sum_module();
        let idx = m.exported_func("sum").unwrap();

        let mut uops = Vec::new();
        for config in [PassConfig::none(), PassConfig::standard()] {
            let code = compile(m.clone(), &config);
            let mut rt =
                Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
            let mut p = CountingProfiler::default();
            code.invoke(&mut rt, idx, &[1000], &mut p).unwrap();
            uops.push(p.uops);
        }
        assert!(
            uops[1] < uops[0],
            "optimized {} should beat singlepass {}",
            uops[1],
            uops[0]
        );
    }

    #[test]
    fn compiled_tier_has_no_dispatch_indirect_branches() {
        let m = loop_sum_module();
        let idx = m.exported_func("sum").unwrap();
        let code = compile(m, &PassConfig::standard());
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        let mut p = CountingProfiler::default();
        code.invoke(&mut rt, idx, &[100], &mut p).unwrap();
        assert_eq!(p.indirect_branches, 0);
    }

    #[test]
    fn traps_match_interpreters() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.begin_func(FuncType::new(&[], &[ValType::I32]));
        b.emit(Instr::I32Const(-4));
        b.emit(Instr::I32Load(Default::default()));
        b.finish_func();
        b.export_func("oob", f);
        assert_eq!(
            run(b.build(), "oob", &[], &PassConfig::standard()),
            Err(Trap::MemoryOutOfBounds)
        );
    }

    #[test]
    fn call_between_compiled_functions() {
        let mut b = ModuleBuilder::new();
        let dbl = b.begin_func(FuncType::new(&[ValType::I64], &[ValType::I64]));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::I64Add);
        b.finish_func();
        let f = b.begin_func(FuncType::new(&[ValType::I64], &[ValType::I64]));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::Call(dbl));
        b.emit(Instr::Call(dbl));
        b.finish_func();
        b.export_func("quad", f);
        assert_eq!(
            run(b.build(), "quad", &[11], &PassConfig::aggressive()).unwrap(),
            Some(44)
        );
    }

    #[test]
    fn br_table_via_jump_table() {
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
        let out = b.new_local(ValType::I32);
        b.emit(Instr::Block(BlockType::Empty));
        b.emit(Instr::Block(BlockType::Empty));
        b.emit(Instr::LocalGet(0));
        b.emit_br_table(vec![0], 1);
        b.emit(Instr::End);
        b.emit(Instr::I32Const(10));
        b.emit(Instr::LocalSet(out));
        b.emit(Instr::End);
        b.emit(Instr::LocalGet(out));
        b.emit(Instr::I32Const(5));
        b.emit(Instr::I32Add);
        b.finish_func();
        b.export_func("t", f);
        let m = b.build();
        // case 0: falls to inner end, sets 10, result 15
        assert_eq!(run(m.clone(), "t", &[0], &PassConfig::standard()).unwrap(), Some(15));
        // default: jumps past the set, out stays 0, result 5
        assert_eq!(run(m, "t", &[3], &PassConfig::standard()).unwrap(), Some(5));
    }
}
