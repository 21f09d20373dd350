//! The register-IR executor used by all compiled tiers.
//!
//! In the real systems this would be machine code; here a dispatch loop
//! plays that role. [`RegCode`] re-encodes each function's [`ROp`]s 1:1
//! into a private executable stream of [`XOp`]s whose opcode already names
//! the operator (`I32Add`, `I32AddImm`, `BrI32LtS`, `I64Load8U`, ...), so
//! an op costs one dispatch, as one emitted instruction would. Each arm
//! applies its operator as a constant through the always-inlined twins of
//! `numeric::apply_*` and `interp::tree::{load_op, store_op}`, which fold
//! to straight-line code: the semantics are still written once. Calls
//! between compiled functions stay inside the one loop (the caller is
//! suspended on a side stack), so a wasm call costs no Rust frame.
//!
//! The profiled personality reflects compiled code: instructions fetched
//! from the I-side code region, no per-op indirect dispatch, direct
//! branches where the compiler resolved them, and operands in registers
//! (no operand-stack memory traffic).

use crate::error::Trap;
use crate::interp::tree::{load_op_inline, load_width, store_op_inline, store_width};
use crate::jit::ir::{RFunc, ROp, Reg};
use crate::numeric;
use crate::profiler::{BranchKind, Profiler, CODE_BASE, GLOBALS_BASE, HEAP_BASE, STACK_BASE};
use crate::store::Runtime;
use wasm_core::instr::{Instr, InstrClass, MemArg};
use wasm_core::module::Module;
use std::rc::Rc;

/// Estimated encoded bytes per IR op ("machine code").
const OP_BYTES: u64 = 8;

/// The operator table: every operator the executor folds into its opcode,
/// with the [`XOp`] name of each shape it takes. Invokes `$m!` with the
/// whole table, so the opcode enum, the encoder and the dispatch loop's
/// arms are all generated from this one list.
macro_rules! operator_table {
    ($m:ident) => {
        $m! {
            // Binary operators other than compares: (operator, `BinImm` form).
            arith: [
                (I32Add, I32AddImm), (I32Sub, I32SubImm), (I32Mul, I32MulImm),
                (I32DivS, I32DivSImm), (I32DivU, I32DivUImm),
                (I32RemS, I32RemSImm), (I32RemU, I32RemUImm),
                (I32And, I32AndImm), (I32Or, I32OrImm), (I32Xor, I32XorImm),
                (I32Shl, I32ShlImm), (I32ShrS, I32ShrSImm), (I32ShrU, I32ShrUImm),
                (I32Rotl, I32RotlImm), (I32Rotr, I32RotrImm),
                (I64Add, I64AddImm), (I64Sub, I64SubImm), (I64Mul, I64MulImm),
                (I64DivS, I64DivSImm), (I64DivU, I64DivUImm),
                (I64RemS, I64RemSImm), (I64RemU, I64RemUImm),
                (I64And, I64AndImm), (I64Or, I64OrImm), (I64Xor, I64XorImm),
                (I64Shl, I64ShlImm), (I64ShrS, I64ShrSImm), (I64ShrU, I64ShrUImm),
                (I64Rotl, I64RotlImm), (I64Rotr, I64RotrImm),
                (F32Add, F32AddImm), (F32Sub, F32SubImm), (F32Mul, F32MulImm),
                (F32Div, F32DivImm), (F32Min, F32MinImm), (F32Max, F32MaxImm),
                (F32Copysign, F32CopysignImm),
                (F64Add, F64AddImm), (F64Sub, F64SubImm), (F64Mul, F64MulImm),
                (F64Div, F64DivImm), (F64Min, F64MinImm), (F64Max, F64MaxImm),
                (F64Copysign, F64CopysignImm),
            ],
            // Compares: (operator, `BinImm` form, `BrCmp` form, `BrCmpZ` form).
            cmp: [
                (I32Eq, I32EqImm, BrI32Eq, BrZI32Eq), (I32Ne, I32NeImm, BrI32Ne, BrZI32Ne),
                (I32LtS, I32LtSImm, BrI32LtS, BrZI32LtS), (I32LtU, I32LtUImm, BrI32LtU, BrZI32LtU),
                (I32GtS, I32GtSImm, BrI32GtS, BrZI32GtS), (I32GtU, I32GtUImm, BrI32GtU, BrZI32GtU),
                (I32LeS, I32LeSImm, BrI32LeS, BrZI32LeS), (I32LeU, I32LeUImm, BrI32LeU, BrZI32LeU),
                (I32GeS, I32GeSImm, BrI32GeS, BrZI32GeS), (I32GeU, I32GeUImm, BrI32GeU, BrZI32GeU),
                (I64Eq, I64EqImm, BrI64Eq, BrZI64Eq), (I64Ne, I64NeImm, BrI64Ne, BrZI64Ne),
                (I64LtS, I64LtSImm, BrI64LtS, BrZI64LtS), (I64LtU, I64LtUImm, BrI64LtU, BrZI64LtU),
                (I64GtS, I64GtSImm, BrI64GtS, BrZI64GtS), (I64GtU, I64GtUImm, BrI64GtU, BrZI64GtU),
                (I64LeS, I64LeSImm, BrI64LeS, BrZI64LeS), (I64LeU, I64LeUImm, BrI64LeU, BrZI64LeU),
                (I64GeS, I64GeSImm, BrI64GeS, BrZI64GeS), (I64GeU, I64GeUImm, BrI64GeU, BrZI64GeU),
                (F32Eq, F32EqImm, BrF32Eq, BrZF32Eq), (F32Ne, F32NeImm, BrF32Ne, BrZF32Ne),
                (F32Lt, F32LtImm, BrF32Lt, BrZF32Lt), (F32Gt, F32GtImm, BrF32Gt, BrZF32Gt),
                (F32Le, F32LeImm, BrF32Le, BrZF32Le), (F32Ge, F32GeImm, BrF32Ge, BrZF32Ge),
                (F64Eq, F64EqImm, BrF64Eq, BrZF64Eq), (F64Ne, F64NeImm, BrF64Ne, BrZF64Ne),
                (F64Lt, F64LtImm, BrF64Lt, BrZF64Lt), (F64Gt, F64GtImm, BrF64Gt, BrZF64Gt),
                (F64Le, F64LeImm, BrF64Le, BrZF64Le), (F64Ge, F64GeImm, BrF64Ge, BrZF64Ge),
            ],
            unary: [
                I32Eqz, I64Eqz,
                I32Clz, I32Ctz, I32Popcnt, I64Clz, I64Ctz, I64Popcnt,
                F32Abs, F32Neg, F32Ceil, F32Floor, F32Trunc, F32Nearest, F32Sqrt,
                F64Abs, F64Neg, F64Ceil, F64Floor, F64Trunc, F64Nearest, F64Sqrt,
                I32WrapI64, I64ExtendI32S, I64ExtendI32U,
                I32Extend8S, I32Extend16S, I64Extend8S, I64Extend16S, I64Extend32S,
                I32TruncF32S, I32TruncF32U, I32TruncF64S, I32TruncF64U,
                I64TruncF32S, I64TruncF32U, I64TruncF64S, I64TruncF64U,
                F32ConvertI32S, F32ConvertI32U, F32ConvertI64S, F32ConvertI64U,
                F64ConvertI32S, F64ConvertI32U, F64ConvertI64S, F64ConvertI64U,
                F32DemoteF64, F64PromoteF32,
                I32ReinterpretF32, I64ReinterpretF64, F32ReinterpretI32, F64ReinterpretI64,
            ],
            load: [
                I32Load, I64Load, F32Load, F64Load,
                I32Load8S, I32Load8U, I32Load16S, I32Load16U,
                I64Load8S, I64Load8U, I64Load16S, I64Load16U, I64Load32S, I64Load32U,
            ],
            store: [
                I32Store, I64Store, F32Store, F64Store,
                I32Store8, I32Store16, I64Store8, I64Store16, I64Store32,
            ],
        }
    };
}

/// Defines [`BinOp`] and [`XOp`] and the [`ROp`] → [`XOp`] encoder from
/// the operator table.
macro_rules! define_ops {
    (
        arith: [$(($a:ident, $ai:ident)),* $(,)?],
        cmp: [$(($c:ident, $ci:ident, $cb:ident, $cbz:ident)),* $(,)?],
        unary: [$($u:ident),* $(,)?],
        load: [$($l:ident),* $(,)?],
        store: [$($s:ident),* $(,)?] $(,)?
    ) => {
        /// A binary operator as a one-byte code, for the shapes that keep
        /// their operator as data: `Bin2` (two operators in one op) and a
        /// compare-branch carrying a non-compare operator.
        #[derive(Debug, Clone, Copy)]
        enum BinOp {
            $($a,)*
            $($c,)*
        }

        impl BinOp {
            fn of(op: Instr) -> BinOp {
                match op {
                    $(Instr::$a => BinOp::$a,)*
                    $(Instr::$c => BinOp::$c,)*
                    other => unreachable!("check_code admits only binary operators, not {other:?}"),
                }
            }

            /// `numeric::apply_binary` for this operator: one dispatch on
            /// the code, then the operator's inlined body.
            fn apply(self, a: u64, b: u64) -> Result<u64, Trap> {
                match self {
                    $(BinOp::$a => numeric::apply_binary_inline(Instr::$a, a, b),)*
                    $(BinOp::$c => numeric::apply_binary_inline(Instr::$c, a, b),)*
                }
            }
        }

        /// One executable op: an [`ROp`] with its operator folded into the
        /// opcode. Built 1:1 from a checked function's ops, so pc indices,
        /// branch targets and per-op tables carry over unchanged.
        #[derive(Debug, Clone, Copy)]
        enum XOp {
            Const { rd: Reg, bits: u64 },
            Move { rd: Reg, rs: Reg },
            Bin2 { op1: BinOp, op2: BinOp, rd: Reg, ra: Reg, rb: Reg, rc: Reg, swapped: bool },
            Select { rd: Reg, cond: Reg, a: Reg, b: Reg },
            GlobalGet { rd: Reg, idx: u32 },
            GlobalSet { idx: u32, rs: Reg },
            MemSize { rd: Reg },
            MemGrow { rd: Reg, rs: Reg },
            Jump { target: u32 },
            BrIf { cond: Reg, target: u32 },
            BrIfZ { cond: Reg, target: u32 },
            /// `BrCmp`/`BrCmpZ` with a non-compare operator: the compiler
            /// never emits one, but an artifact may carry it.
            BrBin { op: BinOp, ra: Reg, rb: Reg, target: u32 },
            BrBinZ { op: BinOp, ra: Reg, rb: Reg, target: u32 },
            BrTable { idx: Reg, table: u32 },
            Call { f: u32, args: Reg, nargs: u8, ret: bool },
            CallIndirect { type_idx: u32, elem: Reg, args: Reg, nargs: u8, ret: bool },
            Ret { rs: Reg, has: bool },
            Trap,
            Nop,
            $($a { rd: Reg, ra: Reg, rb: Reg },)*
            $($ai { rd: Reg, ra: Reg, imm: u64 },)*
            $($c { rd: Reg, ra: Reg, rb: Reg },)*
            $($ci { rd: Reg, ra: Reg, imm: u64 },)*
            $($cb { ra: Reg, rb: Reg, target: u32 },)*
            $($cbz { ra: Reg, rb: Reg, target: u32 },)*
            $($u { rd: Reg, ra: Reg },)*
            $($l { rd: Reg, addr: Reg, offset: u32 },)*
            $($s { addr: Reg, val: Reg, offset: u32 },)*
        }

        impl XOp {
            /// Encodes one op of a function `check_code` accepted (which
            /// guarantees every operator matches its shape).
            fn encode(op: &ROp) -> XOp {
                let not_in_class = |op: Instr| -> ! {
                    unreachable!("check_code admits {op:?} in no such shape")
                };
                match *op {
                    ROp::Const { rd, bits } => XOp::Const { rd, bits },
                    ROp::Move { rd, rs } => XOp::Move { rd, rs },
                    ROp::Bin { op, rd, ra, rb } => match op {
                        $(Instr::$a => XOp::$a { rd, ra, rb },)*
                        $(Instr::$c => XOp::$c { rd, ra, rb },)*
                        other => not_in_class(other),
                    },
                    ROp::BinImm { op, rd, ra, imm } => match op {
                        $(Instr::$a => XOp::$ai { rd, ra, imm },)*
                        $(Instr::$c => XOp::$ci { rd, ra, imm },)*
                        other => not_in_class(other),
                    },
                    ROp::Bin2 { op1, op2, rd, ra, rb, rc, swapped } => XOp::Bin2 {
                        op1: BinOp::of(op1),
                        op2: BinOp::of(op2),
                        rd,
                        ra,
                        rb,
                        rc,
                        swapped,
                    },
                    ROp::BrCmp { op, ra, rb, target } => match op {
                        $(Instr::$c => XOp::$cb { ra, rb, target },)*
                        other => XOp::BrBin { op: BinOp::of(other), ra, rb, target },
                    },
                    ROp::BrCmpZ { op, ra, rb, target } => match op {
                        $(Instr::$c => XOp::$cbz { ra, rb, target },)*
                        other => XOp::BrBinZ { op: BinOp::of(other), ra, rb, target },
                    },
                    ROp::Un { op, rd, ra } => match op {
                        $(Instr::$u => XOp::$u { rd, ra },)*
                        other => not_in_class(other),
                    },
                    ROp::Load { op, rd, addr, offset } => match op {
                        $(Instr::$l(_) => XOp::$l { rd, addr, offset },)*
                        other => not_in_class(other),
                    },
                    ROp::Store { op, addr, val, offset } => match op {
                        $(Instr::$s(_) => XOp::$s { addr, val, offset },)*
                        other => not_in_class(other),
                    },
                    ROp::Select { rd, cond, a, b } => XOp::Select { rd, cond, a, b },
                    ROp::GlobalGet { rd, idx } => XOp::GlobalGet { rd, idx },
                    ROp::GlobalSet { idx, rs } => XOp::GlobalSet { idx, rs },
                    ROp::MemSize { rd } => XOp::MemSize { rd },
                    ROp::MemGrow { rd, rs } => XOp::MemGrow { rd, rs },
                    ROp::Jump { target } => XOp::Jump { target },
                    ROp::BrIf { cond, target } => XOp::BrIf { cond, target },
                    ROp::BrIfZ { cond, target } => XOp::BrIfZ { cond, target },
                    ROp::BrTable { idx, table } => XOp::BrTable { idx, table },
                    ROp::Call { f, args, nargs, ret } => XOp::Call { f, args, nargs, ret },
                    ROp::CallIndirect { type_idx, elem, args, nargs, ret } => {
                        XOp::CallIndirect { type_idx, elem, args, nargs, ret }
                    }
                    ROp::Ret { rs, has } => XOp::Ret { rs, has },
                    ROp::Trap => XOp::Trap,
                    ROp::Nop => XOp::Nop,
                }
            }
        }
    };
}

operator_table!(define_ops);

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
    /// Per-function executable op streams, 1:1 with `funcs[i].ops`: the
    /// only form the execution loop reads.
    xops: Vec<Vec<XOp>>,
    /// Per-op "check statically proven redundant" flags, parallel to
    /// `funcs[i].ops`, materialized from each function's proof
    /// obligations. Safe sites skip the modeled check cost (the host
    /// bounds check stays as defense in depth).
    safe: Vec<Vec<bool>>,
}

/// A caller waiting for a compiled callee to return.
struct Suspended {
    /// The caller's function (module-defined index).
    fi: usize,
    /// The caller's call op.
    pc: usize,
    /// The caller's frame base in the arena.
    frame_base: usize,
    /// Where the callee's result goes, if the call expects one.
    ret: Option<Reg>,
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
            for (i, f) in funcs.iter().enumerate() {
                let violations = crate::jit::verify::check_proofs(f);
                if let Some(v) = violations.first() {
                    return Err(format!("function {i}: unsound elimination proof: {v}"));
                }
            }
        }
        Ok(RegCode::new_unchecked(module, funcs))
    }

    fn new_unchecked(module: Rc<Module>, funcs: Vec<RFunc>) -> RegCode {
        let mut func_base = Vec::with_capacity(funcs.len());
        let mut cursor = CODE_BASE + 0x10_0000; // past the runtime stubs
        let mut xops = Vec::with_capacity(funcs.len());
        let mut safe = Vec::with_capacity(funcs.len());
        for f in &funcs {
            func_base.push(cursor);
            cursor += f.ops.len() as u64 * OP_BYTES;
            let mut s = vec![false; f.ops.len()];
            for proof in &f.proofs {
                s[proof.op as usize] = true;
            }
            safe.push(s);
            xops.push(f.ops.iter().map(XOp::encode).collect());
        }
        RegCode {
            num_imported: module.num_imported_funcs() as u32,
            module,
            funcs,
            func_base,
            xops,
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
        if rt.call_depth_limit == 0 {
            return Err(Trap::StackOverflow);
        }
        if func_idx < self.num_imported {
            return rt.call_host(func_idx, args).map(Some);
        }
        // One contiguous frame arena per invocation: compiled code keeps
        // its register frames on the machine stack, not the heap.
        let mut frames: Vec<u64> = Vec::with_capacity(4096);
        let fi = (func_idx - self.num_imported) as usize;
        frames.resize(self.funcs[fi].nregs as usize, 0);
        frames[..args.len()].copy_from_slice(args);
        self.exec(rt, fi, frames, p)
    }

    /// Runs function `fi`, whose frame is `frames[0..nregs]` with the
    /// arguments in place, to completion. Calls between compiled functions
    /// push a [`Suspended`] caller instead of recursing, so one Rust frame
    /// serves every wasm call depth.
    fn exec<P: Profiler>(
        &self,
        rt: &mut Runtime,
        mut fi: usize,
        mut frames: Vec<u64>,
        p: &mut P,
    ) -> Result<Option<u64>, Trap> {
        let mut callers: Vec<Suspended> = Vec::new();
        let mut f = &self.funcs[fi];
        let mut base = self.func_base[fi];
        let mut code = &self.xops[fi][..];
        let mut safe = &self.safe[fi][..];
        let mut frame_base = 0;
        let mut pc: usize = 0;
        // Frame setup: compiled code spills the frame to the real stack.
        // `$depth` is the callee's call depth.
        macro_rules! frame_setup {
            ($depth:expr) => {
                p.write(STACK_BASE + $depth as u64 * 256, (f.nregs as u32).min(16) * 8);
                p.uops(2);
                rt.peak_value_stack = rt.peak_value_stack.max(frames.len());
            };
        }
        frame_setup!(0);

        macro_rules! reg {
            ($r:expr) => {
                // SAFETY: check_code proved the operand index < nregs, and
                // the frame [frame_base, frame_base + nregs) is allocated: a
                // call appends the callee's frame after it, and the
                // callee's return truncates the arena back to its end.
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
        // Makes function `$fi` current, at op 0.
        macro_rules! switch_to {
            ($fi:expr) => {{
                fi = $fi;
                f = &self.funcs[fi];
                base = self.func_base[fi];
                code = &self.xops[fi];
                safe = &self.safe[fi];
            }};
        }
        // Calls `$callee` with the `$nargs` registers from `$args` as its
        // arguments, its result (when `$ret`) back to `$args`. A compiled
        // callee continues the loop at its first op; a host import runs
        // to completion here.
        macro_rules! call {
            ($callee:expr, $args:expr, $nargs:expr, $ret:expr) => {{
                let (callee, args, nargs, ret): (u32, Reg, u8, bool) =
                    ($callee, $args, $nargs, $ret);
                let depth = callers.len() + 1;
                if depth >= rt.call_depth_limit {
                    return Err(Trap::StackOverflow);
                }
                let a = frame_base + args as usize;
                if callee < self.num_imported {
                    let r = rt.call_host(callee, &frames[a..a + nargs as usize])?;
                    if ret {
                        set_reg!(args, r);
                    }
                } else {
                    callers.push(Suspended { fi, pc, frame_base, ret: ret.then_some(args) });
                    switch_to!((callee - self.num_imported) as usize);
                    frame_base = frames.len();
                    frames.resize(frame_base + f.nregs as usize, 0);
                    frames.copy_within(a..a + nargs as usize, frame_base);
                    frame_setup!(depth);
                    pc = 0;
                    continue;
                }
            }};
        }
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
        // in bounds between branches. `code` is 1:1 with `f.ops`.
        loop {
            let op = unsafe { code.get_unchecked(pc) };
            let site = base + pc as u64 * OP_BYTES;
            p.fetch(site, OP_BYTES as u32);

            // A conditional branch to `target`, taken when `$taken`.
            macro_rules! cond_branch {
                ($taken:expr, $target:expr) => {{
                    let taken: bool = $taken;
                    let target: u32 = $target;
                    p.branch(site, BranchKind::Cond, taken, base + target as u64 * OP_BYTES);
                    p.uops(1);
                    if taken {
                        pc = target as usize;
                        continue;
                    }
                }};
            }
            // One match over the whole table: every operator's arm applies
            // it as a constant, so each arm inlines to its own operation.
            macro_rules! dispatch {
                (
                    arith: [$(($a:ident, $ai:ident)),* $(,)?],
                    cmp: [$(($c:ident, $ci:ident, $cb:ident, $cbz:ident)),* $(,)?],
                    unary: [$($u:ident),* $(,)?],
                    load: [$($l:ident),* $(,)?],
                    store: [$($s:ident),* $(,)?] $(,)?
                ) => {
                    match *op {
                        $(XOp::$a { rd, ra, rb } => {
                            set_reg!(rd, numeric::apply_binary_inline(Instr::$a, reg!(ra), reg!(rb))?);
                            const COST: u64 = op_cost(Instr::$a.class());
                            checked_uops!(COST);
                        })*
                        $(XOp::$c { rd, ra, rb } => {
                            set_reg!(rd, numeric::apply_binary_inline(Instr::$c, reg!(ra), reg!(rb))?);
                            const COST: u64 = op_cost(Instr::$c.class());
                            checked_uops!(COST);
                        })*
                        $(XOp::$ai { rd, ra, imm } => {
                            set_reg!(rd, numeric::apply_binary_inline(Instr::$a, reg!(ra), imm)?);
                            const COST: u64 = op_cost(Instr::$a.class());
                            checked_uops!(COST);
                        })*
                        $(XOp::$ci { rd, ra, imm } => {
                            set_reg!(rd, numeric::apply_binary_inline(Instr::$c, reg!(ra), imm)?);
                            const COST: u64 = op_cost(Instr::$c.class());
                            checked_uops!(COST);
                        })*
                        $(XOp::$cb { ra, rb, target } => {
                            // cmp+jcc pair retires as a fused µop
                            let v = numeric::apply_binary_inline(Instr::$c, reg!(ra), reg!(rb))?;
                            cond_branch!(v as u32 != 0, target);
                        })*
                        $(XOp::$cbz { ra, rb, target } => {
                            let v = numeric::apply_binary_inline(Instr::$c, reg!(ra), reg!(rb))?;
                            cond_branch!(v as u32 == 0, target);
                        })*
                        $(XOp::$u { rd, ra } => {
                            set_reg!(rd, numeric::apply_unary_inline(Instr::$u, reg!(ra))?);
                            const COST: u64 = op_cost(Instr::$u.class());
                            checked_uops!(COST);
                        })*
                        $(XOp::$l { rd, addr, offset } => {
                            const OP: Instr = Instr::$l(MemArg { align: 0, offset: 0 });
                            let a = reg!(addr) as u32;
                            let mem = rt.memory.as_ref().expect("validated memory");
                            set_reg!(rd, load_op_inline(mem, &OP, a, offset)?);
                            const WIDTH: u32 = load_width(&OP);
                            p.read(HEAP_BASE + a as u64 + offset as u64, WIDTH);
                            // Address computation + access, plus the bounds
                            // check unless the compiler proved it redundant.
                            checked_uops!(2);
                        })*
                        $(XOp::$s { addr, val, offset } => {
                            const OP: Instr = Instr::$s(MemArg { align: 0, offset: 0 });
                            let a = reg!(addr) as u32;
                            let mem = rt.memory.as_mut().expect("validated memory");
                            store_op_inline(mem, &OP, a, offset, reg!(val))?;
                            const WIDTH: u32 = store_width(&OP);
                            p.write(HEAP_BASE + a as u64 + offset as u64, WIDTH);
                            checked_uops!(2);
                        })*
                        XOp::Const { rd, bits } => {
                            set_reg!(rd, bits);
                            p.uops(1);
                        }
                        XOp::Move { rd, rs } => {
                            set_reg!(rd, reg!(rs));
                            p.uops(1);
                        }
                        XOp::Bin2 { op1, op2, rd, ra, rb, rc, swapped } => {
                            let v1 = op1.apply(reg!(ra), reg!(rb))?;
                            let v = if swapped {
                                op2.apply(reg!(rc), v1)?
                            } else {
                                op2.apply(v1, reg!(rc))?
                            };
                            set_reg!(rd, v);
                            checked_uops!(2);
                        }
                        XOp::Select { rd, cond, a, b } => {
                            let v = if reg!(cond) as u32 != 0 { reg!(a) } else { reg!(b) };
                            set_reg!(rd, v);
                            p.uops(1); // cmov
                        }
                        XOp::GlobalGet { rd, idx } => {
                            set_reg!(rd, rt.globals[idx as usize]);
                            p.read(GLOBALS_BASE + idx as u64 * 8, 8);
                            p.uops(1);
                        }
                        XOp::GlobalSet { idx, rs } => {
                            rt.globals[idx as usize] = reg!(rs);
                            p.write(GLOBALS_BASE + idx as u64 * 8, 8);
                            p.uops(1);
                        }
                        XOp::MemSize { rd } => {
                            let v = rt.memory.as_ref().expect("validated memory").size_pages() as u64;
                            set_reg!(rd, v);
                            p.uops(2);
                        }
                        XOp::MemGrow { rd, rs } => {
                            let delta = reg!(rs) as u32;
                            let v = rt.memory.as_mut().expect("validated memory").grow(delta) as u32 as u64;
                            set_reg!(rd, v);
                            p.uops(20);
                        }
                        XOp::Jump { target } => {
                            p.branch(site, BranchKind::Uncond, true, base + target as u64 * OP_BYTES);
                            p.uops(1);
                            pc = target as usize;
                            continue;
                        }
                        XOp::BrIf { cond, target } => cond_branch!(reg!(cond) as u32 != 0, target),
                        XOp::BrIfZ { cond, target } => cond_branch!(reg!(cond) as u32 == 0, target),
                        XOp::BrBin { op, ra, rb, target } => {
                            let v = op.apply(reg!(ra), reg!(rb))?;
                            cond_branch!(v as u32 != 0, target);
                        }
                        XOp::BrBinZ { op, ra, rb, target } => {
                            let v = op.apply(reg!(ra), reg!(rb))?;
                            cond_branch!(v as u32 == 0, target);
                        }
                        XOp::BrTable { idx, table } => {
                            let t = &f.tables[table as usize];
                            let sel = (reg!(idx) as u32 as usize).min(t.len() - 1);
                            let target = t[sel];
                            p.read(site + 4, 8); // jump-table entry load
                            p.branch(site, BranchKind::Indirect, true, base + target as u64 * OP_BYTES);
                            p.uops(2);
                            pc = target as usize;
                            continue;
                        }
                        XOp::Call { f: callee, args, nargs, ret } => {
                            p.branch(site, BranchKind::Call, true, CODE_BASE + callee as u64 * 0x80);
                            p.uops(2);
                            call!(callee, args, nargs, ret);
                        }
                        XOp::CallIndirect { type_idx, elem, args, nargs, ret } => {
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
                            p.read(crate::profiler::META_BASE + e as u64 * 8, 8); // table slot
                            p.branch(site, BranchKind::IndirectCall, true, CODE_BASE + callee as u64 * 0x80);
                            p.uops(4); // bounds + signature check
                            call!(callee, args, nargs, ret);
                        }
                        XOp::Ret { rs, has } => {
                            p.branch(site, BranchKind::Ret, true, CODE_BASE);
                            p.uops(1);
                            let r = if has { Some(reg!(rs)) } else { None };
                            frames.truncate(frame_base);
                            let Some(caller) = callers.pop() else {
                                return Ok(r);
                            };
                            switch_to!(caller.fi);
                            frame_base = caller.frame_base;
                            pc = caller.pc;
                            if let Some(rd) = caller.ret {
                                set_reg!(rd, r.expect("typed result"));
                            }
                        }
                        XOp::Trap => return Err(Trap::Unreachable),
                        XOp::Nop => {}
                    }
                };
            }
            operator_table!(dispatch);
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
        // Operator class must match the op shape, or `XOp::encode` has no
        // opcode for it.
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
const fn op_cost(class: InstrClass) -> u64 {
    match class {
        InstrClass::SlowArith => 20,
        InstrClass::FloatArith => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::tree::{load_op, store_op};
    use crate::jit::lower::lower;
    use crate::jit::opt::{optimize, PassConfig};
    use crate::memory::LinearMemory;
    use crate::profiler::{CountingProfiler, NullProfiler};
    use crate::store::Imports;
    use wasm_core::builder::ModuleBuilder;
    use wasm_core::instr::BlockType;
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
    fn executable_ops_stay_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<XOp>(), 16);
        assert!(std::mem::size_of::<ROp>() > std::mem::size_of::<XOp>());
    }

    /// The operators the table folds into opcodes, per class.
    struct Operators {
        binary: Vec<Instr>,
        unary: Vec<Instr>,
        loads: Vec<Instr>,
        stores: Vec<Instr>,
    }

    fn operators() -> Operators {
        macro_rules! lists {
            (
                arith: [$(($a:ident, $ai:ident)),* $(,)?],
                cmp: [$(($c:ident, $ci:ident, $cb:ident, $cbz:ident)),* $(,)?],
                unary: [$($u:ident),* $(,)?],
                load: [$($l:ident),* $(,)?],
                store: [$($s:ident),* $(,)?] $(,)?
            ) => {
                Operators {
                    binary: vec![$(Instr::$a,)* $(Instr::$c,)*],
                    unary: vec![$(Instr::$u,)*],
                    loads: vec![$(Instr::$l(Default::default()),)*],
                    stores: vec![$(Instr::$s(Default::default()),)*],
                }
            };
        }
        operator_table!(lists)
    }

    /// Hosts one hand-built function taking `nparams` raw slots in a
    /// module with one page of memory filled with a byte pattern.
    fn host(nparams: u16, result: bool, nregs: u16, ops: Vec<ROp>) -> (RegCode, Runtime) {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let params = vec![ValType::I64; nparams as usize];
        let results: &[ValType] = if result { &[ValType::I64] } else { &[] };
        b.begin_func(FuncType::new(&params, results));
        b.finish_func();
        let f = RFunc { ops, nparams, nlocals: nparams, nregs, result, ..RFunc::default() };
        let code = RegCode::new(Rc::new(b.build()), vec![f]);
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        let pattern: Vec<u8> = (0..65536u32).map(|i| (i.wrapping_mul(131) ^ (i >> 8)) as u8).collect();
        rt.memory.as_mut().unwrap().write_slice(0, &pattern).unwrap();
        (code, rt)
    }

    /// Integer edges, shift counts around the widths, and f32/f64 bit
    /// patterns: ±0, ±1, NaN payloads, ±inf, subnormals, the 2^31/2^63
    /// conversion edges, and slots with garbage in the high half.
    const GRID: &[u64] = &[
        0,
        1,
        2,
        0xffff_ffff,
        u64::MAX,
        0x8000_0000,
        0x7fff_ffff,
        1 << 63,
        i64::MAX as u64,
        31,
        32,
        63,
        64,
        0x3f80_0000,
        0xbf80_0000,
        0x7fc0_0000,
        0x7fa0_0001,
        0xffc0_0123,
        0x7f80_0000,
        0xff80_0000,
        0x807f_ffff,
        0x4f00_0000,
        0xcf00_0001,
        0x3ff0_0000_0000_0000,
        0xbff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0x7ff4_0000_0000_0001,
        0xfff8_0000_dead_beef,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x000f_ffff_ffff_ffff,
        0x41e0_0000_0000_0000,
        0xc1e0_0000_0000_0000,
        0x43e0_0000_0000_0000,
        0xdead_beef_8000_0001,
    ];

    fn branch_result(v: Result<u64, Trap>, when_zero: bool) -> Result<Option<u64>, Trap> {
        v.map(|v| Some(u64::from((v as u32 == 0) == when_zero)))
    }

    #[test]
    fn table_covers_every_operator_of_its_class() {
        let ops = operators();
        for (list, len, member) in [
            (&ops.binary, 76, numeric::is_binary as fn(Instr) -> bool),
            (&ops.unary, 52, numeric::is_unary),
            (&ops.loads, 14, |op| crate::interp::tree::is_load_op(&op)),
            (&ops.stores, 9, |op| crate::interp::tree::is_store_op(&op)),
        ] {
            assert_eq!(list.len(), len);
            for (i, op) in list.iter().enumerate() {
                assert!(member(*op), "{op:?} in the wrong class");
                assert!(!list[..i].contains(op), "{op:?} listed twice");
            }
        }
    }

    #[test]
    fn binary_shapes_match_apply_binary() {
        for op in operators().binary {
            let (bin, mut rt) = host(2, true, 3, vec![
                ROp::Bin { op, rd: 2, ra: 0, rb: 1 },
                ROp::Ret { rs: 2, has: true },
            ]);
            // Branch-if-true and branch-if-false: the result is 1 when taken.
            // A non-compare operator here takes the generic arm.
            let branch = |zero: bool| {
                let (ra, rb, target) = (0, 1, 3);
                let br = if zero {
                    ROp::BrCmpZ { op, ra, rb, target }
                } else {
                    ROp::BrCmp { op, ra, rb, target }
                };
                host(2, true, 3, vec![
                    br,
                    ROp::Const { rd: 2, bits: 0 },
                    ROp::Ret { rs: 2, has: true },
                    ROp::Const { rd: 2, bits: 1 },
                    ROp::Ret { rs: 2, has: true },
                ])
                .0
            };
            let (br, brz) = (branch(false), branch(true));
            for &b in GRID {
                let (imm, _) = host(1, true, 2, vec![
                    ROp::BinImm { op, rd: 1, ra: 0, imm: b },
                    ROp::Ret { rs: 1, has: true },
                ]);
                for &a in GRID {
                    let want = numeric::apply_binary(op, a, b);
                    let ctx = format!("{op:?}({a:#x}, {b:#x})");
                    let np = &mut NullProfiler;
                    assert_eq!(bin.invoke(&mut rt, 0, &[a, b], np), want.clone().map(Some), "Bin {ctx}");
                    assert_eq!(imm.invoke(&mut rt, 0, &[a], np), want.clone().map(Some), "BinImm {ctx}");
                    assert_eq!(br.invoke(&mut rt, 0, &[a, b], np), branch_result(want.clone(), false), "BrCmp {ctx}");
                    assert_eq!(brz.invoke(&mut rt, 0, &[a, b], np), branch_result(want, true), "BrCmpZ {ctx}");
                }
            }
        }
    }

    #[test]
    fn fused_chains_match_apply_binary() {
        let binary = operators().binary;
        let grid = [0, 1, 0xffff_ffff, u64::MAX, 0x8000_0000, 1 << 63, 32, 0x7fc0_0000, 0x7ff4_0000_0000_0001];
        for (i, &op1) in binary.iter().enumerate() {
            let op2 = binary[(i * 7 + 3) % binary.len()];
            for swapped in [false, true] {
                let (code, mut rt) = host(3, true, 4, vec![
                    ROp::Bin2 { op1, op2, rd: 3, ra: 0, rb: 1, rc: 2, swapped },
                    ROp::Ret { rs: 3, has: true },
                ]);
                for a in grid {
                    for b in grid {
                        for c in grid {
                            let want = numeric::apply_binary(op1, a, b).and_then(|v| {
                                if swapped {
                                    numeric::apply_binary(op2, c, v)
                                } else {
                                    numeric::apply_binary(op2, v, c)
                                }
                            });
                            assert_eq!(
                                code.invoke(&mut rt, 0, &[a, b, c], &mut NullProfiler),
                                want.map(Some),
                                "{op1:?}/{op2:?} swapped={swapped} ({a:#x}, {b:#x}, {c:#x})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unary_shape_matches_apply_unary() {
        for op in operators().unary {
            let (code, mut rt) = host(1, true, 2, vec![
                ROp::Un { op, rd: 1, ra: 0 },
                ROp::Ret { rs: 1, has: true },
            ]);
            for &a in GRID {
                assert_eq!(
                    code.invoke(&mut rt, 0, &[a], &mut NullProfiler),
                    numeric::apply_unary(op, a).map(Some),
                    "{op:?}({a:#x})"
                );
            }
        }
    }

    /// (address, offset) pairs around both ends of a one-page memory for
    /// an access of `width` bytes: in bounds, the last valid address, the
    /// first invalid one (reached through the address and through the
    /// offset), and offsets that overflow 32 bits.
    fn addresses(width: u32) -> Vec<(u32, u32)> {
        let last = 65536 - width;
        vec![
            (0, 0),
            (1, 0),
            (7, 5),
            (last, 0),
            (last + 1, 0),
            (last - 3, 3),
            (last - 3, 4),
            (65536, 0),
            (u32::MAX, 0),
            (1, u32::MAX),
        ]
    }

    #[test]
    fn loads_match_load_op_up_to_the_last_byte() {
        for op in operators().loads {
            let width = load_width(&op);
            for (addr, offset) in addresses(width) {
                let (code, mut rt) = host(1, true, 2, vec![
                    ROp::Load { op, rd: 1, addr: 0, offset },
                    ROp::Ret { rs: 1, has: true },
                ]);
                let want = load_op(rt.memory.as_ref().unwrap(), &op, addr, offset);
                if (addr, offset) == (65536 - width, 0) {
                    assert!(want.is_ok(), "last valid address must load");
                } else if (addr, offset) == (65536 - width + 1, 0) {
                    assert_eq!(want, Err(Trap::MemoryOutOfBounds));
                }
                assert_eq!(
                    code.invoke(&mut rt, 0, &[u64::from(addr)], &mut NullProfiler),
                    want.map(Some),
                    "{op:?} at {addr:#x}+{offset:#x}"
                );
            }
        }
    }

    #[test]
    fn stores_match_store_op_up_to_the_last_byte() {
        for op in operators().stores {
            let width = store_width(&op);
            for (addr, offset) in addresses(width) {
                for val in [0x1122_3344_5566_7788, u64::MAX, 0x80] {
                    let (code, mut rt) = host(2, false, 2, vec![
                        ROp::Store { op, addr: 0, val: 1, offset },
                        ROp::Ret { rs: 0, has: false },
                    ]);
                    let mut want_mem = rt.memory.clone().unwrap();
                    let want = store_op(&mut want_mem, &op, addr, offset, val);
                    let got = code.invoke(&mut rt, 0, &[u64::from(addr), val], &mut NullProfiler);
                    let ctx = format!("{op:?} of {val:#x} at {addr:#x}+{offset:#x}");
                    assert_eq!(got, want.map(|()| None), "{ctx}");
                    let image = |m: &LinearMemory| m.slice(0, 65536).unwrap().to_vec();
                    assert!(image(rt.memory.as_ref().unwrap()) == image(&want_mem), "{ctx}: memory");
                }
            }
        }
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
