//! The WAMR-style classic interpreter.
//!
//! Executes the decoded instruction stream *in place*: no pre-translation
//! beyond the per-function [`ControlMap`]. Every step fetches the decoded
//! instruction (a data access — the bytecode lives in the heap, not the
//! I-cache), dispatches through an indirect branch, and manipulates an
//! explicit operand stack. This is the cheapest engine to load and the
//! slowest to run, matching WAMR's profile in the paper.

use std::rc::Rc;

use crate::error::Trap;
use crate::interp::Label;
use crate::numeric;
use crate::profiler::{BranchKind, Profiler, BYTECODE_BASE, CODE_BASE, HEAP_BASE, STACK_BASE};
use crate::store::Runtime;
use wasm_core::control::ControlMap;
use wasm_core::instr::{BlockType, Instr};
use wasm_core::module::Module;

/// Bytes of bytecode one decoded instruction occupies in the profiled
/// address space (size of the in-memory `Instr`).
const INSTR_BYTES: u64 = 16;

/// Loaded (but untranslated) code for the tree interpreter.
#[derive(Debug)]
pub struct TreeCode {
    /// The decoded module.
    pub module: Rc<Module>,
    maps: Vec<ControlMap>,
    /// Profiled bytecode base address of each module-defined function.
    func_base: Vec<u64>,
    /// Per-function, per-instruction marks for safety checks the range
    /// analysis proved redundant at load time. Marked sites keep the
    /// host-side check (defense in depth) but skip its modeled cost.
    safe: Vec<Vec<bool>>,
    num_imported: u32,
}

impl TreeCode {
    /// Prepares a validated module for tree interpretation.
    ///
    /// # Errors
    ///
    /// Returns a trap-like validation failure only if control structure is
    /// malformed, which validation has already excluded.
    pub fn load(module: Rc<Module>) -> Result<TreeCode, wasm_core::ValidateError> {
        let mut maps = Vec::with_capacity(module.funcs.len());
        let mut func_base = Vec::with_capacity(module.funcs.len());
        let mut safe = Vec::with_capacity(module.funcs.len());
        let mut cursor = BYTECODE_BASE;
        let num_imported = module.num_imported_funcs() as u32;
        for (i, f) in module.funcs.iter().enumerate() {
            maps.push(
                ControlMap::build(&f.body)
                    .map_err(|e| e.with_func(num_imported + i as u32))?,
            );
            safe.push(crate::jit::verify::safe_wasm_sites(&module, f));
            func_base.push(cursor);
            cursor += f.body.len() as u64 * INSTR_BYTES;
        }
        Ok(TreeCode {
            module,
            maps,
            func_base,
            safe,
            num_imported,
        })
    }

    /// Approximate bytes of engine-owned storage for this code (decoded
    /// instructions plus control maps), for memory accounting.
    pub fn code_bytes(&self) -> usize {
        let instrs: usize = self.module.funcs.iter().map(|f| f.body.len()).sum();
        let maps: usize = self.maps.iter().map(|m| m.end_of.len() * 8).sum();
        instrs * INSTR_BYTES as usize + maps
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
        self.call(rt, func_idx, args, 0, p)
    }

    fn call<P: Profiler>(
        &self,
        rt: &mut Runtime,
        func_idx: u32,
        args: &[u64],
        depth: usize,
        p: &mut P,
    ) -> Result<Option<u64>, Trap> {
        if depth >= rt.call_depth_limit {
            return Err(Trap::StackOverflow);
        }
        if func_idx < self.num_imported {
            return rt.call_host(func_idx, args).map(Some);
        }
        let local_idx = (func_idx - self.num_imported) as usize;
        let func = &self.module.funcs[local_idx];
        let map = &self.maps[local_idx];
        let safe = &self.safe[local_idx];
        let base = self.func_base[local_idx];
        let ty = &self.module.types[func.type_idx as usize];
        let result_arity = ty.results.len() as u8;

        let mut locals: Vec<u64> = Vec::with_capacity(args.len() + func.locals.len());
        locals.extend_from_slice(args);
        locals.resize(args.len() + func.locals.len(), 0u64);

        let mut stack: Vec<u64> = Vec::with_capacity(16);
        let mut labels: Vec<Label> = Vec::with_capacity(8);
        labels.push(Label {
            end_pc: (func.body.len() - 1) as u32,
            start_pc: 0,
            height: 0,
            arity: result_arity,
            is_loop: false,
        });

        let body = &func.body;
        let mut pc: usize = 0;

        macro_rules! pop {
            () => {{
                p.read(STACK_BASE + stack.len() as u64 * 8, 8);
                stack.pop().expect("validated stack")
            }};
        }
        macro_rules! push {
            ($v:expr) => {{
                let v = $v;
                stack.push(v);
                p.write(STACK_BASE + stack.len() as u64 * 8, 8);
            }};
        }

        loop {
            let instr = &body[pc];
            let site = base + pc as u64 * INSTR_BYTES;
            // Interpreter personality: fetch the handler (I-side), read the
            // bytecode word (D-side), and take the dispatch indirect branch.
            p.fetch(CODE_BASE, 24);
            p.read(site, INSTR_BYTES as u32);
            let handler = CODE_BASE + 0x100 + dispatch_slot(instr) * 0x40;
            p.branch(CODE_BASE + 0x20, BranchKind::Indirect, true, handler);
            p.uops(9); // operand decode + bounds checks + dispatch sequence

            use Instr::*;
            match *instr {
                Nop => {}
                Unreachable => return Err(Trap::Unreachable),
                Block(bt) => {
                    labels.push(Label {
                        end_pc: map.end(pc) as u32,
                        start_pc: pc as u32 + 1,
                        height: stack.len() as u32,
                        arity: bt.arity() as u8,
                        is_loop: false,
                    });
                    p.uops(2);
                }
                Loop(_) => {
                    labels.push(Label {
                        end_pc: map.end(pc) as u32,
                        start_pc: pc as u32 + 1,
                        height: stack.len() as u32,
                        arity: 0,
                        is_loop: true,
                    });
                    p.uops(2);
                }
                If(bt) => {
                    let cond = pop!();
                    let end_pc = map.end(pc) as u32;
                    labels.push(Label {
                        end_pc,
                        start_pc: pc as u32 + 1,
                        height: stack.len() as u32,
                        arity: bt.arity() as u8,
                        is_loop: false,
                    });
                    let taken = cond as u32 == 0;
                    let target = match map.else_branch(pc) {
                        Some(e) => e + 1,
                        None => end_pc as usize, // jump to End; label popped there
                    };
                    p.branch(site, BranchKind::Cond, taken, base + target as u64 * INSTR_BYTES);
                    p.uops(2);
                    if taken {
                        pc = target;
                        continue;
                    }
                }
                Else => {
                    // Falling into an else means the then-arm finished:
                    // jump to the matching End (and pop there).
                    let target = map.end(pc);
                    p.branch(site, BranchKind::Uncond, true, base + target as u64 * INSTR_BYTES);
                    pc = target;
                    continue;
                }
                End => {
                    let label = labels.pop().expect("validated labels");
                    debug_assert!(stack.len() >= label.height as usize);
                    if labels.is_empty() {
                        rt.peak_value_stack = rt.peak_value_stack.max(stack.len() + locals.len());
                        p.branch(site, BranchKind::Ret, true, CODE_BASE);
                        return Ok(if result_arity == 1 { stack.pop() } else { None });
                    }
                }
                Br(d) => {
                    pc = self.do_branch(&mut stack, &mut labels, d, p)?;
                    p.branch(
                        site,
                        BranchKind::Uncond,
                        true,
                        if pc == usize::MAX { CODE_BASE } else { base + pc as u64 * INSTR_BYTES },
                    );
                    if pc == usize::MAX {
                        rt.peak_value_stack = rt.peak_value_stack.max(stack.len() + locals.len());
                        return Ok(if result_arity == 1 { stack.pop() } else { None });
                    }
                    continue;
                }
                BrIf(d) => {
                    let cond = pop!();
                    let taken = cond as u32 != 0;
                    if taken {
                        let t = self.do_branch(&mut stack, &mut labels, d, p)?;
                        let target = if t == usize::MAX {
                            CODE_BASE
                        } else {
                            base + t as u64 * INSTR_BYTES
                        };
                        p.branch(site, BranchKind::Cond, true, target);
                        if t == usize::MAX {
                            rt.peak_value_stack =
                                rt.peak_value_stack.max(stack.len() + locals.len());
                            return Ok(if result_arity == 1 { stack.pop() } else { None });
                        }
                        pc = t;
                        continue;
                    } else {
                        p.branch(site, BranchKind::Cond, false, 0);
                    }
                }
                BrTable(pool) => {
                    let idx = pop!() as u32;
                    let table = &self.module.br_tables[pool as usize];
                    let d = *table
                        .targets
                        .get(idx as usize)
                        .unwrap_or(&table.default);
                    p.read(site + 8, 8); // jump-table lookup
                    let t = self.do_branch(&mut stack, &mut labels, d, p)?;
                    let target = if t == usize::MAX {
                        CODE_BASE
                    } else {
                        base + t as u64 * INSTR_BYTES
                    };
                    p.branch(site, BranchKind::Indirect, true, target);
                    if t == usize::MAX {
                        rt.peak_value_stack = rt.peak_value_stack.max(stack.len() + locals.len());
                        return Ok(if result_arity == 1 { stack.pop() } else { None });
                    }
                    pc = t;
                    continue;
                }
                Return => {
                    rt.peak_value_stack = rt.peak_value_stack.max(stack.len() + locals.len());
                    p.branch(site, BranchKind::Ret, true, CODE_BASE);
                    return Ok(if result_arity == 1 { stack.pop() } else { None });
                }
                Call(f) => {
                    let callee_ty = self
                        .module
                        .func_type(f)
                        .expect("validated call target");
                    let nargs = callee_ty.params.len();
                    let has_result = !callee_ty.results.is_empty();
                    let args_start = stack.len() - nargs;
                    let call_args: Vec<u64> = stack[args_start..].to_vec();
                    stack.truncate(args_start);
                    p.branch(site, BranchKind::Call, true, CODE_BASE + f as u64 * 0x80);
                    p.uops(6); // frame setup
                    let r = self.call(rt, f, &call_args, depth + 1, p)?;
                    if has_result {
                        push!(r.expect("typed result"));
                    }
                }
                CallIndirect(type_idx) => {
                    let elem = pop!() as u32;
                    let f = rt
                        .table
                        .get(elem as usize)
                        .copied()
                        .flatten()
                        .ok_or(Trap::UndefinedElement)?;
                    let want = &self.module.types[type_idx as usize];
                    let have = self.module.func_type(f).ok_or(Trap::UndefinedElement)?;
                    if want != have {
                        return Err(Trap::IndirectCallTypeMismatch);
                    }
                    let nargs = want.params.len();
                    let has_result = !want.results.is_empty();
                    let args_start = stack.len() - nargs;
                    let call_args: Vec<u64> = stack[args_start..].to_vec();
                    stack.truncate(args_start);
                    p.branch(site, BranchKind::IndirectCall, true, CODE_BASE + f as u64 * 0x80);
                    p.uops(10); // table lookup + signature check + frame
                    let r = self.call(rt, f, &call_args, depth + 1, p)?;
                    if has_result {
                        push!(r.expect("typed result"));
                    }
                }
                Drop => {
                    pop!();
                }
                Select => {
                    let c = pop!();
                    let b = pop!();
                    let a = pop!();
                    push!(if c as u32 != 0 { a } else { b });
                    p.uops(1);
                }
                LocalGet(i) => {
                    p.read(STACK_BASE + i as u64 * 8, 8);
                    push!(locals[i as usize]);
                }
                LocalSet(i) => {
                    let v = pop!();
                    locals[i as usize] = v;
                    p.write(STACK_BASE + i as u64 * 8, 8);
                }
                LocalTee(i) => {
                    let v = *stack.last().expect("validated stack");
                    locals[i as usize] = v;
                    p.write(STACK_BASE + i as u64 * 8, 8);
                }
                GlobalGet(i) => {
                    p.read(crate::profiler::GLOBALS_BASE + i as u64 * 8, 8);
                    push!(rt.globals[i as usize]);
                }
                GlobalSet(i) => {
                    let v = pop!();
                    rt.globals[i as usize] = v;
                    p.write(crate::profiler::GLOBALS_BASE + i as u64 * 8, 8);
                }
                MemorySize => {
                    let mem = rt.memory.as_ref().expect("validated memory");
                    push!(mem.size_pages() as u64);
                }
                MemoryGrow => {
                    let delta = pop!() as u32;
                    let mem = rt.memory.as_mut().expect("validated memory");
                    push!(mem.grow(delta) as u32 as u64);
                    p.uops(20);
                }
                I32Const(v) => push!(v as u32 as u64),
                I64Const(v) => push!(v as u64),
                F32Const(bits) => push!(bits as u64),
                F64Const(bits) => push!(bits),
                ref op => {
                    if let Some((_, m)) = wasm_core::opcode::mem_opcode(op) {
                        // Memory access instructions.
                        let (val, is_store) = if is_store_op(op) {
                            (Some(pop!()), true)
                        } else {
                            (None, false)
                        };
                        let addr = pop!() as u32;
                        let mem = rt.memory.as_mut().expect("validated memory");
                        let ea = HEAP_BASE + addr as u64 + m.offset as u64;
                        // Address computation + access, plus the bounds
                        // check unless load-time analysis proved it
                        // redundant.
                        if is_store {
                            let v = val.expect("store value");
                            store_op(mem, op, addr, m.offset, v)?;
                            p.write(ea, store_width(op));
                        } else {
                            let loaded = load_op(mem, op, addr, m.offset)?;
                            p.read(ea, load_width(op));
                            push!(loaded);
                        }
                        if safe[pc] {
                            p.uops(1);
                            p.check_skipped();
                        } else {
                            p.uops(2);
                        }
                    } else if numeric::is_binary(*op) {
                        let b = pop!();
                        let a = pop!();
                        push!(numeric::apply_binary(*op, a, b)?);
                        let c = numeric_cost(op);
                        if safe[pc] {
                            p.uops((c - 1).max(1));
                            p.check_skipped();
                        } else {
                            p.uops(c);
                        }
                    } else if numeric::is_unary(*op) {
                        let a = pop!();
                        push!(numeric::apply_unary(*op, a)?);
                        let c = numeric_cost(op);
                        if safe[pc] {
                            p.uops((c - 1).max(1));
                            p.check_skipped();
                        } else {
                            p.uops(c);
                        }
                    } else {
                        unreachable!("unhandled instruction {op:?}");
                    }
                }
            }
            pc += 1;
        }
    }

    /// Performs a branch of depth `d`. Returns the new pc, or `usize::MAX`
    /// to signal a function return.
    fn do_branch<P: Profiler>(
        &self,
        stack: &mut Vec<u64>,
        labels: &mut Vec<Label>,
        d: u32,
        p: &mut P,
    ) -> Result<usize, Trap> {
        let idx = labels.len() - 1 - d as usize;
        let label = labels[idx];
        // Carry the result values over the branch.
        let keep = label.arity as usize;
        let vals_start = stack.len() - keep;
        for k in 0..keep {
            stack[label.height as usize + k] = stack[vals_start + k];
        }
        stack.truncate(label.height as usize + keep);
        p.uops(3); // label walk + stack adjust

        if idx == 0 {
            return Ok(usize::MAX); // branch to function label = return
        }
        if label.is_loop {
            labels.truncate(idx + 1); // loop label survives
            Ok(label.start_pc as usize)
        } else {
            labels.truncate(idx);
            Ok(label.end_pc as usize + 1)
        }
    }
}

/// Stable per-opcode dispatch slot for modeling the indirect dispatch
/// branch target (one handler per opcode class).
fn dispatch_slot(i: &Instr) -> u64 {
    // A compact, stable discriminant: use the encoded opcode byte when one
    // exists, otherwise a small synthetic id.
    if let Some(b) = wasm_core::opcode::simple_to_byte(i) {
        return b as u64;
    }
    if let Some((b, _)) = wasm_core::opcode::mem_opcode(i) {
        return b as u64;
    }
    use Instr::*;
    match i {
        Block(_) => 0x02,
        Loop(_) => 0x03,
        If(_) => 0x04,
        Br(_) => 0x0C,
        BrIf(_) => 0x0D,
        BrTable(_) => 0x0E,
        Call(_) => 0x10,
        CallIndirect(_) => 0x11,
        LocalGet(_) => 0x20,
        LocalSet(_) => 0x21,
        LocalTee(_) => 0x22,
        GlobalGet(_) => 0x23,
        GlobalSet(_) => 0x24,
        MemorySize => 0x3F,
        MemoryGrow => 0x40,
        I32Const(_) => 0x41,
        I64Const(_) => 0x42,
        F32Const(_) => 0x43,
        F64Const(_) => 0x44,
        _ => 0xFF,
    }
}

/// Extra µops a numeric instruction costs beyond dispatch.
pub(crate) fn numeric_cost(op: &Instr) -> u64 {
    use wasm_core::instr::InstrClass;
    match op.class() {
        InstrClass::SlowArith => 20,
        InstrClass::FloatArith => 3,
        _ => 1,
    }
}

pub(crate) fn is_store_op(op: &Instr) -> bool {
    use Instr::*;
    matches!(
        op,
        I32Store(_)
            | I64Store(_)
            | F32Store(_)
            | F64Store(_)
            | I32Store8(_)
            | I32Store16(_)
            | I64Store8(_)
            | I64Store16(_)
            | I64Store32(_)
    )
}

/// Whether `op` is one of the load instructions `load_op` handles.
pub(crate) fn is_load_op(op: &Instr) -> bool {
    use Instr::*;
    matches!(
        op,
        I32Load(_)
            | I64Load(_)
            | F32Load(_)
            | F64Load(_)
            | I32Load8S(_)
            | I32Load8U(_)
            | I32Load16S(_)
            | I32Load16U(_)
            | I64Load8S(_)
            | I64Load8U(_)
            | I64Load16S(_)
            | I64Load16U(_)
            | I64Load32S(_)
            | I64Load32U(_)
    )
}

pub(crate) const fn load_width(op: &Instr) -> u32 {
    use Instr::*;
    match op {
        I32Load8S(_) | I32Load8U(_) | I64Load8S(_) | I64Load8U(_) => 1,
        I32Load16S(_) | I32Load16U(_) | I64Load16S(_) | I64Load16U(_) => 2,
        I32Load(_) | F32Load(_) | I64Load32S(_) | I64Load32U(_) => 4,
        _ => 8,
    }
}

pub(crate) const fn store_width(op: &Instr) -> u32 {
    use Instr::*;
    match op {
        I32Store8(_) | I64Store8(_) => 1,
        I32Store16(_) | I64Store16(_) => 2,
        I32Store(_) | F32Store(_) | I64Store32(_) => 4,
        _ => 8,
    }
}

/// Executes a load instruction against memory, returning the raw slot.
pub(crate) fn load_op(
    mem: &crate::memory::LinearMemory,
    op: &Instr,
    addr: u32,
    offset: u32,
) -> Result<u64, Trap> {
    load_op_inline(mem, op, addr, offset)
}

/// [`load_op`], always inlined: the compiled tiers' executor calls it with
/// a constant `op` in each width's arm, where it folds to one access.
#[inline(always)]
pub(crate) fn load_op_inline(
    mem: &crate::memory::LinearMemory,
    op: &Instr,
    addr: u32,
    offset: u32,
) -> Result<u64, Trap> {
    use Instr::*;
    Ok(match op {
        I32Load(_) | F32Load(_) => u32::from_le_bytes(mem.read::<4>(addr, offset)?) as u64,
        I64Load(_) | F64Load(_) => u64::from_le_bytes(mem.read::<8>(addr, offset)?),
        I32Load8S(_) => mem.read::<1>(addr, offset)?[0] as i8 as i32 as u32 as u64,
        I32Load8U(_) => mem.read::<1>(addr, offset)?[0] as u64,
        I32Load16S(_) => {
            i16::from_le_bytes(mem.read::<2>(addr, offset)?) as i32 as u32 as u64
        }
        I32Load16U(_) => u16::from_le_bytes(mem.read::<2>(addr, offset)?) as u64,
        I64Load8S(_) => mem.read::<1>(addr, offset)?[0] as i8 as i64 as u64,
        I64Load8U(_) => mem.read::<1>(addr, offset)?[0] as u64,
        I64Load16S(_) => i16::from_le_bytes(mem.read::<2>(addr, offset)?) as i64 as u64,
        I64Load16U(_) => u16::from_le_bytes(mem.read::<2>(addr, offset)?) as u64,
        I64Load32S(_) => i32::from_le_bytes(mem.read::<4>(addr, offset)?) as i64 as u64,
        I64Load32U(_) => u32::from_le_bytes(mem.read::<4>(addr, offset)?) as u64,
        other => unreachable!("not a load: {other:?}"),
    })
}

/// Executes a store instruction against memory.
pub(crate) fn store_op(
    mem: &mut crate::memory::LinearMemory,
    op: &Instr,
    addr: u32,
    offset: u32,
    val: u64,
) -> Result<(), Trap> {
    store_op_inline(mem, op, addr, offset, val)
}

/// [`store_op`], always inlined (see [`load_op_inline`]).
#[inline(always)]
pub(crate) fn store_op_inline(
    mem: &mut crate::memory::LinearMemory,
    op: &Instr,
    addr: u32,
    offset: u32,
    val: u64,
) -> Result<(), Trap> {
    use Instr::*;
    match op {
        I32Store(_) | F32Store(_) => mem.write(addr, offset, (val as u32).to_le_bytes()),
        I64Store(_) | F64Store(_) => mem.write(addr, offset, val.to_le_bytes()),
        I32Store8(_) | I64Store8(_) => mem.write(addr, offset, [val as u8]),
        I32Store16(_) | I64Store16(_) => mem.write(addr, offset, (val as u16).to_le_bytes()),
        I64Store32(_) => mem.write(addr, offset, (val as u32).to_le_bytes()),
        other => unreachable!("not a store: {other:?}"),
    }
}

// `BlockType` is referenced via pattern matches above; silence the otherwise
// unused import lint while keeping the signature explicit.
#[allow(unused)]
fn _uses(_b: BlockType) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::NullProfiler;
    use crate::store::Imports;
    use wasm_core::builder::ModuleBuilder;
    use wasm_core::types::{FuncType, ValType};

    fn run(module: Module, name: &str, args: &[u64]) -> Result<Option<u64>, Trap> {
        wasm_core::validate::validate(&module).unwrap();
        let idx = module.exported_func(name).unwrap();
        let code = TreeCode::load(Rc::new(module)).unwrap();
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        code.invoke(&mut rt, idx, args, &mut NullProfiler)
    }

    use wasm_core::module::Module;

    #[test]
    fn add_function() {
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[ValType::I32, ValType::I32], &[ValType::I32]));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::LocalGet(1));
        b.emit(Instr::I32Add);
        b.finish_func();
        b.export_func("add", f);
        assert_eq!(run(b.build(), "add", &[2, 40]).unwrap(), Some(42));
    }

    #[test]
    fn loop_sums_to_n() {
        // sum = 0; i = 0; loop { i += 1; sum += i; br_if (i < n) } -> sum
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
        assert_eq!(run(b.build(), "sum", &[10]).unwrap(), Some(55));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[], &[ValType::I32]));
        b.emit(Instr::I32Const(1));
        b.emit(Instr::I32Const(0));
        b.emit(Instr::I32DivS);
        b.finish_func();
        b.export_func("boom", f);
        assert_eq!(run(b.build(), "boom", &[]), Err(Trap::DivisionByZero));
    }

    #[test]
    fn memory_store_load() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.begin_func(FuncType::new(&[], &[ValType::I32]));
        b.emit(Instr::I32Const(16));
        b.emit(Instr::I32Const(-99));
        b.emit(Instr::I32Store(Default::default()));
        b.emit(Instr::I32Const(16));
        b.emit(Instr::I32Load(Default::default()));
        b.finish_func();
        b.export_func("mem", f);
        assert_eq!(run(b.build(), "mem", &[]).unwrap(), Some((-99i32) as u32 as u64));
    }

    #[test]
    fn if_else_selects_arm() {
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::If(BlockType::Value(ValType::I32)));
        b.emit(Instr::I32Const(10));
        b.emit(Instr::Else);
        b.emit(Instr::I32Const(20));
        b.emit(Instr::End);
        b.finish_func();
        b.export_func("pick", f);
        let m = b.build();
        assert_eq!(run(m.clone(), "pick", &[1]).unwrap(), Some(10));
        assert_eq!(run(m, "pick", &[0]).unwrap(), Some(20));
    }

    #[test]
    fn recursive_call_and_overflow() {
        // f(n) = n == 0 ? 0 : f(n-1) + 1, plus infinite recursion traps.
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::I32Eqz);
        b.emit(Instr::If(BlockType::Value(ValType::I32)));
        b.emit(Instr::I32Const(0));
        b.emit(Instr::Else);
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::I32Const(1));
        b.emit(Instr::I32Sub);
        b.emit(Instr::Call(0));
        b.emit(Instr::I32Const(1));
        b.emit(Instr::I32Add);
        b.emit(Instr::End);
        b.finish_func();
        b.export_func("depth", f);
        let m = b.build();
        assert_eq!(run(m.clone(), "depth", &[100]).unwrap(), Some(100));
        // Use a small engine limit so the overflow trap fires well before
        // the host stack is at risk in debug builds.
        wasm_core::validate::validate(&m).unwrap();
        let idx = m.exported_func("depth").unwrap();
        let code = TreeCode::load(Rc::new(m)).unwrap();
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        rt.call_depth_limit = 64;
        assert_eq!(
            code.invoke(&mut rt, idx, &[1 << 20], &mut NullProfiler),
            Err(Trap::StackOverflow)
        );
    }

    #[test]
    fn br_table_dispatches() {
        // switch(x): case 0 -> 100, case 1 -> 200, default -> 300
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
        let out = b.new_local(ValType::I32);
        b.emit(Instr::Block(BlockType::Empty)); // depth 2 (outer)
        b.emit(Instr::Block(BlockType::Empty)); // depth 1
        b.emit(Instr::Block(BlockType::Empty)); // depth 0
        b.emit(Instr::LocalGet(0));
        b.emit_br_table(vec![0, 1], 2);
        b.emit(Instr::End);
        b.emit(Instr::I32Const(100));
        b.emit(Instr::LocalSet(out));
        b.emit(Instr::Br(1));
        b.emit(Instr::End);
        b.emit(Instr::I32Const(200));
        b.emit(Instr::LocalSet(out));
        b.emit(Instr::Br(0));
        b.emit(Instr::End);
        b.emit(Instr::LocalGet(out));
        b.emit(Instr::I32Eqz);
        b.emit(Instr::If(BlockType::Empty));
        b.emit(Instr::I32Const(300));
        b.emit(Instr::LocalSet(out));
        b.emit(Instr::End);
        b.emit(Instr::LocalGet(out));
        b.finish_func();
        b.export_func("switch", f);
        let m = b.build();
        assert_eq!(run(m.clone(), "switch", &[0]).unwrap(), Some(100));
        assert_eq!(run(m.clone(), "switch", &[1]).unwrap(), Some(200));
        assert_eq!(run(m, "switch", &[9]).unwrap(), Some(300));
    }

    #[test]
    fn profiler_sees_dispatch_events() {
        use crate::profiler::CountingProfiler;
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[], &[ValType::I32]));
        b.emit(Instr::I32Const(5));
        b.emit(Instr::I32Const(6));
        b.emit(Instr::I32Mul);
        b.finish_func();
        b.export_func("m", f);
        let m = b.build();
        wasm_core::validate::validate(&m).unwrap();
        let idx = m.exported_func("m").unwrap();
        let code = TreeCode::load(Rc::new(m)).unwrap();
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        let mut p = CountingProfiler::default();
        assert_eq!(code.invoke(&mut rt, idx, &[], &mut p).unwrap(), Some(30));
        // 4 instructions (2 consts, mul, end): one indirect dispatch each.
        assert_eq!(p.indirect_branches, 4);
        assert!(p.uops >= 16);
        assert!(p.reads >= 4); // bytecode reads
    }

    #[test]
    fn provably_safe_accesses_skip_the_modeled_check() {
        use crate::profiler::CountingProfiler;
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.begin_func(FuncType::new(&[], &[ValType::I64]));
        b.emit(Instr::I32Const(64));
        b.emit(Instr::I64Const(-3));
        b.emit(Instr::I64Store(Default::default()));
        b.emit(Instr::I32Const(64));
        b.emit(Instr::I64Load(Default::default()));
        b.finish_func();
        b.export_func("m", f);
        let m = b.build();
        wasm_core::validate::validate(&m).unwrap();
        let idx = m.exported_func("m").unwrap();
        let code = TreeCode::load(Rc::new(m)).unwrap();
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        let mut p = CountingProfiler::default();
        assert_eq!(code.invoke(&mut rt, idx, &[], &mut p).unwrap(), Some(-3i64 as u64));
        // Both constant-address accesses are provably within the 64 KiB
        // minimum memory, so both modeled bounds checks are skipped.
        assert_eq!(p.checks_skipped, 2);
    }

    #[test]
    fn unprovable_accesses_keep_the_modeled_check() {
        use crate::profiler::CountingProfiler;
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I64]));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::I64Load(Default::default()));
        b.finish_func();
        b.export_func("m", f);
        let m = b.build();
        wasm_core::validate::validate(&m).unwrap();
        let idx = m.exported_func("m").unwrap();
        let code = TreeCode::load(Rc::new(m)).unwrap();
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        let mut p = CountingProfiler::default();
        // Unbounded parameter address: no proof, no skip.
        assert_eq!(code.invoke(&mut rt, idx, &[16], &mut p).unwrap(), Some(0));
        assert_eq!(p.checks_skipped, 0);
    }
}
