//! The Wasm3-style direct-threaded interpreter.
//!
//! At load time each function body is *translated* into a linear stream of
//! threaded operations ([`TOp`]): branch targets are fully resolved (no
//! runtime label stack), dead code is dropped, and a constant operand is
//! fused into the binary operator that consumes it (`const k; binop`).
//! Local reads stay separate ops: real Wasm3 dispatches through
//! continuation calls with memory-passed operands, which cost more than
//! this host's match dispatch, so fusing them too would make the model
//! faster relative to the compiled tiers than the real system is.
//! Execution is a single dispatch loop over the translated stream. This
//! matches Wasm3's "M3" translation strategy: a one-time
//! translation cost buys a much faster steady-state interpreter than the
//! classic in-place design in [`super::tree`].

use std::rc::Rc;

use crate::error::Trap;
use crate::interp::tree::{
    is_store_op, load_op, load_width, numeric_cost, store_op, store_width,
};
use crate::numeric;
use crate::profiler::{BranchKind, Profiler, BYTECODE_BASE, CODE_BASE, HEAP_BASE, STACK_BASE};
use crate::store::Runtime;
use wasm_core::control::ControlMap;
use wasm_core::instr::Instr;
use wasm_core::module::Module;

/// Bytes one threaded op occupies in the profiled address space.
const TOP_BYTES: u64 = 24;

/// How a taken branch repairs the value stack: keep the top `keep` values,
/// placing them at absolute height `height`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackFix {
    /// Absolute value-stack height after the branch (excluding kept values).
    pub height: u16,
    /// Number of values carried over the branch (0 or 1 in the MVP).
    pub keep: u8,
}

/// A threaded operation with resolved targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TOp {
    /// Push a constant.
    Const(u64),
    /// Push local `n`.
    GetLocal(u16),
    /// Pop into local `n`.
    SetLocal(u16),
    /// Copy top of stack into local `n`.
    TeeLocal(u16),
    /// Push global `n`.
    GetGlobal(u32),
    /// Pop into global `n`.
    SetGlobal(u32),
    /// Pop and discard.
    Drop,
    /// Ternary select.
    Select,
    /// Fused `<const k>; <binop>` (second operand constant).
    KBin {
        /// Constant second operand (raw bits).
        k: u64,
        /// The binary operator.
        op: Instr,
    },
    /// Plain binary operator on the two top stack values.
    Bin(Instr),
    /// Plain unary operator on the top stack value.
    Un(Instr),
    /// Memory load with constant offset.
    Load {
        /// The load instruction (width/sign behavior).
        op: Instr,
        /// Constant offset.
        offset: u32,
        /// Translation-time range analysis proved the access in bounds;
        /// the modeled bounds-check cost is skipped (the host check
        /// remains as defense in depth).
        safe: bool,
    },
    /// Memory store with constant offset.
    Store {
        /// The store instruction (width behavior).
        op: Instr,
        /// Constant offset.
        offset: u32,
        /// Translation-time range analysis proved the access in bounds.
        safe: bool,
    },
    /// Unconditional jump.
    Br {
        /// Target op index.
        target: u32,
        /// Stack repair.
        fix: StackFix,
    },
    /// Jump if popped value is non-zero.
    BrIf {
        /// Target op index.
        target: u32,
        /// Stack repair.
        fix: StackFix,
    },
    /// Jump if popped value is zero (used for `if` lowering).
    BrIfZ {
        /// Target op index.
        target: u32,
        /// Stack repair.
        fix: StackFix,
    },
    /// Resolved `br_table`: index into the per-function table pool.
    BrTable(u32),
    /// Direct call.
    Call {
        /// Callee function index (combined index space).
        f: u32,
        /// Argument count.
        nargs: u8,
        /// Whether a result is pushed.
        ret: bool,
    },
    /// Indirect call through table 0.
    CallIndirect {
        /// Expected type index.
        type_idx: u32,
        /// Argument count.
        nargs: u8,
        /// Whether a result is pushed.
        ret: bool,
    },
    /// Return from the function (result on top of stack if the function
    /// has one).
    Ret,
    /// `memory.size`.
    MemSize,
    /// `memory.grow`.
    MemGrow,
    /// `unreachable`.
    Unreachable,
}

/// A resolved `br_table` arm: target op index plus the stack repair
/// applied when taking it.
type TableArm = (u32, StackFix);
/// A translated jump table: explicit arms plus the default arm.
type JumpTable = (Vec<TableArm>, TableArm);
/// A translated function.
#[derive(Debug, Clone)]
pub struct TFunc {
    ops: Vec<TOp>,
    /// `params + locals` count.
    nlocals: u16,
    result: bool,
    /// Profiled base address of this function's threaded code.
    base: u64,
    /// Resolved `br_table` entries: `(target, fix)` lists plus default.
    tables: Vec<JumpTable>,
}

/// Loaded and translated code for the threaded interpreter.
#[derive(Debug)]
pub struct ThreadedCode {
    /// The decoded module (kept for types/exports).
    pub module: Rc<Module>,
    funcs: Vec<TFunc>,
    num_imported: u32,
}

struct OpenBlock {
    is_loop: bool,
    /// Translated-op index loops branch back to.
    loop_target: u32,
    /// Stack height at entry.
    height: u16,
    /// Branch arity (0 for loops).
    arity: u8,
    /// Result arity at end.
    end_arity: u8,
    /// Forward-branch sites to patch with the block's end position.
    /// Plain entries are `ops` indices; table entries are encoded with
    /// [`TABLE_FIXUP_FLAG`].
    fixups: Vec<usize>,
    /// `BrIfZ` emitted at `if`, patched to the else-arm (or end).
    if_skip: Option<usize>,
    /// Whether the enclosing context was already dead when this block
    /// opened (its `else` arm is then dead too).
    born_dead: bool,
    /// Set when the current position is unreachable.
    unreachable: bool,
}

impl ThreadedCode {
    /// Translates a validated module into threaded code.
    ///
    /// # Errors
    ///
    /// Fails only on malformed control structure, which validation has
    /// already excluded.
    pub fn load(module: Rc<Module>) -> Result<ThreadedCode, wasm_core::ValidateError> {
        let mut funcs = Vec::with_capacity(module.funcs.len());
        let mut base = BYTECODE_BASE;
        let num_imported = module.num_imported_funcs() as u32;
        for (i, f) in module.funcs.iter().enumerate() {
            let ty = &module.types[f.type_idx as usize];
            let safe = crate::jit::verify::safe_wasm_sites(&module, f);
            let tf = translate(
                &module,
                f,
                ty.params.len(),
                !ty.results.is_empty(),
                base,
                &safe,
            )
            .map_err(|e| e.with_func(num_imported + i as u32))?;
            base += tf.ops.len() as u64 * TOP_BYTES;
            funcs.push(tf);
        }
        Ok(ThreadedCode {
            num_imported: module.num_imported_funcs() as u32,
            module,
            funcs,
        })
    }

    /// Approximate engine-owned bytes (threaded code + tables).
    pub fn code_bytes(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| {
                f.ops.len() * TOP_BYTES as usize
                    + f.tables
                        .iter()
                        .map(|(t, _)| (t.len() + 1) * 8)
                        .sum::<usize>()
            })
            .sum()
    }

    /// Total translated ops (for tests and fusion statistics).
    pub fn total_ops(&self) -> usize {
        self.funcs.iter().map(|f| f.ops.len()).sum()
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
        let tf = &self.funcs[(func_idx - self.num_imported) as usize];

        let mut locals = vec![0u64; tf.nlocals as usize];
        locals[..args.len()].copy_from_slice(args);
        let mut stack: Vec<u64> = Vec::with_capacity(16);
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
        macro_rules! apply_fix {
            ($fix:expr) => {{
                let fix = $fix;
                let keep = fix.keep as usize;
                let from = stack.len() - keep;
                for k in 0..keep {
                    stack[fix.height as usize + k] = stack[from + k];
                }
                stack.truncate(fix.height as usize + keep);
            }};
        }

        loop {
            let op = &tf.ops[pc];
            let site = tf.base + pc as u64 * TOP_BYTES;
            // Threaded personality: one bytecode word read plus the
            // computed-goto dispatch (indirect branch), cheaper than the
            // classic interpreter's decode.
            p.fetch(CODE_BASE + 0x4000, 16);
            p.read(site, 8);
            p.branch(
                CODE_BASE + 0x4000,
                BranchKind::Indirect,
                true,
                CODE_BASE + 0x4100 + top_slot(op) * 0x40,
            );
            p.uops(4); // fetch-next + operand move + dispatch

            match *op {
                TOp::Const(v) => push!(v),
                TOp::GetLocal(i) => {
                    p.read(STACK_BASE + i as u64 * 8, 8);
                    push!(locals[i as usize]);
                }
                TOp::SetLocal(i) => {
                    let v = pop!();
                    locals[i as usize] = v;
                    p.write(STACK_BASE + i as u64 * 8, 8);
                }
                TOp::TeeLocal(i) => {
                    locals[i as usize] = *stack.last().expect("validated stack");
                    p.write(STACK_BASE + i as u64 * 8, 8);
                }
                TOp::GetGlobal(i) => {
                    p.read(crate::profiler::GLOBALS_BASE + i as u64 * 8, 8);
                    push!(rt.globals[i as usize]);
                }
                TOp::SetGlobal(i) => {
                    let v = pop!();
                    rt.globals[i as usize] = v;
                    p.write(crate::profiler::GLOBALS_BASE + i as u64 * 8, 8);
                }
                TOp::Drop => {
                    pop!();
                }
                TOp::Select => {
                    let c = pop!();
                    let b = pop!();
                    let a = pop!();
                    push!(if c as u32 != 0 { a } else { b });
                    p.uops(1);
                }
                TOp::KBin { k, op } => {
                    let a = pop!();
                    push!(numeric::apply_binary(op, a, k)?);
                    p.uops(numeric_cost(&op));
                }
                TOp::Bin(op) => {
                    let b = pop!();
                    let a = pop!();
                    push!(numeric::apply_binary(op, a, b)?);
                    p.uops(numeric_cost(&op));
                }
                TOp::Un(op) => {
                    let a = pop!();
                    push!(numeric::apply_unary(op, a)?);
                    p.uops(numeric_cost(&op));
                }
                TOp::Load { op, offset, safe } => {
                    let addr = pop!() as u32;
                    let mem = rt.memory.as_ref().expect("validated memory");
                    let v = load_op(mem, &op, addr, offset)?;
                    p.read(HEAP_BASE + addr as u64 + offset as u64, load_width(&op));
                    // Access plus bounds check, unless translation proved
                    // the check redundant.
                    if safe {
                        p.uops(1);
                        p.check_skipped();
                    } else {
                        p.uops(2);
                    }
                    push!(v);
                }
                TOp::Store { op, offset, safe } => {
                    let v = pop!();
                    let addr = pop!() as u32;
                    let mem = rt.memory.as_mut().expect("validated memory");
                    store_op(mem, &op, addr, offset, v)?;
                    p.write(HEAP_BASE + addr as u64 + offset as u64, store_width(&op));
                    if safe {
                        p.uops(1);
                        p.check_skipped();
                    } else {
                        p.uops(2);
                    }
                }
                TOp::Br { target, fix } => {
                    apply_fix!(fix);
                    pc = target as usize;
                    continue;
                }
                TOp::BrIf { target, fix } => {
                    let c = pop!();
                    let taken = c as u32 != 0;
                    p.branch(site, BranchKind::Cond, taken, tf.base + target as u64 * TOP_BYTES);
                    if taken {
                        apply_fix!(fix);
                        pc = target as usize;
                        continue;
                    }
                }
                TOp::BrIfZ { target, fix } => {
                    let c = pop!();
                    let taken = c as u32 == 0;
                    p.branch(site, BranchKind::Cond, taken, tf.base + target as u64 * TOP_BYTES);
                    if taken {
                        apply_fix!(fix);
                        pc = target as usize;
                        continue;
                    }
                }
                TOp::BrTable(t) => {
                    let idx = pop!() as u32 as usize;
                    let (targets, default) = &tf.tables[t as usize];
                    let (target, fix) = targets.get(idx).copied().unwrap_or(*default);
                    p.read(site + 8, 8);
                    p.branch(site, BranchKind::Indirect, true, tf.base + target as u64 * TOP_BYTES);
                    apply_fix!(fix);
                    pc = target as usize;
                    continue;
                }
                TOp::Call { f, nargs, ret } => {
                    let start = stack.len() - nargs as usize;
                    let call_args: Vec<u64> = stack[start..].to_vec();
                    stack.truncate(start);
                    p.branch(site, BranchKind::Call, true, CODE_BASE + f as u64 * 0x80);
                    p.uops(5);
                    let r = self.call(rt, f, &call_args, depth + 1, p)?;
                    if ret {
                        push!(r.expect("typed result"));
                    }
                }
                TOp::CallIndirect {
                    type_idx,
                    nargs,
                    ret,
                } => {
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
                    let start = stack.len() - nargs as usize;
                    let call_args: Vec<u64> = stack[start..].to_vec();
                    stack.truncate(start);
                    p.branch(site, BranchKind::IndirectCall, true, CODE_BASE + f as u64 * 0x80);
                    p.uops(8);
                    let r = self.call(rt, f, &call_args, depth + 1, p)?;
                    if ret {
                        push!(r.expect("typed result"));
                    }
                }
                TOp::Ret => {
                    rt.peak_value_stack = rt.peak_value_stack.max(stack.len() + locals.len());
                    p.branch(site, BranchKind::Ret, true, CODE_BASE);
                    return Ok(if tf.result { stack.pop() } else { None });
                }
                TOp::MemSize => {
                    let mem = rt.memory.as_ref().expect("validated memory");
                    push!(mem.size_pages() as u64);
                }
                TOp::MemGrow => {
                    let delta = pop!() as u32;
                    let mem = rt.memory.as_mut().expect("validated memory");
                    push!(mem.grow(delta) as u32 as u64);
                    p.uops(20);
                }
                TOp::Unreachable => return Err(Trap::Unreachable),
            }
            pc += 1;
        }
    }
}

/// Dispatch slot id per op kind, for modeling the dispatch branch target.
/// Slots 8, 9 and 11 are unused: renumbering would move the modeled
/// dispatch targets, and with them every simulated count.
fn top_slot(op: &TOp) -> u64 {
    match op {
        TOp::Const(_) => 0,
        TOp::GetLocal(_) => 1,
        TOp::SetLocal(_) => 2,
        TOp::TeeLocal(_) => 3,
        TOp::GetGlobal(_) => 4,
        TOp::SetGlobal(_) => 5,
        TOp::Drop => 6,
        TOp::Select => 7,
        TOp::KBin { .. } => 10,
        TOp::Bin(_) => 12,
        TOp::Un(_) => 13,
        TOp::Load { .. } => 14,
        TOp::Store { .. } => 15,
        TOp::Br { .. } => 16,
        TOp::BrIf { .. } => 17,
        TOp::BrIfZ { .. } => 18,
        TOp::BrTable(_) => 19,
        TOp::Call { .. } => 20,
        TOp::CallIndirect { .. } => 21,
        TOp::Ret => 22,
        TOp::MemSize => 23,
        TOp::MemGrow => 24,
        TOp::Unreachable => 25,
    }
}

/// Marks a fixup entry as targeting a `br_table` pool entry.
const TABLE_FIXUP_FLAG: usize = 1 << 62;

fn encode_table_fixup(table_idx: usize, slot: i32) -> usize {
    TABLE_FIXUP_FLAG | (table_idx << 16) | ((slot + 1) as usize & 0xFFFF)
}

fn translate(
    module: &Module,
    func: &wasm_core::module::Func,
    nparams: usize,
    has_result: bool,
    base: u64,
    safe: &[bool],
) -> Result<TFunc, wasm_core::ValidateError> {
    // Validation has passed, so control structure is sound.
    let _map = ControlMap::build(&func.body)?;
    let nlocals = (nparams + func.locals.len()) as u16;

    let mut ops: Vec<TOp> = Vec::with_capacity(func.body.len());
    let mut tables: Vec<JumpTable> = Vec::new();
    let mut height: u16 = 0;
    let mut blocks: Vec<OpenBlock> = vec![OpenBlock {
        is_loop: false,
        loop_target: 0,
        height: 0,
        arity: has_result as u8,
        end_arity: has_result as u8,
        fixups: Vec::new(),
        if_skip: None,
        born_dead: false,
        unreachable: false,
    }];

    let patch = |ops: &mut [TOp],
                 tables: &mut [JumpTable],
                 site: usize,
                 end_pos: u32| {
        if site & TABLE_FIXUP_FLAG != 0 {
            let table_idx = (site & !TABLE_FIXUP_FLAG) >> 16;
            let slot = (site & 0xFFFF) as i32 - 1;
            let (targets, default) = &mut tables[table_idx];
            if slot < 0 {
                default.0 = end_pos;
            } else {
                targets[slot as usize].0 = end_pos;
            }
        } else {
            match &mut ops[site] {
                TOp::Br { target, .. }
                | TOp::BrIf { target, .. }
                | TOp::BrIfZ { target, .. } => *target = end_pos,
                other => unreachable!("fixup site is not a branch: {other:?}"),
            }
        }
    };

    let body = &func.body;
    let mut i = 0usize;
    while i < body.len() {
        let instr = &body[i];
        let dead = blocks.last().expect("block stack").unreachable;

        // Structural instructions are processed even in dead code to keep
        // the block stack aligned; everything else in dead code is skipped.
        match instr {
            Instr::Block(bt) | Instr::Loop(bt) | Instr::If(bt) => {
                if dead {
                    blocks.push(OpenBlock {
                        is_loop: false,
                        loop_target: 0,
                        height,
                        arity: 0,
                        end_arity: 0,
                        fixups: Vec::new(),
                        if_skip: None,
                        born_dead: true,
                        unreachable: true,
                    });
                    i += 1;
                    continue;
                }
                let is_loop = matches!(instr, Instr::Loop(_));
                let is_if = matches!(instr, Instr::If(_));
                if is_if {
                    height -= 1; // the condition
                }
                let mut blk = OpenBlock {
                    is_loop,
                    loop_target: ops.len() as u32,
                    height,
                    arity: if is_loop { 0 } else { bt.arity() as u8 },
                    end_arity: bt.arity() as u8,
                    fixups: Vec::new(),
                    if_skip: None,
                    born_dead: false,
                    unreachable: false,
                };
                if is_if {
                    // Branch over the then-arm when the condition is zero;
                    // patched at Else (to the else start) or End.
                    blk.if_skip = Some(ops.len());
                    ops.push(TOp::BrIfZ {
                        target: u32::MAX,
                        fix: StackFix { height, keep: 0 },
                    });
                }
                blocks.push(blk);
            }
            Instr::Else => {
                let (entry_height, end_arity, was_dead, born_dead) = {
                    let blk = blocks.last().expect("block stack");
                    (blk.height, blk.end_arity, blk.unreachable, blk.born_dead)
                };
                // Jump over the else-arm at the end of a live then-arm.
                let jump_site = if was_dead {
                    None
                } else {
                    let s = ops.len();
                    ops.push(TOp::Br {
                        target: u32::MAX,
                        fix: StackFix {
                            height: entry_height,
                            keep: end_arity,
                        },
                    });
                    Some(s)
                };
                let else_start = ops.len() as u32;
                let blk = blocks.last_mut().expect("block stack");
                if let Some(skip) = blk.if_skip.take() {
                    patch(&mut ops, &mut tables, skip, else_start);
                }
                if let Some(s) = jump_site {
                    blocks.last_mut().expect("block stack").fixups.push(s);
                }
                let blk = blocks.last_mut().expect("block stack");
                blk.unreachable = born_dead;
                height = entry_height;
            }
            Instr::End => {
                let blk = blocks.pop().expect("block stack");
                let end_pos = ops.len() as u32;
                if let Some(skip) = blk.if_skip {
                    patch(&mut ops, &mut tables, skip, end_pos);
                }
                for site in &blk.fixups {
                    patch(&mut ops, &mut tables, *site, end_pos);
                }
                height = blk.height + blk.end_arity as u16;
                if blocks.is_empty() {
                    ops.push(TOp::Ret);
                    break;
                }
            }
            _ if dead => {}
            Instr::Br(d) => {
                let (target, fix) = branch_info(&blocks, *d);
                ops.push(TOp::Br { target, fix });
                record_fixup(&mut blocks, *d, ops.len() - 1);
                blocks.last_mut().expect("block stack").unreachable = true;
            }
            Instr::BrIf(d) => {
                height -= 1; // condition
                let (target, fix) = branch_info(&blocks, *d);
                ops.push(TOp::BrIf { target, fix });
                record_fixup(&mut blocks, *d, ops.len() - 1);
            }
            Instr::BrTable(pool) => {
                height -= 1; // index
                let table = &module.br_tables[*pool as usize];
                let table_idx = tables.len();
                let mut resolved = Vec::with_capacity(table.targets.len());
                for (slot, &d) in table.targets.iter().enumerate() {
                    let (target, fix) = branch_info(&blocks, d);
                    resolved.push((target, fix));
                    record_fixup_encoded(&mut blocks, d, encode_table_fixup(table_idx, slot as i32));
                }
                let (dt, dfix) = branch_info(&blocks, table.default);
                record_fixup_encoded(
                    &mut blocks,
                    table.default,
                    encode_table_fixup(table_idx, -1),
                );
                tables.push((resolved, (dt, dfix)));
                ops.push(TOp::BrTable(table_idx as u32));
                blocks.last_mut().expect("block stack").unreachable = true;
            }
            Instr::Return => {
                ops.push(TOp::Ret);
                blocks.last_mut().expect("block stack").unreachable = true;
            }
            Instr::Unreachable => {
                ops.push(TOp::Unreachable);
                blocks.last_mut().expect("block stack").unreachable = true;
            }
            Instr::Call(f) => {
                let ty = module.func_type(*f).expect("validated");
                height = height - ty.params.len() as u16 + ty.results.len() as u16;
                ops.push(TOp::Call {
                    f: *f,
                    nargs: ty.params.len() as u8,
                    ret: !ty.results.is_empty(),
                });
            }
            Instr::CallIndirect(type_idx) => {
                let ty = &module.types[*type_idx as usize];
                height = height - 1 - ty.params.len() as u16 + ty.results.len() as u16;
                ops.push(TOp::CallIndirect {
                    type_idx: *type_idx,
                    nargs: ty.params.len() as u8,
                    ret: !ty.results.is_empty(),
                });
            }
            Instr::Nop => {}
            Instr::Drop => {
                height -= 1;
                ops.push(TOp::Drop);
            }
            Instr::Select => {
                height -= 2;
                ops.push(TOp::Select);
            }
            Instr::LocalGet(n) => {
                ops.push(TOp::GetLocal(*n as u16));
                height += 1;
            }
            Instr::LocalSet(n) => {
                height -= 1;
                ops.push(TOp::SetLocal(*n as u16));
            }
            Instr::LocalTee(n) => {
                ops.push(TOp::TeeLocal(*n as u16));
            }
            Instr::GlobalGet(n) => {
                height += 1;
                ops.push(TOp::GetGlobal(*n));
            }
            Instr::GlobalSet(n) => {
                height -= 1;
                ops.push(TOp::SetGlobal(*n));
            }
            Instr::MemorySize => {
                height += 1;
                ops.push(TOp::MemSize);
            }
            Instr::MemoryGrow => {
                ops.push(TOp::MemGrow);
            }
            Instr::I32Const(_) | Instr::I64Const(_) | Instr::F32Const(_) | Instr::F64Const(_) => {
                let k = const_bits(instr).expect("const");
                // Fusion: const k; bin  →  KBin. Numeric ops are never
                // branch targets, so fusing across them is safe.
                if let Some(op2) = body.get(i + 1) {
                    if numeric::is_binary(*op2) {
                        ops.push(TOp::KBin { k, op: *op2 });
                        i += 2;
                        continue;
                    }
                }
                height += 1;
                ops.push(TOp::Const(k));
            }
            other => {
                if let Some((_, m)) = wasm_core::opcode::mem_opcode(other) {
                    let is_safe = safe.get(i).copied().unwrap_or(false);
                    if is_store_op(other) {
                        height -= 2;
                        ops.push(TOp::Store {
                            op: *other,
                            offset: m.offset,
                            safe: is_safe,
                        });
                    } else {
                        ops.push(TOp::Load {
                            op: *other,
                            offset: m.offset,
                            safe: is_safe,
                        });
                    }
                } else if numeric::is_binary(*other) {
                    height -= 1;
                    ops.push(TOp::Bin(*other));
                } else if numeric::is_unary(*other) {
                    ops.push(TOp::Un(*other));
                } else {
                    unreachable!("unhandled instruction in translation: {other:?}");
                }
            }
        }
        i += 1;
    }

    Ok(TFunc {
        ops,
        nlocals,
        result: has_result,
        base,
        tables,
    })
}

fn const_bits(i: &Instr) -> Option<u64> {
    match *i {
        Instr::I32Const(v) => Some(v as u32 as u64),
        Instr::I64Const(v) => Some(v as u64),
        Instr::F32Const(b) => Some(b as u64),
        Instr::F64Const(b) => Some(b),
        _ => None,
    }
}

/// Computes the (possibly unpatched) target and stack fix for a branch of
/// depth `d`.
fn branch_info(blocks: &[OpenBlock], d: u32) -> (u32, StackFix) {
    let blk = &blocks[blocks.len() - 1 - d as usize];
    let fix = StackFix {
        height: blk.height,
        keep: blk.arity,
    };
    if blk.is_loop {
        (blk.loop_target, fix)
    } else {
        (u32::MAX, fix) // forward; patched at End
    }
}

/// Records `site` (an `ops` index) for later patching if the branch targets
/// a forward label.
fn record_fixup(blocks: &mut [OpenBlock], d: u32, site: usize) {
    let idx = blocks.len() - 1 - d as usize;
    if !blocks[idx].is_loop {
        blocks[idx].fixups.push(site);
    }
}

/// Records an already-encoded fixup (used for `br_table` pool entries).
fn record_fixup_encoded(blocks: &mut [OpenBlock], d: u32, encoded: usize) {
    let idx = blocks.len() - 1 - d as usize;
    if !blocks[idx].is_loop {
        blocks[idx].fixups.push(encoded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::NullProfiler;
    use crate::store::Imports;
    use wasm_core::builder::ModuleBuilder;
    use wasm_core::instr::BlockType;
    use wasm_core::types::{FuncType, ValType};

    fn run(module: Module, name: &str, args: &[u64]) -> Result<Option<u64>, Trap> {
        wasm_core::validate::validate(&module).unwrap();
        let idx = module.exported_func(name).unwrap();
        let code = ThreadedCode::load(Rc::new(module)).unwrap();
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        code.invoke(&mut rt, idx, args, &mut NullProfiler)
    }

    #[test]
    fn const_operand_fuses_into_its_binop() {
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::I32Const(40));
        b.emit(Instr::I32Add);
        b.finish_func();
        b.export_func("add", f);
        let m = b.build();
        wasm_core::validate::validate(&m).unwrap();
        let code = ThreadedCode::load(Rc::new(m)).unwrap();
        // get, const+add fused into KBin, Ret.
        assert_eq!(code.total_ops(), 3);
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        let idx = code.module.exported_func("add").unwrap();
        assert_eq!(
            code.invoke(&mut rt, idx, &[2], &mut NullProfiler).unwrap(),
            Some(42)
        );
    }

    #[test]
    fn loop_sums() {
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
    fn if_else_both_arms() {
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
        assert_eq!(run(m.clone(), "pick", &[7]).unwrap(), Some(10));
        assert_eq!(run(m, "pick", &[0]).unwrap(), Some(20));
    }

    #[test]
    fn block_br_carries_value() {
        // block (result i32): i32.const 5; br 0; end
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[], &[ValType::I32]));
        b.emit(Instr::Block(BlockType::Value(ValType::I32)));
        b.emit(Instr::I32Const(5));
        b.emit(Instr::Br(0));
        b.emit(Instr::End);
        b.finish_func();
        b.export_func("v", f);
        assert_eq!(run(b.build(), "v", &[]).unwrap(), Some(5));
    }

    #[test]
    fn dead_code_is_dropped() {
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[], &[ValType::I32]));
        b.emit(Instr::Block(BlockType::Empty));
        b.emit(Instr::Br(0));
        b.emit(Instr::I32Const(1)); // dead
        b.emit(Instr::Drop); // dead
        b.emit(Instr::End);
        b.emit(Instr::I32Const(9));
        b.finish_func();
        b.export_func("d", f);
        let m = b.build();
        wasm_core::validate::validate(&m).unwrap();
        let code = ThreadedCode::load(Rc::new(m)).unwrap();
        // Br, Const, Ret — dead const/drop dropped.
        assert_eq!(code.total_ops(), 3);
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        let idx = code.module.exported_func("d").unwrap();
        assert_eq!(code.invoke(&mut rt, idx, &[], &mut NullProfiler).unwrap(), Some(9));
    }

    #[test]
    fn memory_round_trip() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.begin_func(FuncType::new(&[], &[ValType::I64]));
        b.emit(Instr::I32Const(32));
        b.emit(Instr::I64Const(-7));
        b.emit(Instr::I64Store(Default::default()));
        b.emit(Instr::I32Const(32));
        b.emit(Instr::I64Load(Default::default()));
        b.finish_func();
        b.export_func("m", f);
        assert_eq!(run(b.build(), "m", &[]).unwrap(), Some((-7i64) as u64));
    }

    #[test]
    fn calls_work() {
        let mut b = ModuleBuilder::new();
        let sq = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::I32Mul);
        b.finish_func();
        let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::Call(sq));
        b.emit(Instr::I32Const(1));
        b.emit(Instr::I32Add);
        b.finish_func();
        b.export_func("sq1", f);
        assert_eq!(run(b.build(), "sq1", &[6]).unwrap(), Some(37));
    }

    #[test]
    fn provably_safe_accesses_skip_the_modeled_check() {
        use crate::profiler::CountingProfiler;
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.begin_func(FuncType::new(&[], &[ValType::I64]));
        b.emit(Instr::I32Const(32));
        b.emit(Instr::I64Const(-7));
        b.emit(Instr::I64Store(Default::default()));
        b.emit(Instr::I32Const(32));
        b.emit(Instr::I64Load(Default::default()));
        b.finish_func();
        b.export_func("m", f);
        let m = b.build();
        wasm_core::validate::validate(&m).unwrap();
        let code = ThreadedCode::load(Rc::new(m)).unwrap();
        let mut rt = Runtime::instantiate(&code.module, &Imports::new(), Box::new(())).unwrap();
        let idx = code.module.exported_func("m").unwrap();
        let mut p = CountingProfiler::default();
        assert_eq!(code.invoke(&mut rt, idx, &[], &mut p).unwrap(), Some(-7i64 as u64));
        // Constant-address store + load, both within the 64 KiB minimum.
        assert_eq!(p.checks_skipped, 2);
    }

    #[test]
    fn traps_propagate() {
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[], &[]));
        b.emit(Instr::Unreachable);
        b.finish_func();
        b.export_func("u", f);
        assert_eq!(run(b.build(), "u", &[]), Err(Trap::Unreachable));
    }
}
