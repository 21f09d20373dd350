//! Optimization passes over the register IR.
//!
//! The `cranelift` tier runs one round of the standard pipeline; the
//! `llvm` tier runs the extended pipeline (plus local value numbering)
//! for eight rounds, with no early exit once a round changes nothing,
//! paying more compile time for better code — the same trade the paper
//! measures between Wasmer's Cranelift and LLVM backends.

use crate::jit::ir::{RFunc, ROp, Reg};
use crate::jit::verify;
use crate::numeric;
use wasm_core::instr::Instr;

/// Statistics from running a pass pipeline, used for compile-cost
/// modeling and the ablation benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Number of op visits across all passes (∝ real compile work).
    pub op_visits: u64,
    /// Ops removed by DCE/compaction.
    pub removed: u64,
    /// Constants folded.
    pub folded: u64,
    /// Compare-and-branch fusions performed.
    pub fused: u64,
    /// Value-numbering replacements.
    pub cse_hits: u64,
    /// Runtime safety checks proven redundant (each carries a proof
    /// obligation in [`RFunc::proofs`]).
    pub checks_eliminated: u64,
    /// Wall time spent in the IR verifier between passes. Kept apart from
    /// `op_visits` so verification never inflates modeled compile work
    /// (`CompileStats::total_work`).
    pub verify_ns: u64,
}

impl PassStats {
    /// Accumulates another pass run into this total.
    pub fn merge(&mut self, other: PassStats) {
        self.op_visits += other.op_visits;
        self.removed += other.removed;
        self.folded += other.folded;
        self.fused += other.fused;
        self.cse_hits += other.cse_hits;
        self.checks_eliminated += other.checks_eliminated;
        self.verify_ns += other.verify_ns;
    }
}

/// Which optimization passes to run; the tiers choose different sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Constant folding and propagation.
    pub const_fold: bool,
    /// Copy propagation.
    pub copy_prop: bool,
    /// Strength reduction (mul/div/rem by powers of two, identities).
    pub strength: bool,
    /// ALU chain (superinstruction) fusion.
    pub chain_fuse: bool,
    /// Constant-operand (immediate) fusion.
    pub imm_fuse: bool,
    /// Compare-and-branch fusion.
    pub cmp_fuse: bool,
    /// Dead code elimination.
    pub dce: bool,
    /// Local value numbering (CSE).
    pub lvn: bool,
    /// Interval-analysis check elimination (bounds, div, trunc guards).
    pub bce: bool,
    /// Pipeline iterations; every round runs every enabled pass, even
    /// after a round that changed nothing.
    pub rounds: u32,
}

impl PassConfig {
    /// No optimization (the SinglePass tier).
    pub fn none() -> Self {
        PassConfig {
            const_fold: false,
            copy_prop: false,
            strength: false,
            chain_fuse: false,
            imm_fuse: false,
            cmp_fuse: false,
            dce: false,
            lvn: false,
            bce: false,
            rounds: 0,
        }
    }

    /// The standard pipeline (the Cranelift tier).
    pub fn standard() -> Self {
        PassConfig {
            const_fold: true,
            copy_prop: true,
            strength: true,
            chain_fuse: true,
            imm_fuse: true,
            cmp_fuse: true,
            dce: true,
            lvn: false,
            bce: true,
            rounds: 1,
        }
    }

    /// The aggressive pipeline (the LLVM tier).
    pub fn aggressive() -> Self {
        PassConfig {
            const_fold: true,
            copy_prop: true,
            strength: true,
            chain_fuse: true,
            imm_fuse: true,
            cmp_fuse: true,
            dce: true,
            lvn: true,
            bce: true,
            rounds: 8,
        }
    }
}

/// Runs the configured passes over a function.
///
/// In debug builds (and release builds with the `verify-ir` feature) the
/// `wabench-analysis` IR verifier runs on the lowered input and again
/// after every pass, panicking on any structural or dataflow violation
/// and on any change to the function's observable side-effect trace.
/// Time spent verifying is accounted separately in
/// [`PassStats::verify_ns`].
pub fn optimize(f: &mut RFunc, config: &PassConfig) -> PassStats {
    let mut stats = PassStats::default();
    if verify::enabled() {
        let t0 = std::time::Instant::now();
        verify::check("lower", f);
        stats.verify_ns += t0.elapsed().as_nanos() as u64;
    }
    // Compare-and-branch fusion runs before immediate fusion, so
    // comparisons feeding branches keep their register form; the
    // immediate pass then takes the rest.
    type Pass = fn(&mut RFunc) -> PassStats;
    let pipeline: [(&str, bool, Pass); 10] = [
        ("const_fold", config.const_fold, const_fold),
        ("copy_prop", config.copy_prop, copy_prop),
        ("strength_reduce", config.strength, strength_reduce),
        ("value_number", config.lvn, value_number),
        ("cmp_fuse", config.cmp_fuse, cmp_fuse),
        ("imm_fuse", config.imm_fuse, imm_fuse),
        ("chain_fuse", config.chain_fuse, chain_fuse),
        ("dce", config.dce, dce),
        ("dead_store", config.dce, dead_store),
        ("compact", true, compact),
    ];
    for _ in 0..config.rounds {
        for &(name, enabled, pass) in &pipeline {
            if !enabled {
                continue;
            }
            let _span = obs::span!("jit.pass", name = name);
            if !verify::enabled() {
                stats.merge(pass(f));
                continue;
            }
            let t0 = std::time::Instant::now();
            let before = verify::effect_trace(f);
            let snapshot_ns = t0.elapsed().as_nanos() as u64;
            stats.merge(pass(f));
            let t1 = std::time::Instant::now();
            verify::check_pass(name, f, &before);
            stats.verify_ns += snapshot_ns + t1.elapsed().as_nanos() as u64;
        }
    }
    // Check elimination runs once, after the scalar rounds:
    // it sees the final op layout (proof obligations cite op indices) and
    // benefits from fused guards and folded address arithmetic.
    if config.bce {
        let _span = obs::span!("jit.pass", name = "check_elim");
        if !verify::enabled() {
            stats.merge(check_elim(f));
        } else {
            let t0 = std::time::Instant::now();
            let before = verify::effect_trace(f);
            let snapshot_ns = t0.elapsed().as_nanos() as u64;
            stats.merge(check_elim(f));
            let t1 = std::time::Instant::now();
            verify::check_pass("check_elim", f, &before);
            let violations = verify::check_proofs(f);
            assert!(
                violations.is_empty(),
                "check_elim emitted proofs its own checker rejects: {violations:#?}"
            );
            stats.verify_ns += snapshot_ns + t1.elapsed().as_nanos() as u64;
        }
    }
    stats
}

/// Interval-analysis check elimination.
///
/// Two rounds over the interval analysis ([`analysis::range`], reached
/// through the [`verify::abs_ops`] adapter):
///
/// 1. Proven-non-trapping divisions whose results are dead become `Nop`
///    (ordinary DCE must keep them because they carry a potential trap).
/// 2. Every remaining check the analysis discharges — memory bounds,
///    division, float truncation — gets a proof [`Obligation`] recorded
///    in [`RFunc::proofs`]: the claimed interval plus an optional
///    dominating guard. The verifier re-derives each obligation from
///    scratch and rejects the function if any claim is unsound; the
///    execution tiers skip the modeled check cost for proven sites while
///    keeping the host-side check as defense in depth.
fn check_elim(f: &mut RFunc) -> PassStats {
    use analysis::range::{self, Check, CheckKind, Fact, Obligation, Operand, Width};
    let mut stats = PassStats::default();
    f.proofs.clear();
    if f.ops.is_empty() {
        return stats;
    }

    // Round 1: drop dead proven-safe divisions.
    let ops = verify::abs_ops(f);
    stats.op_visits += ops.len() as u64;
    let an = range::analyze(&ops, f.nregs as usize, f.nparams as usize);
    let mut safe_divs: Vec<usize> = Vec::new();
    an.walk(&ops, |i, st| {
        if let Some(Check::Div { w, signed, divisor: Some(dv), dividend }) = &ops[i].check {
            let iv = range::read_int(st, *dv, *w);
            let dd = dividend.map(|d| range::read_int(st, d, *w));
            if range::div_safe(iv, dd, *w, *signed) {
                safe_divs.push(i);
            }
        }
    });
    let mut removed_any = false;
    for &i in &safe_divs {
        let dead = f.ops[i]
            .def()
            .is_some_and(|rd| rd >= f.nlocals && !reg_used_after(f, i + 1, rd));
        if dead {
            f.ops[i] = ROp::Nop;
            stats.removed += 1;
            removed_any = true;
        }
    }
    // Round 2: re-analyze the final layout and emit one obligation per
    // provable check. The claimed fact is exactly the derived interval,
    // so an honest proof always re-checks. When round 1 removed nothing
    // the layout is round 1's, and so is its analysis; the visit is
    // still counted, so the modeled compile cost does not depend on it.
    let (ops, an) = if removed_any {
        stats.merge(dce(f));
        stats.merge(compact(f));
        let ops = verify::abs_ops(f);
        let an = range::analyze(&ops, f.nregs as usize, f.nparams as usize);
        (ops, an)
    } else {
        (ops, an)
    };
    stats.op_visits += ops.len() as u64;
    let idom = an.cfg.dominators();
    // Nearest strictly-dominating block whose terminating branch carries
    // a recoverable comparison guard.
    let guard_for = |b: usize| -> Option<u32> {
        let entry = an.cfg.rpo[0];
        let mut cur = b;
        loop {
            if cur == entry || idom[cur] == usize::MAX {
                return None;
            }
            cur = idom[cur];
            let last = an.cfg.blocks[cur].end - 1;
            if ops[last].guard.is_some() {
                return Some(last as u32);
            }
        }
    };
    let mut proofs: Vec<Obligation> = Vec::new();
    an.walk(&ops, |i, st| {
        let Some(check) = &ops[i].check else { return };
        let b = an.cfg.block_of[i];
        match check {
            Check::Mem { addr, offset, len } => {
                let iv = range::read_int(st, Operand::Reg(*addr), Width::W32);
                if range::mem_safe(iv, *offset, *len, f.mem_min_bytes) {
                    proofs.push(Obligation {
                        op: i as u32,
                        kind: CheckKind::MemInBounds,
                        fact: Fact::Int(iv),
                        guard: guard_for(b),
                    });
                }
            }
            Check::Div { w, signed, divisor: Some(dv), dividend } => {
                let iv = range::read_int(st, *dv, *w);
                let dd = dividend.map(|d| range::read_int(st, d, *w));
                if range::div_safe(iv, dd, *w, *signed) {
                    proofs.push(Obligation {
                        op: i as u32,
                        kind: CheckKind::DivSafe,
                        fact: Fact::Int(iv),
                        guard: guard_for(b),
                    });
                }
            }
            // A fused pair where both halves trap has no single divisor
            // operand; it stays an unprovable residual.
            Check::Div { divisor: None, .. } => {}
            Check::Trunc { src, signed, dst } => {
                let fv = range::read_float(st, Operand::Reg(*src), Width::W64);
                if range::trunc_safe(fv, *signed, *dst) {
                    proofs.push(Obligation {
                        op: i as u32,
                        kind: CheckKind::TruncSafe,
                        fact: Fact::Float(fv),
                        guard: guard_for(b),
                    });
                }
            }
        }
    });
    stats.checks_eliminated = proofs.len() as u64;
    f.proofs = proofs;
    stats
}

/// Op indices that are branch targets (region boundaries).
fn branch_targets(f: &RFunc) -> Vec<bool> {
    let mut t = vec![false; f.ops.len() + 1];
    for op in &f.ops {
        if let Some(target) = op.target() {
            if target != u32::MAX {
                t[target as usize] = true;
            }
        }
        if let ROp::BrTable { table, .. } = op {
            for &e in &f.tables[*table as usize] {
                if e != u32::MAX {
                    t[e as usize] = true;
                }
            }
        }
    }
    t
}

#[allow(clippy::needless_range_loop)] // index walks `targets`/`remap` and `f.ops` in lockstep
fn const_fold(f: &mut RFunc) -> PassStats {
    let mut stats = PassStats::default();
    let targets = branch_targets(f);
    let mut known: Vec<Option<u64>> = vec![None; f.nregs as usize];
    for i in 0..f.ops.len() {
        stats.op_visits += 1;
        if targets[i] {
            known.iter_mut().for_each(|k| *k = None);
        }
        let op = f.ops[i];
        let mut replace: Option<ROp> = None;
        match op {
            ROp::Const { rd, bits } => {
                known[rd as usize] = Some(bits);
                continue;
            }
            ROp::Move { rd, rs } => {
                known[rd as usize] = known[rs as usize];
                continue;
            }
            ROp::Bin { op: bop, rd, ra, rb } => {
                if let (Some(a), Some(b)) = (known[ra as usize], known[rb as usize]) {
                    // Never fold a trapping evaluation; leave it to runtime.
                    if let Ok(v) = numeric::apply_binary(bop, a, b) {
                        replace = Some(ROp::Const { rd, bits: v });
                        stats.folded += 1;
                    }
                }
            }
            ROp::Un { op: uop, rd, ra } => {
                if let Some(a) = known[ra as usize] {
                    if let Ok(v) = numeric::apply_unary(uop, a) {
                        replace = Some(ROp::Const { rd, bits: v });
                        stats.folded += 1;
                    }
                }
            }
            ROp::Select { rd, cond, a, b } => {
                if let Some(c) = known[cond as usize] {
                    replace = Some(ROp::Move {
                        rd,
                        rs: if c as u32 != 0 { a } else { b },
                    });
                    stats.folded += 1;
                }
            }
            ROp::BrIf { cond, target } => {
                if let Some(c) = known[cond as usize] {
                    replace = Some(if c as u32 != 0 {
                        ROp::Jump { target }
                    } else {
                        ROp::Nop
                    });
                    stats.folded += 1;
                }
            }
            ROp::BrIfZ { cond, target } => {
                if let Some(c) = known[cond as usize] {
                    replace = Some(if c as u32 == 0 {
                        ROp::Jump { target }
                    } else {
                        ROp::Nop
                    });
                    stats.folded += 1;
                }
            }
            _ => {}
        }
        if let Some(new_op) = replace {
            if let ROp::Const { rd, bits } = new_op {
                known[rd as usize] = Some(bits);
            } else if let Some(rd) = new_op.def() {
                known[rd as usize] = None;
            }
            f.ops[i] = new_op;
        } else if let Some(rd) = op.def() {
            known[rd as usize] = None;
        }
        // Control transfers end the straight-line region.
        if f.ops[i].target().is_some() || f.ops[i].is_terminator() {
            known.iter_mut().for_each(|k| *k = None);
        }
    }
    stats
}

#[allow(clippy::needless_range_loop)] // index walks `targets`/`remap` and `f.ops` in lockstep
fn copy_prop(f: &mut RFunc) -> PassStats {
    let mut stats = PassStats::default();
    let targets = branch_targets(f);
    // alias[r] = the register r currently mirrors.
    let mut alias: Vec<Reg> = (0..f.nregs).collect();
    for i in 0..f.ops.len() {
        stats.op_visits += 1;
        if targets[i] {
            for (r, a) in alias.iter_mut().enumerate() {
                *a = r as Reg;
            }
        }
        // Rewrite uses first (calls keep their contiguous arg block).
        let resolve = |alias: &[Reg], r: Reg| alias[r as usize];
        let op = &mut f.ops[i];
        match op {
            ROp::Move { rs, .. } | ROp::Un { ra: rs, .. } | ROp::GlobalSet { rs, .. }
            | ROp::MemGrow { rs, .. } => *rs = resolve(&alias, *rs),
            ROp::Bin { ra, rb, .. } | ROp::BrCmp { ra, rb, .. } | ROp::BrCmpZ { ra, rb, .. } => {
                *ra = resolve(&alias, *ra);
                *rb = resolve(&alias, *rb);
            }
            ROp::Load { addr, .. } => *addr = resolve(&alias, *addr),
            ROp::Store { addr, val, .. } => {
                *addr = resolve(&alias, *addr);
                *val = resolve(&alias, *val);
            }
            ROp::Select { cond, a, b, .. } => {
                *cond = resolve(&alias, *cond);
                *a = resolve(&alias, *a);
                *b = resolve(&alias, *b);
            }
            ROp::BrIf { cond, .. } | ROp::BrIfZ { cond, .. } | ROp::BrTable { idx: cond, .. } => {
                *cond = resolve(&alias, *cond)
            }
            ROp::Ret { rs, has } if *has => {
                *rs = resolve(&alias, *rs);
            }
            _ => {}
        }
        // Update alias state for the def.
        let op = f.ops[i];
        if let Some(rd) = op.def() {
            // Anything aliasing rd is stale: reset it to itself.
            for (r, a) in alias.iter_mut().enumerate() {
                if *a == rd && r as Reg != rd {
                    *a = r as Reg;
                }
            }
            if let ROp::Move { rd, rs } = op {
                if rd != rs {
                    alias[rd as usize] = alias[rs as usize];
                } else {
                    alias[rd as usize] = rd;
                }
            } else {
                alias[rd as usize] = rd;
            }
        }
        if op.target().is_some() || op.is_terminator() {
            for (r, a) in alias.iter_mut().enumerate() {
                *a = r as Reg;
            }
        }
    }
    stats
}

#[allow(clippy::needless_range_loop)] // index walks `targets`/`remap` and `f.ops` in lockstep
fn strength_reduce(f: &mut RFunc) -> PassStats {
    let mut stats = PassStats::default();
    let targets = branch_targets(f);
    let mut known: Vec<Option<u64>> = vec![None; f.nregs as usize];
    for i in 0..f.ops.len() {
        stats.op_visits += 1;
        if targets[i] {
            known.iter_mut().for_each(|k| *k = None);
        }
        let op = f.ops[i];
        if let ROp::Bin { op: bop, rd, ra, rb } = op {
            let kb = known[rb as usize];
            let replacement = match (bop, kb) {
                (Instr::I32Mul | Instr::I64Mul, Some(k)) if k.is_power_of_two() => {
                    let shift = k.trailing_zeros() as u64;
                    let shl = if bop == Instr::I32Mul {
                        Instr::I32Shl
                    } else {
                        Instr::I64Shl
                    };
                    stats.folded += 1;
                    Some((ROp::Const { rd: rb, bits: shift }, ROp::Bin { op: shl, rd, ra, rb }))
                }
                (Instr::I32DivU | Instr::I64DivU, Some(k)) if k.is_power_of_two() && k > 0 => {
                    let shift = k.trailing_zeros() as u64;
                    let shr = if bop == Instr::I32DivU {
                        Instr::I32ShrU
                    } else {
                        Instr::I64ShrU
                    };
                    stats.folded += 1;
                    Some((ROp::Const { rd: rb, bits: shift }, ROp::Bin { op: shr, rd, ra, rb }))
                }
                (Instr::I32RemU | Instr::I64RemU, Some(k)) if k.is_power_of_two() && k > 0 => {
                    let mask = k - 1;
                    let and = if bop == Instr::I32RemU {
                        Instr::I32And
                    } else {
                        Instr::I64And
                    };
                    stats.folded += 1;
                    Some((ROp::Const { rd: rb, bits: mask }, ROp::Bin { op: and, rd, ra, rb }))
                }
                (Instr::I32Add | Instr::I64Add | Instr::I32Or | Instr::I64Or
                | Instr::I32Xor | Instr::I64Xor | Instr::I32Sub | Instr::I64Sub, Some(0)) => {
                    stats.folded += 1;
                    f.ops[i] = ROp::Move { rd, rs: ra };
                    known[rd as usize] = known[ra as usize];
                    continue;
                }
                _ => None,
            };
            if let Some((new_const, new_bin)) = replacement {
                // Overwrite the (now unused) const def of rb, then the bin.
                // The const def of rb must dominate; we conservatively only
                // rewrite when the previous op defines rb as that constant.
                if i > 0 && f.ops[i - 1].def() == Some(rb) {
                    f.ops[i - 1] = new_const;
                    f.ops[i] = new_bin;
                    if let ROp::Const { rd: krd, bits } = new_const {
                        known[krd as usize] = Some(bits);
                    }
                    known[rd as usize] = None;
                    continue;
                }
            }
        }
        match op {
            ROp::Const { rd, bits } => known[rd as usize] = Some(bits),
            ROp::Move { rd, rs } => known[rd as usize] = known[rs as usize],
            _ => {
                if let Some(rd) = op.def() {
                    known[rd as usize] = None;
                }
            }
        }
        if op.target().is_some() || op.is_terminator() {
            known.iter_mut().for_each(|k| *k = None);
        }
    }
    stats
}

/// Fuses adjacent dependent ALU operations into one superinstruction:
/// `t <- op1(ra, rb); rd <- op2(t, rc)` becomes a single `Bin2` when `t`
/// dies at the second operation.
fn chain_fuse(f: &mut RFunc) -> PassStats {
    let mut stats = PassStats::default();
    let targets = branch_targets(f);
    for i in 0..f.ops.len().saturating_sub(1) {
        stats.op_visits += 1;
        if targets[i + 1] {
            continue;
        }
        let (first, second) = (f.ops[i], f.ops[i + 1]);
        let ROp::Bin { op: op1, rd: t, ra, rb } = first else {
            continue;
        };
        let ROp::Bin { op: op2, rd, ra: sa, rb: sb } = second else {
            continue;
        };
        if t < f.nlocals || reg_used_after(f, i + 2, t) {
            continue;
        }
        // Exactly one operand of the second op consumes the chain value.
        let (rc, swapped) = if sa == t && sb != t {
            (sb, false)
        } else if sb == t && sa != t {
            (sa, true)
        } else {
            continue;
        };
        f.ops[i] = ROp::Nop;
        f.ops[i + 1] = ROp::Bin2 { op1, op2, rd, ra, rb, rc, swapped };
        stats.fused += 1;
    }
    stats
}

/// Fuses `Const rb; Bin op rd, ra, rb` into an immediate form when the
/// constant register dies at the operation.
fn imm_fuse(f: &mut RFunc) -> PassStats {
    let mut stats = PassStats::default();
    let targets = branch_targets(f);
    for i in 0..f.ops.len().saturating_sub(1) {
        stats.op_visits += 1;
        if targets[i + 1] {
            continue;
        }
        let (k, bin) = (f.ops[i], f.ops[i + 1]);
        if let (ROp::Const { rd: kreg, bits }, ROp::Bin { op, rd, ra, rb }) = (k, bin) {
            if rb == kreg && ra != kreg && kreg >= f.nlocals && !reg_used_after(f, i + 2, kreg) {
                f.ops[i] = ROp::Nop;
                f.ops[i + 1] = ROp::BinImm { op, rd, ra, imm: bits };
                stats.fused += 1;
            }
        }
    }
    stats
}

fn cmp_fuse(f: &mut RFunc) -> PassStats {
    let mut stats = PassStats::default();
    let targets = branch_targets(f);
    let is_cmp = |op: Instr| {
        use Instr::*;
        matches!(
            op,
            I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS
                | I32GeU | I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS | I64LeU
                | I64GeS | I64GeU | F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge | F64Eq
                | F64Ne | F64Lt | F64Gt | F64Le | F64Ge
        )
    };
    for i in 0..f.ops.len().saturating_sub(1) {
        stats.op_visits += 1;
        if targets[i + 1] {
            continue; // the branch is a join point; cannot fuse across it
        }
        let (cmp, branch) = (f.ops[i], f.ops[i + 1]);
        if let ROp::Bin { op, rd, ra, rb } = cmp {
            if !is_cmp(op) || rd < f.nlocals {
                continue;
            }
            // rd must not be used after the branch (stack slots are dead
            // once consumed; verify with a bounded forward scan).
            let consumed_only_by_branch = match branch {
                ROp::BrIf { cond, .. } | ROp::BrIfZ { cond, .. } if cond == rd => {
                    !reg_used_after(f, i + 2, rd)
                }
                _ => false,
            };
            if !consumed_only_by_branch {
                continue;
            }
            match branch {
                ROp::BrIf { target, .. } => {
                    f.ops[i] = ROp::Nop;
                    f.ops[i + 1] = ROp::BrCmp { op, ra, rb, target };
                    stats.fused += 1;
                }
                ROp::BrIfZ { target, .. } => {
                    f.ops[i] = ROp::Nop;
                    f.ops[i + 1] = ROp::BrCmpZ { op, ra, rb, target };
                    stats.fused += 1;
                }
                _ => {}
            }
        }
    }
    stats
}

/// Scans forward from `start` until `reg` is redefined (or function end),
/// reporting whether it is read anywhere in between.
fn reg_used_after(f: &RFunc, start: usize, reg: Reg) -> bool {
    for op in &f.ops[start..] {
        for u in op.uses().into_iter().flatten() {
            if u == reg {
                return true;
            }
        }
        if let ROp::Call { args, nargs, .. } | ROp::CallIndirect { args, nargs, .. } = op {
            if reg >= *args && reg < args + *nargs as Reg {
                return true;
            }
        }
        if op.def() == Some(reg) {
            return false;
        }
    }
    false
}

fn dce(f: &mut RFunc) -> PassStats {
    let mut stats = PassStats::default();
    // Fixpoint: removing one dead op can make its inputs dead.
    loop {
        let mut used = vec![false; f.nregs as usize];
        for op in &f.ops {
            stats.op_visits += 1;
            for u in op.uses().into_iter().flatten() {
                used[u as usize] = true;
            }
            if let ROp::Call { args, nargs, .. } | ROp::CallIndirect { args, nargs, elem: _, .. } =
                op
            {
                for r in *args..args + *nargs as Reg {
                    used[r as usize] = true;
                }
            }
            if let ROp::CallIndirect { elem, .. } = op {
                used[*elem as usize] = true;
            }
        }
        let mut changed = false;
        for op in f.ops.iter_mut() {
            if op.has_side_effect() || matches!(op, ROp::Nop) {
                continue;
            }
            if let Some(rd) = op.def() {
                if !used[rd as usize] {
                    *op = ROp::Nop;
                    stats.removed += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    stats
}

/// Backward dead-store elimination: a pure def overwritten before any read
/// is removed. Branches and terminators conservatively make every register
/// live (their successors are not tracked), and join points are sound for
/// free in a backward linear walk.
fn dead_store(f: &mut RFunc) -> PassStats {
    let mut stats = PassStats::default();
    let mut live = vec![true; f.nregs as usize];
    for i in (0..f.ops.len()).rev() {
        stats.op_visits += 1;
        let op = f.ops[i];
        if op.target().is_some() || op.is_terminator() {
            live.iter_mut().for_each(|l| *l = true);
        }
        if let Some(rd) = op.def() {
            if !live[rd as usize] && !op.has_side_effect() {
                f.ops[i] = ROp::Nop;
                stats.removed += 1;
                continue;
            }
            live[rd as usize] = false;
        }
        for u in op.uses().into_iter().flatten() {
            live[u as usize] = true;
        }
        if let ROp::Call { args, nargs, .. } | ROp::CallIndirect { args, nargs, .. } = op {
            for r in args..args + nargs as Reg {
                live[r as usize] = true;
            }
        }
        if let ROp::CallIndirect { elem, .. } = op {
            live[elem as usize] = true;
        }
    }
    stats
}

/// Local value numbering within straight-line regions: pure recomputations
/// become moves.
#[allow(clippy::needless_range_loop)] // index walks `targets`/`remap` and `f.ops` in lockstep
fn value_number(f: &mut RFunc) -> PassStats {
    use std::collections::HashMap;
    let mut stats = PassStats::default();
    let targets = branch_targets(f);
    // Value number per register, bumped on redefinition.
    let mut version: Vec<u32> = vec![0; f.nregs as usize];
    let mut table: HashMap<(u64, u64, u64), (Reg, u32)> = HashMap::new();
    let key_op = |op: &ROp| -> Option<(u64, Reg, Reg)> {
        match *op {
            ROp::Bin { op, rd: _, ra, rb } if !ROp::Bin { op, rd: 0, ra, rb }.has_side_effect() => {
                Some((instr_key(op), ra, rb))
            }
            ROp::Un { op, rd: _, ra } if !ROp::Un { op, rd: 0, ra }.has_side_effect() => {
                Some((instr_key(op) | (1 << 32), ra, 0))
            }
            _ => None,
        }
    };
    for i in 0..f.ops.len() {
        stats.op_visits += 1;
        if targets[i] {
            table.clear();
            for v in version.iter_mut() {
                *v += 1;
            }
        }
        let op = f.ops[i];
        if let Some((k, ra, rb)) = key_op(&op) {
            let rd = op.def().expect("keyed ops define");
            let key = (
                k,
                (version[ra as usize] as u64) << 32 | ra as u64,
                (version[rb as usize] as u64) << 32 | rb as u64,
            );
            if let Some(&(prev, prev_ver)) = table.get(&key) {
                if version[prev as usize] == prev_ver && prev != rd {
                    f.ops[i] = ROp::Move { rd, rs: prev };
                    version[rd as usize] += 1;
                    stats.cse_hits += 1;
                    continue;
                }
            }
            version[rd as usize] += 1;
            table.insert(key, (rd, version[rd as usize]));
        } else if let Some(rd) = op.def() {
            version[rd as usize] += 1;
        }
        if op.target().is_some() || op.is_terminator() {
            table.clear();
            for v in version.iter_mut() {
                *v += 1;
            }
        }
    }
    stats
}

fn instr_key(i: Instr) -> u64 {
    // A stable discriminant for hashing: the opcode byte where one exists.
    wasm_core::opcode::simple_to_byte(&i).map(|b| b as u64).unwrap_or(0xFFFF)
}

/// Removes `Nop`s and remaps every branch target and jump table.
#[allow(clippy::needless_range_loop)] // index walks `targets`/`remap` and `f.ops` in lockstep
fn compact(f: &mut RFunc) -> PassStats {
    let mut stats = PassStats::default();
    let n = f.ops.len();
    let mut remap = vec![0u32; n + 1];
    let mut new_idx = 0u32;
    for i in 0..n {
        stats.op_visits += 1;
        remap[i] = new_idx;
        if !matches!(f.ops[i], ROp::Nop) {
            new_idx += 1;
        } else {
            stats.removed += 1;
        }
    }
    remap[n] = new_idx;
    if stats.removed == 0 {
        return stats;
    }
    let mut new_ops = Vec::with_capacity(new_idx as usize);
    for op in f.ops.iter() {
        if matches!(op, ROp::Nop) {
            continue;
        }
        let mut op = *op;
        if let Some(t) = op.target() {
            if t != u32::MAX {
                op.set_target(remap[t as usize]);
            }
        }
        new_ops.push(op);
    }
    for table in f.tables.iter_mut() {
        for e in table.iter_mut() {
            if *e != u32::MAX {
                *e = remap[*e as usize];
            }
        }
    }
    f.ops = new_ops;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jit::lower::lower;
    use wasm_core::builder::ModuleBuilder;
    use wasm_core::types::{FuncType, ValType};

    fn lowered(build: impl FnOnce(&mut ModuleBuilder)) -> RFunc {
        let mut b = ModuleBuilder::new();
        build(&mut b);
        let m = b.build();
        wasm_core::validate::validate(&m).unwrap();
        lower(&m, &m.funcs[0]).unwrap()
    }

    #[test]
    fn const_folding_collapses_arithmetic() {
        let mut f = lowered(|b| {
            b.begin_func(FuncType::new(&[], &[ValType::I32]));
            b.emit(Instr::I32Const(6));
            b.emit(Instr::I32Const(7));
            b.emit(Instr::I32Mul);
            b.finish_func();
        });
        let before = f.ops.len();
        let stats = optimize(&mut f, &PassConfig::standard());
        assert!(stats.folded >= 1);
        assert!(f.ops.len() < before);
        // The function should now be: const 42, ret (after DCE+compact).
        assert!(f.ops.iter().any(|op| matches!(op, ROp::Const { bits: 42, .. })));
    }

    #[test]
    fn copy_prop_and_dce_remove_stack_shuffles() {
        // local.get 0; local.get 1; add → singlepass emits 2 moves + add.
        let mut f = lowered(|b| {
            b.begin_func(FuncType::new(&[ValType::I32, ValType::I32], &[ValType::I32]));
            b.emit(Instr::LocalGet(0));
            b.emit(Instr::LocalGet(1));
            b.emit(Instr::I32Add);
            b.finish_func();
        });
        optimize(&mut f, &PassConfig::standard());
        // The moves should be gone: add directly on r0, r1.
        assert!(
            f.ops
                .iter()
                .any(|op| matches!(op, ROp::Bin { op: Instr::I32Add, ra: 0, rb: 1, .. })),
            "{:?}",
            f.ops
        );
        assert!(!f.ops.iter().any(|op| matches!(op, ROp::Move { .. })));
    }

    #[test]
    fn never_folds_a_trap() {
        let mut f = lowered(|b| {
            b.begin_func(FuncType::new(&[], &[ValType::I32]));
            b.emit(Instr::I32Const(1));
            b.emit(Instr::I32Const(0));
            b.emit(Instr::I32DivS);
            b.finish_func();
        });
        optimize(&mut f, &PassConfig::aggressive());
        assert!(
            f.ops.iter().any(|op| matches!(
                op,
                ROp::Bin { op: Instr::I32DivS, .. } | ROp::BinImm { op: Instr::I32DivS, .. }
            )),
            "division by zero must stay: {:?}",
            f.ops
        );
    }

    #[test]
    fn strength_reduction_rewrites_mul_pow2() {
        let mut f = lowered(|b| {
            b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
            b.emit(Instr::LocalGet(0));
            b.emit(Instr::I32Const(8));
            b.emit(Instr::I32Mul);
            b.finish_func();
        });
        optimize(&mut f, &PassConfig::standard());
        assert!(
            f.ops.iter().any(|op| matches!(
                op,
                ROp::Bin { op: Instr::I32Shl, .. } | ROp::BinImm { op: Instr::I32Shl, .. }
            )),
            "{:?}",
            f.ops
        );
    }

    #[test]
    fn cmp_fuse_produces_brcmp() {
        let mut f = lowered(|b| {
            b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
            b.emit(Instr::Block(wasm_core::instr::BlockType::Empty));
            b.emit(Instr::LocalGet(0));
            b.emit(Instr::I32Const(10));
            b.emit(Instr::I32LtS);
            b.emit(Instr::BrIf(0));
            b.emit(Instr::End);
            b.emit(Instr::I32Const(1));
            b.finish_func();
        });
        let stats = optimize(&mut f, &PassConfig::standard());
        assert!(stats.fused >= 1, "{:?}", f.ops);
        assert!(f.ops.iter().any(|op| matches!(op, ROp::BrCmp { .. })));
    }

    #[test]
    fn value_numbering_reuses_computation() {
        // (a+b) + (a+b): llvm tier should compute a+b once.
        let mut f = lowered(|b| {
            b.begin_func(FuncType::new(&[ValType::I32, ValType::I32], &[ValType::I32]));
            b.emit(Instr::LocalGet(0));
            b.emit(Instr::LocalGet(1));
            b.emit(Instr::I32Add);
            b.emit(Instr::LocalGet(0));
            b.emit(Instr::LocalGet(1));
            b.emit(Instr::I32Add);
            b.emit(Instr::I32Add);
            b.finish_func();
        });
        let stats = optimize(&mut f, &PassConfig::aggressive());
        assert!(stats.cse_hits >= 1, "{:?}", f.ops);
        let adds = f
            .ops
            .iter()
            .filter(|op| matches!(op, ROp::Bin { op: Instr::I32Add, .. }))
            .count();
        assert_eq!(adds, 2, "{:?}", f.ops); // a+b once, then the outer add
    }

    #[test]
    fn aggressive_does_at_least_as_well_as_standard() {
        let build = |b: &mut ModuleBuilder| {
            b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
            b.emit(Instr::LocalGet(0));
            b.emit(Instr::I32Const(3));
            b.emit(Instr::I32Add);
            b.emit(Instr::LocalGet(0));
            b.emit(Instr::I32Const(3));
            b.emit(Instr::I32Add);
            b.emit(Instr::I32Mul);
            b.finish_func();
        };
        let mut std_f = lowered(build);
        let mut agg_f = lowered(build);
        optimize(&mut std_f, &PassConfig::standard());
        optimize(&mut agg_f, &PassConfig::aggressive());
        assert!(agg_f.ops.len() <= std_f.ops.len());
    }
    #[test]
    fn check_elim_proves_constant_address_access() {
        let mut f = lowered(|b| {
            b.memory(1, None);
            b.begin_func(FuncType::new(&[], &[ValType::I64]));
            b.emit(Instr::I32Const(64));
            b.emit(Instr::I64Load(wasm_core::instr::MemArg { align: 3, offset: 0 }));
            b.finish_func();
        });
        let stats = optimize(&mut f, &PassConfig::standard());
        assert!(stats.checks_eliminated >= 1, "{:?}", f.ops);
        assert!(!f.proofs.is_empty());
        assert!(verify::check_proofs(&f).is_empty());
    }

    #[test]
    fn check_elim_uses_dominating_guard() {
        // if (i < 128) { return load(i); } return 0;
        let mut f = lowered(|b| {
            b.memory(1, None);
            b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
            b.emit(Instr::Block(wasm_core::instr::BlockType::Empty));
            b.emit(Instr::LocalGet(0));
            b.emit(Instr::I32Const(128));
            b.emit(Instr::I32GeU);
            b.emit(Instr::BrIf(0));
            b.emit(Instr::LocalGet(0));
            b.emit(Instr::I32Load(wasm_core::instr::MemArg { align: 2, offset: 0 }));
            b.emit(Instr::Return);
            b.emit(Instr::End);
            b.emit(Instr::I32Const(0));
            b.finish_func();
        });
        let stats = optimize(&mut f, &PassConfig::standard());
        assert!(stats.checks_eliminated >= 1, "{:?}", f.ops);
        let mem = f
            .proofs
            .iter()
            .find(|p| p.kind == analysis::range::CheckKind::MemInBounds)
            .expect("bounds proof");
        assert!(mem.guard.is_some(), "proof should cite the range guard: {:?}", f.proofs);
        assert!(verify::check_proofs(&f).is_empty());
    }

    #[test]
    fn check_elim_drops_dead_safe_division() {
        let mut f = lowered(|b| {
            b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
            b.emit(Instr::LocalGet(0));
            b.emit(Instr::I32Const(7));
            b.emit(Instr::I32DivU);
            b.emit(Instr::Drop);
            b.emit(Instr::I32Const(1));
            b.finish_func();
        });
        optimize(&mut f, &PassConfig::aggressive());
        assert!(
            !f.ops.iter().any(|op| matches!(
                op,
                ROp::Bin { op: Instr::I32DivU, .. } | ROp::BinImm { op: Instr::I32DivU, .. }
            )),
            "a dead division by a provably nonzero constant should vanish: {:?}",
            f.ops
        );
    }

    #[test]
    fn corrupted_proof_is_rejected() {
        let mut f = lowered(|b| {
            b.memory(1, None);
            b.begin_func(FuncType::new(&[], &[ValType::I64]));
            b.emit(Instr::I32Const(64));
            b.emit(Instr::I64Load(wasm_core::instr::MemArg { align: 3, offset: 0 }));
            b.finish_func();
        });
        optimize(&mut f, &PassConfig::standard());
        assert!(!f.proofs.is_empty());
        // Tamper 1: claim an unsafe (out-of-bounds) interval.
        let mut g = f.clone();
        g.proofs[0].fact = analysis::range::Fact::Int(analysis::range::Interval::new(0, 1 << 30));
        assert!(!verify::check_proofs(&g).is_empty());
        // Tamper 2: claim a narrower interval than derivable.
        let mut g = f.clone();
        g.proofs[0].fact = analysis::range::Fact::Int(analysis::range::Interval::exact(0));
        assert!(!verify::check_proofs(&g).is_empty());
        // Tamper 3: cite a non-guard op as the dominating guard.
        let mut g = f.clone();
        g.proofs[0].guard = Some(0);
        assert!(!verify::check_proofs(&g).is_empty());
        // Tamper 4: point at an op with no check at all.
        let mut g = f.clone();
        g.proofs[0].op = (g.ops.len() - 1) as u32;
        assert!(!verify::check_proofs(&g).is_empty());
    }

    #[test]
    fn immediate_fusion_removes_const_defs() {
        let mut f = lowered(|b| {
            b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
            b.emit(Instr::LocalGet(0));
            b.emit(Instr::I32Const(3));
            b.emit(Instr::I32Add);
            b.emit(Instr::I32Const(10));
            b.emit(Instr::I32Mul);
            b.finish_func();
        });
        let stats = optimize(&mut f, &PassConfig::standard());
        assert!(stats.fused >= 1, "{:?}", f.ops);
        assert!(
            f.ops.iter().any(|op| matches!(op, ROp::BinImm { imm: 3, .. })),
            "{:?}",
            f.ops
        );
        // The const defs are gone.
        assert!(!f.ops.iter().any(|op| matches!(op, ROp::Const { .. })), "{:?}", f.ops);
    }
}
