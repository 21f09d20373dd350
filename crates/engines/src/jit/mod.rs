//! The compiled ("JIT") tiers: lowering, optimization, execution, and AOT
//! artifacts.
//!
//! Three tiers mirror the compilers the paper studies:
//!
//! | tier | pipeline | counterpart |
//! |---|---|---|
//! | [`Tier::Singlepass`] | lowering only | Wasmer SinglePass |
//! | [`Tier::Cranelift`] | standard passes ×1 | Wasmtime / Wasmer Cranelift |
//! | [`Tier::Llvm`] | extended passes ×8 + LVN | WAVM / Wasmer LLVM |

pub mod aot;
pub mod exec;
pub mod ir;
pub mod lower;
pub mod opt;
pub mod verify;

use std::rc::Rc;

use crate::profiler::{BranchKind, Profiler, CODE_BASE, META_BASE};
use exec::RegCode;
use opt::{PassConfig, PassStats};
use wasm_core::module::Module;

/// A compiled tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// One-pass lowering, no optimization: fastest compile, slowest code.
    Singlepass,
    /// Standard optimization pipeline: balanced.
    Cranelift,
    /// Aggressive multi-round pipeline: slowest compile, best code.
    Llvm,
}

impl Tier {
    /// The pass configuration this tier runs.
    pub fn pass_config(self) -> PassConfig {
        match self {
            Tier::Singlepass => PassConfig::none(),
            Tier::Cranelift => PassConfig::standard(),
            Tier::Llvm => PassConfig::aggressive(),
        }
    }

    /// Whether the tier retains its IR after compilation (the LLVM tier
    /// keeps the module-level IR alive, inflating memory like WAVM does).
    pub fn retains_ir(self) -> bool {
        matches!(self, Tier::Llvm)
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Tier::Singlepass => "singlepass",
            Tier::Cranelift => "cranelift",
            Tier::Llvm => "llvm",
        };
        f.write_str(s)
    }
}

/// Statistics describing the compilation, used for compile-cost profiling
/// and memory accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileStats {
    /// Ops produced by lowering, before optimization.
    pub lowered_ops: usize,
    /// Ops in the final code.
    pub final_ops: usize,
    /// Aggregated pass statistics.
    pub passes: PassStats,
    /// Bytes of retained IR (LLVM tier only).
    pub retained_ir_bytes: usize,
}

impl CompileStats {
    /// Total abstract compile work: op visits across lowering and passes.
    pub fn total_work(&self) -> u64 {
        self.lowered_ops as u64 + self.passes.op_visits
    }
}

/// Compiles a validated module with the given tier.
///
/// # Errors
///
/// Fails only on malformed control structure, which validation excludes.
pub fn compile_module(
    module: Rc<Module>,
    tier: Tier,
) -> Result<(RegCode, CompileStats), wasm_core::ValidateError> {
    let _span = obs::span!("jit.compile", tier = tier, funcs = module.funcs.len());
    let config = tier.pass_config();
    let mut stats = CompileStats::default();
    let mut funcs = Vec::with_capacity(module.funcs.len());
    let num_imported = module.num_imported_funcs() as u32;
    for (i, f) in module.funcs.iter().enumerate() {
        let mut rf = {
            let _s = obs::span!("jit.lower");
            lower::lower(&module, f).map_err(|e| e.with_func(num_imported + i as u32))?
        };
        stats.lowered_ops += rf.ops.len();
        stats.passes.merge(opt::optimize(&mut rf, &config));
        stats.final_ops += rf.ops.len();
        funcs.push(rf);
    }
    if tier.retains_ir() {
        stats.retained_ir_bytes = stats.lowered_ops * 24;
    }
    Ok((RegCode::new(module, funcs), stats))
}

/// Replays the microarchitectural cost of compilation into a profiler.
///
/// Compilation is real work the paper's Figures 6–10 capture inside the
/// runtime totals: every pass walks the IR (data reads/writes over the
/// metadata region) and runs compiler code (I-side fetches, branches).
pub fn replay_compile_cost<P: Profiler>(stats: &CompileStats, p: &mut P) {
    let compiler_code = CODE_BASE + 0x8_0000;
    // Lowering: read the decoded instruction, write an IR op.
    for i in 0..stats.lowered_ops as u64 {
        p.fetch(compiler_code + (i % 512) * 16, 16);
        p.read(META_BASE + i * 16, 16);
        p.write(META_BASE + 0x100_0000 + i * 24, 24);
        p.uops(14);
        if i % 4 == 0 {
            p.branch(
                compiler_code + (i % 512) * 16,
                BranchKind::Cond,
                i % 8 < 3,
                compiler_code,
            );
        }
    }
    // Passes: each op visit reads and may rewrite an IR op.
    for i in 0..stats.passes.op_visits {
        p.fetch(compiler_code + 0x2000 + (i % 1024) * 16, 16);
        p.read(
            META_BASE + 0x100_0000 + (i % (stats.lowered_ops.max(1) as u64)) * 24,
            24,
        );
        p.uops(9);
        if i % 5 == 0 {
            p.branch(
                compiler_code + 0x2000 + (i % 1024) * 16,
                BranchKind::Cond,
                i % 16 < 7,
                compiler_code,
            );
        }
    }
    // Code emission.
    for i in 0..stats.final_ops as u64 {
        p.fetch(compiler_code + 0x4000 + (i % 256) * 16, 16);
        p.write(CODE_BASE + 0x10_0000 + i * 8, 8);
        p.uops(6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::CountingProfiler;
    use wasm_core::builder::ModuleBuilder;
    use wasm_core::instr::Instr;
    use wasm_core::types::{FuncType, ValType};

    fn sample_module() -> Rc<Module> {
        let mut b = ModuleBuilder::new();
        let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::I32Const(3));
        b.emit(Instr::I32Mul);
        b.emit(Instr::I32Const(4));
        b.emit(Instr::I32Add);
        b.finish_func();
        b.export_func("f", f);
        let m = b.build();
        wasm_core::validate::validate(&m).unwrap();
        Rc::new(m)
    }

    #[test]
    fn tiers_order_compile_work() {
        let m = sample_module();
        let (_, sp) = compile_module(m.clone(), Tier::Singlepass).unwrap();
        let (_, cl) = compile_module(m.clone(), Tier::Cranelift).unwrap();
        let (_, ll) = compile_module(m, Tier::Llvm).unwrap();
        assert!(sp.total_work() < cl.total_work());
        assert!(cl.total_work() < ll.total_work());
        assert_eq!(sp.passes.op_visits, 0);
    }

    #[test]
    fn llvm_tier_retains_ir() {
        let m = sample_module();
        let (_, ll) = compile_module(m.clone(), Tier::Llvm).unwrap();
        let (_, cl) = compile_module(m, Tier::Cranelift).unwrap();
        assert!(ll.retained_ir_bytes > 0);
        assert_eq!(cl.retained_ir_bytes, 0);
    }

    #[test]
    fn optimizing_tiers_shrink_code() {
        let m = sample_module();
        let (_, sp) = compile_module(m.clone(), Tier::Singlepass).unwrap();
        let (_, cl) = compile_module(m, Tier::Cranelift).unwrap();
        assert!(cl.final_ops < sp.final_ops);
    }

    #[test]
    fn compile_cost_replay_is_proportional() {
        let m = sample_module();
        let (_, cl) = compile_module(m.clone(), Tier::Cranelift).unwrap();
        let (_, ll) = compile_module(m, Tier::Llvm).unwrap();
        let mut pc = CountingProfiler::default();
        let mut pl = CountingProfiler::default();
        replay_compile_cost(&cl, &mut pc);
        replay_compile_cost(&ll, &mut pl);
        assert!(pl.uops > pc.uops);
    }
}
