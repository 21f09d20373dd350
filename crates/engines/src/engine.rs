//! The unified engine facade: five named engines, one API.
//!
//! ```
//! use engines::{Engine, EngineKind, Imports};
//! use wasm_core::builder::ModuleBuilder;
//! use wasm_core::types::{FuncType, ValType, Value};
//! use wasm_core::instr::Instr;
//!
//! let mut b = ModuleBuilder::new();
//! let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
//! b.emit(Instr::LocalGet(0));
//! b.emit(Instr::I32Const(1));
//! b.emit(Instr::I32Add);
//! b.finish_func();
//! b.export_func("incr", f);
//! let bytes = wasm_core::encode::encode(&b.build());
//!
//! for kind in EngineKind::all() {
//!     let engine = Engine::new(kind);
//!     let compiled = engine.compile(&bytes)?;
//!     let mut instance = compiled.instantiate(&Imports::new(), Box::new(()))?;
//!     let out = instance.invoke("incr", &[Value::I32(41)])?;
//!     assert_eq!(out, Some(Value::I32(42)));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::any::Any;
use std::rc::Rc;

use crate::account::MemoryReport;
use crate::error::{EngineError, Trap};
use crate::interp::threaded::ThreadedCode;
use crate::interp::tree::TreeCode;
use crate::jit::aot::VerifiedArtifacts;
use crate::jit::exec::RegCode;
use crate::jit::{compile_module, replay_compile_cost, CompileStats, Tier};
use crate::memory::LinearMemory;
use crate::profiler::{NullProfiler, Profiler};
use crate::store::{Imports, Runtime};
use wasm_core::module::Module;
use wasm_core::types::Value;

/// A Wasmer-style pluggable compiler backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// One-pass compilation, no optimization.
    Singlepass,
    /// The default balanced backend.
    Cranelift,
    /// The aggressive backend.
    Llvm,
}

impl Backend {
    /// All three backends.
    pub fn all() -> [Backend; 3] {
        [Backend::Singlepass, Backend::Cranelift, Backend::Llvm]
    }

    fn tier(self) -> Tier {
        match self {
            Backend::Singlepass => Tier::Singlepass,
            Backend::Cranelift => Tier::Cranelift,
            Backend::Llvm => Tier::Llvm,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Backend::Singlepass => "singlepass",
            Backend::Cranelift => "cranelift",
            Backend::Llvm => "llvm",
        };
        f.write_str(s)
    }
}

/// One of the five studied standalone WebAssembly runtimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Cranelift-based compiling runtime (Bytecode Alliance's flagship).
    Wasmtime,
    /// LLVM-based compiling runtime.
    Wavm,
    /// Pluggable-backend compiling runtime.
    Wasmer(Backend),
    /// Pre-translating direct-threaded interpreter.
    Wasm3,
    /// Classic in-place interpreter (WebAssembly Micro Runtime).
    Wamr,
}

impl EngineKind {
    /// The five engines in their default configurations (Wasmer uses its
    /// default Cranelift backend), in the paper's presentation order.
    pub fn all() -> [EngineKind; 5] {
        [
            EngineKind::Wasmtime,
            EngineKind::Wavm,
            EngineKind::Wasmer(Backend::Cranelift),
            EngineKind::Wasm3,
            EngineKind::Wamr,
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Wasmtime => "Wasmtime",
            EngineKind::Wavm => "WAVM",
            EngineKind::Wasmer(Backend::Cranelift) => "Wasmer",
            EngineKind::Wasmer(Backend::Singlepass) => "Wasmer-SinglePass",
            EngineKind::Wasmer(Backend::Llvm) => "Wasmer-LLVM",
            EngineKind::Wasm3 => "Wasm3",
            EngineKind::Wamr => "WAMR",
        }
    }

    /// Whether this engine interprets rather than compiles.
    pub fn is_interpreter(self) -> bool {
        matches!(self, EngineKind::Wasm3 | EngineKind::Wamr)
    }

    /// The compiled tier used, when the engine compiles.
    pub fn tier(self) -> Option<Tier> {
        match self {
            EngineKind::Wasmtime => Some(Tier::Cranelift),
            EngineKind::Wavm => Some(Tier::Llvm),
            EngineKind::Wasmer(b) => Some(b.tier()),
            EngineKind::Wasm3 | EngineKind::Wamr => None,
        }
    }

    /// A stable one-byte code for wire formats and artifact-store keys.
    ///
    /// Codes are append-only: existing assignments never change, so
    /// on-disk artifacts and socket peers from older builds keep
    /// decoding.
    pub fn code(self) -> u8 {
        match self {
            EngineKind::Wasmtime => 0,
            EngineKind::Wavm => 1,
            EngineKind::Wasmer(Backend::Singlepass) => 2,
            EngineKind::Wasmer(Backend::Cranelift) => 3,
            EngineKind::Wasmer(Backend::Llvm) => 4,
            EngineKind::Wasm3 => 5,
            EngineKind::Wamr => 6,
        }
    }

    /// Decodes a [`code`](Self::code) byte.
    pub fn from_code(code: u8) -> Option<EngineKind> {
        Some(match code {
            0 => EngineKind::Wasmtime,
            1 => EngineKind::Wavm,
            2 => EngineKind::Wasmer(Backend::Singlepass),
            3 => EngineKind::Wasmer(Backend::Cranelift),
            4 => EngineKind::Wasmer(Backend::Llvm),
            5 => EngineKind::Wasm3,
            6 => EngineKind::Wamr,
            _ => return None,
        })
    }

    /// Parses a CLI spelling (`wasmtime`, `wavm`, `wasmer`,
    /// `wasmer-singlepass`, `wasmer-llvm`, `wasm3`, `wamr`).
    pub fn parse(s: &str) -> Option<EngineKind> {
        Some(match s.to_ascii_lowercase().as_str() {
            "wasmtime" => EngineKind::Wasmtime,
            "wavm" => EngineKind::Wavm,
            "wasmer" | "wasmer-cranelift" => EngineKind::Wasmer(Backend::Cranelift),
            "wasmer-singlepass" => EngineKind::Wasmer(Backend::Singlepass),
            "wasmer-llvm" => EngineKind::Wasmer(Backend::Llvm),
            "wasm3" => EngineKind::Wasm3,
            "wamr" => EngineKind::Wamr,
            _ => return None,
        })
    }

    /// Fixed process footprint of the modeled runtime, in bytes.
    ///
    /// Interpreters are tiny embeddable libraries; the compiling runtimes
    /// link a code generator (WAVM links LLVM, hence its size). These
    /// baselines are calibrated to the real runtimes' documented RSS and
    /// are the only non-measured component of [`MemoryReport`].
    pub fn fixed_footprint(self) -> usize {
        match self {
            EngineKind::Wasmtime => 8 << 20,
            EngineKind::Wavm => 14 << 20,
            EngineKind::Wasmer(Backend::Cranelift) => 9 << 20,
            EngineKind::Wasmer(Backend::Singlepass) => 7 << 20,
            EngineKind::Wasmer(Backend::Llvm) => 15 << 20,
            EngineKind::Wasm3 => 5 << 19, // ~2.5 MiB standalone process
            EngineKind::Wamr => 3 << 20,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A standalone WebAssembly runtime engine.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    kind: EngineKind,
}

#[derive(Debug)]
enum Code {
    Tree(TreeCode),
    Threaded(ThreadedCode),
    Reg(Box<RegCode>, CompileStats, Tier),
}

/// A module prepared for execution by a particular engine.
#[derive(Debug)]
pub struct CompiledModule {
    kind: EngineKind,
    code: Code,
    module: Rc<Module>,
    module_binary_len: usize,
}

/// An instantiated module, ready to invoke exports.
pub struct Instance<'m> {
    compiled: &'m CompiledModule,
    rt: Runtime,
}

impl Engine {
    /// Creates an engine of the given kind.
    pub fn new(kind: EngineKind) -> Engine {
        Engine { kind }
    }

    /// This engine's kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Decodes, validates, and prepares a binary module for execution
    /// (translation or tier compilation, depending on the engine).
    ///
    /// # Errors
    ///
    /// Returns decode or validation errors for malformed modules.
    pub fn compile(&self, bytes: &[u8]) -> Result<CompiledModule, EngineError> {
        let _span = obs::span!("engine.compile", engine = self.kind.name());
        crate::faultpoint::check(self.kind, bytes)?;
        let module = {
            let _s = obs::span!("engine.decode");
            wasm_core::decode::decode(bytes)?
        };
        {
            let _s = obs::span!("engine.validate");
            wasm_core::validate::validate(&module)?;
        }
        let module = Rc::new(module);
        let code = match self.kind.tier() {
            None => {
                let _s = obs::span!("engine.translate");
                match self.kind {
                    EngineKind::Wamr => Code::Tree(TreeCode::load(module.clone())?),
                    EngineKind::Wasm3 => Code::Threaded(ThreadedCode::load(module.clone())?),
                    _ => unreachable!(),
                }
            }
            Some(tier) => {
                let (code, stats) = compile_module(module.clone(), tier)?;
                Code::Reg(Box::new(code), stats, tier)
            }
        };
        Ok(CompiledModule {
            kind: self.kind,
            code,
            module,
            module_binary_len: bytes.len(),
        })
    }

    /// Like [`compile`](Self::compile), but also replays the
    /// microarchitectural cost of compilation/translation into `p`.
    ///
    /// # Errors
    ///
    /// Returns decode or validation errors for malformed modules.
    pub fn compile_profiled<P: Profiler>(
        &self,
        bytes: &[u8],
        p: &mut P,
    ) -> Result<CompiledModule, EngineError> {
        let mut span = obs::span!("engine.compile.profiled", engine = self.kind.name());
        // Sample only when the span will be recorded: the null-sink path
        // must not even read the profiler.
        let before = if span.active() { p.perf_counters() } else { None };
        let compiled = self.compile(bytes)?;
        match &compiled.code {
            Code::Reg(_, stats, _) => replay_compile_cost(stats, p),
            Code::Threaded(code) => {
                // Translation reads every decoded instruction once and
                // writes a threaded op.
                let stats = CompileStats {
                    lowered_ops: code.total_ops(),
                    final_ops: code.total_ops(),
                    ..CompileStats::default()
                };
                replay_compile_cost(&stats, p);
            }
            Code::Tree(_) => {
                // In-place interpretation: only the control-map scan.
                let stats = CompileStats {
                    lowered_ops: compiled.module.code_size() / 4,
                    final_ops: 0,
                    ..CompileStats::default()
                };
                replay_compile_cost(&stats, p);
            }
        }
        if let (Some(before), Some(after)) = (before, p.perf_counters()) {
            span.set_counters(after.delta_since(before));
        }
        Ok(compiled)
    }

    /// Produces an AOT artifact for later loading: a fresh
    /// [`compile`](Self::compile) serialized by
    /// [`CompiledModule::artifact`]. A caller that already holds the
    /// compiled module should call `artifact` on it instead of compiling
    /// the same bytes a second time.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed modules, or a
    /// [`EngineError::BadArtifact`] if this engine is an interpreter
    /// (interpretation-based runtimes have no AOT mode, as in the paper).
    pub fn precompile(&self, bytes: &[u8]) -> Result<Vec<u8>, EngineError> {
        let _span = obs::span!("engine.aot.precompile", engine = self.kind.name());
        self.compile(bytes)?.artifact()
    }

    /// Loads an AOT artifact, skipping decode/validate/compile.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadArtifact`] if the artifact is malformed
    /// or was produced by a different tier than this engine uses.
    pub fn load_artifact(&self, artifact: &[u8]) -> Result<CompiledModule, EngineError> {
        self.load(artifact, None)
    }

    /// [`load_artifact`](Self::load_artifact) that skips re-deriving the
    /// check-elimination proofs when `verified` holds these exact bytes,
    /// and remembers them there after a load that re-derived them.
    /// Decoding, code validation, the tier check and handler resolution
    /// run on every load.
    ///
    /// # Errors
    ///
    /// As [`load_artifact`](Self::load_artifact).
    pub fn load_artifact_in(
        &self,
        artifact: &[u8],
        verified: &VerifiedArtifacts,
    ) -> Result<CompiledModule, EngineError> {
        self.load(artifact, Some(verified))
    }

    fn load(
        &self,
        artifact: &[u8],
        verified: Option<&VerifiedArtifacts>,
    ) -> Result<CompiledModule, EngineError> {
        let _span = obs::span!("engine.aot.load", engine = self.kind.name());
        let want = self.kind.tier().ok_or_else(|| {
            EngineError::BadArtifact(format!("{} has no AOT mode", self.kind))
        })?;
        let known = verified.is_some_and(|v| v.contains(artifact));
        let (code, tier) = crate::jit::aot::read(artifact, !known)?;
        if tier != want {
            return Err(EngineError::BadArtifact(format!(
                "artifact was compiled by the {tier} tier, engine uses {want}"
            )));
        }
        if let (Some(v), false) = (verified, known) {
            v.insert(artifact);
        }
        let module = code.module.clone();
        Ok(CompiledModule {
            kind: self.kind,
            code: Code::Reg(Box::new(code), CompileStats::default(), tier),
            module,
            module_binary_len: artifact.len(),
        })
    }
}

impl CompiledModule {
    /// The engine kind that produced this code.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The decoded module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Compile statistics (zero for interpreters and loaded artifacts).
    pub fn compile_stats(&self) -> CompileStats {
        match &self.code {
            Code::Reg(_, stats, _) => *stats,
            _ => CompileStats::default(),
        }
    }

    /// Serializes this module's tier code as an AOT artifact for
    /// [`Engine::load_artifact`], without compiling anything: the bytes
    /// equal what [`Engine::precompile`] produces for the same module.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadArtifact`] if this module was prepared by an
    /// interpreter (interpretation-based runtimes have no AOT mode).
    pub fn artifact(&self) -> Result<Vec<u8>, EngineError> {
        match &self.code {
            Code::Reg(code, _, tier) => Ok(crate::jit::aot::to_bytes(code, *tier)),
            _ => Err(EngineError::BadArtifact(format!(
                "{} is an interpreter and has no AOT mode",
                self.kind
            ))),
        }
    }

    /// Bytes of engine-owned code (bytecode / threaded ops / machine code).
    pub fn code_bytes(&self) -> usize {
        match &self.code {
            Code::Tree(c) => c.code_bytes(),
            Code::Threaded(c) => c.code_bytes(),
            Code::Reg(c, _, _) => c.code_bytes(),
        }
    }

    /// Instantiates the module, running its start function.
    ///
    /// # Errors
    ///
    /// Returns link errors for missing imports, or a trap raised by the
    /// start function.
    pub fn instantiate(
        &self,
        imports: &Imports,
        host_data: Box<dyn Any>,
    ) -> Result<Instance<'_>, EngineError> {
        let rt = Runtime::instantiate(&self.module, imports, host_data)?;
        let mut instance = Instance { compiled: self, rt };
        if let Some(start) = self.module.start {
            instance
                .invoke_idx(start, &[], &mut NullProfiler)
                .map_err(EngineError::Trap)?;
        }
        Ok(instance)
    }
}

impl std::fmt::Debug for Instance<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("engine", &self.compiled.kind.name())
            .field("runtime", &self.rt)
            .finish()
    }
}

impl<'m> Instance<'m> {
    /// Invokes an exported function by name.
    ///
    /// # Errors
    ///
    /// Traps raised by execution, or [`Trap::Host`] for an unknown export
    /// or argument type mismatch.
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, Trap> {
        self.invoke_profiled(name, args, &mut NullProfiler)
    }

    /// Invokes an exported function with profiling hooks.
    ///
    /// # Errors
    ///
    /// Same as [`invoke`](Self::invoke).
    pub fn invoke_profiled<P: Profiler>(
        &mut self,
        name: &str,
        args: &[Value],
        p: &mut P,
    ) -> Result<Option<Value>, Trap> {
        let func_idx = self
            .compiled
            .module
            .exported_func(name)
            .ok_or_else(|| Trap::Host(format!("no exported function {name:?}")))?;
        let ty = self
            .compiled
            .module
            .func_type(func_idx)
            .ok_or_else(|| Trap::Host("export type missing".into()))?
            .clone();
        if ty.params.len() != args.len()
            || ty.params.iter().zip(args).any(|(t, v)| *t != v.ty())
        {
            return Err(Trap::Host(format!(
                "argument mismatch for {name:?}: expected {ty}"
            )));
        }
        let raw: Vec<u64> = args.iter().map(|v| v.to_bits()).collect();
        let mut span = obs::span!(
            "engine.execute",
            engine = self.compiled.kind.name(),
            func = name
        );
        let before = if span.active() { p.perf_counters() } else { None };
        let out = self.invoke_idx(func_idx, &raw, p)?;
        if let (Some(before), Some(after)) = (before, p.perf_counters()) {
            span.set_counters(after.delta_since(before));
        }
        Ok(match (out, ty.results.first()) {
            (Some(bits), Some(t)) => Some(Value::from_bits(*t, bits)),
            _ => None,
        })
    }

    fn invoke_idx<P: Profiler>(
        &mut self,
        func_idx: u32,
        args: &[u64],
        p: &mut P,
    ) -> Result<Option<u64>, Trap> {
        match &self.compiled.code {
            Code::Tree(c) => c.invoke(&mut self.rt, func_idx, args, p),
            Code::Threaded(c) => c.invoke(&mut self.rt, func_idx, args, p),
            Code::Reg(c, _, _) => c.invoke(&mut self.rt, func_idx, args, p),
        }
    }

    /// The instance's linear memory, if present.
    pub fn memory(&self) -> Option<&LinearMemory> {
        self.rt.memory.as_ref()
    }

    /// Mutable access to the instance's linear memory.
    pub fn memory_mut(&mut self) -> Option<&mut LinearMemory> {
        self.rt.memory.as_mut()
    }

    /// Host state installed at instantiation.
    pub fn host_data(&self) -> &dyn Any {
        &*self.rt.host_data
    }

    /// Mutable host state.
    pub fn host_data_mut(&mut self) -> &mut dyn Any {
        &mut *self.rt.host_data
    }

    /// Sets the maximum call depth before a [`Trap::StackOverflow`].
    pub fn set_call_depth_limit(&mut self, limit: usize) {
        self.rt.call_depth_limit = limit;
    }

    /// A breakdown of the memory this instance (and its engine) holds.
    pub fn memory_report(&self) -> MemoryReport {
        let module = &self.compiled.module;
        let decoded = module.code_size() * 16
            + module.types.len() * 32
            + module.data.iter().map(|d| d.bytes.len()).sum::<usize>();
        let (retained_ir, metadata) = match &self.compiled.code {
            Code::Reg(_, stats, _) => (stats.retained_ir_bytes, module.br_tables.len() * 64),
            Code::Tree(_) => (0, module.code_size() * 8),
            Code::Threaded(_) => (0, module.br_tables.len() * 64),
        };
        MemoryReport {
            runtime_fixed: self.compiled.kind.fixed_footprint(),
            module_binary: self.compiled.module_binary_len,
            decoded_module: decoded,
            code: self.compiled.code_bytes(),
            retained_ir,
            metadata,
            exec_stack_peak: self.rt.peak_value_stack * 8,
            linear_memory_peak: self.rt.peak_linear_memory(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm_core::builder::ModuleBuilder;
    use wasm_core::instr::Instr;
    use wasm_core::types::{FuncType, ValType};

    fn incr_module_bytes() -> Vec<u8> {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.begin_func(FuncType::new(&[ValType::I32], &[ValType::I32]));
        b.emit(Instr::LocalGet(0));
        b.emit(Instr::I32Const(1));
        b.emit(Instr::I32Add);
        b.finish_func();
        b.export_func("incr", f);
        wasm_core::encode::encode(&b.build())
    }

    #[test]
    fn all_five_engines_agree() {
        let bytes = incr_module_bytes();
        for kind in EngineKind::all() {
            let engine = Engine::new(kind);
            let compiled = engine.compile(&bytes).unwrap();
            let mut inst = compiled.instantiate(&Imports::new(), Box::new(())).unwrap();
            let out = inst.invoke("incr", &[Value::I32(41)]).unwrap();
            assert_eq!(out, Some(Value::I32(42)), "{kind}");
        }
    }

    #[test]
    fn wasmer_backends_agree() {
        let bytes = incr_module_bytes();
        for backend in Backend::all() {
            let engine = Engine::new(EngineKind::Wasmer(backend));
            let compiled = engine.compile(&bytes).unwrap();
            let mut inst = compiled.instantiate(&Imports::new(), Box::new(())).unwrap();
            assert_eq!(
                inst.invoke("incr", &[Value::I32(1)]).unwrap(),
                Some(Value::I32(2)),
                "{backend}"
            );
        }
    }

    #[test]
    fn argument_type_mismatch_is_reported() {
        let bytes = incr_module_bytes();
        let compiled = Engine::new(EngineKind::Wasmtime).compile(&bytes).unwrap();
        let mut inst = compiled.instantiate(&Imports::new(), Box::new(())).unwrap();
        assert!(matches!(
            inst.invoke("incr", &[Value::F64(1.0)]),
            Err(Trap::Host(_))
        ));
        assert!(matches!(inst.invoke("missing", &[]), Err(Trap::Host(_))));
    }

    #[test]
    fn aot_round_trip_skips_compile() {
        let bytes = incr_module_bytes();
        for kind in [
            EngineKind::Wasmtime,
            EngineKind::Wavm,
            EngineKind::Wasmer(Backend::Cranelift),
        ] {
            let engine = Engine::new(kind);
            let artifact = engine.precompile(&bytes).unwrap();
            let compiled = engine.load_artifact(&artifact).unwrap();
            assert_eq!(compiled.compile_stats().total_work(), 0);
            let mut inst = compiled.instantiate(&Imports::new(), Box::new(())).unwrap();
            assert_eq!(
                inst.invoke("incr", &[Value::I32(9)]).unwrap(),
                Some(Value::I32(10)),
                "{kind}"
            );
        }
    }

    #[test]
    fn artifact_of_a_compiled_module_equals_precompile() {
        let bytes = incr_module_bytes();
        let mut kinds: Vec<EngineKind> = vec![EngineKind::Wasmtime, EngineKind::Wavm];
        kinds.extend(Backend::all().map(EngineKind::Wasmer));
        for kind in kinds {
            let engine = Engine::new(kind);
            let artifact = engine.compile(&bytes).unwrap().artifact().unwrap();
            assert_eq!(artifact, engine.precompile(&bytes).unwrap(), "{kind}");
        }
    }

    #[test]
    fn interpreters_reject_aot() {
        let bytes = incr_module_bytes();
        for kind in [EngineKind::Wasm3, EngineKind::Wamr] {
            let engine = Engine::new(kind);
            assert!(engine.precompile(&bytes).is_err(), "{kind}");
            assert!(
                engine.compile(&bytes).unwrap().artifact().is_err(),
                "{kind}"
            );
        }
    }

    #[test]
    fn artifact_tier_mismatch_rejected() {
        let bytes = incr_module_bytes();
        let artifact = Engine::new(EngineKind::Wavm).precompile(&bytes).unwrap();
        assert!(Engine::new(EngineKind::Wasmtime).load_artifact(&artifact).is_err());
    }

    #[test]
    fn memory_reports_rank_engines() {
        let bytes = incr_module_bytes();
        let mut totals = Vec::new();
        for kind in [EngineKind::Wavm, EngineKind::Wasm3] {
            let compiled = Engine::new(kind).compile(&bytes).unwrap();
            let mut inst = compiled.instantiate(&Imports::new(), Box::new(())).unwrap();
            inst.invoke("incr", &[Value::I32(0)]).unwrap();
            totals.push(inst.memory_report().runtime_overhead());
        }
        assert!(totals[0] > totals[1], "WAVM should out-consume Wasm3");
    }

    #[test]
    fn engine_codes_round_trip() {
        let mut kinds: Vec<EngineKind> = EngineKind::all().to_vec();
        kinds.extend(Backend::all().map(EngineKind::Wasmer));
        for kind in kinds {
            assert_eq!(EngineKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(EngineKind::from_code(200), None);
        assert_eq!(EngineKind::parse("WAVM"), Some(EngineKind::Wavm));
        assert_eq!(
            EngineKind::parse("wasmer"),
            Some(EngineKind::Wasmer(Backend::Cranelift))
        );
        assert_eq!(EngineKind::parse("v8"), None);
    }

    #[test]
    fn start_function_runs_at_instantiation() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let s = b.begin_func(FuncType::new(&[], &[]));
        b.emit(Instr::I32Const(0));
        b.emit(Instr::I32Const(123));
        b.emit(Instr::I32Store(Default::default()));
        b.finish_func();
        let g = b.begin_func(FuncType::new(&[], &[ValType::I32]));
        b.emit(Instr::I32Const(0));
        b.emit(Instr::I32Load(Default::default()));
        b.finish_func();
        b.export_func("get", g);
        b.start(s);
        let bytes = wasm_core::encode::encode(&b.build());
        for kind in EngineKind::all() {
            let compiled = Engine::new(kind).compile(&bytes).unwrap();
            let mut inst = compiled.instantiate(&Imports::new(), Box::new(())).unwrap();
            assert_eq!(inst.invoke("get", &[]).unwrap(), Some(Value::I32(123)), "{kind}");
        }
    }
}
