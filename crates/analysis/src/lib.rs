//! Static analysis for the wabench toolchain.
//!
//! One control-flow-graph and worklist-dataflow framework ([`cfg`],
//! [`dataflow`]) instantiated over two substrates:
//!
//! * [`verify`] — an IR verifier for the JIT's register IR. The engines
//!   crate adapts its `RFunc` into an [`verify::IrView`] and checks every
//!   optimization pass's output for use-before-def, dangling branch
//!   targets, register-bound violations, broken terminators, and
//!   reordered side effects.
//! * [`lint`] — source-level diagnostics over the WaCC typed AST
//!   (unused variables/functions, unreachable statements, constant
//!   division by zero, constant out-of-bounds memory accesses), surfaced
//!   by `wabench-harness lint`.
//! * [`range`] — interval (value-range) abstract interpretation with
//!   widening/narrowing and branch refinement, consumed by the JIT's
//!   check-elimination pass, the interpreter decode-time safety marks,
//!   and the `wabench-harness audit` static reports. Eliminations are
//!   proof-carrying: [`range::check_obligations`] independently
//!   re-derives every claimed fact.
//!
//! The crate deliberately depends only on `wasm-core` and `wacc`; the
//! engines crate depends on *it*, keeping the dependency graph acyclic.

pub mod cfg;
pub mod dataflow;
pub mod lint;
pub mod range;
pub mod verify;
