//! # engines
//!
//! Five standalone WebAssembly runtime engines over a shared execution
//! substrate, reproducing the execution strategies of the runtimes studied
//! in the paper:
//!
//! | engine | strategy | paper counterpart |
//! |---|---|---|
//! | `Wamr` | classic in-place interpreter | WAMR |
//! | `Wasm3` | pre-translated direct-threaded interpreter | Wasm3 |
//! | `Wasmer(Singlepass)` | one-pass compiled register code | Wasmer SinglePass |
//! | `Wasmtime`, `Wasmer(Cranelift)` | optimizing compiled tier | Wasmtime / Wasmer Cranelift |
//! | `Wavm`, `Wasmer(Llvm)` | aggressive multi-pass compiled tier | WAVM / Wasmer LLVM |
//!
//! All engines share linear memory, traps, numeric semantics, and host
//! function linking, and all support profiled execution through the
//! [`profiler::Profiler`] hooks.

#![warn(missing_docs)]

pub mod account;
pub mod engine;
pub mod error;
pub mod faultpoint;
pub mod interp;
pub mod jit;
pub mod memory;
pub mod numeric;
pub mod profiler;
pub mod store;


pub use engine::{Backend, CompiledModule, Engine, EngineKind, Instance};
pub use jit::aot::VerifiedArtifacts;
pub use error::{EngineError, LinkError, Trap};
pub use memory::LinearMemory;
pub use profiler::{NullProfiler, Profiler};
pub use store::{HostCtx, Imports, Runtime};
