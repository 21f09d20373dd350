//! The WebAssembly MVP instruction set.
//!
//! Function bodies are kept *flat*, mirroring the binary format: structured
//! control instructions (`Block`, `Loop`, `If`, `Else`, `End`) appear inline
//! and engines/validators compute branch targets with a side table (see
//! [`crate::control::ControlMap`]).

use crate::types::ValType;

/// The type annotation of a block, loop, or if.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BlockType {
    /// No result.
    Empty,
    /// A single result value.
    Value(ValType),
}

impl BlockType {
    /// Number of result values this block type produces (0 or 1).
    pub fn arity(self) -> usize {
        match self {
            BlockType::Empty => 0,
            BlockType::Value(_) => 1,
        }
    }
}

/// Alignment and offset immediate for memory access instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize)]
pub struct MemArg {
    /// Expected alignment, as a power of two exponent.
    pub align: u32,
    /// Constant byte offset added to the dynamic address.
    pub offset: u32,
}

impl MemArg {
    /// A memarg with the given constant offset and natural alignment exponent.
    pub fn offset(offset: u32, align: u32) -> Self {
        MemArg { align, offset }
    }
}

/// A single WebAssembly MVP instruction.
///
/// Index immediates refer to the module's index spaces (functions, locals,
/// globals, types, labels).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[allow(missing_docs)] // variant names mirror the spec mnemonics 1:1
pub enum Instr {
    // Control.
    Unreachable,
    Nop,
    Block(BlockType),
    Loop(BlockType),
    If(BlockType),
    Else,
    End,
    Br(u32),
    BrIf(u32),
    /// `br_table`: the index immediate points into the module-level
    /// [`crate::module::Module::br_tables`] pool (flat storage keeps
    /// `Instr: Copy`).
    BrTable(u32),
    Return,
    Call(u32),
    /// `call_indirect` with the given type index (MVP: table index 0).
    CallIndirect(u32),

    // Parametric.
    Drop,
    Select,

    // Variable.
    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet(u32),

    // Memory loads.
    I32Load(MemArg),
    I64Load(MemArg),
    F32Load(MemArg),
    F64Load(MemArg),
    I32Load8S(MemArg),
    I32Load8U(MemArg),
    I32Load16S(MemArg),
    I32Load16U(MemArg),
    I64Load8S(MemArg),
    I64Load8U(MemArg),
    I64Load16S(MemArg),
    I64Load16U(MemArg),
    I64Load32S(MemArg),
    I64Load32U(MemArg),

    // Memory stores.
    I32Store(MemArg),
    I64Store(MemArg),
    F32Store(MemArg),
    F64Store(MemArg),
    I32Store8(MemArg),
    I32Store16(MemArg),
    I64Store8(MemArg),
    I64Store16(MemArg),
    I64Store32(MemArg),

    MemorySize,
    MemoryGrow,

    // Constants.
    I32Const(i32),
    I64Const(i64),
    /// Stored as raw bits so `Instr` can derive `Eq`-adjacent semantics for NaN.
    F32Const(u32),
    F64Const(u64),

    // i32 comparisons.
    I32Eqz,
    I32Eq,
    I32Ne,
    I32LtS,
    I32LtU,
    I32GtS,
    I32GtU,
    I32LeS,
    I32LeU,
    I32GeS,
    I32GeU,

    // i64 comparisons.
    I64Eqz,
    I64Eq,
    I64Ne,
    I64LtS,
    I64LtU,
    I64GtS,
    I64GtU,
    I64LeS,
    I64LeU,
    I64GeS,
    I64GeU,

    // f32 comparisons.
    F32Eq,
    F32Ne,
    F32Lt,
    F32Gt,
    F32Le,
    F32Ge,

    // f64 comparisons.
    F64Eq,
    F64Ne,
    F64Lt,
    F64Gt,
    F64Le,
    F64Ge,

    // i32 arithmetic.
    I32Clz,
    I32Ctz,
    I32Popcnt,
    I32Add,
    I32Sub,
    I32Mul,
    I32DivS,
    I32DivU,
    I32RemS,
    I32RemU,
    I32And,
    I32Or,
    I32Xor,
    I32Shl,
    I32ShrS,
    I32ShrU,
    I32Rotl,
    I32Rotr,

    // i64 arithmetic.
    I64Clz,
    I64Ctz,
    I64Popcnt,
    I64Add,
    I64Sub,
    I64Mul,
    I64DivS,
    I64DivU,
    I64RemS,
    I64RemU,
    I64And,
    I64Or,
    I64Xor,
    I64Shl,
    I64ShrS,
    I64ShrU,
    I64Rotl,
    I64Rotr,

    // f32 arithmetic.
    F32Abs,
    F32Neg,
    F32Ceil,
    F32Floor,
    F32Trunc,
    F32Nearest,
    F32Sqrt,
    F32Add,
    F32Sub,
    F32Mul,
    F32Div,
    F32Min,
    F32Max,
    F32Copysign,

    // f64 arithmetic.
    F64Abs,
    F64Neg,
    F64Ceil,
    F64Floor,
    F64Trunc,
    F64Nearest,
    F64Sqrt,
    F64Add,
    F64Sub,
    F64Mul,
    F64Div,
    F64Min,
    F64Max,
    F64Copysign,

    // Conversions.
    I32WrapI64,
    I32TruncF32S,
    I32TruncF32U,
    I32TruncF64S,
    I32TruncF64U,
    I64ExtendI32S,
    I64ExtendI32U,
    I64TruncF32S,
    I64TruncF32U,
    I64TruncF64S,
    I64TruncF64U,
    F32ConvertI32S,
    F32ConvertI32U,
    F32ConvertI64S,
    F32ConvertI64U,
    F32DemoteF64,
    F64ConvertI32S,
    F64ConvertI32U,
    F64ConvertI64S,
    F64ConvertI64U,
    F64PromoteF32,
    I32ReinterpretF32,
    I64ReinterpretF64,
    F32ReinterpretI32,
    F64ReinterpretI64,

    // Sign extension operators (merged into the core spec).
    I32Extend8S,
    I32Extend16S,
    I64Extend8S,
    I64Extend16S,
    I64Extend32S,
}

/// The operand payload of a `br_table` instruction, stored in the module's
/// side pool (see [`Instr::BrTable`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize)]
pub struct BrTable {
    /// Jump-table label depths.
    pub targets: Vec<u32>,
    /// Default label depth.
    pub default: u32,
}

impl Instr {
    /// Whether this instruction opens a new structured control frame.
    pub fn opens_block(&self) -> bool {
        matches!(self, Instr::Block(_) | Instr::Loop(_) | Instr::If(_))
    }

    /// Whether execution cannot fall through this instruction.
    pub fn is_unconditional_jump(&self) -> bool {
        matches!(
            self,
            Instr::Unreachable | Instr::Br(_) | Instr::BrTable(_) | Instr::Return
        )
    }

    /// A coarse classification used by cost models and statistics.
    pub const fn class(&self) -> InstrClass {
        use Instr::*;
        match self {
            Unreachable | Nop | Block(_) | Loop(_) | If(_) | Else | End | Br(_) | BrIf(_)
            | BrTable(_) | Return | Call(_) | CallIndirect(_) => InstrClass::Control,
            Drop | Select | LocalGet(_) | LocalSet(_) | LocalTee(_) | GlobalGet(_)
            | GlobalSet(_) => InstrClass::Variable,
            I32Load(_) | I64Load(_) | F32Load(_) | F64Load(_) | I32Load8S(_) | I32Load8U(_)
            | I32Load16S(_) | I32Load16U(_) | I64Load8S(_) | I64Load8U(_) | I64Load16S(_)
            | I64Load16U(_) | I64Load32S(_) | I64Load32U(_) => InstrClass::Load,
            I32Store(_) | I64Store(_) | F32Store(_) | F64Store(_) | I32Store8(_)
            | I32Store16(_) | I64Store8(_) | I64Store16(_) | I64Store32(_) => InstrClass::Store,
            MemorySize | MemoryGrow => InstrClass::Memory,
            I32Const(_) | I64Const(_) | F32Const(_) | F64Const(_) => InstrClass::Const,
            I32DivS | I32DivU | I32RemS | I32RemU | I64DivS | I64DivU | I64RemS | I64RemU
            | F32Div | F64Div | F32Sqrt | F64Sqrt => InstrClass::SlowArith,
            F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Add | F32Sub
            | F32Mul | F32Min | F32Max | F32Copysign | F64Abs | F64Neg | F64Ceil | F64Floor
            | F64Trunc | F64Nearest | F64Add | F64Sub | F64Mul | F64Min | F64Max
            | F64Copysign => InstrClass::FloatArith,
            _ => InstrClass::IntArith,
        }
    }
}

/// Coarse instruction classification for cost models and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Control flow (blocks, branches, calls).
    Control,
    /// Local/global/parametric stack shuffling.
    Variable,
    /// Memory loads.
    Load,
    /// Memory stores.
    Store,
    /// memory.size / memory.grow.
    Memory,
    /// Constant materialization.
    Const,
    /// Integer ALU operations and conversions.
    IntArith,
    /// Floating-point operations (excluding div/sqrt).
    FloatArith,
    /// Division, remainder, square root.
    SlowArith,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(Instr::I32Add.class(), InstrClass::IntArith);
        assert_eq!(Instr::F64Div.class(), InstrClass::SlowArith);
        assert_eq!(Instr::Call(0).class(), InstrClass::Control);
        assert_eq!(Instr::I32Load(MemArg::default()).class(), InstrClass::Load);
        assert_eq!(Instr::I32Const(1).class(), InstrClass::Const);
    }

    #[test]
    fn block_introspection() {
        assert!(Instr::Block(BlockType::Empty).opens_block());
        assert!(Instr::Loop(BlockType::Value(ValType::I32)).opens_block());
        assert!(!Instr::End.opens_block());
        assert!(Instr::Return.is_unconditional_jump());
        assert!(!Instr::BrIf(0).is_unconditional_jump());
    }

    #[test]
    fn block_type_arity() {
        assert_eq!(BlockType::Empty.arity(), 0);
        assert_eq!(BlockType::Value(ValType::F64).arity(), 1);
    }
}
