//! Shared numeric semantics for all engines.
//!
//! Every engine (both interpreters and all compiled tiers) evaluates pure
//! numeric instructions through these functions, so WebAssembly semantics
//! — shift masking, division traps, float-to-int conversion traps, NaN
//! propagation in min/max, round-half-to-even — are implemented exactly
//! once.

// Range checks are written in the spec's explicit `v < lo || v > hi`
// form rather than `!(lo..=hi).contains(&v)` to keep them literally
// comparable with the wasm specification text.
#![allow(clippy::manual_range_contains)]
//!
//! Values are passed as raw 64-bit slots: `i32`/`f32` live in the low 32
//! bits (zero-extended), matching how the engines store their operand
//! stacks and registers.

use crate::error::Trap;
use wasm_core::instr::Instr;

#[inline]
fn b32(x: u64) -> u32 {
    x as u32
}

#[inline]
fn f32v(x: u64) -> f32 {
    f32::from_bits(x as u32)
}

#[inline]
fn f64v(x: u64) -> f64 {
    f64::from_bits(x)
}

#[inline]
fn ret_i32(x: i32) -> u64 {
    x as u32 as u64
}

#[inline]
fn ret_u32(x: u32) -> u64 {
    x as u64
}

#[inline]
fn ret_f32(x: f32) -> u64 {
    x.to_bits() as u64
}

#[inline]
fn ret_f64(x: f64) -> u64 {
    x.to_bits()
}

/// An arithmetic `f32` result: a NaN becomes the canonical NaN, so the
/// payload never depends on which operand an optimised build keeps
/// (LLVM may commute `a + b`). Wasm allows canonical NaN for every
/// arithmetic op; bit-level ops (`neg`, `abs`, `copysign`, reinterprets)
/// use [`ret_f32`] and stay exact. The test is on the bits: LLVM treats
/// NaNs as interchangeable and folds `if x.is_nan() { f32::NAN } else
/// { x }` back to `x`.
#[inline]
fn arith_f32(x: f32) -> u64 {
    let bits = x.to_bits();
    if bits & 0x7fff_ffff > 0x7f80_0000 {
        f32::NAN.to_bits() as u64
    } else {
        bits as u64
    }
}

/// [`arith_f32`] for `f64`.
#[inline]
fn arith_f64(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits & 0x7fff_ffff_ffff_ffff > 0x7ff0_0000_0000_0000 {
        f64::NAN.to_bits()
    } else {
        bits
    }
}

#[inline]
fn bool32(b: bool) -> u64 {
    b as u64
}

/// WebAssembly `fNN.min`: NaN-propagating, -0 < +0.
#[inline]
fn wasm_min_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        // Distinguish -0 and +0.
        f32::from_bits(a.to_bits() | b.to_bits())
    } else if a < b {
        a
    } else {
        b
    }
}

#[inline]
fn wasm_max_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        f32::from_bits(a.to_bits() & b.to_bits())
    } else if a > b {
        a
    } else {
        b
    }
}

#[inline]
fn wasm_min_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        f64::from_bits(a.to_bits() | b.to_bits())
    } else if a < b {
        a
    } else {
        b
    }
}

#[inline]
fn wasm_max_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        f64::from_bits(a.to_bits() & b.to_bits())
    } else if a > b {
        a
    } else {
        b
    }
}

/// Round half to even (`fNN.nearest`). Uses the IEEE `round_ties_even`.
#[inline]
fn nearest_f32(x: f32) -> f32 {
    let r = x.round();
    if (x - x.trunc()).abs() == 0.5 {
        // Ties: round to even.
        let even = 2.0 * (x / 2.0).round();
        if (even - x).abs() == 0.5 {
            even
        } else {
            r
        }
    } else {
        r
    }
}

#[inline]
fn nearest_f64(x: f64) -> f64 {
    let r = x.round();
    if (x - x.trunc()).abs() == 0.5 {
        let even = 2.0 * (x / 2.0).round();
        if (even - x).abs() == 0.5 {
            even
        } else {
            r
        }
    } else {
        r
    }
}

macro_rules! trunc_checked {
    ($val:expr, $f:ty, $lo:expr, $hi:expr, $to:ty) => {{
        let v = $val;
        if v.is_nan() {
            return Err(Trap::InvalidConversionToInt);
        }
        let t = v.trunc();
        if t < $lo || t > $hi {
            return Err(Trap::IntegerOverflow);
        }
        t as $to
    }};
}

/// Defines a numeric entry point twice from one body: `$name` with the
/// ordinary `#[inline]` hint, which every engine's generic dispatch calls
/// (the interpreters, whose extra dispatch is part of what they model),
/// and `$always`, always inlined, for the compiled tiers' executor. It
/// calls `$always` with a constant operator in each opcode's arm, where it
/// folds to that operator's straight-line code; left to the inliner, the
/// arms' calls would be merged into one call on a variable operator.
macro_rules! with_inlined_twin {
    (
        $(#[$doc:meta])*
        fn $name:ident / $always:ident ($($arg:ident: $ty:ty),*) -> $ret:ty $body:block
    ) => {
        $(#[$doc])*
        #[inline]
        pub fn $name($($arg: $ty),*) -> $ret $body

        #[doc = concat!("[`", stringify!($name), "`], always inlined.")]
        ///
        /// # Errors
        ///
        #[doc = concat!("As [`", stringify!($name), "`].")]
        #[inline(always)]
        pub fn $always($($arg: $ty),*) -> $ret $body
    };
}

with_inlined_twin! {
    /// Applies a unary numeric instruction to a raw value.
    ///
    /// # Errors
    ///
    /// Traps on invalid float-to-int conversions.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a unary numeric instruction (callers dispatch on
    /// validated code, so this indicates an engine bug).
    fn apply_unary / apply_unary_inline(op: Instr, a: u64) -> Result<u64, Trap> {
        use Instr::*;
        Ok(match op {
            I32Eqz => bool32(b32(a) == 0),
            I64Eqz => bool32(a == 0),
            I32Clz => ret_u32(b32(a).leading_zeros()),
            I32Ctz => ret_u32(b32(a).trailing_zeros()),
            I32Popcnt => ret_u32(b32(a).count_ones()),
            I64Clz => a.leading_zeros() as u64,
            I64Ctz => a.trailing_zeros() as u64,
            I64Popcnt => a.count_ones() as u64,
            F32Abs => ret_f32(f32v(a).abs()),
            F32Neg => ret_f32(-f32v(a)),
            F32Ceil => arith_f32(f32v(a).ceil()),
            F32Floor => arith_f32(f32v(a).floor()),
            F32Trunc => arith_f32(f32v(a).trunc()),
            F32Nearest => arith_f32(nearest_f32(f32v(a))),
            F32Sqrt => arith_f32(f32v(a).sqrt()),
            F64Abs => ret_f64(f64v(a).abs()),
            F64Neg => ret_f64(-f64v(a)),
            F64Ceil => arith_f64(f64v(a).ceil()),
            F64Floor => arith_f64(f64v(a).floor()),
            F64Trunc => arith_f64(f64v(a).trunc()),
            F64Nearest => arith_f64(nearest_f64(f64v(a))),
            F64Sqrt => arith_f64(f64v(a).sqrt()),
            I32WrapI64 => ret_u32(a as u32),
            I64ExtendI32S => (b32(a) as i32) as i64 as u64,
            I64ExtendI32U => b32(a) as u64,
            I32Extend8S => ret_i32(b32(a) as i8 as i32),
            I32Extend16S => ret_i32(b32(a) as i16 as i32),
            I64Extend8S => (a as i8) as i64 as u64,
            I64Extend16S => (a as i16) as i64 as u64,
            I64Extend32S => (a as i32) as i64 as u64,
            I32TruncF32S => ret_i32(trunc_checked!(f32v(a), f32, -2147483648.0f32, 2147483520.0f32, i32)),
            I32TruncF32U => ret_u32(trunc_checked!(f32v(a), f32, 0.0f32, 4294967040.0f32, u32)),
            I32TruncF64S => {
                ret_i32(trunc_checked!(f64v(a), f64, -2147483648.0f64, 2147483647.0f64, i32))
            }
            I32TruncF64U => ret_u32(trunc_checked!(f64v(a), f64, 0.0f64, 4294967295.0f64, u32)),
            I64TruncF32S => {
                trunc_checked!(f32v(a), f32, -9223372036854775808.0f32, 9223371487098961920.0f32, i64)
                    as u64
            }
            I64TruncF32U => {
                trunc_checked!(f32v(a), f32, 0.0f32, 18446742974197923840.0f32, u64)
            }
            I64TruncF64S => {
                trunc_checked!(
                    f64v(a),
                    f64,
                    -9223372036854775808.0f64,
                    9223372036854774784.0f64,
                    i64
                ) as u64
            }
            I64TruncF64U => {
                trunc_checked!(f64v(a), f64, 0.0f64, 18446744073709549568.0f64, u64)
            }
            F32ConvertI32S => ret_f32(b32(a) as i32 as f32),
            F32ConvertI32U => ret_f32(b32(a) as f32),
            F32ConvertI64S => ret_f32(a as i64 as f32),
            F32ConvertI64U => ret_f32(a as f32),
            F32DemoteF64 => arith_f32(f64v(a) as f32),
            F64ConvertI32S => ret_f64(b32(a) as i32 as f64),
            F64ConvertI32U => ret_f64(b32(a) as f64),
            F64ConvertI64S => ret_f64(a as i64 as f64),
            F64ConvertI64U => ret_f64(a as f64),
            F64PromoteF32 => arith_f64(f32v(a) as f64),
            I32ReinterpretF32 | F32ReinterpretI32 => ret_u32(b32(a)),
            I64ReinterpretF64 | F64ReinterpretI64 => a,
            other => panic!("apply_unary called with non-unary instruction {other:?}"),
        })
    }
}

with_inlined_twin! {
    /// Applies a binary numeric instruction to two raw values (`a` is the
    /// first-pushed operand).
    ///
    /// # Errors
    ///
    /// Traps on division by zero and signed-division overflow.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a binary numeric instruction.
    fn apply_binary / apply_binary_inline(op: Instr, a: u64, b: u64) -> Result<u64, Trap> {
        use Instr::*;
        let ai = b32(a) as i32;
        let bi = b32(b) as i32;
        let au = b32(a);
        let bu = b32(b);
        let al = a as i64;
        let bl = b as i64;
        Ok(match op {
            I32Eq => bool32(au == bu),
            I32Ne => bool32(au != bu),
            I32LtS => bool32(ai < bi),
            I32LtU => bool32(au < bu),
            I32GtS => bool32(ai > bi),
            I32GtU => bool32(au > bu),
            I32LeS => bool32(ai <= bi),
            I32LeU => bool32(au <= bu),
            I32GeS => bool32(ai >= bi),
            I32GeU => bool32(au >= bu),
            I64Eq => bool32(a == b),
            I64Ne => bool32(a != b),
            I64LtS => bool32(al < bl),
            I64LtU => bool32(a < b),
            I64GtS => bool32(al > bl),
            I64GtU => bool32(a > b),
            I64LeS => bool32(al <= bl),
            I64LeU => bool32(a <= b),
            I64GeS => bool32(al >= bl),
            I64GeU => bool32(a >= b),
            F32Eq => bool32(f32v(a) == f32v(b)),
            F32Ne => bool32(f32v(a) != f32v(b)),
            F32Lt => bool32(f32v(a) < f32v(b)),
            F32Gt => bool32(f32v(a) > f32v(b)),
            F32Le => bool32(f32v(a) <= f32v(b)),
            F32Ge => bool32(f32v(a) >= f32v(b)),
            F64Eq => bool32(f64v(a) == f64v(b)),
            F64Ne => bool32(f64v(a) != f64v(b)),
            F64Lt => bool32(f64v(a) < f64v(b)),
            F64Gt => bool32(f64v(a) > f64v(b)),
            F64Le => bool32(f64v(a) <= f64v(b)),
            F64Ge => bool32(f64v(a) >= f64v(b)),
            I32Add => ret_u32(au.wrapping_add(bu)),
            I32Sub => ret_u32(au.wrapping_sub(bu)),
            I32Mul => ret_u32(au.wrapping_mul(bu)),
            I32DivS => {
                if bi == 0 {
                    return Err(Trap::DivisionByZero);
                }
                if ai == i32::MIN && bi == -1 {
                    return Err(Trap::IntegerOverflow);
                }
                ret_i32(ai.wrapping_div(bi))
            }
            I32DivU => {
                if bu == 0 {
                    return Err(Trap::DivisionByZero);
                }
                ret_u32(au / bu)
            }
            I32RemS => {
                if bi == 0 {
                    return Err(Trap::DivisionByZero);
                }
                ret_i32(ai.wrapping_rem(bi))
            }
            I32RemU => {
                if bu == 0 {
                    return Err(Trap::DivisionByZero);
                }
                ret_u32(au % bu)
            }
            I32And => ret_u32(au & bu),
            I32Or => ret_u32(au | bu),
            I32Xor => ret_u32(au ^ bu),
            I32Shl => ret_u32(au.wrapping_shl(bu)),
            I32ShrS => ret_i32(ai.wrapping_shr(bu)),
            I32ShrU => ret_u32(au.wrapping_shr(bu)),
            I32Rotl => ret_u32(au.rotate_left(bu & 31)),
            I32Rotr => ret_u32(au.rotate_right(bu & 31)),
            I64Add => a.wrapping_add(b),
            I64Sub => a.wrapping_sub(b),
            I64Mul => a.wrapping_mul(b),
            I64DivS => {
                if bl == 0 {
                    return Err(Trap::DivisionByZero);
                }
                if al == i64::MIN && bl == -1 {
                    return Err(Trap::IntegerOverflow);
                }
                al.wrapping_div(bl) as u64
            }
            I64DivU => {
                if b == 0 {
                    return Err(Trap::DivisionByZero);
                }
                a / b
            }
            I64RemS => {
                if bl == 0 {
                    return Err(Trap::DivisionByZero);
                }
                al.wrapping_rem(bl) as u64
            }
            I64RemU => {
                if b == 0 {
                    return Err(Trap::DivisionByZero);
                }
                a % b
            }
            I64And => a & b,
            I64Or => a | b,
            I64Xor => a ^ b,
            I64Shl => a.wrapping_shl(b as u32),
            I64ShrS => (al.wrapping_shr(b as u32)) as u64,
            I64ShrU => a.wrapping_shr(b as u32),
            I64Rotl => a.rotate_left((b & 63) as u32),
            I64Rotr => a.rotate_right((b & 63) as u32),
            F32Add => arith_f32(f32v(a) + f32v(b)),
            F32Sub => arith_f32(f32v(a) - f32v(b)),
            F32Mul => arith_f32(f32v(a) * f32v(b)),
            F32Div => arith_f32(f32v(a) / f32v(b)),
            F32Min => ret_f32(wasm_min_f32(f32v(a), f32v(b))),
            F32Max => ret_f32(wasm_max_f32(f32v(a), f32v(b))),
            F32Copysign => ret_f32(f32v(a).copysign(f32v(b))),
            F64Add => arith_f64(f64v(a) + f64v(b)),
            F64Sub => arith_f64(f64v(a) - f64v(b)),
            F64Mul => arith_f64(f64v(a) * f64v(b)),
            F64Div => arith_f64(f64v(a) / f64v(b)),
            F64Min => ret_f64(wasm_min_f64(f64v(a), f64v(b))),
            F64Max => ret_f64(wasm_max_f64(f64v(a), f64v(b))),
            F64Copysign => ret_f64(f64v(a).copysign(f64v(b))),
            other => panic!("apply_binary called with non-binary instruction {other:?}"),
        })
    }
}

/// Whether `op` is handled by [`apply_unary`].
pub fn is_unary(op: Instr) -> bool {
    use Instr::*;
    matches!(
        op,
        I32Eqz | I64Eqz
            | I32Clz | I32Ctz | I32Popcnt | I64Clz | I64Ctz | I64Popcnt
            | F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt
            | F64Abs | F64Neg | F64Ceil | F64Floor | F64Trunc | F64Nearest | F64Sqrt
            | I32WrapI64 | I64ExtendI32S | I64ExtendI32U
            | I32Extend8S | I32Extend16S | I64Extend8S | I64Extend16S | I64Extend32S
            | I32TruncF32S | I32TruncF32U | I32TruncF64S | I32TruncF64U
            | I64TruncF32S | I64TruncF32U | I64TruncF64S | I64TruncF64U
            | F32ConvertI32S | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U
            | F64ConvertI32S | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U
            | F32DemoteF64 | F64PromoteF32
            | I32ReinterpretF32 | I64ReinterpretF64 | F32ReinterpretI32 | F64ReinterpretI64
    )
}

/// Whether `op` is handled by [`apply_binary`].
pub fn is_binary(op: Instr) -> bool {
    use Instr::*;
    matches!(
        op,
        I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS | I32GeU
            | I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS | I64LeU | I64GeS
            | I64GeU
            | F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge
            | F64Eq | F64Ne | F64Lt | F64Gt | F64Le | F64Ge
            | I32Add | I32Sub | I32Mul | I32DivS | I32DivU | I32RemS | I32RemU
            | I32And | I32Or | I32Xor | I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr
            | I64Add | I64Sub | I64Mul | I64DivS | I64DivU | I64RemS | I64RemU
            | I64And | I64Or | I64Xor | I64Shl | I64ShrS | I64ShrU | I64Rotl | I64Rotr
            | F32Add | F32Sub | F32Mul | F32Div | F32Min | F32Max | F32Copysign
            | F64Add | F64Sub | F64Mul | F64Div | F64Min | F64Max | F64Copysign
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(op: Instr, a: u64) -> u64 {
        apply_unary(op, a).unwrap()
    }

    fn b(op: Instr, a: u64, bb: u64) -> u64 {
        apply_binary(op, a, bb).unwrap()
    }

    #[test]
    fn i32_wrapping_arithmetic() {
        assert_eq!(b(Instr::I32Add, ret_i32(i32::MAX), 1), ret_i32(i32::MIN));
        assert_eq!(b(Instr::I32Mul, ret_i32(-3), ret_i32(7)), ret_i32(-21));
        assert_eq!(b(Instr::I32Sub, 0, 1), ret_i32(-1));
    }

    #[test]
    fn division_traps() {
        assert_eq!(
            apply_binary(Instr::I32DivS, 5, 0),
            Err(Trap::DivisionByZero)
        );
        assert_eq!(
            apply_binary(Instr::I32DivS, ret_i32(i32::MIN), ret_i32(-1)),
            Err(Trap::IntegerOverflow)
        );
        assert_eq!(
            apply_binary(Instr::I64RemU, 5, 0),
            Err(Trap::DivisionByZero)
        );
        // rem_s(MIN, -1) == 0, no trap.
        assert_eq!(b(Instr::I32RemS, ret_i32(i32::MIN), ret_i32(-1)), 0);
    }

    #[test]
    fn shifts_mask_count() {
        assert_eq!(b(Instr::I32Shl, 1, 33), 2);
        assert_eq!(b(Instr::I64Shl, 1, 65), 2);
        assert_eq!(b(Instr::I32ShrS, ret_i32(-8), 1), ret_i32(-4));
        assert_eq!(b(Instr::I32Rotl, 0x8000_0001, 1), 3);
    }

    #[test]
    fn float_min_max_nan_and_zero() {
        let nan = ret_f32(f32::NAN);
        assert!(f32::from_bits(b(Instr::F32Min, nan, ret_f32(1.0)) as u32).is_nan());
        // min(-0, +0) = -0
        let r = b(Instr::F32Min, ret_f32(-0.0), ret_f32(0.0));
        assert_eq!(r as u32, (-0.0f32).to_bits());
        // max(-0, +0) = +0
        let r = b(Instr::F32Max, ret_f32(-0.0), ret_f32(0.0));
        assert_eq!(r as u32, 0.0f32.to_bits());
    }

    #[test]
    fn arithmetic_nans_are_canonical_and_bit_ops_exact() {
        let (p, q) = (0x7fff_ffff, 0xffff_ffff);
        let canon = ret_f32(f32::NAN);
        for op in [Instr::F32Add, Instr::F32Sub, Instr::F32Mul, Instr::F32Div] {
            assert_eq!(b(op, p, q), canon, "{op:?}");
            assert_eq!(b(op, q, p), canon, "{op:?}");
        }
        for op in [Instr::F32Sqrt, Instr::F32Ceil, Instr::F32Nearest] {
            assert_eq!(u(op, q), canon, "{op:?}");
        }
        assert_eq!(u(Instr::F64PromoteF32, q), ret_f64(f64::NAN));
        assert_eq!(u(Instr::F32DemoteF64, u64::MAX), canon);
        assert_eq!(u(Instr::F32Neg, p), q);
        assert_eq!(u(Instr::F32Abs, q), p);
        assert_eq!(b(Instr::F32Copysign, p, q), q);
    }

    #[test]
    fn nearest_ties_to_even() {
        assert_eq!(f64::from_bits(u(Instr::F64Nearest, ret_f64(2.5))), 2.0);
        assert_eq!(f64::from_bits(u(Instr::F64Nearest, ret_f64(3.5))), 4.0);
        assert_eq!(f64::from_bits(u(Instr::F64Nearest, ret_f64(-2.5))), -2.0);
        assert_eq!(f32::from_bits(u(Instr::F32Nearest, ret_f32(0.5)) as u32), 0.0);
    }

    #[test]
    fn trunc_traps_on_nan_and_overflow() {
        assert_eq!(
            apply_unary(Instr::I32TruncF64S, ret_f64(f64::NAN)),
            Err(Trap::InvalidConversionToInt)
        );
        assert_eq!(
            apply_unary(Instr::I32TruncF64S, ret_f64(3e9)),
            Err(Trap::IntegerOverflow)
        );
        assert_eq!(u(Instr::I32TruncF64S, ret_f64(-3.99)), ret_i32(-3));
        assert_eq!(u(Instr::I32TruncF64U, ret_f64(4294967295.0)), ret_u32(u32::MAX));
    }

    #[test]
    fn extensions_and_wraps() {
        assert_eq!(u(Instr::I64ExtendI32S, ret_i32(-1)), u64::MAX);
        assert_eq!(u(Instr::I64ExtendI32U, ret_i32(-1)), 0xFFFF_FFFF);
        assert_eq!(u(Instr::I32WrapI64, 0x1_0000_0005), 5);
        assert_eq!(u(Instr::I32Extend8S, 0x80), ret_i32(-128));
        assert_eq!(u(Instr::I64Extend32S, 0x8000_0000), (-2147483648i64) as u64);
    }

    #[test]
    fn clz_ctz_popcnt() {
        assert_eq!(u(Instr::I32Clz, 1), 31);
        assert_eq!(u(Instr::I32Clz, 0), 32);
        assert_eq!(u(Instr::I32Ctz, 8), 3);
        assert_eq!(u(Instr::I64Popcnt, u64::MAX), 64);
    }

    #[test]
    fn comparisons_signedness() {
        assert_eq!(b(Instr::I32LtS, ret_i32(-1), 1), 1);
        assert_eq!(b(Instr::I32LtU, ret_i32(-1), 1), 0);
        assert_eq!(b(Instr::I64GtU, u64::MAX, 0), 1);
        assert_eq!(b(Instr::I64GtS, u64::MAX, 0), 0);
    }

    #[test]
    fn reinterpret_round_trip() {
        let bits = ret_f64(1.25);
        assert_eq!(u(Instr::I64ReinterpretF64, bits), bits);
        assert_eq!(u(Instr::F64ReinterpretI64, bits), bits);
    }

    #[test]
    fn classification_consistency() {
        assert!(is_unary(Instr::I32Eqz));
        assert!(is_binary(Instr::F64Copysign));
        assert!(!is_unary(Instr::I32Add));
        assert!(!is_binary(Instr::Nop));
    }
}
