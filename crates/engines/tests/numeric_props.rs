//! Property tests for the shared numeric kernel: WebAssembly arithmetic
//! semantics checked against independent Rust reference computations.
//! That the compiled tiers' executor applies every operator exactly as
//! `apply_*` does, in every op shape, is tested next to the executor
//! (`jit::exec`'s operator-table tests).

use engines::numeric::{apply_binary, apply_unary};
use proptest::prelude::*;
use wasm_core::instr::Instr;

fn b32(op: Instr, a: i32, b: i32) -> Result<u64, engines::Trap> {
    apply_binary(op, a as u32 as u64, b as u32 as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// i32 add/sub/mul wrap; the result is zero-extended into the slot.
    #[test]
    fn i32_arith_wraps(a in any::<i32>(), b in any::<i32>()) {
        prop_assert_eq!(b32(Instr::I32Add, a, b).unwrap(), a.wrapping_add(b) as u32 as u64);
        prop_assert_eq!(b32(Instr::I32Sub, a, b).unwrap(), a.wrapping_sub(b) as u32 as u64);
        prop_assert_eq!(b32(Instr::I32Mul, a, b).unwrap(), a.wrapping_mul(b) as u32 as u64);
    }

    /// Signed division traps exactly on divide-by-zero and MIN / -1;
    /// everywhere else it matches Rust's truncating division.
    #[test]
    fn i32_div_s_semantics(a in any::<i32>(), b in any::<i32>()) {
        let got = b32(Instr::I32DivS, a, b);
        if b == 0 || (a == i32::MIN && b == -1) {
            prop_assert!(got.is_err());
        } else {
            prop_assert_eq!(got.unwrap(), (a / b) as u32 as u64);
        }
    }

    /// rem_s traps only on zero; MIN % -1 is defined as 0 in wasm.
    #[test]
    fn i32_rem_s_semantics(a in any::<i32>(), b in any::<i32>()) {
        let got = b32(Instr::I32RemS, a, b);
        if b == 0 {
            prop_assert!(got.is_err());
        } else if a == i32::MIN && b == -1 {
            prop_assert_eq!(got.unwrap(), 0);
        } else {
            prop_assert_eq!(got.unwrap(), (a % b) as u32 as u64);
        }
    }

    /// Shift and rotate counts are taken modulo the bit width.
    #[test]
    fn i32_shifts_mask_count(a in any::<i32>(), s in any::<i32>()) {
        prop_assert_eq!(b32(Instr::I32Shl, a, s).unwrap(), a.wrapping_shl(s as u32) as u32 as u64);
        prop_assert_eq!(b32(Instr::I32ShrS, a, s).unwrap(), a.wrapping_shr(s as u32) as u32 as u64);
        prop_assert_eq!(
            b32(Instr::I32ShrU, a, s).unwrap(),
            ((a as u32).wrapping_shr(s as u32)) as u64
        );
        prop_assert_eq!(
            b32(Instr::I32Rotl, a, s).unwrap(),
            (a as u32).rotate_left(s as u32 & 31) as u64
        );
    }

    /// i64 division mirrors the i32 rules at 64 bits.
    #[test]
    fn i64_div_s_semantics(a in any::<i64>(), b in any::<i64>()) {
        let got = apply_binary(Instr::I64DivS, a as u64, b as u64);
        if b == 0 || (a == i64::MIN && b == -1) {
            prop_assert!(got.is_err());
        } else {
            prop_assert_eq!(got.unwrap(), (a / b) as u64);
        }
    }

    /// f64 min/max propagate NaN and order -0.0 below +0.0.
    #[test]
    fn f64_min_max(a in any::<f64>(), b in any::<f64>()) {
        let min = f64::from_bits(
            apply_binary(Instr::F64Min, a.to_bits(), b.to_bits()).unwrap() );
        let max = f64::from_bits(
            apply_binary(Instr::F64Max, a.to_bits(), b.to_bits()).unwrap() );
        if a.is_nan() || b.is_nan() {
            prop_assert!(min.is_nan());
            prop_assert!(max.is_nan());
        } else if a == 0.0 && b == 0.0 {
            // min picks a negative zero if present; max a positive one.
            prop_assert_eq!(min.is_sign_negative(), a.is_sign_negative() || b.is_sign_negative());
            prop_assert_eq!(max.is_sign_positive(), a.is_sign_positive() || b.is_sign_positive());
        } else {
            prop_assert_eq!(min, a.min(b));
            prop_assert_eq!(max, a.max(b));
        }
    }

    /// f64.nearest rounds half-to-even, unlike Rust's `round`.
    #[test]
    fn f64_nearest_half_even(i in -1000i64..1000) {
        let x = i as f64 + 0.5;
        let got = f64::from_bits(apply_unary(Instr::F64Nearest, x.to_bits()).unwrap());
        // Round-half-even: i.5 rounds to the even of {i, i+1}.
        let even = if i % 2 == 0 { i as f64 } else { (i + 1) as f64 };
        prop_assert_eq!(got, even);
    }

    /// i32.trunc_f64_s traps outside the representable range and
    /// truncates toward zero inside it.
    #[test]
    fn trunc_traps_out_of_range(x in any::<f64>()) {
        let got = apply_unary(Instr::I32TruncF64S, x.to_bits());
        if x.is_nan() || x <= -2147483649.0 || x >= 2147483648.0 {
            prop_assert!(got.is_err());
        } else {
            prop_assert_eq!(got.unwrap(), (x.trunc() as i32) as u32 as u64);
        }
    }

    /// clz/ctz/popcnt agree with the hardware intrinsics.
    #[test]
    fn bit_counts(a in any::<i32>()) {
        let v = a as u32 as u64;
        prop_assert_eq!(apply_unary(Instr::I32Clz, v).unwrap(), (a as u32).leading_zeros() as u64);
        prop_assert_eq!(apply_unary(Instr::I32Ctz, v).unwrap(), (a as u32).trailing_zeros() as u64);
        prop_assert_eq!(apply_unary(Instr::I32Popcnt, v).unwrap(), (a as u32).count_ones() as u64);
    }
}
