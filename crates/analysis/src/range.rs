//! Interval (value-range) abstract interpretation over a linear op array.
//!
//! The domain tracks, per register, the *semantic* value the producing op
//! wrote: a signed-`i64` interval for integer producers and an `f64`
//! interval (plus a may-be-NaN flag) for float producers. Soundness of
//! mixing the two facets in one slot rests on wasm type-correctness:
//! every def has uniformly-typed uses, so a register written by a 32-bit
//! integer op is only ever read at 32-bit integer width, and the facet a
//! consumer reads is the facet the producer constrained.
//!
//! Clients describe their IR as a `Vec<AbsOp>` — control flow
//! ([`crate::cfg::OpFlow`]), an optional defined register, a [`Transfer`]
//! describing the value written, an optional branch [`Guard`] (for edge
//! refinement), and an optional safety [`Check`] (memory bounds, div
//! trap, float→int truncation trap). [`analyze`] runs a
//! widening/narrowing fixpoint over the [`crate::cfg::Cfg`] and the
//! result replays per-op entry states via [`Analysis::walk`].
//!
//! Consumers that *eliminate* checks emit [`Obligation`]s — the claimed
//! range fact plus an optional dominating guard op — and
//! [`check_obligations`] independently re-derives every claim from
//! scratch, rejecting any obligation whose fact is not implied by the
//! analysis or whose fact does not imply safety. [`audit`] summarises a
//! function for static reports (check counts, unreachable blocks,
//! always-trapping sites, constant-address loads).

use crate::cfg::{Cfg, OpFlow};

/// Lower/upper bounds of a 32-bit signed value, as `i64`.
pub const I32_RANGE: Interval = Interval { lo: i32::MIN as i64, hi: i32::MAX as i64 };

// ---------------------------------------------------------------------------
// Integer intervals
// ---------------------------------------------------------------------------

/// A signed-`i64` interval `[lo, hi]`. `lo > hi` encodes the empty set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The full `i64` range.
    pub const TOP: Interval = Interval { lo: i64::MIN, hi: i64::MAX };
    /// The empty interval.
    pub const EMPTY: Interval = Interval { lo: i64::MAX, hi: i64::MIN };

    /// The singleton `[v, v]`.
    pub fn exact(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`, normalised to [`Interval::EMPTY`] when `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Interval {
        if lo > hi { Interval::EMPTY } else { Interval { lo, hi } }
    }

    /// True when the interval contains no values.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// True when the interval is a single value.
    pub fn singleton(self) -> Option<i64> {
        if self.lo == self.hi { Some(self.lo) } else { None }
    }

    /// True when `v` is in the interval.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Set union (interval hull).
    pub fn join(self, other: Interval) -> Interval {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Set intersection.
    pub fn meet(self, other: Interval) -> Interval {
        Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// True when `self ⊆ other`.
    pub fn subset(self, other: Interval) -> bool {
        self.is_empty() || (other.lo <= self.lo && self.hi <= other.hi)
    }

    /// The built-in widening thresholds (always part of the set).
    pub const THRESHOLDS: [i64; 10] = [
        i64::MIN,
        i32::MIN as i64,
        -1,
        0,
        1,
        255,
        65535,
        i32::MAX as i64,
        u32::MAX as i64,
        i64::MAX,
    ];

    /// Threshold widening: bounds that grew past `self` jump outward to
    /// the nearest member of the threshold set, guaranteeing each bound
    /// changes only a bounded number of times. `extra` adds
    /// program-derived landing points (guard constants), so loop bounds
    /// are not overshot straight to a type extreme.
    pub fn widen_with(self, next: Interval, extra: &[i64]) -> Interval {
        if self.is_empty() {
            return next;
        }
        if next.is_empty() {
            return self;
        }
        let cands = |pick: &dyn Fn(i64) -> bool, max_side: bool| -> i64 {
            let builtin = Self::THRESHOLDS.iter().copied().filter(|&t| pick(t));
            let seeded = extra.iter().copied().filter(|&t| pick(t));
            if max_side {
                builtin.chain(seeded).max().unwrap_or(i64::MIN)
            } else {
                builtin.chain(seeded).min().unwrap_or(i64::MAX)
            }
        };
        let lo = if next.lo >= self.lo {
            self.lo
        } else {
            // Largest threshold <= next.lo (i64::MIN always qualifies).
            cands(&|t| t <= next.lo, true)
        };
        let hi = if next.hi <= self.hi {
            self.hi
        } else {
            cands(&|t| t >= next.hi, false)
        };
        Interval { lo, hi }
    }

    /// [`Interval::widen_with`] over the built-in thresholds only.
    pub fn widen(self, next: Interval) -> Interval {
        self.widen_with(next, &[])
    }
}

// ---------------------------------------------------------------------------
// Float intervals
// ---------------------------------------------------------------------------

/// An `f64` interval `[lo, hi]` plus a may-be-NaN flag. `f32` values are
/// tracked exactly as their `f64` widening. `lo > hi` encodes "no
/// non-NaN value".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FInterval {
    /// Inclusive lower bound of non-NaN values.
    pub lo: f64,
    /// Inclusive upper bound of non-NaN values.
    pub hi: f64,
    /// Whether the value may be NaN.
    pub nan: bool,
}

impl FInterval {
    /// Any float, including NaN.
    pub const TOP: FInterval = FInterval { lo: f64::NEG_INFINITY, hi: f64::INFINITY, nan: true };
    /// No non-NaN value and not NaN (empty).
    pub const EMPTY: FInterval = FInterval { lo: f64::INFINITY, hi: f64::NEG_INFINITY, nan: false };

    /// The singleton `[v, v]` (NaN maps to nan-only).
    pub fn exact(v: f64) -> FInterval {
        if v.is_nan() {
            FInterval { lo: f64::INFINITY, hi: f64::NEG_INFINITY, nan: true }
        } else {
            FInterval { lo: v, hi: v, nan: false }
        }
    }

    /// `[lo, hi]` non-NaN values plus an explicit NaN flag.
    pub fn new(lo: f64, hi: f64, nan: bool) -> FInterval {
        if lo > hi || lo.is_nan() || hi.is_nan() {
            FInterval { lo: f64::INFINITY, hi: f64::NEG_INFINITY, nan }
        } else {
            FInterval { lo, hi, nan }
        }
    }

    /// True when no value (NaN or otherwise) is possible.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi && !self.nan
    }

    /// Set union.
    pub fn join(self, other: FInterval) -> FInterval {
        let nan = self.nan || other.nan;
        if self.lo > self.hi {
            return FInterval { nan, ..other };
        }
        if other.lo > other.hi {
            return FInterval { nan, ..self };
        }
        FInterval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi), nan }
    }

    /// Widening: any growth jumps straight to the affected infinity, and
    /// a newly-possible NaN sticks.
    pub fn widen(self, next: FInterval) -> FInterval {
        if self.lo > self.hi {
            return next;
        }
        if next.lo > next.hi {
            return FInterval { nan: self.nan || next.nan, ..self };
        }
        FInterval {
            lo: if next.lo < self.lo { f64::NEG_INFINITY } else { self.lo },
            hi: if next.hi > self.hi { f64::INFINITY } else { self.hi },
            nan: self.nan || next.nan,
        }
    }

    /// True when `self ⊆ other`.
    pub fn subset(self, other: FInterval) -> bool {
        if self.nan && !other.nan {
            return false;
        }
        self.lo > self.hi || (other.lo <= self.lo && self.hi <= other.hi)
    }
}

/// Largest `f32` (as `f64`) strictly below `x`, for outward rounding of
/// `f64` bounds into `f32` arithmetic.
fn f32_below(x: f64) -> f64 {
    let y = x as f32;
    if (y as f64) <= x { y as f64 } else { next_down32(y) as f64 }
}

/// Smallest `f32` (as `f64`) at or above `x`.
fn f32_above(x: f64) -> f64 {
    let y = x as f32;
    if (y as f64) >= x { y as f64 } else { next_up32(y) as f64 }
}

fn next_down32(x: f32) -> f32 {
    if x.is_nan() || x == f32::NEG_INFINITY {
        return x;
    }
    if x == 0.0 {
        return -f32::from_bits(1);
    }
    let bits = x.to_bits();
    f32::from_bits(if x > 0.0 { bits - 1 } else { bits + 1 })
}

fn next_up32(x: f32) -> f32 {
    if x.is_nan() || x == f32::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f32::from_bits(1);
    }
    let bits = x.to_bits();
    f32::from_bits(if x > 0.0 { bits + 1 } else { bits - 1 })
}

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// Both facets of one register slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsVal {
    /// Integer facet (semantic signed value of the producer).
    pub int: Interval,
    /// Float facet.
    pub fl: FInterval,
}

impl AbsVal {
    /// Unconstrained.
    pub const TOP: AbsVal = AbsVal { int: Interval::TOP, fl: FInterval::TOP };

    /// The zero-initialised slot: integer 0 and float +0.0.
    pub fn zero() -> AbsVal {
        AbsVal { int: Interval::exact(0), fl: FInterval::exact(0.0) }
    }

    /// An integer-producing op's result (float facet unconstrained).
    pub fn int(iv: Interval) -> AbsVal {
        AbsVal { int: iv, fl: FInterval::TOP }
    }

    /// A float-producing op's result (integer facet unconstrained).
    pub fn float(fv: FInterval) -> AbsVal {
        AbsVal { int: Interval::TOP, fl: fv }
    }

    /// A raw-bits constant: the type is erased at the IR level, so both
    /// facets join every width's reading of the bits.
    pub fn of_bits(bits: u64) -> AbsVal {
        let i64r = Interval::exact(bits as i64);
        let i32r = Interval::exact(bits as u32 as i32 as i64);
        let f64r = FInterval::exact(f64::from_bits(bits));
        let f32r = FInterval::exact(f32::from_bits(bits as u32) as f64);
        AbsVal { int: i64r.join(i32r), fl: f64r.join(f32r) }
    }

    /// Set union, facet-wise.
    pub fn join(self, other: AbsVal) -> AbsVal {
        AbsVal { int: self.int.join(other.int), fl: self.fl.join(other.fl) }
    }

    /// Widening, facet-wise, with extra integer landing thresholds.
    pub fn widen_with(self, next: AbsVal, extra: &[i64]) -> AbsVal {
        AbsVal { int: self.int.widen_with(next.int, extra), fl: self.fl.widen(next.fl) }
    }

    /// Widening, facet-wise.
    pub fn widen(self, next: AbsVal) -> AbsVal {
        self.widen_with(next, &[])
    }
}

// ---------------------------------------------------------------------------
// Op vocabulary
// ---------------------------------------------------------------------------

/// Operand of a transfer: a register or an immediate (raw bits,
/// interpreted at the consuming op's width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Register index.
    Reg(u32),
    /// Immediate bits.
    Const(u64),
}

/// Integer operation width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// 32-bit.
    W32,
    /// 64-bit.
    W64,
}

impl Width {
    fn range(self) -> Interval {
        match self {
            Width::W32 => I32_RANGE,
            Width::W64 => Interval::TOP,
        }
    }

    /// Minimum signed value at this width.
    pub fn min_signed(self) -> i64 {
        match self {
            Width::W32 => i32::MIN as i64,
            Width::W64 => i64::MIN,
        }
    }
}

/// Comparison predicates (wasm relops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CmpKind {
    Eq,
    Ne,
    LtS,
    LtU,
    GtS,
    GtU,
    LeS,
    LeU,
    GeS,
    GeU,
}

impl CmpKind {
    /// The predicate that holds exactly when `self` does not.
    pub fn negate(self) -> CmpKind {
        match self {
            CmpKind::Eq => CmpKind::Ne,
            CmpKind::Ne => CmpKind::Eq,
            CmpKind::LtS => CmpKind::GeS,
            CmpKind::LtU => CmpKind::GeU,
            CmpKind::GtS => CmpKind::LeS,
            CmpKind::GtU => CmpKind::LeU,
            CmpKind::LeS => CmpKind::GtS,
            CmpKind::LeU => CmpKind::GtU,
            CmpKind::GeS => CmpKind::LtS,
            CmpKind::GeU => CmpKind::LtU,
        }
    }
}

/// Integer binary operators with interval transfer functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum IntBin {
    Add,
    Sub,
    Mul,
    DivS,
    DivU,
    RemS,
    RemU,
    And,
    Or,
    Xor,
    Shl,
    ShrS,
    ShrU,
    Rot,
}

/// Float binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FBin {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    CopySign,
}

/// Binary op descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOpKind {
    /// Integer arithmetic at a width.
    Int(Width, IntBin),
    /// Float arithmetic at a width.
    Float(Width, FBin),
    /// Any comparison: result is `[0, 1]`.
    Cmp,
}

/// Unary op descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    /// `eqz`: result `[0, 1]`.
    Eqz,
    /// `clz`/`ctz`/`popcnt` at a width: `[0, bits]`.
    BitCount(Width),
    /// `i32.wrap_i64`.
    Wrap,
    /// `i64.extend_i32_s`.
    ExtendS,
    /// `i64.extend_i32_u`.
    ExtendU,
    /// `extendN_s` within a width: result in `[-2^(n-1), 2^(n-1)-1]`.
    Sext {
        /// Number of low bits sign-extended.
        bits: u32,
    },
    /// Float→int truncation; range of the *successful* result.
    Trunc {
        /// Signedness of the destination integer.
        signed: bool,
        /// Destination integer width.
        dst: Width,
    },
    /// Int→float conversion.
    Convert {
        /// Signedness of the source integer.
        signed: bool,
        /// Source integer width.
        src: Width,
        /// Destination float width.
        dst: Width,
    },
    /// `f32.demote_f64`.
    Demote,
    /// `f64.promote_f32`.
    Promote,
    /// Float negate at a width.
    FNeg(Width),
    /// Float abs at a width.
    FAbs(Width),
    /// Monotone float rounding/sqrt at a width.
    FMono(Width, MonoF),
    /// Bit reinterpretation (both facets unconstrained).
    Reinterpret,
}

/// Monotone single-operand float functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum MonoF {
    Sqrt,
    Ceil,
    Floor,
    Trunc,
    Nearest,
}

/// How an op computes its defined register.
#[derive(Debug, Clone, PartialEq)]
pub enum Transfer {
    /// Constant bits (type-erased).
    Bits(u64),
    /// Copy of another register.
    Copy(u32),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOpKind,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Fused pair `t = op1(a, b); rd = swapped ? op2(c, t) : op2(t, c)`.
    Chain {
        /// Inner operator.
        op1: BinOpKind,
        /// Outer operator.
        op2: BinOpKind,
        /// Inner left operand.
        a: Operand,
        /// Inner right operand.
        b: Operand,
        /// Outer second operand.
        c: Operand,
        /// Whether `c` is the *left* operand of `op2`.
        swapped: bool,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnKind,
        /// Operand register.
        a: u32,
    },
    /// Either of two registers (select).
    Join(u32, u32),
    /// Opaque but integer-bounded (loads of known width, memory.size…).
    Range(Interval),
    /// Unconstrained.
    Opaque,
}

/// A branch condition: the branch is taken exactly when `kind(a, b)`
/// holds at width `w`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guard {
    /// Predicate.
    pub kind: CmpKind,
    /// Comparison width.
    pub w: Width,
    /// Left operand.
    pub a: Operand,
    /// Right operand.
    pub b: Operand,
}

/// A runtime safety check attached to an op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Linear-memory access: traps unless
    /// `addr_u32 + offset + len <= memory_bytes`.
    Mem {
        /// Address register (read as u32).
        addr: u32,
        /// Static offset.
        offset: u64,
        /// Access width in bytes.
        len: u64,
    },
    /// Integer division/remainder trap guard.
    Div {
        /// Width.
        w: Width,
        /// Signed (adds the `MIN / -1` overflow case for div).
        signed: bool,
        /// Divisor, when identifiable (`None` ⇒ unprovable).
        divisor: Option<Operand>,
        /// Dividend, when identifiable (helps exclude overflow).
        dividend: Option<Operand>,
    },
    /// Float→int truncation trap guard.
    Trunc {
        /// Source float register.
        src: u32,
        /// Signedness of the destination.
        signed: bool,
        /// Destination width.
        dst: Width,
    },
}

/// One op, as the analysis sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsOp {
    /// Control-flow facts.
    pub flow: OpFlow,
    /// Defined register, if any.
    pub def: Option<u32>,
    /// Value transfer for the defined register.
    pub transfer: Transfer,
    /// Branch condition (branching ops only).
    pub guard: Option<Guard>,
    /// Safety check this op performs at runtime.
    pub check: Option<Check>,
}

impl AbsOp {
    /// A straight-line op with no def, guard, or check.
    pub fn nop() -> AbsOp {
        AbsOp {
            flow: OpFlow::linear(),
            def: None,
            transfer: Transfer::Opaque,
            guard: None,
            check: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Reading operands
// ---------------------------------------------------------------------------

/// The integer facet of `o` read at width `w` (32-bit reads meet with
/// the `i32` range — sound because a 32-bit consumer only ever reads
/// registers whose producers wrote `i32`-ranged semantic values).
pub fn read_int(state: &[AbsVal], o: Operand, w: Width) -> Interval {
    match o {
        Operand::Const(bits) => Interval::exact(match w {
            Width::W32 => bits as u32 as i32 as i64,
            Width::W64 => bits as i64,
        }),
        Operand::Reg(r) => state.get(r as usize).map_or(AbsVal::TOP, |v| *v).int.meet(w.range()),
    }
}

/// The float facet of `o` read at width `w`.
pub fn read_float(state: &[AbsVal], o: Operand, w: Width) -> FInterval {
    match o {
        Operand::Const(bits) => FInterval::exact(match w {
            Width::W32 => f32::from_bits(bits as u32) as f64,
            Width::W64 => f64::from_bits(bits),
        }),
        Operand::Reg(r) => state.get(r as usize).map_or(AbsVal::TOP, |v| *v).fl,
    }
}

// ---------------------------------------------------------------------------
// Integer transfer kernels
// ---------------------------------------------------------------------------

fn fit(w: Width, lo: i128, hi: i128) -> Interval {
    let r = w.range();
    if lo >= r.lo as i128 && hi <= r.hi as i128 {
        Interval { lo: lo as i64, hi: hi as i64 }
    } else {
        r
    }
}

/// Smallest `2^k - 1 >= h` (for `h >= 0`).
fn pow2_mask(h: i64) -> i64 {
    let mut m: i64 = 0;
    while m < h && m < i64::MAX / 2 {
        m = m * 2 + 1;
    }
    m.max(h)
}

/// Unsigned view `[ulo, uhi]` (as u128) of a signed interval at width
/// `w`, or `None` when the interval spans the sign boundary.
fn unsigned_view(w: Width, iv: Interval) -> Option<(u128, u128)> {
    if iv.is_empty() {
        return None;
    }
    match w {
        Width::W32 => {
            if iv.lo >= 0 {
                Some((iv.lo as u128, iv.hi as u128))
            } else if iv.hi < 0 {
                Some((iv.lo as i32 as u32 as u128, iv.hi as i32 as u32 as u128))
            } else {
                None
            }
        }
        Width::W64 => {
            if iv.lo >= 0 {
                Some((iv.lo as u128, iv.hi as u128))
            } else if iv.hi < 0 {
                Some((iv.lo as u64 as u128, iv.hi as u64 as u128))
            } else {
                None
            }
        }
    }
}

/// Signed result interval for an unsigned-valued result `[0, uhi]`.
fn from_unsigned_max(w: Width, uhi: u128) -> Interval {
    match w {
        Width::W32 => {
            if uhi <= i32::MAX as u128 {
                Interval { lo: 0, hi: uhi as i64 }
            } else {
                I32_RANGE
            }
        }
        Width::W64 => {
            if uhi <= i64::MAX as u128 {
                Interval { lo: 0, hi: uhi as i64 }
            } else {
                Interval::TOP
            }
        }
    }
}

/// Shift amount range: wasm masks the amount by `bits - 1`.
fn shift_amount(w: Width, b: Interval) -> (u32, u32) {
    let bits = match w {
        Width::W32 => 32i64,
        Width::W64 => 64,
    };
    if b.lo >= 0 && b.hi < bits {
        (b.lo as u32, b.hi as u32)
    } else {
        (0, bits as u32 - 1)
    }
}

fn int_bin(w: Width, k: IntBin, a: Interval, b: Interval) -> Interval {
    if a.is_empty() || b.is_empty() {
        return Interval::EMPTY;
    }
    let top = w.range();
    match k {
        IntBin::Add => fit(w, a.lo as i128 + b.lo as i128, a.hi as i128 + b.hi as i128),
        IntBin::Sub => fit(w, a.lo as i128 - b.hi as i128, a.hi as i128 - b.lo as i128),
        IntBin::Mul => {
            let ps = [
                a.lo as i128 * b.lo as i128,
                a.lo as i128 * b.hi as i128,
                a.hi as i128 * b.lo as i128,
                a.hi as i128 * b.hi as i128,
            ];
            fit(w, ps.iter().copied().min().unwrap_or(0), ps.iter().copied().max().unwrap_or(0))
        }
        IntBin::DivS | IntBin::RemS => {
            // |result| is bounded by |dividend| (quotient magnitude can
            // only shrink for |divisor| >= 1; the MIN/-1 case traps).
            let m = (a.lo as i128).abs().max((a.hi as i128).abs());
            let iv = fit(w, -m, m);
            if k == IntBin::RemS && a.lo >= 0 {
                iv.meet(Interval { lo: 0, hi: a.hi })
            } else {
                iv
            }
        }
        IntBin::DivU => match unsigned_view(w, a) {
            Some((_, uhi)) => from_unsigned_max(w, uhi),
            None => from_unsigned_max(w, u128::MAX),
        },
        IntBin::RemU => {
            // result <u divisor (when divisor != 0) and result <=u dividend.
            let mut uhi = match unsigned_view(w, a) {
                Some((_, ua)) => ua,
                None => u128::MAX,
            };
            if let Some((blo, bhi)) = unsigned_view(w, b) {
                if blo >= 1 {
                    uhi = uhi.min(bhi - 1);
                }
            }
            from_unsigned_max(w, uhi)
        }
        IntBin::And => {
            // AND with a non-negative operand clears the sign bit and
            // cannot exceed that operand.
            match (a.lo >= 0, b.lo >= 0) {
                (true, true) => Interval { lo: 0, hi: a.hi.min(b.hi) },
                (true, false) => Interval { lo: 0, hi: a.hi },
                (false, true) => Interval { lo: 0, hi: b.hi },
                (false, false) => top,
            }
        }
        IntBin::Or | IntBin::Xor => {
            if a.lo >= 0 && b.lo >= 0 {
                Interval { lo: 0, hi: pow2_mask(a.hi.max(b.hi)) }
            } else {
                top
            }
        }
        IntBin::Shl => {
            let (slo, shi) = shift_amount(w, b);
            if a.lo >= 0 {
                let hi = (a.hi as i128) << shi;
                if hi <= top.hi as i128 {
                    Interval { lo: a.lo << slo, hi: hi as i64 }
                } else {
                    top
                }
            } else {
                top
            }
        }
        IntBin::ShrS => {
            let (slo, shi) = shift_amount(w, b);
            let cands =
                [a.lo >> slo, a.lo >> shi, a.hi >> slo, a.hi >> shi];
            Interval {
                lo: cands.iter().copied().min().unwrap_or(top.lo),
                hi: cands.iter().copied().max().unwrap_or(top.hi),
            }
        }
        IntBin::ShrU => {
            let (slo, shi) = shift_amount(w, b);
            if a.lo >= 0 {
                // Non-negative: unsigned == signed shift.
                Interval { lo: a.lo >> shi, hi: a.hi >> slo }
            } else if slo >= 1 {
                let umax = match w {
                    Width::W32 => u32::MAX as u128,
                    Width::W64 => u64::MAX as u128,
                };
                from_unsigned_max(w, umax >> slo)
            } else {
                top
            }
        }
        IntBin::Rot => top,
    }
}

// ---------------------------------------------------------------------------
// Float transfer kernels
// ---------------------------------------------------------------------------

/// Round an interval's bounds outward to `f32`-representable values when
/// the op executes in `f32`.
fn at_width(w: Width, f: FInterval) -> FInterval {
    match w {
        Width::W64 => f,
        Width::W32 => {
            if f.lo > f.hi {
                f
            } else {
                FInterval { lo: f32_below(f.lo), hi: f32_above(f.hi), nan: f.nan }
            }
        }
    }
}

fn unbounded(f: FInterval) -> bool {
    f.lo == f64::NEG_INFINITY || f.hi == f64::INFINITY
}

fn contains_zero(f: FInterval) -> bool {
    f.lo <= 0.0 && f.hi >= 0.0
}

fn float_bin(w: Width, k: FBin, a0: FInterval, b0: FInterval) -> FInterval {
    let a = at_width(w, a0);
    let b = at_width(w, b0);
    if a.is_empty() || b.is_empty() {
        return FInterval::EMPTY;
    }
    let nan = a.nan || b.nan;
    if a.lo > a.hi || b.lo > b.hi {
        // One side is NaN-only: arithmetic yields NaN.
        return FInterval { lo: f64::INFINITY, hi: f64::NEG_INFINITY, nan: true };
    }
    let r = match k {
        FBin::Add => {
            let (lo, hi) = (a.lo + b.lo, a.hi + b.hi);
            if lo.is_nan() || hi.is_nan() {
                FInterval::TOP
            } else {
                FInterval { lo, hi, nan }
            }
        }
        FBin::Sub => {
            let (lo, hi) = (a.lo - b.hi, a.hi - b.lo);
            if lo.is_nan() || hi.is_nan() {
                FInterval::TOP
            } else {
                FInterval { lo, hi, nan }
            }
        }
        FBin::Mul => {
            // 0 * inf = NaN can arise away from endpoints; go TOP when
            // an unbounded interval meets one containing zero.
            if (unbounded(a) && contains_zero(b)) || (unbounded(b) && contains_zero(a)) {
                FInterval::TOP
            } else {
                let ps = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
                if ps.iter().any(|p| p.is_nan()) {
                    FInterval::TOP
                } else {
                    FInterval {
                        lo: ps.iter().copied().fold(f64::INFINITY, f64::min),
                        hi: ps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                        nan,
                    }
                }
            }
        }
        FBin::Div => {
            if contains_zero(b) || (unbounded(a) && unbounded(b)) {
                FInterval::TOP
            } else {
                let ps = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
                if ps.iter().any(|p| p.is_nan()) {
                    FInterval::TOP
                } else {
                    FInterval {
                        lo: ps.iter().copied().fold(f64::INFINITY, f64::min),
                        hi: ps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                        nan,
                    }
                }
            }
        }
        FBin::Min => FInterval { lo: a.lo.min(b.lo), hi: a.hi.min(b.hi), nan },
        FBin::Max => FInterval { lo: a.lo.max(b.lo), hi: a.hi.max(b.hi), nan },
        FBin::CopySign => {
            let m = a.lo.abs().max(a.hi.abs());
            FInterval { lo: -m, hi: m, nan: a.nan }
        }
    };
    at_width(w, r)
}

// ---------------------------------------------------------------------------
// Transfer evaluation
// ---------------------------------------------------------------------------

fn eval_bin(state: &[AbsVal], op: BinOpKind, a: Operand, b: Operand) -> AbsVal {
    match op {
        BinOpKind::Int(w, k) => {
            AbsVal::int(int_bin(w, k, read_int(state, a, w), read_int(state, b, w)))
        }
        BinOpKind::Float(w, k) => {
            AbsVal::float(float_bin(w, k, read_float(state, a, w), read_float(state, b, w)))
        }
        BinOpKind::Cmp => AbsVal::int(Interval { lo: 0, hi: 1 }),
    }
}

/// Evaluate a binary op on already-read abstract values (for chains,
/// where the intermediate has no register).
fn eval_bin_vals(op: BinOpKind, a: AbsVal, b: AbsVal) -> AbsVal {
    match op {
        BinOpKind::Int(w, k) => {
            AbsVal::int(int_bin(w, k, a.int.meet(w.range()), b.int.meet(w.range())))
        }
        BinOpKind::Float(w, k) => {
            AbsVal::float(float_bin(w, k, at_width(w, a.fl), at_width(w, b.fl)))
        }
        BinOpKind::Cmp => AbsVal::int(Interval { lo: 0, hi: 1 }),
    }
}

fn operand_val(state: &[AbsVal], o: Operand) -> AbsVal {
    match o {
        Operand::Reg(r) => state.get(r as usize).map_or(AbsVal::TOP, |v| *v),
        Operand::Const(bits) => AbsVal::of_bits(bits),
    }
}

fn eval_un(state: &[AbsVal], op: UnKind, a: u32) -> AbsVal {
    let v = state.get(a as usize).map_or(AbsVal::TOP, |v| *v);
    match op {
        UnKind::Eqz => AbsVal::int(Interval { lo: 0, hi: 1 }),
        UnKind::BitCount(w) => AbsVal::int(Interval {
            lo: 0,
            hi: match w {
                Width::W32 => 32,
                Width::W64 => 64,
            },
        }),
        UnKind::Wrap => {
            let i = v.int;
            if i.subset(I32_RANGE) {
                AbsVal::int(i)
            } else {
                AbsVal::int(I32_RANGE)
            }
        }
        UnKind::ExtendS => AbsVal::int(v.int.meet(I32_RANGE)),
        UnKind::ExtendU => {
            let i = v.int.meet(I32_RANGE);
            if i.lo >= 0 {
                AbsVal::int(i)
            } else {
                AbsVal::int(Interval { lo: 0, hi: u32::MAX as i64 })
            }
        }
        UnKind::Sext { bits } => {
            let half = 1i64 << (bits - 1);
            AbsVal::int(Interval { lo: -half, hi: half - 1 })
        }
        UnKind::Trunc { signed, dst } => {
            let f = v.fl;
            if f.lo > f.hi {
                return AbsVal::int(dst.range());
            }
            let clamp = |x: f64, lo: i64, hi: i64| -> i64 {
                let t = x.trunc();
                if t <= lo as f64 {
                    lo
                } else if t >= hi as f64 {
                    hi
                } else {
                    t as i64
                }
            };
            if signed {
                let r = dst.range();
                AbsVal::int(Interval::new(clamp(f.lo, r.lo, r.hi), clamp(f.hi, r.lo, r.hi)))
            } else {
                // Unsigned result, then signed reading of the producer.
                let umax = match dst {
                    Width::W32 => u32::MAX as u128,
                    Width::W64 => u64::MAX as u128,
                };
                let uhi = if f.hi <= 0.0 {
                    0
                } else if f.hi >= umax as f64 {
                    umax
                } else {
                    f.hi.trunc() as u128
                };
                AbsVal::int(from_unsigned_max(dst, uhi))
            }
        }
        UnKind::Convert { signed, src, dst } => {
            let i = v.int.meet(src.range());
            if i.is_empty() {
                return AbsVal::float(FInterval::EMPTY);
            }
            let (lo, hi) = if signed || i.lo >= 0 {
                (i.lo as f64, i.hi as f64)
            } else {
                // Unsigned reading of a sign-spanning interval.
                match src {
                    Width::W32 => (0.0, u32::MAX as f64),
                    Width::W64 => (0.0, u64::MAX as f64),
                }
            };
            // int-as-f64 rounds to nearest; nudge outward to stay sound
            // for 64-bit sources that don't fit exactly.
            let lo = if lo > i64::MIN as f64 { lo - 1.0 } else { lo };
            let hi = if hi < u64::MAX as f64 { hi + 1.0 } else { hi };
            AbsVal::float(at_width(dst, FInterval { lo, hi, nan: false }))
        }
        UnKind::Demote => AbsVal::float(at_width(Width::W32, v.fl)),
        UnKind::Promote => AbsVal::float(v.fl),
        UnKind::FNeg(w) => {
            let f = at_width(w, v.fl);
            if f.lo > f.hi {
                AbsVal::float(f)
            } else {
                AbsVal::float(FInterval { lo: -f.hi, hi: -f.lo, nan: f.nan })
            }
        }
        UnKind::FAbs(w) => {
            let f = at_width(w, v.fl);
            if f.lo > f.hi {
                AbsVal::float(f)
            } else {
                let hi = f.lo.abs().max(f.hi.abs());
                let lo = if contains_zero(f) { 0.0 } else { f.lo.abs().min(f.hi.abs()) };
                AbsVal::float(FInterval { lo, hi, nan: f.nan })
            }
        }
        UnKind::FMono(w, m) => {
            let f = at_width(w, v.fl);
            if f.lo > f.hi {
                return AbsVal::float(f);
            }
            let apply = |x: f64| match m {
                MonoF::Sqrt => x.sqrt(),
                MonoF::Ceil => x.ceil(),
                MonoF::Floor => x.floor(),
                MonoF::Trunc => x.trunc(),
                MonoF::Nearest => {
                    // round-half-to-even; floor/ceil bracket it.
                    x.floor()
                }
            };
            let apply_hi = |x: f64| match m {
                MonoF::Nearest => x.ceil(),
                _ => apply(x),
            };
            let (mut lo, hi) = (apply(f.lo), apply_hi(f.hi));
            let mut nan = f.nan;
            if m == MonoF::Sqrt && f.lo < 0.0 {
                nan = true;
                lo = 0.0;
            }
            if lo.is_nan() || hi.is_nan() {
                AbsVal::float(FInterval { lo: f64::NEG_INFINITY, hi: f64::INFINITY, nan: true })
            } else {
                AbsVal::float(at_width(w, FInterval { lo, hi, nan }))
            }
        }
        UnKind::Reinterpret => AbsVal::TOP,
    }
}

/// The abstract value an op's transfer produces in `state`.
pub fn eval_transfer(state: &[AbsVal], t: &Transfer) -> AbsVal {
    match t {
        Transfer::Bits(bits) => AbsVal::of_bits(*bits),
        Transfer::Copy(r) => state.get(*r as usize).map_or(AbsVal::TOP, |v| *v),
        Transfer::Bin { op, a, b } => eval_bin(state, *op, *a, *b),
        Transfer::Chain { op1, op2, a, b, c, swapped } => {
            let t = eval_bin_vals(*op1, operand_val(state, *a), operand_val(state, *b));
            let cv = operand_val(state, *c);
            if *swapped {
                eval_bin_vals(*op2, cv, t)
            } else {
                eval_bin_vals(*op2, t, cv)
            }
        }
        Transfer::Un { op, a } => eval_un(state, *op, *a),
        Transfer::Join(a, b) => {
            operand_val(state, Operand::Reg(*a)).join(operand_val(state, Operand::Reg(*b)))
        }
        Transfer::Range(iv) => AbsVal::int(*iv),
        Transfer::Opaque => AbsVal::TOP,
    }
}

// ---------------------------------------------------------------------------
// Guard refinement
// ---------------------------------------------------------------------------

fn sat_add(v: i64, d: i64) -> i64 {
    v.saturating_add(d)
}

/// Refined `(a, b)` intervals under predicate `kind` at width `w`, or
/// `None` when the predicate is infeasible for the current intervals
/// (the edge is unreachable).
fn refine_pair(kind: CmpKind, ia: Interval, ib: Interval) -> Option<(Interval, Interval)> {
    if ia.is_empty() || ib.is_empty() {
        return None;
    }
    let (ra, rb) = match kind {
        CmpKind::Eq => {
            let m = ia.meet(ib);
            (m, m)
        }
        CmpKind::Ne => {
            let mut ra = ia;
            let mut rb = ib;
            if let Some(v) = ib.singleton() {
                if ra.lo == v {
                    ra = Interval::new(sat_add(v, 1), ra.hi);
                } else if ra.hi == v {
                    ra = Interval::new(ra.lo, sat_add(v, -1));
                }
            }
            if let Some(v) = ia.singleton() {
                if rb.lo == v {
                    rb = Interval::new(sat_add(v, 1), rb.hi);
                } else if rb.hi == v {
                    rb = Interval::new(rb.lo, sat_add(v, -1));
                }
            }
            if ia.singleton().is_some() && ia == ib {
                return None;
            }
            (ra, rb)
        }
        CmpKind::LtS => (
            ia.meet(Interval::new(i64::MIN, sat_add(ib.hi, -1))),
            ib.meet(Interval::new(sat_add(ia.lo, 1), i64::MAX)),
        ),
        CmpKind::LeS => {
            (ia.meet(Interval::new(i64::MIN, ib.hi)), ib.meet(Interval::new(ia.lo, i64::MAX)))
        }
        CmpKind::GtS => (
            ia.meet(Interval::new(sat_add(ib.lo, 1), i64::MAX)),
            ib.meet(Interval::new(i64::MIN, sat_add(ia.hi, -1))),
        ),
        CmpKind::GeS => {
            (ia.meet(Interval::new(ib.lo, i64::MAX)), ib.meet(Interval::new(i64::MIN, ia.hi)))
        }
        // Unsigned predicates: refinements are justified only when the
        // relevant side is known non-negative (then unsigned order
        // coincides with signed order on the learned bound).
        CmpKind::LtU => {
            let ra = if ib.lo >= 0 {
                ia.meet(Interval::new(0, sat_add(ib.hi, -1)))
            } else {
                ia
            };
            let rb = if ib.lo >= 0 && ia.lo >= 0 {
                ib.meet(Interval::new(sat_add(ia.lo, 1), i64::MAX))
            } else {
                ib
            };
            (ra, rb)
        }
        CmpKind::LeU => {
            let ra = if ib.lo >= 0 { ia.meet(Interval::new(0, ib.hi)) } else { ia };
            let rb = if ib.lo >= 0 && ia.lo >= 0 {
                ib.meet(Interval::new(ia.lo, i64::MAX))
            } else {
                ib
            };
            (ra, rb)
        }
        CmpKind::GtU => {
            let ra = if ia.lo >= 0 && ib.lo >= 0 {
                ia.meet(Interval::new(sat_add(ib.lo, 1), i64::MAX))
            } else {
                ia
            };
            let rb = if ia.lo >= 0 {
                ib.meet(Interval::new(0, sat_add(ia.hi, -1)))
            } else {
                ib
            };
            (ra, rb)
        }
        CmpKind::GeU => {
            let ra = if ia.lo >= 0 && ib.lo >= 0 {
                ia.meet(Interval::new(ib.lo, i64::MAX))
            } else {
                ia
            };
            let rb = if ia.lo >= 0 { ib.meet(Interval::new(0, ia.hi)) } else { ib };
            (ra, rb)
        }
    };
    if ra.is_empty() || rb.is_empty() {
        return None;
    }
    Some((ra, rb))
}

/// Writes `state` with `guard` (or its negation, for the fall-through
/// edge) applied into `out`. Returns false, leaving `out` unspecified,
/// when the edge is infeasible.
fn refine_into(state: &[AbsVal], guard: &Guard, taken: bool, out: &mut Vec<AbsVal>) -> bool {
    let kind = if taken { guard.kind } else { guard.kind.negate() };
    let ia = read_int(state, guard.a, guard.w);
    let ib = read_int(state, guard.b, guard.w);
    let Some((ra, rb)) = refine_pair(kind, ia, ib) else { return false };
    out.clear();
    out.extend_from_slice(state);
    for (o, r) in [(guard.a, ra), (guard.b, rb)] {
        if let Operand::Reg(reg) = o {
            if let Some(slot) = out.get_mut(reg as usize) {
                slot.int = slot.int.meet(r);
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Fixpoint
// ---------------------------------------------------------------------------

/// Result of [`analyze`]: the CFG plus per-block entry states (`None`
/// for blocks the analysis proves unreachable).
pub struct Analysis {
    /// The control-flow graph the fixpoint ran over.
    pub cfg: Cfg,
    /// Per-block entry state, indexed by block.
    pub entry: Vec<Option<Vec<AbsVal>>>,
}

fn initial_state(nregs: usize, nparams: usize) -> Vec<AbsVal> {
    // Params are unconstrained; every other slot is zero-initialised by
    // the execution engines (mirroring wasm local zero-init).
    (0..nregs).map(|r| if r < nparams { AbsVal::TOP } else { AbsVal::zero() }).collect()
}

/// Applies the transfers of `ops[start..end]` to `state` in place;
/// `visit` sees each op's index and the state *before* its transfer.
fn transfer_ops(
    ops: &[AbsOp],
    (start, end): (usize, usize),
    state: &mut [AbsVal],
    mut visit: impl FnMut(usize, &[AbsVal]),
) {
    for (i, op) in ops.iter().enumerate().take(end).skip(start) {
        visit(i, state);
        if let Some(rd) = op.def {
            let v = eval_transfer(state, &op.transfer);
            if let Some(slot) = state.get_mut(rd as usize) {
                *slot = v;
            }
        }
    }
}

/// True when two values are the same bits (`==` treats `-0.0` and
/// `0.0` as equal; the fixpoint must not).
fn same_bits(a: &AbsVal, b: &AbsVal) -> bool {
    a.int == b.int
        && a.fl.lo.to_bits() == b.fl.lo.to_bits()
        && a.fl.hi.to_bits() == b.fl.hi.to_bits()
        && a.fl.nan == b.fl.nan
}

/// The buffers one fixpoint reuses for every block it flows, so a flow
/// allocates nothing once they have grown to size.
struct Flow {
    /// The state being pushed through a block's ops.
    state: Vec<AbsVal>,
    /// Out-edge states `(successor, state)` of the block last flowed;
    /// only the first `n` are live, one per distinct successor.
    edges: Vec<(usize, Vec<AbsVal>)>,
    n: usize,
    /// Scratch for a refined edge that joins an existing one, and for
    /// [`merge`]'s candidate entry state.
    tmp: Vec<AbsVal>,
}

impl Flow {
    fn new() -> Flow {
        Flow { state: Vec::new(), edges: Vec::new(), n: 0, tmp: Vec::new() }
    }

    /// Pushes `entry` through block `b` and leaves its refined out-state
    /// per successor in `self.edges[..self.n]`, in first-seen order; two
    /// edges into the same successor are joined.
    fn block(&mut self, ops: &[AbsOp], cfg: &Cfg, b: usize, entry: &[AbsVal]) {
        let blk = &cfg.blocks[b];
        self.state.clear();
        self.state.extend_from_slice(entry);
        transfer_ops(ops, (blk.start, blk.end), &mut self.state, |_, _| {});
        self.n = 0;
        let last = blk.end - 1;
        let guard = ops[last].guard.as_ref();
        let flow = &ops[last].flow;
        if flow.falls_through && last + 1 < ops.len() {
            self.edge(cfg.block_of[last + 1], guard, false);
        }
        for &t in &flow.targets {
            self.edge(cfg.block_of[t as usize], guard, true);
        }
    }

    /// Adds the edge into `succ`, refined by `guard` as taken or not;
    /// an infeasible edge adds nothing.
    fn edge(&mut self, succ: usize, guard: Option<&Guard>, taken: bool) {
        if let Some(k) = self.edges[..self.n].iter().position(|(s, _)| *s == succ) {
            let st = match guard {
                Some(g) if !refine_into(&self.state, g, taken, &mut self.tmp) => return,
                Some(_) => &self.tmp,
                None => &self.state,
            };
            for (o, v) in self.edges[k].1.iter_mut().zip(st) {
                *o = o.join(*v);
            }
            return;
        }
        if self.n == self.edges.len() {
            self.edges.push((succ, Vec::new()));
        }
        let (s, buf) = &mut self.edges[self.n];
        match guard {
            Some(g) if !refine_into(&self.state, g, taken, buf) => return,
            Some(_) => {}
            None => {
                buf.clear();
                buf.extend_from_slice(&self.state);
            }
        }
        *s = succ;
        self.n += 1;
    }
}

/// Folds edge state `new` into entry state `old`: the slot-wise join,
/// widened against `widen` thresholds when given. The whole state is
/// replaced (swapped with `buf`) or kept, decided by `==` over every
/// slot, so a slot whose bits differ only in a float zero's sign moves
/// only alongside a real change. Returns whether it was replaced.
fn merge(
    old: &mut Vec<AbsVal>,
    new: &[AbsVal],
    widen: Option<&[i64]>,
    buf: &mut Vec<AbsVal>,
) -> bool {
    buf.clear();
    let mut changed = false;
    for (a, b) in old.iter().zip(new) {
        // join(x, x) and widen(x, x) are x, bit for bit.
        let v = if same_bits(a, b) {
            *a
        } else {
            let j = a.join(*b);
            widen.map_or(j, |t| a.widen_with(j, t))
        };
        changed |= v != *a;
        buf.push(v);
    }
    if changed {
        std::mem::swap(old, buf);
    }
    changed
}

/// Runs the widening/narrowing interval fixpoint over `ops`.
///
/// `nregs` is the register-file size, `nparams` the number of leading
/// parameter registers (unconstrained at entry; the rest start at zero,
/// matching engine zero-initialisation).
pub fn analyze(ops: &[AbsOp], nregs: usize, nparams: usize) -> Analysis {
    let flows: Vec<OpFlow> = ops.iter().map(|o| o.flow.clone()).collect();
    let cfg = Cfg::build(&flows);
    let nb = cfg.blocks.len();
    let entry_block = cfg.rpo[0];
    let init = initial_state(nregs, nparams);

    // Seed widening thresholds with guard constants (and their
    // neighbours, for strict comparisons) so loop bounds become landing
    // points instead of being overshot to a type extreme.
    let mut thresholds: Vec<i64> = Vec::new();
    for op in ops {
        if let Some(g) = &op.guard {
            for o in [g.a, g.b] {
                if let Operand::Const(bits) = o {
                    for v in [bits as i64, bits as u32 as i32 as i64] {
                        thresholds.push(v);
                        thresholds.push(v.saturating_sub(1));
                        thresholds.push(v.saturating_add(1));
                    }
                }
            }
        }
    }
    thresholds.sort_unstable();
    thresholds.dedup();

    const WIDEN_AFTER: u32 = 2;
    let max_iters = 16 * nb + 64;

    // Round-robin sweeps in reverse postorder, flowing only blocks whose
    // entry state was replaced since they last flowed. Skipping the rest
    // is exact: each of their out-edges is already joined into its
    // successor, and join(x, e) stays x once x has absorbed e (entry
    // states only grow), so a re-flow would change nothing. The sweep
    // count, and with it the bail-out below, is the same as flowing
    // every block on every sweep.
    let mut entry: Vec<Option<Vec<AbsVal>>> = vec![None; nb];
    entry[entry_block] = Some(init.clone());
    let mut dirty = vec![false; nb];
    dirty[entry_block] = true;
    let mut joins = vec![0u32; nb];
    let mut fl = Flow::new();
    let mut iters = 0usize;
    loop {
        let mut changed = false;
        iters += 1;
        for &b in &cfg.rpo {
            if !std::mem::take(&mut dirty[b]) {
                continue;
            }
            let Some(st) = &entry[b] else { continue };
            fl.block(ops, &cfg, b, st);
            for (succ, new) in &fl.edges[..fl.n] {
                let succ = *succ;
                // Back edges into op 0 join the entry block like any
                // other: the initial state stays an invariant floor.
                let replaced = match &mut entry[succ] {
                    None => {
                        entry[succ] = Some(new.clone());
                        true
                    }
                    Some(old) => {
                        let widen = (joins[succ] >= WIDEN_AFTER).then_some(&thresholds[..]);
                        merge(old, new, widen, &mut fl.tmp)
                    }
                };
                if replaced {
                    joins[succ] += 1;
                    dirty[succ] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if iters > max_iters {
            // Defensive bail-out: give every reachable block TOP.
            let top = vec![AbsVal::TOP; nregs];
            for &b in &cfg.rpo {
                entry[b] = Some(if b == entry_block { init.clone() } else { top.clone() });
            }
            break;
        }
    }

    // Two descending (narrowing) passes: recompute each entry as the
    // plain join over predecessor edge-states of the post-fixpoint
    // solution. Sound because applying F to a post-fixpoint stays above
    // the least fixpoint.
    for _ in 0..2 {
        let mut next: Vec<Option<Vec<AbsVal>>> = vec![None; nb];
        next[entry_block] = Some(init.clone());
        for &b in &cfg.rpo {
            let Some(st) = &entry[b] else { continue };
            fl.block(ops, &cfg, b, st);
            for (succ, new) in &fl.edges[..fl.n] {
                match &mut next[*succ] {
                    None => next[*succ] = Some(new.clone()),
                    Some(old) => {
                        for (o, v) in old.iter_mut().zip(new) {
                            *o = o.join(*v);
                        }
                    }
                }
            }
        }
        entry = next;
    }

    Analysis { cfg, entry }
}

impl Analysis {
    /// Replays the per-op entry state over every reachable block:
    /// `visit(op_index, state_before_op)`.
    pub fn walk(&self, ops: &[AbsOp], mut visit: impl FnMut(usize, &[AbsVal])) {
        let mut state = Vec::new();
        for &b in &self.cfg.rpo {
            let Some(st) = &self.entry[b] else { continue };
            state.clear();
            state.extend_from_slice(st);
            let blk = &self.cfg.blocks[b];
            transfer_ops(ops, (blk.start, blk.end), &mut state, &mut visit);
        }
    }

    /// True when the analysis proved the block containing `op` can never
    /// execute (CFG-unreachable or all incoming edges infeasible).
    pub fn op_unreachable(&self, op: usize) -> bool {
        self.entry[self.cfg.block_of[op]].is_none()
    }
}

// ---------------------------------------------------------------------------
// Safety predicates (shared by the prover and the checker)
// ---------------------------------------------------------------------------

/// True when an address interval proves `addr + offset + len <=
/// mem_bytes` for a u32 address read (memory can only grow, so the
/// declared minimum is a sound lower bound at any program point).
pub fn mem_safe(addr: Interval, offset: u64, len: u64, mem_bytes: u64) -> bool {
    !addr.is_empty()
        && addr.lo >= 0
        && (addr.hi as u64).saturating_add(offset).saturating_add(len) <= mem_bytes
}

/// True when the divisor interval (and optionally the dividend) proves
/// an integer division cannot trap.
pub fn div_safe(divisor: Interval, dividend: Option<Interval>, w: Width, signed: bool) -> bool {
    if divisor.is_empty() {
        return false;
    }
    let nonzero = divisor.lo > 0 || divisor.hi < 0;
    if !nonzero {
        return false;
    }
    if !signed {
        return true;
    }
    // Signed overflow: MIN / -1.
    let no_minus_one = divisor.lo > -1 || divisor.hi < -1;
    let no_min = dividend.is_some_and(|d| !d.is_empty() && d.lo > w.min_signed());
    no_minus_one || no_min
}

/// True when a float interval proves a `trunc` to (`signed`, `dst`)
/// cannot trap.
pub fn trunc_safe(f: FInterval, signed: bool, dst: Width) -> bool {
    if f.nan {
        return false;
    }
    if f.lo > f.hi {
        return true; // no value at all: vacuously safe
    }
    match (dst, signed) {
        (Width::W32, true) => f.lo > -2147483649.0 && f.hi < 2147483648.0,
        (Width::W32, false) => f.lo > -1.0 && f.hi < 4294967296.0,
        (Width::W64, true) => f.lo >= -9223372036854775808.0 && f.hi < 9223372036854775808.0,
        (Width::W64, false) => f.lo > -1.0 && f.hi < 18446744073709551616.0,
    }
}

// ---------------------------------------------------------------------------
// Proof obligations
// ---------------------------------------------------------------------------

/// Which check an obligation discharges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Memory access proven in bounds.
    MemInBounds,
    /// Division proven non-trapping.
    DivSafe,
    /// Truncation proven non-trapping.
    TruncSafe,
}

/// The range fact an obligation claims.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fact {
    /// An integer interval (address or divisor).
    Int(Interval),
    /// A float interval (truncation source).
    Float(FInterval),
}

/// A machine-checkable elimination proof: "at op `op`, the checked
/// quantity lies in `fact` (witnessed by the analysis, optionally
/// sharpened by the dominating guard `guard`), and `fact` implies the
/// check cannot fail".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obligation {
    /// Op index carrying the eliminated check.
    pub op: u32,
    /// Which check is discharged.
    pub kind: CheckKind,
    /// Claimed range fact.
    pub fact: Fact,
    /// Op index of a dominating branch guard that the fact relies on,
    /// if any.
    pub guard: Option<u32>,
}

/// `obligation #N (op I)`, the prefix of every rejection message.
struct ObligationTag(usize, u32);

impl std::fmt::Display for ObligationTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obligation #{} (op {})", self.0, self.1)
    }
}

/// Independently re-derives every obligation against a fresh analysis
/// of `ops`. Returns one message per rejected obligation (empty =
/// all proofs check out).
pub fn check_obligations(
    ops: &[AbsOp],
    nregs: usize,
    nparams: usize,
    mem_bytes: u64,
    obligations: &[Obligation],
) -> Vec<String> {
    let mut errs = Vec::new();
    if obligations.is_empty() {
        return errs;
    }
    let analysis = analyze(ops, nregs, nparams);
    let idom = analysis.cfg.dominators();

    // Snapshot entry states at every obligation op in one replay.
    let mut want: Vec<u32> = obligations.iter().map(|o| o.op).collect();
    want.sort_unstable();
    want.dedup();
    let mut states: Vec<(u32, Vec<AbsVal>)> = Vec::new();
    analysis.walk(ops, |i, st| {
        if want.binary_search(&(i as u32)).is_ok() {
            states.push((i as u32, st.to_vec()));
        }
    });

    for (n, ob) in obligations.iter().enumerate() {
        // Formatted only for a rejected obligation: an honest proof
        // allocates nothing here.
        let tag = ObligationTag(n, ob.op);
        let Some(op) = ops.get(ob.op as usize) else {
            errs.push(format!("{tag}: op index out of range"));
            continue;
        };
        let Some(state) = states.iter().find(|(i, _)| *i == ob.op).map(|(_, s)| s) else {
            errs.push(format!("{tag}: op is unreachable, fact cannot be re-derived"));
            continue;
        };

        // 1. The claimed fact must be implied by the analysis (the
        //    derived interval must be a subset of the claim).
        // 2. The claimed fact must imply the check cannot fail.
        match (&op.check, ob.kind, ob.fact) {
            (Some(Check::Mem { addr, offset, len }), CheckKind::MemInBounds, Fact::Int(claim)) => {
                let derived = read_int(state, Operand::Reg(*addr), Width::W32);
                if !derived.subset(claim) {
                    errs.push(format!(
                        "{tag}: derived address {derived:?} is not within claimed {claim:?}"
                    ));
                } else if !mem_safe(claim, *offset, *len, mem_bytes) {
                    errs.push(format!(
                        "{tag}: claimed address {claim:?} does not prove {offset}+{len} in {mem_bytes} bytes"
                    ));
                }
            }
            (
                Some(Check::Div { w, signed, divisor, dividend }),
                CheckKind::DivSafe,
                Fact::Int(claim),
            ) => {
                let Some(dv) = divisor else {
                    errs.push(format!("{tag}: division has no identifiable divisor"));
                    continue;
                };
                let derived = read_int(state, *dv, *w);
                let dd = dividend.map(|d| read_int(state, d, *w));
                if !derived.subset(claim) {
                    errs.push(format!(
                        "{tag}: derived divisor {derived:?} is not within claimed {claim:?}"
                    ));
                } else if !div_safe(claim, dd, *w, *signed) {
                    errs.push(format!("{tag}: claimed divisor {claim:?} does not prove safety"));
                }
            }
            (Some(Check::Trunc { src, signed, dst }), CheckKind::TruncSafe, Fact::Float(claim)) => {
                let derived = read_float(state, Operand::Reg(*src), Width::W64);
                if !derived.subset(claim) {
                    errs.push(format!(
                        "{tag}: derived source {derived:?} is not within claimed {claim:?}"
                    ));
                } else if !trunc_safe(claim, *signed, *dst) {
                    errs.push(format!("{tag}: claimed source {claim:?} does not prove safety"));
                }
            }
            (None, ..) => errs.push(format!("{tag}: op carries no check")),
            _ => errs.push(format!("{tag}: obligation kind does not match the op's check")),
        }

        // 3. The cited guard, if any, must be a real branch guard that
        //    strictly dominates the check.
        if let Some(g) = ob.guard {
            match ops.get(g as usize) {
                Some(gop) if gop.guard.is_some() => {
                    let gb = analysis.cfg.block_of[g as usize];
                    let ob_b = analysis.cfg.block_of[ob.op as usize];
                    if gb == ob_b || !analysis.cfg.dominates(&idom, gb, ob_b) {
                        errs.push(format!("{tag}: guard op {g} does not dominate the check"));
                    }
                }
                _ => errs.push(format!("{tag}: guard op {g} is not a branch guard")),
            }
        }
    }
    errs
}

// ---------------------------------------------------------------------------
// Audit
// ---------------------------------------------------------------------------

/// Static per-function facts for audit reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditFacts {
    /// Basic blocks in the function.
    pub blocks: u64,
    /// Blocks the analysis proves unreachable.
    pub unreachable_blocks: u64,
    /// Runtime safety checks in the function.
    pub checks_total: u64,
    /// Checks the analysis proves can never fail.
    pub checks_provable: u64,
    /// Check sites proven to *always* trap when reached at the declared
    /// minimum memory size (before any growth).
    pub always_trapping: u64,
    /// Memory accesses whose address is a compile-time constant.
    pub const_addr_loads: u64,
}

/// Summarises `ops` for a static audit report.
pub fn audit(ops: &[AbsOp], nregs: usize, nparams: usize, mem_bytes: u64) -> AuditFacts {
    let analysis = analyze(ops, nregs, nparams);
    let mut facts = AuditFacts {
        blocks: analysis.cfg.blocks.len() as u64,
        ..AuditFacts::default()
    };
    for b in 0..analysis.cfg.blocks.len() {
        if analysis.entry[b].is_none() {
            facts.unreachable_blocks += 1;
        }
    }
    facts.checks_total = ops.iter().filter(|o| o.check.is_some()).count() as u64;
    analysis.walk(ops, |i, state| {
        let Some(check) = &ops[i].check else { return };
        match check {
            Check::Mem { addr, offset, len } => {
                let iv = read_int(state, Operand::Reg(*addr), Width::W32);
                if mem_safe(iv, *offset, *len, mem_bytes) {
                    facts.checks_provable += 1;
                } else if !iv.is_empty()
                    && iv.lo >= 0
                    && (iv.lo as u64).saturating_add(*offset).saturating_add(*len) > mem_bytes
                {
                    facts.always_trapping += 1;
                }
                if iv.singleton().is_some() {
                    facts.const_addr_loads += 1;
                }
            }
            Check::Div { w, signed, divisor, dividend } => {
                let Some(dv) = divisor else { return };
                let iv = read_int(state, *dv, *w);
                let dd = dividend.map(|d| read_int(state, d, *w));
                if div_safe(iv, dd, *w, *signed) {
                    facts.checks_provable += 1;
                } else if iv.singleton() == Some(0) {
                    facts.always_trapping += 1;
                }
            }
            Check::Trunc { src, signed, dst } => {
                let f = read_float(state, Operand::Reg(*src), Width::W64);
                if trunc_safe(f, *signed, *dst) {
                    facts.checks_provable += 1;
                } else if f.lo > f.hi && f.nan {
                    facts.always_trapping += 1;
                }
            }
        }
    });
    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(def: Option<u32>, transfer: Transfer) -> AbsOp {
        AbsOp { flow: OpFlow::linear(), def, transfer, guard: None, check: None }
    }

    trait Tap: Sized {
        fn tap(mut self, f: impl FnOnce(&mut Self)) -> Self {
            f(&mut self);
            self
        }
    }
    impl<T> Tap for T {}

    fn halt() -> AbsOp {
        AbsOp::nop().tap(|o| o.flow = OpFlow { targets: Vec::new(), falls_through: false })
    }

    fn int_of(a: &Analysis, ops: &[AbsOp], at: usize, reg: u32) -> Interval {
        let mut got = None;
        a.walk(ops, |i, st| {
            if i == at {
                got = Some(read_int(st, Operand::Reg(reg), Width::W32));
            }
        });
        got.expect("op reachable")
    }

    #[test]
    fn interval_algebra() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 20);
        assert_eq!(a.meet(b), Interval::new(5, 10));
        assert_eq!(a.join(b), Interval::new(0, 20));
        assert!(Interval::new(3, 7).subset(a));
        assert!(!b.subset(a));
        assert!(Interval::new(4, 2).is_empty());
        assert_eq!(Interval::EMPTY.join(a), a);
        assert_eq!(a.meet(Interval::new(11, 12)), Interval::EMPTY);
    }

    #[test]
    fn widening_jumps_to_thresholds() {
        let w = Interval::exact(0).widen(Interval::new(0, 3));
        assert_eq!(w, Interval::new(0, 255));
        let w2 = w.widen(Interval::new(-2, 300));
        assert_eq!(w2.lo, i32::MIN as i64);
        assert_eq!(w2.hi, 65535);
        // Seeded thresholds land exactly on program constants.
        let w3 = w.widen_with(Interval::new(0, 300), &[299, 300, 301]);
        assert_eq!(w3.hi, 300);
    }

    #[test]
    fn const_joins_both_width_readings() {
        let v = AbsVal::of_bits(0xFFFF_FFFF);
        assert!(v.int.contains(-1));
        assert!(v.int.contains(u32::MAX as i64));
    }

    #[test]
    fn mask_transfer_is_nonnegative() {
        let st = vec![AbsVal::TOP];
        let v = eval_bin(
            &st,
            BinOpKind::Int(Width::W32, IntBin::And),
            Operand::Reg(0),
            Operand::Const(65528),
        );
        assert_eq!(v.int, Interval::new(0, 65528));
    }

    #[test]
    fn remu_bounded_by_divisor() {
        let st = vec![AbsVal::TOP];
        let v = eval_bin(
            &st,
            BinOpKind::Int(Width::W32, IntBin::RemU),
            Operand::Reg(0),
            Operand::Const(16),
        );
        assert_eq!(v.int, Interval::new(0, 15));
    }

    #[test]
    fn loop_widening_terminates_and_narrowing_recovers_bound() {
        // r1 = 0; loop: r1 = r1 + 1; if r1 < 100 goto loop; halt
        let ops = vec![
            op(Some(1), Transfer::Bits(0)),
            op(
                Some(1),
                Transfer::Bin {
                    op: BinOpKind::Int(Width::W32, IntBin::Add),
                    a: Operand::Reg(1),
                    b: Operand::Const(1),
                },
            ),
            AbsOp::nop().tap(|o| {
                o.flow = OpFlow { targets: vec![1], falls_through: true };
                o.guard = Some(Guard {
                    kind: CmpKind::LtS,
                    w: Width::W32,
                    a: Operand::Reg(1),
                    b: Operand::Const(100),
                });
            }),
            halt(),
        ];
        let a = analyze(&ops, 2, 0);
        // Inside the loop (at the increment) the counter is [0, 99]:
        // entry 0 joined with the refined back edge.
        assert_eq!(int_of(&a, &ops, 1, 1), Interval::new(0, 99));
        // After the (not-taken) exit edge the counter is exactly 100.
        assert_eq!(int_of(&a, &ops, 3, 1), Interval::exact(100));
    }

    #[test]
    fn branch_refinement_splits_ranges() {
        // r1 = param. if r1 < 10 goto T(3); fall: halt ; T: halt
        let ops = vec![
            op(Some(1), Transfer::Copy(0)),
            AbsOp::nop().tap(|o| {
                o.flow = OpFlow { targets: vec![3], falls_through: true };
                o.guard = Some(Guard {
                    kind: CmpKind::LtS,
                    w: Width::W32,
                    a: Operand::Reg(1),
                    b: Operand::Const(10),
                });
            }),
            halt(),
            halt(),
        ];
        let a = analyze(&ops, 2, 1);
        assert_eq!(int_of(&a, &ops, 3, 1), Interval::new(i32::MIN as i64, 9));
        assert_eq!(int_of(&a, &ops, 2, 1), Interval::new(10, i32::MAX as i64));
    }

    #[test]
    fn unsigned_guard_learns_nonnegative_bound() {
        // if r0 <u 100 goto T(2); halt; T: halt  (r0 is a param)
        let ops = vec![
            AbsOp::nop().tap(|o| {
                o.flow = OpFlow { targets: vec![2], falls_through: true };
                o.guard = Some(Guard {
                    kind: CmpKind::LtU,
                    w: Width::W32,
                    a: Operand::Reg(0),
                    b: Operand::Const(100),
                });
            }),
            halt(),
            halt(),
        ];
        let a = analyze(&ops, 1, 1);
        assert_eq!(int_of(&a, &ops, 2, 0), Interval::new(0, 99));
    }

    #[test]
    fn infeasible_edge_marks_block_unreachable() {
        // r1 = 5. if r1 < 3 goto T(2); halt; T: halt — T is dead.
        let ops = vec![
            op(Some(1), Transfer::Bits(5)),
            AbsOp::nop().tap(|o| {
                o.flow = OpFlow { targets: vec![3], falls_through: true };
                o.guard = Some(Guard {
                    kind: CmpKind::LtS,
                    w: Width::W32,
                    a: Operand::Reg(1),
                    b: Operand::Const(3),
                });
            }),
            halt(),
            halt(),
        ];
        let a = analyze(&ops, 2, 0);
        assert!(a.op_unreachable(3));
        assert!(!a.op_unreachable(2));
    }

    #[test]
    fn trunc_safety_bounds_are_exact() {
        let ok = FInterval::new(-2147483648.0, 2147483647.0, false);
        assert!(trunc_safe(ok, true, Width::W32));
        let hi = FInterval::new(0.0, 2147483648.0, false);
        assert!(!trunc_safe(hi, true, Width::W32));
        let nan = FInterval::new(0.0, 1.0, true);
        assert!(!trunc_safe(nan, true, Width::W32));
        assert!(trunc_safe(FInterval::new(-0.5, 4294967295.0, false), false, Width::W32));
        assert!(!trunc_safe(FInterval::new(-1.0, 10.0, false), false, Width::W32));
    }

    #[test]
    fn div_safety_needs_nonzero_and_no_overflow() {
        assert!(div_safe(Interval::new(1, 10), None, Width::W32, false));
        assert!(!div_safe(Interval::new(0, 10), None, Width::W32, false));
        // Signed: divisor could be -1, dividend unknown -> unsafe.
        assert!(!div_safe(Interval::new(-5, -1), None, Width::W32, true));
        // ...but a dividend above MIN discharges the overflow case.
        assert!(div_safe(
            Interval::new(-5, -1),
            Some(Interval::new(0, 7)),
            Width::W32,
            true
        ));
        assert!(div_safe(Interval::new(2, 9), None, Width::W32, true));
    }

    fn guarded_mem_ops() -> Vec<AbsOp> {
        // r1 = param; if r1 <u 1000 goto T(2); halt; T: load [r1+0,4]; halt
        vec![
            op(Some(1), Transfer::Copy(0)),
            AbsOp::nop().tap(|o| {
                o.flow = OpFlow { targets: vec![3], falls_through: true };
                o.guard = Some(Guard {
                    kind: CmpKind::LtU,
                    w: Width::W32,
                    a: Operand::Reg(1),
                    b: Operand::Const(1000),
                });
            }),
            halt(),
            op(Some(2), Transfer::Range(I32_RANGE)).tap(|o| {
                o.check = Some(Check::Mem { addr: 1, offset: 0, len: 4 });
            }),
            halt(),
        ]
    }

    #[test]
    fn obligation_roundtrip_accepts_honest_proof() {
        let ops = guarded_mem_ops();
        let ob = Obligation {
            op: 3,
            kind: CheckKind::MemInBounds,
            fact: Fact::Int(Interval::new(0, 999)),
            guard: Some(1),
        };
        let errs = check_obligations(&ops, 3, 1, 65536, &[ob]);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn corrupted_obligations_are_rejected() {
        let ops = guarded_mem_ops();
        // Claim narrower than derivable: verifier cannot re-derive it.
        let narrow = Obligation {
            op: 3,
            kind: CheckKind::MemInBounds,
            fact: Fact::Int(Interval::new(0, 10)),
            guard: Some(1),
        };
        assert!(!check_obligations(&ops, 3, 1, 65536, &[narrow]).is_empty());
        // Claim wide enough to derive but too wide to be safe.
        let unsafe_wide = Obligation {
            op: 3,
            kind: CheckKind::MemInBounds,
            fact: Fact::Int(Interval::new(0, 70000)),
            guard: Some(1),
        };
        assert!(!check_obligations(&ops, 3, 1, 65536, &[unsafe_wide]).is_empty());
        // Guard that is not a branch.
        let bad_guard = Obligation {
            op: 3,
            kind: CheckKind::MemInBounds,
            fact: Fact::Int(Interval::new(0, 999)),
            guard: Some(0),
        };
        assert!(!check_obligations(&ops, 3, 1, 65536, &[bad_guard]).is_empty());
        // Obligation pointing at an op with no check.
        let no_check = Obligation {
            op: 0,
            kind: CheckKind::MemInBounds,
            fact: Fact::Int(Interval::new(0, 999)),
            guard: None,
        };
        assert!(!check_obligations(&ops, 3, 1, 65536, &[no_check]).is_empty());
    }

    #[test]
    fn audit_counts_checks_and_dead_blocks() {
        let mut ops = guarded_mem_ops();
        // Add an always-trapping constant access past the 1-page bound.
        ops.push(op(Some(2), Transfer::Bits(70000)));
        // (dead: after halt — instead splice before final halt)
        let facts = audit(&ops, 3, 1, 65536);
        assert_eq!(facts.checks_total, 1);
        assert_eq!(facts.checks_provable, 1);
        assert_eq!(facts.unreachable_blocks, 1); // the op pushed after halt
    }

    #[test]
    fn audit_flags_always_trapping_and_const_loads() {
        // r1 = 70000; load [r1]; halt  — with 1 page of memory.
        let ops = vec![
            op(Some(1), Transfer::Bits(70000)),
            op(Some(2), Transfer::Range(I32_RANGE)).tap(|o| {
                o.check = Some(Check::Mem { addr: 1, offset: 0, len: 4 });
            }),
            halt(),
        ];
        let facts = audit(&ops, 3, 0, 65536);
        assert_eq!(facts.checks_total, 1);
        assert_eq!(facts.checks_provable, 0);
        assert_eq!(facts.always_trapping, 1);
        assert_eq!(facts.const_addr_loads, 1);
    }

    #[test]
    fn narrowing_is_a_postfixpoint() {
        // Stress: nested loop with widening must terminate quickly.
        let ops = vec![
            op(Some(0), Transfer::Bits(0)),
            op(
                Some(0),
                Transfer::Bin {
                    op: BinOpKind::Int(Width::W32, IntBin::Add),
                    a: Operand::Reg(0),
                    b: Operand::Const(3),
                },
            ),
            AbsOp::nop().tap(|o| {
                o.flow = OpFlow { targets: vec![1], falls_through: true };
                o.guard = Some(Guard {
                    kind: CmpKind::LtS,
                    w: Width::W32,
                    a: Operand::Reg(0),
                    b: Operand::Const(1_000_000),
                });
            }),
            halt(),
        ];
        let a = analyze(&ops, 1, 0);
        let at_inc = int_of(&a, &ops, 1, 0);
        assert!(at_inc.lo >= 0);
        assert!(at_inc.hi < 1_000_000, "{at_inc:?}");
        let after = int_of(&a, &ops, 3, 0);
        assert!(after.lo >= 1_000_000, "{after:?}");
    }

    #[test]
    fn float_convert_and_trunc_chain() {
        // r1 = param & 255 (i32); r2 = convert_s(r1); trunc r2 -> safe.
        let ops = vec![
            op(
                Some(1),
                Transfer::Bin {
                    op: BinOpKind::Int(Width::W32, IntBin::And),
                    a: Operand::Reg(0),
                    b: Operand::Const(255),
                },
            ),
            op(
                Some(2),
                Transfer::Un {
                    op: UnKind::Convert { signed: true, src: Width::W32, dst: Width::W64 },
                    a: 1,
                },
            ),
            op(Some(3), Transfer::Un { op: UnKind::Trunc { signed: true, dst: Width::W32 }, a: 2 })
                .tap(|o| o.check = Some(Check::Trunc { src: 2, signed: true, dst: Width::W32 })),
            halt(),
        ];
        let a = analyze(&ops, 4, 1);
        let mut f = None;
        a.walk(&ops, |i, st| {
            if i == 2 {
                f = Some(read_float(st, Operand::Reg(2), Width::W64));
            }
        });
        let f = f.unwrap();
        assert!(trunc_safe(f, true, Width::W32), "{f:?}");
        let facts = audit(&ops, 4, 1, 65536);
        assert_eq!(facts.checks_provable, 1);
    }

    /// The fixpoint as it stood before the dirty-block rewrite, kept
    /// verbatim as the oracle for `fixpoint_matches_reference_bit_for_bit`:
    /// every reachable block flows on every sweep, and every edge, join and
    /// refinement allocates a fresh state.
    mod reference {
        use super::*;

        /// Apply `guard` (or its negation, for the fall-through edge) to a
        /// state. Returns `None` when the edge is infeasible.
        fn refine_state(state: &[AbsVal], guard: &Guard, taken: bool) -> Option<Vec<AbsVal>> {
            let kind = if taken { guard.kind } else { guard.kind.negate() };
            let ia = read_int(state, guard.a, guard.w);
            let ib = read_int(state, guard.b, guard.w);
            let (ra, rb) = refine_pair(kind, ia, ib)?;
            let mut out = state.to_vec();
            if let Operand::Reg(r) = guard.a {
                if let Some(slot) = out.get_mut(r as usize) {
                    slot.int = slot.int.meet(ra);
                }
            }
            if let Operand::Reg(r) = guard.b {
                if let Some(slot) = out.get_mut(r as usize) {
                    slot.int = slot.int.meet(rb);
                }
            }
            Some(out)
        }
        /// Per-instruction observer for [`flow_block`]: called with the
        /// instruction index and the state *before* its transfer applies.
        type Visit<'a> = &'a mut dyn FnMut(usize, &[AbsVal]);

        /// Push a block's entry state through its ops and produce the refined
        /// out-state per successor edge `(succ_block, state)`.
        fn flow_block(
            ops: &[AbsOp],
            cfg: &Cfg,
            b: usize,
            mut state: Vec<AbsVal>,
            mut visit: Option<Visit<'_>>,
        ) -> Vec<(usize, Vec<AbsVal>)> {
            let blk = &cfg.blocks[b];
            for (i, op) in ops.iter().enumerate().take(blk.end).skip(blk.start) {
                if let Some(f) = visit.as_deref_mut() {
                    f(i, &state);
                }
                if let Some(rd) = op.def {
                    let v = eval_transfer(&state, &op.transfer);
                    if let Some(slot) = state.get_mut(rd as usize) {
                        *slot = v;
                    }
                }
            }
            let last = blk.end - 1;
            let flow = &ops[last].flow;
            let guard = ops[last].guard.as_ref();
            let mut out: Vec<(usize, Vec<AbsVal>)> = Vec::new();
            let mut push = |succ: usize, st: Vec<AbsVal>| {
                for (s, old) in out.iter_mut() {
                    if *s == succ {
                        let joined: Vec<AbsVal> =
                            old.iter().zip(&st).map(|(a, b)| a.join(*b)).collect();
                        *old = joined;
                        return;
                    }
                }
                out.push((succ, st));
            };
            if flow.falls_through && last + 1 < ops.len() {
                let succ = cfg.block_of[last + 1];
                match guard {
                    Some(g) => {
                        if let Some(st) = refine_state(&state, g, false) {
                            push(succ, st);
                        }
                    }
                    None => push(succ, state.clone()),
                }
            }
            for &t in &flow.targets {
                let succ = cfg.block_of[t as usize];
                match guard {
                    Some(g) => {
                        if let Some(st) = refine_state(&state, g, true) {
                            push(succ, st);
                        }
                    }
                    None => push(succ, state.clone()),
                }
            }
            out
        }
        /// Runs the widening/narrowing interval fixpoint over `ops`.
        ///
        /// `nregs` is the register-file size, `nparams` the number of leading
        /// parameter registers (unconstrained at entry; the rest start at zero,
        /// matching engine zero-initialisation).
        pub(super) fn analyze(ops: &[AbsOp], nregs: usize, nparams: usize) -> Analysis {
            let flows: Vec<OpFlow> = ops.iter().map(|o| o.flow.clone()).collect();
            let cfg = Cfg::build(&flows);
            let nb = cfg.blocks.len();
            let entry_block = cfg.rpo[0];
            let init = initial_state(nregs, nparams);

            // Seed widening thresholds with guard constants (and their
            // neighbours, for strict comparisons) so loop bounds become landing
            // points instead of being overshot to a type extreme.
            let mut thresholds: Vec<i64> = Vec::new();
            for op in ops {
                if let Some(g) = &op.guard {
                    for o in [g.a, g.b] {
                        if let Operand::Const(bits) = o {
                            for v in [bits as i64, bits as u32 as i32 as i64] {
                                thresholds.push(v);
                                thresholds.push(v.saturating_sub(1));
                                thresholds.push(v.saturating_add(1));
                            }
                        }
                    }
                }
            }
            thresholds.sort_unstable();
            thresholds.dedup();

            const WIDEN_AFTER: u32 = 2;
            let max_iters = 16 * nb + 64;

            let mut entry: Vec<Option<Vec<AbsVal>>> = vec![None; nb];
            entry[entry_block] = Some(init.clone());
            let mut joins = vec![0u32; nb];
            let mut iters = 0usize;
            loop {
                let mut changed = false;
                iters += 1;
                for &b in &cfg.rpo {
                    let Some(st) = entry[b].clone() else { continue };
                    for (succ, new) in flow_block(ops, &cfg, b, st, None) {
                        if succ == entry_block {
                            // The entry state is an invariant floor: join it in
                            // so back edges into op 0 stay sound.
                            match &mut entry[entry_block] {
                                Some(old) => {
                                    let j: Vec<AbsVal> =
                                        old.iter().zip(&new).map(|(a, b)| a.join(*b)).collect();
                                    let j = if joins[succ] >= WIDEN_AFTER {
                                        old.iter().zip(&j).map(|(a, b)| a.widen_with(*b, &thresholds)).collect()
                                    } else {
                                        j
                                    };
                                    if j != *old {
                                        *old = j;
                                        joins[succ] += 1;
                                        changed = true;
                                    }
                                }
                                None => unreachable!("entry block seeded"),
                            }
                            continue;
                        }
                        match &mut entry[succ] {
                            None => {
                                entry[succ] = Some(new);
                                joins[succ] += 1;
                                changed = true;
                            }
                            Some(old) => {
                                let j: Vec<AbsVal> =
                                    old.iter().zip(&new).map(|(a, b)| a.join(*b)).collect();
                                let j: Vec<AbsVal> = if joins[succ] >= WIDEN_AFTER {
                                    old.iter().zip(&j).map(|(a, b)| a.widen_with(*b, &thresholds)).collect()
                                } else {
                                    j
                                };
                                if j != *old {
                                    *old = j;
                                    joins[succ] += 1;
                                    changed = true;
                                }
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
                if iters > max_iters {
                    // Defensive bail-out: give every reachable block TOP.
                    let top = vec![AbsVal::TOP; nregs];
                    for &b in &cfg.rpo {
                        entry[b] = Some(if b == entry_block { init.clone() } else { top.clone() });
                    }
                    break;
                }
            }

            // Two descending (narrowing) passes: recompute each entry as the
            // plain join over predecessor edge-states of the post-fixpoint
            // solution. Sound because applying F to a post-fixpoint stays above
            // the least fixpoint.
            for _ in 0..2 {
                let mut next: Vec<Option<Vec<AbsVal>>> = vec![None; nb];
                next[entry_block] = Some(init.clone());
                for &b in &cfg.rpo {
                    let Some(st) = entry[b].clone() else { continue };
                    for (succ, new) in flow_block(ops, &cfg, b, st, None) {
                        match &mut next[succ] {
                            None => next[succ] = Some(new),
                            Some(old) => {
                                let j: Vec<AbsVal> =
                                    old.iter().zip(&new).map(|(a, b)| a.join(*b)).collect();
                                *old = j;
                            }
                        }
                    }
                }
                entry = next;
            }

            Analysis { cfg, entry }
        }

        pub(super) fn walk(a: &Analysis, ops: &[AbsOp], mut visit: impl FnMut(usize, &[AbsVal])) {
            for &b in &a.cfg.rpo {
                let Some(st) = a.entry[b].clone() else { continue };
                flow_block(ops, &a.cfg, b, st, Some(&mut visit));
            }
        }
    }

    /// xorshift64*: the fixed-seed stream the generated programs draw from.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as usize % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    /// Immediates that land on widening thresholds, straddle the sign
    /// boundary, or read as -0.0 / +0.0 / 1.0 in a float facet.
    const BITS: [u64; 10] = [
        0,
        1,
        3,
        100,
        255,
        0xFFFF_FFFF,
        0x8000_0000,
        0x8000_0000_0000_0000,
        0x3FF0_0000_0000_0000,
        u64::MAX,
    ];

    /// A random op program: defs over int and float transfers, guarded
    /// branches to any op (back edges make nested loops, a branch to
    /// itself a self-loop, one to the next op a doubled edge), br_table
    /// dispatches with repeated targets, jumps and halts.
    fn gen_program(r: &mut Rng) -> (Vec<AbsOp>, usize, usize) {
        let nregs = 1 + r.below(5);
        let nparams = r.below(nregs + 1);
        let n = 3 + r.below(28);
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let w = r.pick(&[Width::W32, Width::W64]);
            let reg = |r: &mut Rng| r.below(nregs) as u32;
            let operand = |r: &mut Rng| {
                if r.below(3) == 0 {
                    Operand::Const(r.pick(&BITS))
                } else {
                    Operand::Reg(r.below(nregs) as u32)
                }
            };
            let mut op = AbsOp::nop();
            match r.below(12) {
                0..=5 => {
                    op.def = Some(reg(r));
                    op.transfer = match r.below(8) {
                        0 => Transfer::Bits(r.pick(&BITS)),
                        1 => Transfer::Copy(reg(r)),
                        2 | 3 => Transfer::Bin {
                            op: BinOpKind::Int(
                                w,
                                r.pick(&[
                                    IntBin::Add,
                                    IntBin::Sub,
                                    IntBin::Mul,
                                    IntBin::And,
                                    IntBin::Or,
                                    IntBin::RemU,
                                    IntBin::ShrU,
                                ]),
                            ),
                            a: operand(r),
                            b: operand(r),
                        },
                        4 => Transfer::Bin {
                            op: BinOpKind::Float(
                                w,
                                r.pick(&[FBin::Add, FBin::Sub, FBin::Mul, FBin::Min, FBin::Max]),
                            ),
                            a: operand(r),
                            b: operand(r),
                        },
                        5 => Transfer::Un {
                            op: r.pick(&[
                                UnKind::FNeg(w),
                                UnKind::FNeg(w),
                                UnKind::FAbs(w),
                                UnKind::Convert { signed: true, src: w, dst: Width::W64 },
                                UnKind::Trunc { signed: true, dst: Width::W32 },
                                UnKind::Wrap,
                                UnKind::ExtendU,
                            ]),
                            a: reg(r),
                        },
                        6 => Transfer::Join(reg(r), reg(r)),
                        _ => Transfer::Range(Interval::new(0, r.below(300) as i64)),
                    };
                    if r.below(4) == 0 {
                        op.check = Some(Check::Mem { addr: reg(r), offset: 0, len: 4 });
                    }
                }
                6..=8 => {
                    op.flow = OpFlow { targets: vec![r.below(n) as u32], falls_through: true };
                    op.guard = Some(Guard {
                        kind: r.pick(&[
                            CmpKind::Eq,
                            CmpKind::Ne,
                            CmpKind::LtS,
                            CmpKind::LtU,
                            CmpKind::GtS,
                            CmpKind::GeU,
                            CmpKind::LeS,
                        ]),
                        w,
                        a: Operand::Reg(reg(r)),
                        b: operand(r),
                    });
                }
                9 => {
                    let k = 1 + r.below(4);
                    let targets = (0..k).map(|_| r.below(n) as u32).collect();
                    op.flow = OpFlow { targets, falls_through: false };
                }
                10 => op.flow = OpFlow { targets: vec![r.below(n) as u32], falls_through: false },
                _ => {}
            }
            ops.push(op);
        }
        (ops, nregs, nparams)
    }

    fn same_state(a: &[AbsVal], b: &[AbsVal]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_bits(x, y))
    }

    #[test]
    fn fixpoint_matches_reference_bit_for_bit() {
        let mut r = Rng(0x9e37_79b9_7f4a_7c15);
        let mut looping = 0;
        for case in 0..4000 {
            let (ops, nregs, nparams) = gen_program(&mut r);
            let want = reference::analyze(&ops, nregs, nparams);
            let got = analyze(&ops, nregs, nparams);
            assert_eq!(want.entry.len(), got.entry.len());
            for (b, (w, g)) in want.entry.iter().zip(&got.entry).enumerate() {
                let same = match (w, g) {
                    (Some(w), Some(g)) => same_state(w, g),
                    (None, None) => true,
                    _ => false,
                };
                assert!(same, "case {case}, block {b}: {w:?} != {g:?}\n{ops:#?}");
            }
            let mut want_walk = Vec::new();
            reference::walk(&want, &ops, |i, st| want_walk.push((i, st.to_vec())));
            let mut got_walk = Vec::new();
            got.walk(&ops, |i, st| got_walk.push((i, st.to_vec())));
            assert_eq!(want_walk.len(), got_walk.len(), "case {case}");
            for ((i, w), (j, g)) in want_walk.iter().zip(&got_walk) {
                assert!(i == j && same_state(w, g), "case {case}, op {i}");
            }
            looping += usize::from(got.cfg.blocks.iter().enumerate().any(|(b, blk)| {
                blk.preds.iter().any(|&p| p >= b)
            }));
        }
        // Most programs must loop, or widening goes untested.
        assert!(looping > 2000, "only {looping} of 4000 programs loop");
    }
}
