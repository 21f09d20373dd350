//! Branch prediction simulation: a gshare direction predictor, a BTB for
//! direct branches, a four-component ITTAGE predictor for indirect
//! branches (geometric target-path histories, tagged tables, longest
//! matching history provides), and a return-address stack.

use engines::profiler::BranchKind;

/// Statistics from the branch predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Retired branch instructions.
    pub branches: u64,
    /// Mispredictions (direction or target).
    pub misses: u64,
}

impl BranchStats {
    /// Misprediction ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.misses as f64 / self.branches as f64
        }
    }
}

const GSHARE_BITS: u32 = 13;
const BTB_BITS: u32 = 14;
const RAS_DEPTH: usize = 16;
/// Index bits per tagged indirect table.
const ITT_BITS: u32 = 12;
/// Per-table history shifts: each table folds a rolling target-path hash
/// `h = (h << shift) ^ hash(target)`, so a shift of `s` retains roughly the
/// last `64 / s` targets — a geometric history series (4, 8, 16, 32), as
/// in ITTAGE.
const ITT_SHIFTS: [u32; 4] = [16, 8, 4, 2];

/// Entries per tagged indirect table.
const ITT_SIZE: usize = 1 << ITT_BITS;
/// Tagged indirect components.
const ITT_COMPONENTS: usize = ITT_SHIFTS.len();
/// The tag of an empty entry (its target is 0, its confidence 0).
const EMPTY_TAG: u16 = u16::MAX;

// `indirect_check_update` unrolls the four components, and the O(1) fold
// update in `push_history` holds for shifts of 1 to 16 bits.
const _: () = {
    assert!(ITT_COMPONENTS == 4);
    let mut k = 0;
    while k < ITT_COMPONENTS {
        assert!(ITT_SHIFTS[k] >= 1 && ITT_SHIFTS[k] <= 16);
        k += 1;
    }
};

/// The branch prediction unit.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    /// 2-bit saturating counters indexed by `pc ⊕ history`.
    counters: Vec<u8>,
    history: u64,
    /// Direct-mapped BTB: predicted target per site (direct branches).
    btb: Vec<(u64, u64)>,
    /// ITTAGE base component: site-indexed target table.
    itb: Vec<(u64, u64)>,
    /// ITTAGE tagged components, shortest history first, stored as
    /// structure-of-arrays so the provider search reads only tags.
    itags: Box<[[u16; ITT_SIZE]; ITT_COMPONENTS]>,
    /// Each tagged entry's predicted target.
    itargets: Box<[[u64; ITT_SIZE]; ITT_COMPONENTS]>,
    /// Each tagged entry's replacement hysteresis: a mispredicting entry
    /// must decay to 0 before its target is displaced.
    iconf: Box<[[u8; ITT_SIZE]; ITT_COMPONENTS]>,
    /// Rolling target-path histories, one per tagged component.
    ihistory: [u64; ITT_COMPONENTS],
    /// Per component, `fold::<12>(ihistory)`: the history's half of the
    /// index. `fold` is XOR-linear, so an index is this XOR the site's
    /// own fold.
    ifold12: [u16; ITT_COMPONENTS],
    /// Per component, `fold::<16>(ihistory)`; the history's half of the
    /// tag is this rotated left by 5 (see `tag_fold`).
    ifold16: [u16; ITT_COMPONENTS],
    /// The last indirect site and its (index, tag) folds: an
    /// interpreter's dispatch site repeats on every op.
    site_memo: (u64, u16, u16),
    /// Return-address stack: a ring whose push overwrites the oldest
    /// entry once `RAS_DEPTH` deep.
    ras: [u64; RAS_DEPTH],
    /// Ring slot the next push writes.
    ras_top: usize,
    /// Live entries, at most `RAS_DEPTH`.
    ras_len: usize,
    /// Statistics.
    pub stats: BranchStats,
}

impl Default for BranchPredictor {
    fn default() -> Self {
        BranchPredictor::new()
    }
}

impl BranchPredictor {
    /// Creates a predictor with cleared state.
    pub fn new() -> BranchPredictor {
        BranchPredictor {
            counters: vec![1; 1 << GSHARE_BITS], // weakly not-taken
            history: 0,
            btb: vec![(u64::MAX, 0); 1 << BTB_BITS],
            itb: vec![(u64::MAX, 0); 1 << BTB_BITS],
            itags: Box::new([[EMPTY_TAG; ITT_SIZE]; ITT_COMPONENTS]),
            itargets: Box::new([[0; ITT_SIZE]; ITT_COMPONENTS]),
            iconf: Box::new([[0; ITT_SIZE]; ITT_COMPONENTS]),
            ihistory: [0; ITT_COMPONENTS],
            ifold12: [0; ITT_COMPONENTS],
            ifold16: [0; ITT_COMPONENTS],
            // Site 0's folds are 0, so the memo starts out true.
            site_memo: (0, 0, 0),
            ras: [0; RAS_DEPTH],
            ras_top: 0,
            ras_len: 0,
            stats: BranchStats::default(),
        }
    }

    /// Observes a branch; returns `true` if it was mispredicted.
    #[inline]
    pub fn observe(&mut self, site: u64, kind: BranchKind, taken: bool, target: u64) -> bool {
        self.stats.branches += 1;
        let missed = match kind {
            BranchKind::Cond => {
                let idx =
                    (((site >> 2) ^ self.history) & ((1 << GSHARE_BITS) - 1) as u64) as usize;
                let ctr = self.counters[idx];
                let predicted_taken = ctr >= 2;
                if taken && ctr < 3 {
                    self.counters[idx] = ctr + 1;
                } else if !taken && ctr > 0 {
                    self.counters[idx] = ctr - 1;
                }
                self.history = (self.history << 1) | taken as u64;
                let mut missed = predicted_taken != taken;
                // Direction correct and taken: the target must also be known.
                if !missed && taken {
                    missed = !self.btb_check_update(site, target);
                }
                missed
            }
            BranchKind::Uncond => !self.btb_check_update(site, target),
            BranchKind::Indirect | BranchKind::IndirectCall => {
                let hit = self.indirect_check_update(site, target);
                if kind == BranchKind::IndirectCall {
                    self.push_ras(site + 1);
                }
                !hit
            }
            BranchKind::Call => {
                self.push_ras(site + 1);
                !self.btb_check_update(site, target)
            }
            BranchKind::Ret => {
                // A return predicted by the RAS: a miss only when the stack
                // has underflowed (deep call chains).
                self.pop_ras().is_none()
            }
        };
        if missed {
            self.stats.misses += 1;
        }
        missed
    }

    fn push_ras(&mut self, ret_addr: u64) {
        self.ras[self.ras_top] = ret_addr;
        self.ras_top = (self.ras_top + 1) % RAS_DEPTH;
        self.ras_len = (self.ras_len + 1).min(RAS_DEPTH);
    }

    fn pop_ras(&mut self) -> Option<u64> {
        if self.ras_len == 0 {
            return None;
        }
        self.ras_len -= 1;
        self.ras_top = (self.ras_top + RAS_DEPTH - 1) % RAS_DEPTH;
        Some(self.ras[self.ras_top])
    }

    /// Indirect-target prediction, ITTAGE-style: tagged tables indexed by
    /// site XOR geometric-length target-path histories, longest matching
    /// history providing the prediction, with a site-indexed base table as
    /// fallback. This is what makes an interpreter's central dispatch
    /// branch largely predictable on modern cores — the last few handler
    /// addresses identify the position in the bytecode stream, so a
    /// repeating dispatch sequence (a loop body) predicts near-perfectly
    /// while novel or data-dependent sequences miss.
    fn indirect_check_update(&mut self, site: u64, target: u64) -> bool {
        if site != self.site_memo.0 {
            self.site_memo = (
                site,
                fold::<ITT_BITS>(site >> 2) as u16,
                fold::<16>((site >> 2).rotate_left(7)) as u16,
            );
        }
        let (_, site_idx, site_tag) = self.site_memo;
        // Both folds are 12-bit, so the mask changes nothing; it lets the
        // compiler drop the tables' bounds checks.
        let index = |f12: u16| (f12 ^ site_idx) as usize & (ITT_SIZE - 1);
        // Find the provider: the longest-history component whose tag hits.
        let mut provider: Option<(usize, usize)> = None; // (component, index)
        for k in (0..ITT_COMPONENTS).rev() {
            let idx = index(self.ifold12[k]);
            if self.itags[k][idx] == tag_fold(self.ifold16[k]) ^ site_tag {
                provider = Some((k, idx));
                break;
            }
        }

        let hit = match provider {
            Some((k, idx)) => {
                let conf = &mut self.iconf[k][idx];
                if self.itargets[k][idx] == target {
                    *conf = (*conf + 1).min(3);
                    true
                } else {
                    if *conf > 0 {
                        *conf -= 1;
                    } else {
                        self.itargets[k][idx] = target;
                    }
                    false
                }
            }
            None => {
                // Base component: plain site-indexed target.
                let idx = ((site >> 2) & ((1 << BTB_BITS) - 1) as u64) as usize;
                let (tag, predicted) = self.itb[idx];
                let hit = tag == site && predicted == target;
                self.itb[idx] = (site, target);
                hit
            }
        };

        // On a misprediction, allocate the path into the next-longer
        // component so a recurring context graduates to longer history.
        if !hit {
            let next = provider.map_or(0, |(k, _)| k + 1);
            if next < ITT_COMPONENTS {
                let idx = index(self.ifold12[next]);
                let conf = &mut self.iconf[next][idx];
                // Confident entries resist displacement (useful-bit analogue).
                if *conf == 0 {
                    self.itags[next][idx] = tag_fold(self.ifold16[next]) ^ site_tag;
                    self.itargets[next][idx] = target;
                } else {
                    *conf -= 1;
                }
            }
        }

        // Fold the taken target into every path history (the low bits of
        // the handler address identify the opcode). The index and tag
        // are different foldings of the same (history, site) pair, so
        // index aliasing is caught by a tag mismatch.
        let t = target >> 6;
        let (t12, t16) = (fold::<ITT_BITS>(t) as u16, fold::<16>(t) as u16);
        self.push_history::<0>(t, t12, t16);
        self.push_history::<1>(t, t12, t16);
        self.push_history::<2>(t, t12, t16);
        self.push_history::<3>(t, t12, t16);
        hit
    }

    /// Shifts `t` into component `K`'s history, `h' = (h << s) ^ t`, and
    /// updates its folds in O(1) from the old ones. With `hi = h >> (64 -
    /// s)`, the bits the shift drops (`s <= 16`):
    /// - `fold16(h << s) = rotl16(fold16(h), s mod 16) ^ hi`, since 16
    ///   divides 64 (rotating `h` by `s` rotates each chunk, and `hi` is
    ///   what wrapped around);
    /// - `fold12(h << s) = rotl12(fold12(h), s mod 12) ^ fold12(hi << 4)`:
    ///   64 mod 12 = 4, so the dropped bits had landed 4 places up.
    ///
    /// `t12`/`t16` are `t`'s folds; XOR-linearity adds them in.
    #[inline(always)]
    fn push_history<const K: usize>(&mut self, t: u64, t12: u16, t16: u16) {
        let s = ITT_SHIFTS[K];
        let h = self.ihistory[K];
        let hi = h >> (u64::BITS - s);
        let r12 = s % ITT_BITS;
        let f12 = self.ifold12[K] as u64;
        let rot12 = ((f12 << r12) | (f12 >> (ITT_BITS - r12))) & (ITT_SIZE as u64 - 1);
        let f12 = rot12 as u16 ^ fold::<ITT_BITS>(hi << (u64::BITS % ITT_BITS)) as u16 ^ t12;
        let f16 = self.ifold16[K].rotate_left(s % 16) ^ hi as u16 ^ t16;
        let h = (h << s) ^ t;
        debug_assert_eq!(f12 as u64, fold::<ITT_BITS>(h));
        debug_assert_eq!(f16 as u64, fold::<16>(h));
        self.ihistory[K] = h;
        self.ifold12[K] = f12;
        self.ifold16[K] = f16;
    }

    /// Checks the BTB for `site → target` and installs the new target.
    /// Returns `true` on a correct prediction.
    fn btb_check_update(&mut self, site: u64, target: u64) -> bool {
        let idx = ((site >> 2) & ((1 << BTB_BITS) - 1) as u64) as usize;
        let (tag, predicted) = self.btb[idx];
        let hit = tag == site && predicted == target;
        self.btb[idx] = (site, target);
        hit
    }
}

/// A history's tag half from its 16-bit fold: the tag is
/// `fold::<16>(h.rotate_left(21))`, and since 16 divides 64, rotating `h`
/// by 21 rotates each 16-bit chunk by 21 mod 16 = 5.
#[inline(always)]
fn tag_fold(f16: u16) -> u16 {
    f16.rotate_left(5)
}

/// XOR-folds a 64-bit value down to `BITS` bits: the XOR of its
/// `BITS`-wide chunks. A fixed trip count (unrolled for a constant
/// `BITS`), and linear: `fold(a ^ b) == fold(a) ^ fold(b)`.
fn fold<const BITS: u32>(v: u64) -> u64 {
    let mask = (1u64 << BITS) - 1;
    let mut out = 0;
    let mut shift = 0;
    while shift < u64::BITS {
        out ^= (v >> shift) & mask;
        shift += BITS;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_steady_loop_branch() {
        let mut bp = BranchPredictor::new();
        let mut late_misses = 0;
        for i in 0..1000 {
            let missed = bp.observe(0x100, BranchKind::Cond, true, 0x80);
            if i > 30 && missed {
                late_misses += 1;
            }
        }
        assert_eq!(late_misses, 0, "a monomorphic loop branch should saturate");
    }

    #[test]
    fn alternating_pattern_with_short_history_misses_sometimes() {
        let mut bp = BranchPredictor::new();
        let mut misses = 0;
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..2000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let taken = rng & 1 == 0;
            if bp.observe(0x200, BranchKind::Cond, taken, 0x300) {
                misses += 1;
            }
        }
        assert!(misses > 400, "random directions should miss often: {misses}");
    }

    #[test]
    fn polymorphic_indirect_misses_monomorphic_hits() {
        let mut bp = BranchPredictor::new();
        // Monomorphic indirect branch: learns the target.
        for _ in 0..10 {
            bp.observe(0x400, BranchKind::Indirect, true, 0x900);
        }
        assert!(!bp.observe(0x400, BranchKind::Indirect, true, 0x900));
        // Alternating targets: the history-indexed table learns the
        // pattern after warmup (real indirect predictors do).
        let mut late_misses = 0;
        for i in 0..200 {
            let target = if i % 2 == 0 { 0xA00 } else { 0xB00 };
            let missed = bp.observe(0x500, BranchKind::Indirect, true, target);
            if i > 50 && missed {
                late_misses += 1;
            }
        }
        assert!(late_misses <= 5, "alternating dispatch should be learned: {late_misses}");
        // Random targets stay unpredictable.
        let mut rng: u64 = 0x243F6A8885A308D3;
        let mut misses = 0;
        for _ in 0..500 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let target = 0x1000 + (rng % 64) * 0x40;
            if bp.observe(0x600, BranchKind::Indirect, true, target) {
                misses += 1;
            }
        }
        assert!(misses > 250, "random indirect targets should miss: {misses}");
    }

    #[test]
    fn repeating_dispatch_sequence_is_learned() {
        // An interpreter running a loop: one dispatch site cycling through
        // a long fixed sequence of handler targets. After the first
        // iterations the tagged long-history components should predict it
        // nearly perfectly — the paper's Table 5 finding.
        let mut bp = BranchPredictor::new();
        let body: Vec<u64> = (0..100u64).map(|i| 0x10000 + (i * 37 % 64) * 0x40).collect();
        let mut late_misses = 0;
        let mut late_total = 0;
        for iter in 0..60 {
            for &t in &body {
                let missed = bp.observe(0x4000, BranchKind::Indirect, true, t);
                if iter >= 20 {
                    late_total += 1;
                    if missed {
                        late_misses += 1;
                    }
                }
            }
        }
        let ratio = late_misses as f64 / late_total as f64;
        assert!(
            ratio < 0.03,
            "steady dispatch stream should be near-perfectly predicted, got {:.1}%",
            ratio * 100.0
        );
    }

    #[test]
    fn calls_and_returns_pair_through_ras() {
        let mut bp = BranchPredictor::new();
        for depth in 0..8u64 {
            bp.observe(0x600 + depth * 8, BranchKind::Call, true, 0x1000);
        }
        let mut ret_misses = 0;
        for depth in (0..8u64).rev() {
            if bp.observe(0x2000 + depth, BranchKind::Ret, true, 0x600) {
                ret_misses += 1;
            }
        }
        assert_eq!(ret_misses, 0);
        // Underflow: one more return than calls.
        assert!(bp.observe(0x2100, BranchKind::Ret, true, 0));
    }

    #[test]
    fn fixed_trip_fold_matches_the_loop_fold() {
        fn loop_fold(mut v: u64, bits: u32) -> u64 {
            let mask = (1u64 << bits) - 1;
            let mut out = 0u64;
            while v != 0 {
                out ^= v & mask;
                v >>= bits;
            }
            out
        }
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..10_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            // Also sparse values, whose high chunks are zero.
            for v in [rng, rng >> (rng % 64), u64::MAX] {
                assert_eq!(fold::<12>(v), loop_fold(v, 12), "{v:#x}");
                assert_eq!(fold::<16>(v), loop_fold(v, 16), "{v:#x}");
            }
        }
    }

    #[test]
    fn incremental_folds_match_full_refolds() {
        fn check<const K: usize>(bp: &mut BranchPredictor, h: u64, target: u64) {
            bp.ihistory[K] = h;
            bp.ifold12[K] = fold::<ITT_BITS>(h) as u16;
            bp.ifold16[K] = fold::<16>(h) as u16;
            let t = target >> 6;
            bp.push_history::<K>(t, fold::<ITT_BITS>(t) as u16, fold::<16>(t) as u16);
            let h = (h << ITT_SHIFTS[K]) ^ t;
            assert_eq!(bp.ihistory[K], h);
            let incremental = (bp.ifold12[K] as u64, tag_fold(bp.ifold16[K]) as u64);
            let full = (fold::<ITT_BITS>(h), fold::<16>(h.rotate_left(21)));
            assert_eq!(incremental, full, "shift {}: {h:#x}", ITT_SHIFTS[K]);
        }
        let bp = &mut BranchPredictor::new();
        let mut rng: u64 = 0x2545F4914F6CDD1D;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..5_000 {
            // Dense and sparse histories, handler-like and arbitrary targets.
            let h = next();
            for (h, target) in [(h, next()), (h >> (h % 64), 0x10000 + (h % 200) * 0x40)] {
                check::<0>(bp, h, target);
                check::<1>(bp, h, target);
                check::<2>(bp, h, target);
                check::<3>(bp, h, target);
            }
        }
    }

    #[test]
    fn ras_ring_drops_the_oldest_entry() {
        let mut bp = BranchPredictor::new();
        for addr in 0..RAS_DEPTH as u64 + 4 {
            bp.push_ras(addr);
        }
        // The four oldest were overwritten; the rest pop newest first.
        for addr in (4..RAS_DEPTH as u64 + 4).rev() {
            assert_eq!(bp.pop_ras(), Some(addr));
        }
        assert_eq!(bp.pop_ras(), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut bp = BranchPredictor::new();
        bp.observe(0, BranchKind::Cond, true, 64);
        bp.observe(0, BranchKind::Cond, true, 64);
        assert_eq!(bp.stats.branches, 2);
        assert!(bp.stats.miss_ratio() > 0.0);
    }
}
