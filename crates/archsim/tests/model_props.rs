//! Property tests for the architectural models: the set-associative cache,
//! the cache hierarchy and the branch predictor must agree with reference
//! models, and counters must stay internally consistent.

use archsim::cache::ServedBy;
use archsim::{ArchSim, BranchPredictor, BranchStats, Cache, CacheStats, Hierarchy};
use engines::profiler::{BranchKind, Profiler};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A brute-force fully-explicit model of a set-associative LRU cache.
struct RefCache {
    sets: Vec<Vec<u64>>, // per set: lines in LRU order (front = MRU)
    ways: usize,
    set_mask: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(size: usize, ways: usize) -> RefCache {
        let sets = size / 64 / ways;
        RefCache {
            sets: vec![Vec::new(); sets],
            ways,
            set_mask: (sets - 1) as u64,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = addr >> 6;
        let set = (line & self.set_mask) as usize;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|l| *l == line) {
            let l = s.remove(pos);
            s.insert(0, l);
            true
        } else {
            self.stats.misses += 1;
            s.insert(0, line);
            s.truncate(self.ways);
            false
        }
    }
}

/// The study platform's hierarchy built from three reference caches per
/// side, walked one line at a time with no fast path.
struct RefHierarchy {
    l1i: RefCache,
    l1d: RefCache,
    l2: RefCache,
    l3: RefCache,
}

impl RefHierarchy {
    fn new() -> RefHierarchy {
        RefHierarchy {
            l1i: RefCache::new(32 << 10, 8),
            l1d: RefCache::new(32 << 10, 8),
            l2: RefCache::new(256 << 10, 8),
            l3: RefCache::new(10 << 20, 20),
        }
    }

    /// Every line the `len` bytes at `addr` touch (a zero-length access
    /// touches one byte; the range ends at the top of the address space
    /// rather than wrapping), each served by the first level that hits.
    fn access(&mut self, inst: bool, addr: u64, len: u32) -> ServedBy {
        let first = addr >> 6;
        let last = addr.saturating_add(len.max(1) as u64 - 1) >> 6;
        let mut worst = ServedBy::L1;
        for line in first..=last {
            let at = line << 6;
            let l1 = if inst { &mut self.l1i } else { &mut self.l1d };
            let served = if l1.access(at) {
                ServedBy::L1
            } else if self.l2.access(at) {
                ServedBy::L2
            } else if self.l3.access(at) {
                ServedBy::L3
            } else {
                ServedBy::Memory
            };
            if served.latency() > worst.latency() {
                worst = served;
            }
        }
        worst
    }
}

/// Access sizes the hierarchy test draws from: zero-length, every
/// engine width, a whole line and more than a line.
const HIERARCHY_LENS: [u32; 8] = [0, 1, 4, 8, 16, 24, 64, 100];

/// An address in one of four clusters, each a few lines over a few sets
/// so that lines repeat, sit in way 0, sit in deeper ways and get
/// evicted: 12 lines a 4 KiB stride apart overflow an 8-way L1 set; 12 a
/// 32 KiB stride apart also overflow an L2 set; 36 a 512 KiB stride
/// apart overflow a 20-way L3 set; and the last cluster is the two lines
/// at the very top of the address space. `offset` (0..64) places the
/// access within its line, so longer accesses straddle.
fn hierarchy_addr(cluster: u8, pick: u64, offset: u64) -> u64 {
    match cluster {
        0 => (pick % 3) * 64 + (pick / 3) * (4 << 10) + offset,
        1 => (1 << 20) + (pick % 3) * 64 + (pick / 3) * (32 << 10) + offset,
        2 => (1 << 30) + pick * (512 << 10) + offset,
        _ => u64::MAX - (pick % 2) * 64 - offset,
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

/// A tagged indirect-target entry.
#[derive(Debug, Clone, Copy)]
struct ItEntry {
    tag: u16,
    target: u64,
    /// Replacement hysteresis: a mispredicting entry must decay before its
    /// target is displaced.
    conf: u8,
}

const EMPTY_IT: ItEntry = ItEntry { tag: u16::MAX, target: 0, conf: 0 };

/// The parent commit's `BranchPredictor`, verbatim: the `while v != 0`
/// fold and the `Vec` RAS with `remove(0)`.
#[derive(Debug, Clone)]
struct RefBranchPredictor {
    /// 2-bit saturating counters indexed by `pc ⊕ history`.
    counters: Vec<u8>,
    history: u64,
    /// Direct-mapped BTB: predicted target per site (direct branches).
    btb: Vec<(u64, u64)>,
    /// ITTAGE base component: site-indexed target table.
    itb: Vec<(u64, u64)>,
    /// ITTAGE tagged components, shortest history first.
    itt: Vec<Vec<ItEntry>>,
    /// Rolling target-path histories, one per tagged component.
    ihistory: [u64; ITT_SHIFTS.len()],
    /// Return-address stack.
    ras: Vec<u64>,
    /// Statistics.
    stats: BranchStats,
}

impl RefBranchPredictor {
    /// Creates a predictor with cleared state.
    fn new() -> RefBranchPredictor {
        RefBranchPredictor {
            counters: vec![1; 1 << GSHARE_BITS], // weakly not-taken
            history: 0,
            btb: vec![(u64::MAX, 0); 1 << BTB_BITS],
            itb: vec![(u64::MAX, 0); 1 << BTB_BITS],
            itt: vec![vec![EMPTY_IT; 1 << ITT_BITS]; ITT_SHIFTS.len()],
            ihistory: [0; ITT_SHIFTS.len()],
            ras: Vec::with_capacity(RAS_DEPTH),
            stats: BranchStats::default(),
        }
    }

    /// Observes a branch; returns `true` if it was mispredicted.
    fn observe(&mut self, site: u64, kind: BranchKind, taken: bool, target: u64) -> bool {
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
                let hit = self.ras.pop().is_some();
                !hit
            }
        };
        if missed {
            self.stats.misses += 1;
        }
        missed
    }

    fn push_ras(&mut self, ret_addr: u64) {
        if self.ras.len() == RAS_DEPTH {
            self.ras.remove(0);
        }
        self.ras.push(ret_addr);
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
        // Find the provider: the longest-history component whose tag hits.
        let mut provider: Option<(usize, usize)> = None; // (component, index)
        for k in (0..ITT_SHIFTS.len()).rev() {
            let idx = self.itt_index(k, site);
            if self.itt[k][idx].tag == Self::itt_tag(self.ihistory[k], site) {
                provider = Some((k, idx));
                break;
            }
        }

        let hit = match provider {
            Some((k, idx)) => {
                let e = &mut self.itt[k][idx];
                if e.target == target {
                    e.conf = (e.conf + 1).min(3);
                    true
                } else {
                    if e.conf > 0 {
                        e.conf -= 1;
                    } else {
                        e.target = target;
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
            if next < ITT_SHIFTS.len() {
                let idx = self.itt_index(next, site);
                let e = &mut self.itt[next][idx];
                // Confident entries resist displacement (useful-bit analogue).
                if e.conf == 0 {
                    *e = ItEntry {
                        tag: Self::itt_tag(self.ihistory[next], site),
                        target,
                        conf: 0,
                    };
                } else {
                    e.conf -= 1;
                }
            }
        }

        // Fold the taken target into every path history (the low bits of
        // the handler address identify the opcode).
        for (k, shift) in ITT_SHIFTS.iter().enumerate() {
            self.ihistory[k] = (self.ihistory[k] << shift) ^ (target >> 6);
        }
        hit
    }

    /// Index into tagged component `k` for this site under its history.
    fn itt_index(&self, k: usize, site: u64) -> usize {
        let h = self.ihistory[k] ^ (site >> 2);
        (Self::fold(h, ITT_BITS) & ((1 << ITT_BITS) - 1) as u64) as usize
    }

    /// Entry tag: a different folding of the same (history, site) pair, so
    /// index aliasing is caught by a tag mismatch.
    fn itt_tag(history: u64, site: u64) -> u16 {
        Self::fold(history.rotate_left(21) ^ (site >> 2).rotate_left(7), 16) as u16
    }

    /// XOR-folds a 64-bit value down to `bits` bits.
    fn fold(mut v: u64, bits: u32) -> u64 {
        let mask = (1u64 << bits) - 1;
        let mut out = 0u64;
        while v != 0 {
            out ^= v & mask;
            v >>= bits;
        }
        out
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

/// Drives the production cache and the reference model through `trace`
/// at one geometry, failing on the first divergent hit/miss.
fn caches_agree(size: usize, ways: usize, trace: &[u64]) -> Result<(), TestCaseError> {
    let mut real = Cache::new(size, ways);
    let mut reference = RefCache::new(size, ways);
    for &addr in trace {
        let a = real.access(addr);
        let b = reference.access(addr);
        prop_assert_eq!(a, b, "{}B/{}-way: divergence at {:#x}", size, ways, addr);
    }
    prop_assert_eq!(real.stats.accesses, trace.len() as u64);
    Ok(())
}

/// A conflict-heavy trace for a cache of `sets` sets and `ways` ways: each
/// step picks one of 2 × `ways` lines in one of 3 sets (a set-sized
/// stride apart, so sets overflow and evict), then re-touches that line
/// once or twice at another offset — over half the accesses repeat the
/// previous line, including right after a miss evicted an older one.
fn conflict_trace(steps: &[(u64, u64, u64, bool)], sets: u64, ways: u64) -> Vec<u64> {
    let stride = sets * 64;
    let mut trace = Vec::new();
    for &(set, k, offset, twice) in steps {
        let line = (set % 3) * 64 + (k % (2 * ways)) * stride;
        trace.push(line + offset % 64);
        trace.push(line + (offset >> 6) % 64);
        if twice {
            trace.push(line);
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production cache and the reference model agree on every access
    /// of a random trace.
    #[test]
    fn cache_matches_reference_model(
        addrs in proptest::collection::vec(0u64..(1 << 18), 1..2000)
    ) {
        let mut real = Cache::new(4096, 4);
        let mut reference = RefCache::new(4096, 4);
        for addr in addrs {
            let a = real.access(addr & !63);
            let b = reference.access(addr & !63);
            prop_assert_eq!(a, b, "divergence at {:#x}", addr);
        }
    }

    /// The same agreement at the study platform's L1 and L3 geometries,
    /// on traces that evict and that lean on the last-line filter.
    #[test]
    fn cache_matches_reference_model_at_production_geometry(
        steps in proptest::collection::vec(
            (0u64..3, 0u64..64, 0u64..4096, any::<bool>()),
            1..1500,
        )
    ) {
        // 32 KiB / 8-way: 64 sets (L1-I, L1-D).
        caches_agree(32 << 10, 8, &conflict_trace(&steps, 64, 8))?;
        // 10 MiB / 20-way: 8192 sets (L3).
        caches_agree(10 << 20, 20, &conflict_trace(&steps, 8192, 20))?;
    }

    /// The production hierarchy, with its inline L1 hit path, matches the
    /// line-by-line reference walk on every access of clustered data and
    /// instruction streams: the same `ServedBy` for each, and the same
    /// statistics in all four caches after each.
    #[test]
    fn hierarchy_matches_reference_model(
        ops in proptest::collection::vec(
            // (side and cluster, line pick, offset, size index)
            (0u8..8, 0u64..36, 0u64..64, 0usize..HIERARCHY_LENS.len()),
            1..1500,
        )
    ) {
        let mut real = Hierarchy::new();
        let mut reference = RefHierarchy::new();
        for (side_cluster, pick, offset, len_i) in ops {
            let inst = side_cluster >= 4;
            let addr = hierarchy_addr(side_cluster % 4, pick, offset);
            let len = HIERARCHY_LENS[len_i];
            let served = if inst {
                real.inst_access(addr, len)
            } else {
                real.data_access(addr, len)
            };
            let expected = reference.access(inst, addr, len);
            prop_assert_eq!(served, expected, "inst={} {:#x}+{}", inst, addr, len);
            let stats = [real.l1i.stats, real.l1d.stats, real.l2.stats, real.l3.stats];
            let ref_stats = [
                reference.l1i.stats,
                reference.l1d.stats,
                reference.l2.stats,
                reference.l3.stats,
            ];
            prop_assert_eq!(stats, ref_stats, "inst={} {:#x}+{}", inst, addr, len);
        }
    }

    /// The production predictor matches the parent's verbatim model on
    /// every branch of random streams over all six kinds: small site and
    /// target pools, replayed six times, so the tagged ITTAGE tables alias
    /// and hit; halfway through each site's indirect targets rotate, so
    /// confident entries must decay; call runs deeper than the RAS drop
    /// its oldest entries.
    #[test]
    fn branch_predictor_matches_reference_model(
        events in proptest::collection::vec(
            (0u8..8, 0u64..12, 0u64..4, any::<bool>()),
            1..400,
        )
    ) {
        let mut real = BranchPredictor::new();
        let mut reference = RefBranchPredictor::new();
        let mut observe = |site: u64, kind: BranchKind, taken: bool, target: u64| {
            let a = real.observe(site, kind, taken, target);
            let b = reference.observe(site, kind, taken, target);
            prop_assert_eq!(a, b, "{:?} at site {:#x} -> {:#x}", kind, site, target);
            Ok(())
        };
        for pass in 0..6 {
            for &(op, site_i, target_i, taken) in &events {
                let site = 0x4000 + site_i * 4;
                let target = 0x10000 + ((target_i + pass / 3 * site_i) % 4) * 0x40;
                match op {
                    0 | 1 => observe(site, BranchKind::Cond, taken, target)?,
                    2 => observe(site, BranchKind::Uncond, true, target)?,
                    3 => observe(site, BranchKind::Indirect, true, target)?,
                    4 => observe(site, BranchKind::IndirectCall, true, target)?,
                    5 => observe(site, BranchKind::Call, true, target)?,
                    6 => observe(site, BranchKind::Ret, true, site + 4)?,
                    // A call chain deeper than the 16-entry RAS, unwound.
                    _ => {
                        let depth = 17 + site_i;
                        for d in 0..depth {
                            observe(site + d * 8, BranchKind::Call, true, target)?;
                        }
                        for d in (0..depth).rev() {
                            observe(target + d, BranchKind::Ret, true, site + d * 8 + 1)?;
                        }
                    }
                }
            }
        }
        prop_assert_eq!(real.stats, reference.stats);
    }

    /// The production predictor matches the parent's model on the stream
    /// the ITTAGE fast paths are built for, an interpreter's: one dispatch
    /// site replaying a loop body of about 200 handler targets, each pass
    /// cut short at a data-dependent exit, with a second indirect site
    /// (a `call_indirect` or `br_table`) interleaved after some handlers
    /// and the loop's backward branch closing each pass — several
    /// thousand events, enough to fill the 32-target component.
    #[test]
    fn branch_predictor_matches_reference_model_on_dispatch_loops(
        body in proptest::collection::vec(0u64..200, 180..220),
        passes in proptest::collection::vec((0u64..4, 0u64..1000, 0u64..8), 16..32),
    ) {
        let mut real = BranchPredictor::new();
        let mut reference = RefBranchPredictor::new();
        let mut observe = |site: u64, kind: BranchKind, taken: bool, target: u64| {
            let a = real.observe(site, kind, taken, target);
            let b = reference.observe(site, kind, taken, target);
            prop_assert_eq!(a, b, "{:?} at site {:#x} -> {:#x}", kind, site, target);
            Ok(())
        };
        let dispatch = 0x4000;
        let second = 0x4800;
        let handler = |op: u64| 0x10000 + op * 0x40;
        let mut events = 0;
        for &(exit_kind, exit_at, second_target) in &passes {
            // One pass in four leaves the body early, where the data says.
            let len = if exit_kind == 0 { exit_at as usize % body.len() } else { body.len() };
            for &op in &body[..len] {
                observe(dispatch, BranchKind::Indirect, true, handler(op))?;
                if op % 16 == 0 {
                    let t = 0x20000 + (second_target + op / 16) % 8 * 0x40;
                    observe(second, BranchKind::Indirect, true, t)?;
                    events += 1;
                }
            }
            observe(dispatch + 4, BranchKind::Cond, exit_kind != 0, dispatch)?;
            events += len + 1;
        }
        prop_assert!(events >= 2000, "{} events", events);
        prop_assert_eq!(real.stats, reference.stats);
    }

    /// Counters are internally consistent for arbitrary event streams.
    #[test]
    fn counters_are_consistent(
        events in proptest::collection::vec((0u8..4, any::<u64>(), 1u32..64), 0..500)
    ) {
        let mut sim = ArchSim::new();
        let mut branches = 0u64;
        for (kind, addr, len) in events {
            match kind {
                0 => sim.read(addr, len),
                1 => sim.write(addr, len),
                2 => sim.fetch(addr, len),
                _ => {
                    sim.branch(addr, BranchKind::Cond, addr % 2 == 0, addr ^ 0x40);
                    branches += 1;
                }
            }
            sim.uops(1);
        }
        let c = sim.counters();
        prop_assert_eq!(c.branches, branches);
        prop_assert!(c.branch_misses <= c.branches);
        prop_assert!(c.cache_misses <= c.cache_references);
        prop_assert!(c.l1d_misses <= c.l1d_accesses);
        prop_assert!(c.l1i_misses <= c.l1i_accesses);
        prop_assert!(c.cycles >= c.instructions / 4);
    }
}
