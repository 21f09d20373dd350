//! Set-associative cache simulation.

/// Statistics for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with LRU replacement and 64-byte lines.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Tag store: `sets × ways` line numbers, each set ordered from most
    /// to least recently used (`u64::MAX` = invalid, always at the back).
    tags: Vec<u64>,
    ways: usize,
    set_mask: u64,
    /// The line the previous access touched (hit or filled): resident,
    /// and already at the front of its set.
    last: u64,
    /// Access statistics.
    pub stats: CacheStats,
}

/// Cache line size in bytes (log2).
pub const LINE_SHIFT: u32 = 6;

impl Cache {
    /// Creates a cache of `size_bytes` with the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power of two.
    pub fn new(size_bytes: usize, ways: usize) -> Cache {
        let lines = size_bytes >> LINE_SHIFT;
        assert!(lines.is_multiple_of(ways), "size must divide into ways");
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            tags: vec![u64::MAX; sets * ways],
            ways,
            set_mask: (sets - 1) as u64,
            // No line number reaches u64::MAX (addresses are shifted).
            last: u64::MAX,
            stats: CacheStats::default(),
        }
    }

    /// Accesses the line containing `addr`; returns `true` on hit.
    /// Touches at most one line — callers split straddling accesses.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = addr >> LINE_SHIFT;
        // A repeat of the previous line hits without touching the set: it
        // is already the most recently used, so LRU order stays exact.
        if line == self.last {
            return true;
        }
        self.last = line;
        let base = (line & self.set_mask) as usize * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        // The line moves to the front: a hit shifts the ways before it
        // back by one, a miss shifts the whole set and so evicts the least
        // recently used way at the back. A plain shift loop: the generic
        // `rotate_right` costs measurably per access.
        let (way, hit) = match set.iter().position(|&t| t == line) {
            Some(w) => (w, true),
            None => {
                self.stats.misses += 1;
                (set.len() - 1, false)
            }
        };
        for w in (1..=way).rev() {
            set[w] = set[w - 1];
        }
        set[0] = line;
        hit
    }

    /// The L1 hit path, inlined into every caller: answers and counts an
    /// access of `len` bytes at `addr` that stays inside one line when
    /// that line repeats the previous access's or sits in way 0 of its
    /// set. Either way the line is already the most recently used, so
    /// nothing moves and LRU order stays exactly what `access` would
    /// leave. Returns `false`, having counted nothing, otherwise.
    #[inline]
    fn hit_in_place(&mut self, addr: u64, len: u32) -> bool {
        let line_bytes = 1u64 << LINE_SHIFT;
        if (addr & (line_bytes - 1)) + len.max(1) as u64 > line_bytes {
            return false;
        }
        let line = addr >> LINE_SHIFT;
        if line != self.last {
            if self.tags[(line & self.set_mask) as usize * self.ways] != line {
                return false;
            }
            self.last = line;
        }
        self.stats.accesses += 1;
        true
    }

    /// The first and last line numbers an access of `len` bytes at `addr`
    /// touches.
    fn line_span(addr: u64, len: u32) -> (u64, u64) {
        // Saturate: an access at the very top of the address space ends
        // on the last line rather than wrapping (and overflowing) to 0.
        let last = addr.saturating_add(len.max(1) as u64 - 1);
        (addr >> LINE_SHIFT, last >> LINE_SHIFT)
    }
}

/// The three-level hierarchy of the study platform (Table 3):
/// 32 KiB L1-I, 32 KiB L1-D, 256 KiB unified L2, 10 MiB L3.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    /// Last-level cache.
    pub l3: Cache,
}

/// Where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Hit in L1.
    L1,
    /// Hit in L2.
    L2,
    /// Hit in L3.
    L3,
    /// Missed everywhere (memory).
    Memory,
}

impl ServedBy {
    /// Approximate load-to-use latency in cycles (Broadwell-class).
    pub fn latency(self) -> u64 {
        match self {
            ServedBy::L1 => 4,
            ServedBy::L2 => 12,
            ServedBy::L3 => 38,
            ServedBy::Memory => 180,
        }
    }
}

impl Default for Hierarchy {
    fn default() -> Self {
        Hierarchy::new()
    }
}

impl Hierarchy {
    /// Builds the study platform's hierarchy.
    pub fn new() -> Hierarchy {
        Hierarchy {
            l1i: Cache::new(32 << 10, 8),
            l1d: Cache::new(32 << 10, 8),
            l2: Cache::new(256 << 10, 8),
            l3: Cache::new(10 << 20, 20),
        }
    }

    /// A data access of `len` bytes at `addr`.
    // `#[inline]` (here, on `inst_access` and on `BranchPredictor::observe`):
    // the engine loops that call these per event are monomorphized in
    // other crates, which cannot inline them otherwise. Only the L1 hit
    // path is inlined; everything else is one call to `walk`.
    #[inline]
    pub fn data_access(&mut self, addr: u64, len: u32) -> ServedBy {
        if self.l1d.hit_in_place(addr, len) {
            return ServedBy::L1;
        }
        Self::walk(&mut self.l1d, &mut self.l2, &mut self.l3, addr, len)
    }

    /// An instruction fetch of `len` bytes at `addr`.
    #[inline]
    pub fn inst_access(&mut self, addr: u64, len: u32) -> ServedBy {
        if self.l1i.hit_in_place(addr, len) {
            return ServedBy::L1;
        }
        Self::walk(&mut self.l1i, &mut self.l2, &mut self.l3, addr, len)
    }

    /// The slow path, out of line: walks each touched line down `l1` →
    /// L2 → L3 (the L1 scan repeats the in-place probe, then searches the
    /// deeper ways); returns the slowest level any line was served from.
    #[inline(never)]
    fn walk(l1: &mut Cache, l2: &mut Cache, l3: &mut Cache, addr: u64, len: u32) -> ServedBy {
        let mut worst = ServedBy::L1;
        let (mut line, last) = Cache::line_span(addr, len);
        // A plain loop: a `RangeInclusive` here costs measurably per access.
        loop {
            let at = line << LINE_SHIFT;
            let served = if l1.access(at) {
                ServedBy::L1
            } else if l2.access(at) {
                ServedBy::L2
            } else if l3.access(at) {
                ServedBy::L3
            } else {
                ServedBy::Memory
            };
            if served.latency() > worst.latency() {
                worst = served;
            }
            if line == last {
                return worst;
            }
            line += 1;
        }
    }

    /// Last-level cache references (the `perf` "cache-references" analogue).
    pub fn llc_references(&self) -> u64 {
        self.l3.stats.accesses
    }

    /// Last-level cache misses (the `perf` "cache-misses" analogue).
    pub fn llc_misses(&self) -> u64 {
        self.l3.stats.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(32 << 10, 8);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1038)); // same 64-byte line? 0x1038>>6=0x40 vs 0x1000>>6=0x40: yes
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.accesses, 3);
    }

    #[test]
    fn conflict_eviction_is_lru() {
        // 2 ways, 64-byte lines, tiny cache: 4 lines → 2 sets.
        let mut c = Cache::new(256, 2);
        let set_stride = 2 * 64; // same set every 2 lines
        let a = 0;
        let b = set_stride as u64;
        let d = 2 * set_stride as u64;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // refresh a
        assert!(!c.access(d)); // evicts b (LRU)
        assert!(c.access(a));
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        assert_eq!(Cache::line_span(60, 8), (0, 1));
        assert_eq!(Cache::line_span(64, 4), (1, 1));
        let top = u64::MAX >> LINE_SHIFT;
        assert_eq!(Cache::line_span(u64::MAX - 1, 8), (top, top));
        let mut h = Hierarchy::new();
        h.data_access(60, 8);
        assert_eq!(h.l1d.stats.accesses, 2);
        h.data_access(u64::MAX - 1, 8);
        assert_eq!(h.l1d.stats.accesses, 3);
    }

    #[test]
    fn in_place_hits_keep_the_filter_on_the_latest_line() {
        let mut h = Hierarchy::new();
        h.data_access(0x1000, 8);
        h.data_access(0x2040, 8);
        // 0x1000's line is in way 0 of its set but is not the last line:
        // the in-place path serves it and makes it the filter's line.
        assert_eq!(h.data_access(0x1008, 4), ServedBy::L1);
        assert_eq!(h.l1d.last, 0x1000 >> LINE_SHIFT);
        assert_eq!((h.l1d.stats.accesses, h.l1d.stats.misses), (3, 2));
    }

    #[test]
    fn hierarchy_fills_downward() {
        let mut h = Hierarchy::new();
        assert_eq!(h.data_access(0x5000, 8), ServedBy::Memory);
        assert_eq!(h.data_access(0x5000, 8), ServedBy::L1);
        assert_eq!(h.llc_references(), 1);
        assert_eq!(h.llc_misses(), 1);
    }

    #[test]
    fn l2_serves_after_l1_eviction() {
        let mut h = Hierarchy::new();
        // Fill one L1 set (8 ways; 64 sets in 32K/8w) with 9 conflicting lines.
        let stride = 64 * 64; // set stride for L1 (64 sets)
        for k in 0..9u64 {
            h.data_access(k * stride as u64, 4);
        }
        // First line is out of L1 but (256K L2 = 512 sets) still in L2.
        assert_eq!(h.data_access(0, 4), ServedBy::L2);
    }

    #[test]
    fn working_set_larger_than_l3_misses() {
        let mut h = Hierarchy::new();
        let lines = (11 << 20) / 64; // > 10 MiB of distinct lines
        for k in 0..lines as u64 {
            h.data_access(k * 64, 1);
        }
        // Re-walk: everything was evicted from L3.
        let before = h.llc_misses();
        for k in 0..4096u64 {
            h.data_access(k * 64, 1);
        }
        assert!(h.llc_misses() > before);
    }

    #[test]
    fn miss_ratio_math() {
        let s = CacheStats {
            accesses: 200,
            misses: 20,
        };
        assert!((s.miss_ratio() - 0.1).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
