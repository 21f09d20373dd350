//! The architectural simulator: an [`engines::Profiler`] implementation
//! combining the cache hierarchy, branch predictors, and a simple
//! superscalar cycle model — the reproduction's stand-in for `perf`.

use crate::branch::{BranchPredictor, BranchStats};
use crate::cache::{CacheStats, Hierarchy, ServedBy};
use engines::profiler::{BranchKind, Profiler};

/// Issue width of the modeled core.
const ISSUE_WIDTH: u64 = 4;
/// Pipeline flush penalty for a branch misprediction.
const MISPREDICT_PENALTY: u64 = 15;

/// A snapshot of all counters, in `perf stat` terms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Retired instructions (µops).
    pub instructions: u64,
    /// Modeled cycles.
    pub cycles: u64,
    /// Retired branches.
    pub branches: u64,
    /// Branch mispredictions.
    pub branch_misses: u64,
    /// Last-level cache references.
    pub cache_references: u64,
    /// Last-level cache misses.
    pub cache_misses: u64,
    /// L1-D accesses.
    pub l1d_accesses: u64,
    /// L1-D misses.
    pub l1d_misses: u64,
    /// L1-I accesses.
    pub l1i_accesses: u64,
    /// L1-I misses.
    pub l1i_misses: u64,
    /// Safety checks skipped thanks to static elimination proofs (not a
    /// hardware counter; reported alongside so figures can attribute the
    /// retired-instruction delta to check elimination).
    pub checks_skipped: u64,
}

impl Counters {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction ratio.
    pub fn branch_miss_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_misses as f64 / self.branches as f64
        }
    }

    /// LLC miss ratio (misses / references), the paper's "cache miss ratio".
    pub fn cache_miss_ratio(&self) -> f64 {
        if self.cache_references == 0 {
            0.0
        } else {
            self.cache_misses as f64 / self.cache_references as f64
        }
    }

    /// Events per thousand instructions (0 when nothing retired).
    fn per_kilo_instr(&self, events: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            events as f64 * 1e3 / self.instructions as f64
        }
    }

    /// Branch MPKI (Figure 8's metric; Table 5 gives the miss ratios).
    pub fn branch_mpki(&self) -> f64 {
        self.per_kilo_instr(self.branch_misses)
    }

    /// L1-D miss MPKI (behind Figure 9's cache misses).
    pub fn l1d_mpki(&self) -> f64 {
        self.per_kilo_instr(self.l1d_misses)
    }

    /// L1-I miss MPKI.
    pub fn l1i_mpki(&self) -> f64 {
        self.per_kilo_instr(self.l1i_misses)
    }

    /// LLC miss MPKI (behind Figures 9–10's cache misses).
    pub fn llc_mpki(&self) -> f64 {
        self.per_kilo_instr(self.cache_misses)
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// simulator — counters are monotone, so saturation only absorbs a
    /// mismatched pair.
    pub fn delta_since(&self, earlier: &Counters) -> Counters {
        Counters {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            cycles: self.cycles.saturating_sub(earlier.cycles),
            branches: self.branches.saturating_sub(earlier.branches),
            branch_misses: self.branch_misses.saturating_sub(earlier.branch_misses),
            cache_references: self
                .cache_references
                .saturating_sub(earlier.cache_references),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            l1d_accesses: self.l1d_accesses.saturating_sub(earlier.l1d_accesses),
            l1d_misses: self.l1d_misses.saturating_sub(earlier.l1d_misses),
            l1i_accesses: self.l1i_accesses.saturating_sub(earlier.l1i_accesses),
            l1i_misses: self.l1i_misses.saturating_sub(earlier.l1i_misses),
            checks_skipped: self.checks_skipped.saturating_sub(earlier.checks_skipped),
        }
    }

    /// Adds another snapshot field-wise (aggregating repetitions or
    /// engines).
    pub fn accumulate(&mut self, other: &Counters) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.branches += other.branches;
        self.branch_misses += other.branch_misses;
        self.cache_references += other.cache_references;
        self.cache_misses += other.cache_misses;
        self.l1d_accesses += other.l1d_accesses;
        self.l1d_misses += other.l1d_misses;
        self.l1i_accesses += other.l1i_accesses;
        self.l1i_misses += other.l1i_misses;
        self.checks_skipped += other.checks_skipped;
    }
}

impl From<Counters> for obs::trace::SpanCounters {
    fn from(c: Counters) -> obs::trace::SpanCounters {
        obs::trace::SpanCounters {
            instructions: c.instructions,
            cycles: c.cycles,
            branches: c.branches,
            branch_misses: c.branch_misses,
            cache_references: c.cache_references,
            cache_misses: c.cache_misses,
            l1d_accesses: c.l1d_accesses,
            l1d_misses: c.l1d_misses,
            l1i_accesses: c.l1i_accesses,
            l1i_misses: c.l1i_misses,
        }
    }
}

impl From<obs::trace::SpanCounters> for Counters {
    fn from(c: obs::trace::SpanCounters) -> Counters {
        Counters {
            instructions: c.instructions,
            cycles: c.cycles,
            branches: c.branches,
            branch_misses: c.branch_misses,
            cache_references: c.cache_references,
            cache_misses: c.cache_misses,
            l1d_accesses: c.l1d_accesses,
            l1d_misses: c.l1d_misses,
            l1i_accesses: c.l1i_accesses,
            l1i_misses: c.l1i_misses,
            checks_skipped: 0,
        }
    }
}

/// The full-system profiler.
#[derive(Debug)]
pub struct ArchSim {
    /// Cache hierarchy.
    pub caches: Hierarchy,
    /// Branch prediction unit.
    pub branches: BranchPredictor,
    uops: u64,
    stall_cycles: u64,
    checks_skipped: u64,
}

impl Default for ArchSim {
    fn default() -> Self {
        ArchSim::new()
    }
}

impl ArchSim {
    /// Creates a simulator with cold caches and predictors.
    pub fn new() -> ArchSim {
        ArchSim {
            caches: Hierarchy::new(),
            branches: BranchPredictor::new(),
            uops: 0,
            stall_cycles: 0,
            checks_skipped: 0,
        }
    }

    fn stall_for(&mut self, served: ServedBy) {
        // Out-of-order execution hides much of L1/L2 latency; expose a
        // fraction of it plus the full memory penalty.
        let visible = match served {
            ServedBy::L1 => 0,
            ServedBy::L2 => 4,
            ServedBy::L3 => 20,
            ServedBy::Memory => 120,
        };
        self.stall_cycles += visible;
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> Counters {
        let l1d: CacheStats = self.caches.l1d.stats;
        let l1i: CacheStats = self.caches.l1i.stats;
        let br: BranchStats = self.branches.stats;
        let base_cycles = self.uops.div_ceil(ISSUE_WIDTH);
        Counters {
            instructions: self.uops,
            cycles: base_cycles + self.stall_cycles + br.misses * MISPREDICT_PENALTY,
            branches: br.branches,
            branch_misses: br.misses,
            cache_references: self.caches.llc_references(),
            cache_misses: self.caches.llc_misses(),
            l1d_accesses: l1d.accesses,
            l1d_misses: l1d.misses,
            l1i_accesses: l1i.accesses,
            l1i_misses: l1i.misses,
            checks_skipped: self.checks_skipped,
        }
    }
}

impl Profiler for ArchSim {
    #[inline]
    fn fetch(&mut self, addr: u64, len: u32) {
        let served = self.caches.inst_access(addr, len);
        // Frontend stalls are partially hidden by the fetch queue.
        if !matches!(served, ServedBy::L1) {
            self.stall_for(served);
        }
    }

    #[inline]
    fn uops(&mut self, n: u64) {
        self.uops += n;
    }

    #[inline]
    fn read(&mut self, addr: u64, len: u32) {
        let served = self.caches.data_access(addr, len);
        self.stall_for(served);
    }

    #[inline]
    fn write(&mut self, addr: u64, len: u32) {
        // Write-allocate; store buffers hide most write latency.
        let served = self.caches.data_access(addr, len);
        if matches!(served, ServedBy::Memory) {
            self.stall_cycles += 30;
        }
    }

    #[inline]
    fn branch(&mut self, site: u64, kind: BranchKind, taken: bool, target: u64) {
        self.branches.observe(site, kind, taken, target);
        self.uops += 1; // the branch instruction itself
    }

    #[inline]
    fn check_skipped(&mut self) {
        self.checks_skipped += 1;
    }

    fn perf_counters(&self) -> Option<obs::trace::SpanCounters> {
        Some(self.counters().into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_derive_ratios() {
        let c = Counters {
            instructions: 400,
            cycles: 200,
            branches: 50,
            branch_misses: 5,
            cache_references: 100,
            cache_misses: 10,
            ..Counters::default()
        };
        assert!((c.ipc() - 2.0).abs() < 1e-9);
        assert!((c.branch_miss_ratio() - 0.1).abs() < 1e-9);
        assert!((c.cache_miss_ratio() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn delta_and_accumulate_invert() {
        let mut sim = ArchSim::new();
        sim.uops(100);
        sim.read(0x8000_0000, 8);
        let before = sim.counters();
        sim.uops(50);
        sim.branch(0x40, BranchKind::Cond, true, 0x80);
        let after = sim.counters();
        let delta = after.delta_since(&before);
        assert_eq!(delta.instructions, 51); // 50 uops + the branch
        assert_eq!(delta.branches, 1);
        let mut rebuilt = before;
        rebuilt.accumulate(&delta);
        assert_eq!(rebuilt, after);
    }

    #[test]
    fn mpki_derivations_match_by_hand() {
        let c = Counters {
            instructions: 2_000,
            branch_misses: 4,
            l1d_misses: 10,
            l1i_misses: 2,
            cache_misses: 6,
            ..Counters::default()
        };
        assert!((c.branch_mpki() - 2.0).abs() < 1e-9);
        assert!((c.l1d_mpki() - 5.0).abs() < 1e-9);
        assert!((c.l1i_mpki() - 1.0).abs() < 1e-9);
        assert!((c.llc_mpki() - 3.0).abs() < 1e-9);
        assert_eq!(Counters::default().branch_mpki(), 0.0);
    }

    #[test]
    fn span_counters_round_trip() {
        let mut sim = ArchSim::new();
        sim.uops(7);
        sim.read(0x8000_0000, 4);
        let c = sim.counters();
        let span: obs::trace::SpanCounters = c.into();
        assert_eq!(Counters::from(span), c);
        assert_eq!(sim.perf_counters(), Some(span));
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let mut a = ArchSim::new();
        let mut b = ArchSim::new();
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..1000u64 {
            a.uops(1);
            b.uops(1);
            a.branch(0x40, BranchKind::Cond, true, 0x80); // predictable
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            b.branch(0x40, BranchKind::Cond, rng & 1 == 0, 0x80); // not
        }
        assert!(b.counters().cycles > a.counters().cycles);
        assert!(b.counters().ipc() < a.counters().ipc());
    }

    #[test]
    fn memory_traffic_costs_cycles() {
        let mut hot = ArchSim::new();
        let mut cold = ArchSim::new();
        for i in 0..10_000u64 {
            hot.uops(1);
            cold.uops(1);
            hot.read(0x8000_0000, 8); // same line every time
            cold.read(0x8000_0000 + i * 4096, 8); // new page every time
        }
        assert!(cold.counters().cycles > hot.counters().cycles);
        assert!(cold.counters().cache_misses > hot.counters().cache_misses);
    }

    #[test]
    fn profiled_engine_run_produces_sane_counters() {
        use engines::{Engine, EngineKind};
        use wasm_core::types::Value;
        let src = r#"
            export fn test() -> i32 {
                let s: i32 = 0;
                for (let i: i32 = 0; i < 2000; i += 1) {
                    store_i32(4096 + (i % 64) * 4, i);
                    s += load_i32(4096 + (i % 64) * 4);
                }
                return s;
            }
        "#;
        let bytes = wacc::compile_to_bytes(src, wacc::OptLevel::O2).unwrap();
        let mut per_engine = Vec::new();
        for kind in EngineKind::all() {
            let compiled = Engine::new(kind).compile(&bytes).unwrap();
            let mut inst = compiled
                .instantiate(&wasi_rt::imports(), Box::new(wasi_rt::WasiCtx::new()))
                .unwrap();
            let mut sim = ArchSim::new();
            let out = inst.invoke_profiled("test", &[], &mut sim).unwrap();
            assert!(matches!(out, Some(Value::I32(_))));
            per_engine.push((kind, sim.counters()));
        }
        // Interpreters retire far more µops than compiled tiers.
        let get = |k: EngineKind| {
            per_engine
                .iter()
                .find(|(kind, _)| *kind == k)
                .expect("present")
                .1
        };
        let wamr = get(EngineKind::Wamr);
        let wasm3 = get(EngineKind::Wasm3);
        let wasmtime = get(EngineKind::Wasmtime);
        assert!(wamr.instructions > 2 * wasmtime.instructions);
        assert!(wasm3.instructions > wasmtime.instructions);
        assert!(wamr.instructions > wasm3.instructions, "classic > threaded");
        // Interpreters take many more indirect (dispatch) branch misses.
        assert!(wasm3.branch_misses > wasmtime.branch_misses);
        // Everyone retires work at a plausible IPC.
        for (kind, c) in &per_engine {
            assert!(c.ipc() > 0.2 && c.ipc() < 4.0, "{kind}: IPC {}", c.ipc());
        }
    }
}
