//! Deterministic fault injection and resilience primitives.
//!
//! A [`FaultPlan`] is a seeded description of *where* and *how often* to
//! inject failures into the service stack: store read/write corruption,
//! spurious artifact-cache misses, simulated engine compile failures,
//! worker panics, and job-level scheduling delays. Decisions are pure
//! functions of the plan seed plus either a caller-supplied key
//! ([`FaultPlan::keyed`] — the same content always fails, so retries are
//! futile and recovery paths must engage) or a per-site draw counter
//! ([`FaultPlan::transient`] — a retry sees a fresh draw and usually
//! succeeds). Nothing here consults a clock or an OS RNG, so a chaos run
//! is reproducible from its spec string alone.
//!
//! The crate also provides the [`Breaker`] circuit-breaker state machine
//! (Closed → Open after N consecutive failures → HalfOpen probe after a
//! cooldown) that the scheduler keys per engine.
//!
//! Plans parse from a compact spec (`WABENCH_FAULTS` or `--faults`):
//!
//! ```text
//! seed=11,store.read=0.05,store.write=0.05,cache.miss=0.05,compile=0.05,panic=0.05,delay=0.05:2ms
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of injection sites (length of [`Site::ALL`]).
const N_SITES: usize = 7;

/// An injection site: one place in the stack where a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Artifact-store lookups return "corrupt" for the keyed entry.
    StoreRead,
    /// Artifact-store writes flip a payload byte on the way to disk.
    StoreWrite,
    /// Artifact-store lookups spuriously miss an intact entry.
    CacheMiss,
    /// Engine compilation of the keyed module fails (JIT tiers only).
    CompileFail,
    /// The job's execution thread panics mid-job.
    WorkerPanic,
    /// The worker sleeps before running the job (scheduling delay).
    JobDelay,
    /// The whole process aborts when a worker picks up a job — a
    /// backend-kill switch for multi-node failover chaos. Unlike
    /// [`Site::WorkerPanic`] (caught and retried in-process), a crash
    /// takes the daemon down hard; only a fronting router can absorb
    /// it.
    Crash,
}

impl Site {
    /// Every site, in stable wire-code order.
    pub const ALL: [Site; N_SITES] = [
        Site::StoreRead,
        Site::StoreWrite,
        Site::CacheMiss,
        Site::CompileFail,
        Site::WorkerPanic,
        Site::JobDelay,
        Site::Crash,
    ];

    /// Stable wire byte (also the internal array index).
    pub fn code(self) -> u8 {
        match self {
            Site::StoreRead => 0,
            Site::StoreWrite => 1,
            Site::CacheMiss => 2,
            Site::CompileFail => 3,
            Site::WorkerPanic => 4,
            Site::JobDelay => 5,
            Site::Crash => 6,
        }
    }

    /// Decodes a wire byte.
    pub fn from_code(b: u8) -> Option<Site> {
        Site::ALL.get(b as usize).copied()
    }

    /// The spec-string key (`store.read`, `compile`, ...).
    pub fn key(self) -> &'static str {
        match self {
            Site::StoreRead => "store.read",
            Site::StoreWrite => "store.write",
            Site::CacheMiss => "cache.miss",
            Site::CompileFail => "compile",
            Site::WorkerPanic => "panic",
            Site::JobDelay => "delay",
            Site::Crash => "crash",
        }
    }

    fn from_key(key: &str) -> Option<Site> {
        Site::ALL.iter().copied().find(|s| s.key() == key)
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash used for every
/// fault decision and for the scheduler's deterministic retry jitter.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded, deterministic fault-injection plan.
///
/// Thread-safe: decision counters are atomics, everything else is
/// immutable after parse. Share one plan per process behind an `Arc` so
/// the injected-fault tallies aggregate across workers.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; N_SITES],
    delay: Duration,
    /// Per-site draw counters for `transient` decisions.
    seqs: [AtomicU64; N_SITES],
    /// Per-site count of decisions that came back "inject".
    injected: [AtomicU64; N_SITES],
}

impl FaultPlan {
    /// Parses a spec string: comma-separated `key=value` pairs where
    /// `key` is `seed` or a [`Site`] key and `value` is a probability in
    /// `[0, 1]`. The `delay` site takes an optional duration suffix
    /// (`delay=0.05:2ms`, default 10ms).
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown keys, unparseable numbers,
    /// or out-of-range probabilities.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rates = [0.0f64; N_SITES];
        let mut delay = Duration::from_millis(10);
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec: {part:?} is not key=value"))?;
            if key == "seed" {
                seed = value
                    .parse()
                    .map_err(|_| format!("fault spec: bad seed {value:?}"))?;
                continue;
            }
            let site = Site::from_key(key).ok_or_else(|| {
                format!(
                    "fault spec: unknown site {key:?} (known: seed, {})",
                    Site::ALL.map(Site::key).join(", ")
                )
            })?;
            let (prob, suffix) = match value.split_once(':') {
                Some((p, s)) => (p, Some(s)),
                None => (value, None),
            };
            let rate: f64 = prob
                .parse()
                .map_err(|_| format!("fault spec: bad probability {prob:?} for {key}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "fault spec: probability {rate} for {key} outside [0, 1]"
                ));
            }
            rates[site.code() as usize] = rate;
            if let Some(suffix) = suffix {
                if site != Site::JobDelay {
                    return Err(format!("fault spec: {key} takes no duration suffix"));
                }
                delay = parse_duration(suffix)?;
            }
        }
        Ok(FaultPlan {
            seed,
            rates,
            delay,
            seqs: Default::default(),
            injected: Default::default(),
        })
    }

    /// Reads a plan from `WABENCH_FAULTS`; `Ok(None)` when unset/empty.
    ///
    /// # Errors
    ///
    /// Parse errors from [`FaultPlan::parse`].
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("WABENCH_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured injection probability for a site.
    pub fn rate(&self, site: Site) -> f64 {
        self.rates[site.code() as usize]
    }

    /// The sleep injected when [`Site::JobDelay`] fires.
    pub fn delay_duration(&self) -> Duration {
        self.delay
    }

    /// One decision as a pure function of `(seed, site, stream)`.
    fn roll(&self, site: Site, stream: u64) -> bool {
        let i = site.code() as usize;
        let rate = self.rates[i];
        if rate <= 0.0 {
            return false;
        }
        let salt = (site.code() as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        let draw = mix64(self.seed ^ mix64(salt ^ stream));
        // Top 53 bits → uniform in [0, 1).
        let u = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let inject = u < rate;
        if inject {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    /// A *keyed* decision: deterministic per `(seed, site, key)`. The
    /// same content fails every time, so a retry cannot paper over it —
    /// the degradation/repair path has to engage. Used for compile
    /// failures (keyed by module hash × engine) and store corruption
    /// (keyed by artifact key).
    pub fn keyed(&self, site: Site, key: u64) -> bool {
        self.roll(site, key)
    }

    /// A *transient* decision: each call consumes the site's next draw,
    /// so a retry re-rolls and usually clears. Used for worker panics,
    /// spurious cache misses, and scheduling delays.
    pub fn transient(&self, site: Site) -> bool {
        let stream = self.seqs[site.code() as usize].fetch_add(1, Ordering::Relaxed);
        // Offset transient streams away from keyed hashes.
        self.roll(site, stream ^ 0x7453_4E41_4953_4E54)
    }

    /// `Some(delay)` when a [`Site::JobDelay`] draw fires.
    pub fn job_delay(&self) -> Option<Duration> {
        self.transient(Site::JobDelay).then_some(self.delay)
    }

    /// Per-site injected-fault counts, in [`Site::ALL`] order.
    pub fn injected(&self) -> Vec<(Site, u64)> {
        Site::ALL
            .iter()
            .map(|s| (*s, self.injected[s.code() as usize].load(Ordering::Relaxed)))
            .collect()
    }

    /// Total faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for site in Site::ALL {
            let rate = self.rate(site);
            if rate > 0.0 {
                write!(f, ",{}={rate}", site.key())?;
                if site == Site::JobDelay {
                    write!(f, ":{}ms", self.delay.as_millis())?;
                }
            }
        }
        Ok(())
    }
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let bad = || format!("fault spec: bad duration {s:?} (use e.g. 5ms or 2s)");
    if let Some(ms) = s.strip_suffix("ms") {
        let v: u64 = ms.parse().map_err(|_| bad())?;
        Ok(Duration::from_millis(v))
    } else if let Some(secs) = s.strip_suffix('s') {
        let v: u64 = secs.parse().map_err(|_| bad())?;
        Ok(Duration::from_secs(v))
    } else {
        Err(bad())
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub threshold: u32,
    /// How long an open breaker rejects work before probing again.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            threshold: 8,
            cooldown: Duration::from_secs(1),
        }
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: work flows.
    Closed,
    /// Tripped: work is rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe is admitted; its outcome decides.
    HalfOpen,
}

impl BreakerState {
    /// Stable wire byte.
    pub fn byte(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    /// Decodes a wire byte.
    pub fn from_byte(b: u8) -> Option<BreakerState> {
        Some(match b {
            0 => BreakerState::Closed,
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => return None,
        })
    }

    /// Lowercase human name (`closed` / `open` / `half-open`).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// A state transition worth logging/counting, returned by
/// [`Breaker::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// Closed → Open: the failure threshold was reached.
    Opened,
    /// HalfOpen → Open: the probe failed.
    Reopened,
    /// Open/HalfOpen → Closed: a success healed the breaker.
    Closed,
}

/// Point-in-time breaker observation (serves the `Health` reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Current consecutive-failure run.
    pub consecutive_failures: u32,
    /// Times the breaker has tripped open over its lifetime.
    pub trips: u64,
}

/// A per-resource circuit breaker (the scheduler keys one per engine).
///
/// Not internally synchronized: callers hold it behind their own lock.
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive: u32,
    trips: u64,
    opened_at: Option<Instant>,
}

impl Breaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Breaker {
        Breaker {
            cfg,
            state: BreakerState::Closed,
            consecutive: 0,
            trips: 0,
            opened_at: None,
        }
    }

    /// Should work be admitted right now? An open breaker whose cooldown
    /// has elapsed moves to half-open and admits the probe.
    pub fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let elapsed = self
                    .opened_at
                    .is_none_or(|t| t.elapsed() >= self.cfg.cooldown);
                if elapsed {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a job outcome; returns a transition when one happened.
    pub fn record(&mut self, ok: bool) -> Option<BreakerEvent> {
        if ok {
            let was = self.state;
            self.consecutive = 0;
            self.state = BreakerState::Closed;
            self.opened_at = None;
            (was != BreakerState::Closed).then_some(BreakerEvent::Closed)
        } else {
            self.consecutive += 1;
            match self.state {
                BreakerState::HalfOpen => {
                    self.trip();
                    Some(BreakerEvent::Reopened)
                }
                BreakerState::Closed if self.consecutive >= self.cfg.threshold => {
                    self.trip();
                    Some(BreakerEvent::Opened)
                }
                _ => None,
            }
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.trips += 1;
        self.opened_at = Some(Instant::now());
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Observation for health reporting.
    pub fn snapshot(&self) -> BreakerSnapshot {
        BreakerSnapshot {
            state: self.state,
            consecutive_failures: self.consecutive,
            trips: self.trips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec_round_trips() {
        let plan = FaultPlan::parse(
            "seed=11,store.read=0.05,store.write=0.1,cache.miss=0.2,compile=0.3,panic=0.4,delay=0.5:2ms",
        )
        .unwrap();
        assert_eq!(plan.seed(), 11);
        assert_eq!(plan.rate(Site::StoreRead), 0.05);
        assert_eq!(plan.rate(Site::CompileFail), 0.3);
        assert_eq!(plan.delay_duration(), Duration::from_millis(2));
        // Display renders a spec that parses back to the same plan.
        let again = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(again.seed(), plan.seed());
        for site in Site::ALL {
            assert_eq!(again.rate(site), plan.rate(site));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("bogus.site=0.5").is_err());
        assert!(FaultPlan::parse("compile=1.5").is_err());
        assert!(FaultPlan::parse("compile=-0.1").is_err());
        assert!(FaultPlan::parse("compile=abc").is_err());
        assert!(FaultPlan::parse("compile=0.5:5ms").is_err(), "suffix only on delay");
        assert!(FaultPlan::parse("delay=0.5:5parsecs").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
    }

    #[test]
    fn site_codes_round_trip() {
        for site in Site::ALL {
            assert_eq!(Site::from_code(site.code()), Some(site));
            assert_eq!(Site::from_key(site.key()), Some(site));
        }
        assert_eq!(Site::from_code(200), None);
    }

    #[test]
    fn keyed_decisions_are_deterministic_and_order_free() {
        let a = FaultPlan::parse("seed=7,compile=0.5").unwrap();
        let b = FaultPlan::parse("seed=7,compile=0.5").unwrap();
        // Interleave differently; keyed answers must agree anyway.
        let keys: Vec<u64> = (0..64).map(|i| i * 977).collect();
        let from_a: Vec<bool> = keys.iter().map(|k| a.keyed(Site::CompileFail, *k)).collect();
        let from_b: Vec<bool> = keys
            .iter()
            .rev()
            .map(|k| b.keyed(Site::CompileFail, *k))
            .collect();
        let from_b: Vec<bool> = from_b.into_iter().rev().collect();
        assert_eq!(from_a, from_b);
        assert!(from_a.iter().any(|x| *x) && from_a.iter().any(|x| !*x));
        // A different seed gives a different pattern.
        let c = FaultPlan::parse("seed=8,compile=0.5").unwrap();
        let from_c: Vec<bool> = keys.iter().map(|k| c.keyed(Site::CompileFail, *k)).collect();
        assert_ne!(from_a, from_c);
    }

    #[test]
    fn transient_decisions_rerol_per_call() {
        let a = FaultPlan::parse("seed=3,panic=0.5").unwrap();
        let b = FaultPlan::parse("seed=3,panic=0.5").unwrap();
        let seq_a: Vec<bool> = (0..64).map(|_| a.transient(Site::WorkerPanic)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.transient(Site::WorkerPanic)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same draw sequence");
        assert!(seq_a.iter().any(|x| *x) && seq_a.iter().any(|x| !*x));
    }

    #[test]
    fn rates_zero_and_one_are_absolute() {
        let never = FaultPlan::parse("seed=1").unwrap();
        let always = FaultPlan::parse("seed=1,compile=1.0,panic=1").unwrap();
        for k in 0..100 {
            assert!(!never.keyed(Site::CompileFail, k));
            assert!(always.keyed(Site::CompileFail, k));
            assert!(always.transient(Site::WorkerPanic));
        }
        assert_eq!(never.injected_total(), 0);
        assert_eq!(always.injected_total(), 200);
    }

    #[test]
    fn injection_rate_is_statistically_sane() {
        let plan = FaultPlan::parse("seed=42,store.read=0.05").unwrap();
        let hits = (0..10_000)
            .filter(|k| plan.keyed(Site::StoreRead, mix64(*k)))
            .count();
        // 5% of 10k = 500 expected; allow a generous band.
        assert!((300..700).contains(&hits), "got {hits}");
        let counts = plan.injected();
        assert_eq!(counts[Site::StoreRead.code() as usize].1, hits as u64);
    }

    #[test]
    fn breaker_trips_cools_down_and_heals() {
        let mut b = Breaker::new(BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(20),
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
        assert_eq!(b.record(false), None);
        assert_eq!(b.record(false), None);
        assert_eq!(b.record(false), Some(BreakerEvent::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(), "open breaker rejects inside cooldown");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit(), "cooldown elapsed: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.record(false), Some(BreakerEvent::Reopened));
        assert_eq!(b.snapshot().trips, 2);
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit());
        assert_eq!(b.record(true), Some(BreakerEvent::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.snapshot().consecutive_failures, 0);
        // A lone success stays Closed and reports no transition.
        assert_eq!(b.record(true), None);
    }

    #[test]
    fn breaker_state_bytes_round_trip() {
        for s in [
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
        ] {
            assert_eq!(BreakerState::from_byte(s.byte()), Some(s));
        }
        assert_eq!(BreakerState::from_byte(9), None);
    }
}
