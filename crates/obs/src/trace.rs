//! Span recording: thread-aware nested timing regions.
//!
//! The global sink starts as [`Sink::Null`]: every [`crate::span!`]
//! call-site checks one relaxed atomic and returns an inert guard, so
//! instrumentation left in hot paths (per-pass compile loops, engine
//! dispatch) costs nothing measurable and cannot change simulated
//! results. Installing [`Sink::Ring`] flips the same atomic; from then
//! on each thread lazily registers a fixed-capacity [`crate::ring::Ring`]
//! and records one *complete* event per span when its guard drops.
//! Recording completes (rather than begin/end pairs) means a full ring
//! can never produce an unbalanced trace — whole spans drop, counted.
//!
//! Timestamps come from one process-wide monotonic base, so spans from
//! different threads land on a single comparable timeline. Threads get
//! small stable ids in first-use order; a thread that exits moves its
//! buffered events to a retired list (freeing the ring) so short-lived
//! job threads do not pin ring memory until the next drain.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::ring::Ring;

/// A `perf stat`-shaped counter delta attached to a span: what the
/// architectural simulator retired between span entry and exit.
///
/// Lives here (not in `archsim`) because `obs` is the bottom of the
/// dependency stack: every crate can attach or read payloads without a
/// cycle. Field names follow `perf` vocabulary; producers map their own
/// counter types into this one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCounters {
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
}

impl SpanCounters {
    /// Applies `f` pairwise over the ten counter fields.
    fn zip_with(self, other: SpanCounters, f: impl Fn(u64, u64) -> u64) -> SpanCounters {
        SpanCounters {
            instructions: f(self.instructions, other.instructions),
            cycles: f(self.cycles, other.cycles),
            branches: f(self.branches, other.branches),
            branch_misses: f(self.branch_misses, other.branch_misses),
            cache_references: f(self.cache_references, other.cache_references),
            cache_misses: f(self.cache_misses, other.cache_misses),
            l1d_accesses: f(self.l1d_accesses, other.l1d_accesses),
            l1d_misses: f(self.l1d_misses, other.l1d_misses),
            l1i_accesses: f(self.l1i_accesses, other.l1i_accesses),
            l1i_misses: f(self.l1i_misses, other.l1i_misses),
        }
    }

    /// Field-wise saturating difference (`self - earlier`); counters are
    /// monotone, so saturation only papers over caller mistakes.
    pub fn delta_since(self, earlier: SpanCounters) -> SpanCounters {
        self.zip_with(earlier, u64::saturating_sub)
    }

    /// Field-wise sum.
    pub fn saturating_add(self, other: SpanCounters) -> SpanCounters {
        self.zip_with(other, u64::saturating_add)
    }

    /// Whether every field is zero.
    pub fn is_zero(&self) -> bool {
        *self == SpanCounters::default()
    }

    /// Instructions per cycle (0 when no cycles).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Events per thousand instructions — the paper's MPKI metric
    /// (0 when no instructions retired; never NaN).
    pub fn per_kilo_instr(&self, events: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            events as f64 * 1e3 / self.instructions as f64
        }
    }

    /// Branch MPKI.
    pub fn branch_mpki(&self) -> f64 {
        self.per_kilo_instr(self.branch_misses)
    }

    /// L1-D miss MPKI.
    pub fn l1d_mpki(&self) -> f64 {
        self.per_kilo_instr(self.l1d_misses)
    }

    /// L1-I miss MPKI.
    pub fn l1i_mpki(&self) -> f64 {
        self.per_kilo_instr(self.l1i_misses)
    }

    /// Last-level-cache miss MPKI.
    pub fn llc_mpki(&self) -> f64 {
        self.per_kilo_instr(self.cache_misses)
    }
}

/// One recorded span: a named, optionally attributed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"jit.pass"`).
    pub name: &'static str,
    /// Formatted `key=value` attributes, if any.
    pub attr: Option<Box<str>>,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at entry (0 = top level on its thread).
    pub depth: u16,
    /// Architectural counter delta over the span, when the producer ran
    /// under a profiler and attached one (boxed: most spans carry none).
    pub counters: Option<Box<SpanCounters>>,
}

impl SpanEvent {
    /// End timestamp, nanoseconds since the trace epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// All events one thread recorded.
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    /// Stable small id (first-use order), used as the trace `tid`.
    pub tid: u64,
    /// The thread's name at registration, or `thread-<tid>`.
    pub name: String,
    /// Events dropped on this thread because its ring filled.
    pub dropped: u64,
    /// Recorded spans, in completion (ring) order.
    pub events: Vec<SpanEvent>,
}

/// A drained trace: every thread's events.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-thread event streams, sorted by `tid`.
    pub threads: Vec<ThreadTrace>,
}

impl Trace {
    /// Total recorded spans across threads.
    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total dropped spans across threads.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

/// Where span events go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Discard everything at the call site (the default). A disabled
    /// span costs one relaxed atomic load — no clock read, no
    /// allocation, no formatting.
    Null,
    /// Record into per-thread ring buffers for a later [`drain`].
    Ring,
}

static SINK: AtomicU8 = AtomicU8::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (monotonic, shared by all
/// threads).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Installs the global sink. Ring → Null leaves already-buffered events
/// drainable.
pub fn install(sink: Sink) {
    // Pin the epoch before the first span so timestamps are comparable
    // even across install/drain cycles.
    let _ = epoch();
    SINK.store(matches!(sink, Sink::Ring) as u8, Ordering::Release);
}

/// Whether spans are currently being recorded.
#[inline]
pub fn enabled() -> bool {
    SINK.load(Ordering::Relaxed) != 0
}

#[derive(Default)]
struct RegistryInner {
    live: Vec<(u64, String, Arc<Ring>)>,
    retired: Vec<ThreadTrace>,
}

fn registry() -> &'static Mutex<RegistryInner> {
    static REGISTRY: OnceLock<Mutex<RegistryInner>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

struct Tls {
    tid: u64,
    ring: Arc<Ring>,
    depth: Cell<u16>,
}

impl Drop for Tls {
    fn drop(&mut self) {
        // Move this thread's buffered events to the retired list so the
        // ring's slot memory is freed with the thread, not at the next
        // drain. The registry lock serializes this with any concurrent
        // drain (drains are consumer-side, so SPSC still holds).
        let mut reg = registry().lock().expect("trace registry");
        let events = self.ring.drain();
        if let Some(i) = reg.live.iter().position(|(tid, _, _)| *tid == self.tid) {
            let (tid, name, ring) = reg.live.swap_remove(i);
            if !events.is_empty() || ring.dropped() > 0 {
                reg.retired.push(ThreadTrace {
                    tid,
                    name,
                    dropped: ring.dropped(),
                    events,
                });
            }
        }
    }
}

thread_local! {
    static TLS: RefCell<Option<Tls>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's trace state, registering it on first use.
/// Returns `None` during thread teardown (TLS already destroyed).
fn with_tls<R>(f: impl FnOnce(&Tls) -> R) -> Option<R> {
    TLS.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let tls = slot.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let ring = Arc::new(Ring::new());
            registry()
                .lock()
                .expect("trace registry")
                .live
                .push((tid, name, Arc::clone(&ring)));
            Tls {
                tid,
                ring,
                depth: Cell::new(0),
            }
        });
        f(tls)
    })
    .ok()
}

/// Removes and returns every buffered event from every thread (live
/// rings and retired threads), sorted by `tid`. Dropped-event counts are
/// cumulative per thread since recording began.
pub fn drain() -> Trace {
    let mut reg = registry().lock().expect("trace registry");
    let mut threads: Vec<ThreadTrace> = std::mem::take(&mut reg.retired);
    for (tid, name, ring) in &reg.live {
        let events = ring.drain();
        if events.is_empty() && ring.dropped() == 0 {
            continue;
        }
        threads.push(ThreadTrace {
            tid: *tid,
            name: name.clone(),
            dropped: ring.dropped(),
            events,
        });
    }
    drop(reg);
    // A thread can appear twice (retired entry + an earlier drain's
    // leftovers never do, but retired + live cannot share a tid); still,
    // keep the output deterministic.
    threads.sort_by_key(|t| t.tid);
    Trace { threads }
}

struct Active {
    name: &'static str,
    attr: Option<Box<str>>,
    start_ns: u64,
    depth: u16,
    counters: Option<Box<SpanCounters>>,
}

/// RAII span guard: records one [`SpanEvent`] when dropped (if tracing
/// was enabled when it was entered).
pub struct SpanGuard(Option<Active>);

impl SpanGuard {
    /// Enters a span. `attr` is only invoked when tracing is enabled.
    /// Prefer the [`crate::span!`] macro.
    #[inline]
    pub fn enter(name: &'static str, attr: impl FnOnce() -> Option<Box<str>>) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        let depth = with_tls(|tls| {
            let d = tls.depth.get();
            tls.depth.set(d.saturating_add(1));
            d
        });
        let Some(depth) = depth else {
            return SpanGuard(None);
        };
        SpanGuard(Some(Active {
            name,
            attr: attr(),
            start_ns: now_ns(),
            depth,
            counters: None,
        }))
    }

    /// Whether this guard will record an event on drop (tracing was
    /// enabled at entry). Lets producers skip counter sampling entirely
    /// on the null-sink path.
    #[inline]
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    /// Attaches an architectural counter delta to the span. A no-op on
    /// an inert guard; the last call before drop wins.
    pub fn set_counters(&mut self, counters: SpanCounters) {
        if let Some(active) = self.0.as_mut() {
            active.counters = Some(Box::new(counters));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let dur_ns = now_ns().saturating_sub(active.start_ns);
        let _ = with_tls(|tls| {
            tls.depth.set(tls.depth.get().saturating_sub(1));
            tls.ring.push(SpanEvent {
                name: active.name,
                attr: active.attr,
                start_ns: active.start_ns,
                dur_ns,
                depth: active.depth,
                counters: active.counters,
            });
        });
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("active", &self.0.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; tests in this module serialize on
    // one lock so install/drain cycles do not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn null_sink_records_nothing() {
        let _g = lock();
        install(Sink::Null);
        {
            let _s = crate::span!("invisible", n = 42);
        }
        assert_eq!(drain().span_count(), 0);
    }

    #[test]
    fn spans_nest_and_carry_attrs() {
        let _g = lock();
        install(Sink::Ring);
        {
            let _outer = crate::span!("outer", engine = "Wasmtime", level = "-O2");
            let _inner = crate::span!("inner");
        }
        install(Sink::Null);
        let trace = drain();
        let mine: Vec<&SpanEvent> = trace.threads.iter().flat_map(|t| &t.events).collect();
        let outer = mine.iter().find(|e| e.name == "outer").expect("outer");
        let inner = mine.iter().find(|e| e.name == "inner").expect("inner");
        assert_eq!(outer.attr.as_deref(), Some("engine=Wasmtime level=-O2"));
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns() <= outer.end_ns());
    }

    #[test]
    fn exited_threads_retire_their_events() {
        let _g = lock();
        install(Sink::Ring);
        let handle = std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| {
                let _s = crate::span!("worker.span");
            })
            .unwrap();
        handle.join().unwrap();
        install(Sink::Null);
        let trace = drain();
        let worker = trace
            .threads
            .iter()
            .find(|t| t.name == "obs-test-worker")
            .expect("worker thread retired into the trace");
        assert_eq!(worker.events.len(), 1);
        assert_eq!(worker.events[0].name, "worker.span");
    }
}
