//! Continuous profiling: windowed per-phase profile aggregation.
//!
//! [`crate::prof`] attributes one *finished* trace; a serving process
//! needs the same attribution continuously, without retaining every
//! span. [`ContProf`] folds a stream of per-job phase samples (engine ×
//! phase wall self-time plus archsim counters, fed by the scheduler as
//! jobs complete) into fixed-span [`ProfileWindow`]s aligned to the
//! trace clock, keeping a bounded ring of sealed windows. Each window
//! renders as collapsed stacks in the same `stack;frame weight` format
//! [`crate::folded`] exports, so two windows diff exactly like two
//! flamegraphs — which is how `wabench-served wdiff` names the phase that
//! regressed between them.
//!
//! Like the sampler and the alert engine, nothing aggregates unless a
//! `ContProf` is explicitly constructed and fed: the default-off path
//! costs nothing and keeps simulated figures bit-identical.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::time::Duration;

/// Aggregated cost of one phase stack within a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Samples folded into this stack (≈ jobs touching the phase).
    pub count: u64,
    /// Wall self-time, nanoseconds.
    pub self_ns: u64,
    /// Simulated instructions retired in the phase (0 for unprofiled
    /// jobs — wall-only samples still attribute time).
    pub instructions: u64,
    /// Simulated cycles spent in the phase (0 for unprofiled jobs).
    pub cycles: u64,
}

/// One sealed (or in-progress) profile window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileWindow {
    /// Monotone window number since profiler creation.
    pub seq: u64,
    /// Window start, trace-clock ns (aligned to the window span).
    pub start_ns: u64,
    /// Window end, trace-clock ns. For the in-progress window this is
    /// the time of the latest sample, so `end_ns - start_ns` under the
    /// configured span marks a partial window.
    pub end_ns: u64,
    /// Per-stack aggregates, keyed by the collapsed stack
    /// (`engine;phase`). A `BTreeMap` keeps every rendering
    /// deterministic.
    pub phases: BTreeMap<String, PhaseStat>,
}

impl ProfileWindow {
    /// Total wall self-time across all stacks, ns.
    pub fn total_self_ns(&self) -> u64 {
        self.phases.values().map(|p| p.self_ns).sum()
    }

    /// Each stack's share of the window's total self-time, in stack
    /// order. Empty when the window recorded no time.
    pub fn shares(&self) -> Vec<(String, f64)> {
        let total = self.total_self_ns();
        if total == 0 {
            return Vec::new();
        }
        self.phases
            .iter()
            .map(|(stack, p)| (stack.clone(), p.self_ns as f64 / total as f64))
            .collect()
    }

    /// Collapsed-stack rendering (`stack weight` per line, stack
    /// order), weight = wall self-nanoseconds — the format
    /// [`crate::folded::parse`] reads and `flamegraph.pl` consumes.
    /// Zero-weight stacks are omitted, like [`crate::folded`].
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, p) in &self.phases {
            if p.self_ns > 0 {
                out.push_str(&format!("{stack} {}\n", p.self_ns));
            }
        }
        out
    }
}

/// The windowed profile aggregator.
#[derive(Debug)]
pub struct ContProf {
    window_ns: u64,
    cap: usize,
    next_seq: u64,
    cur: Option<ProfileWindow>,
    sealed: VecDeque<ProfileWindow>,
}

impl ContProf {
    /// An aggregator sealing one window per `window` span, retaining at
    /// most `cap` sealed windows (min 1 each). Spans shorter than 1ms
    /// are raised to 1ms.
    pub fn new(window: Duration, cap: usize) -> ContProf {
        ContProf {
            window_ns: window.max(Duration::from_millis(1)).as_nanos() as u64,
            cap: cap.max(1),
            next_seq: 0,
            cur: None,
            sealed: VecDeque::new(),
        }
    }

    /// The configured window span, ns.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Folds one phase sample in at trace-clock time `t_ns`. Windows
    /// are aligned to absolute multiples of the span, so the same
    /// sample stream always produces the same windows; quiet spans
    /// produce no window at all rather than empty filler.
    pub fn record(
        &mut self,
        t_ns: u64,
        engine: &str,
        phase: &str,
        self_ns: u64,
        instructions: u64,
        cycles: u64,
    ) {
        let start = t_ns - (t_ns % self.window_ns);
        // A sample older than the open window (a worker racing the
        // roll) folds into the open window rather than reopening a
        // sealed one; only a strictly newer span seals.
        if self.cur.as_ref().is_some_and(|c| c.start_ns < start) {
            self.seal();
        }
        let cur = self.cur.get_or_insert_with(|| {
            let seq = self.next_seq;
            self.next_seq += 1;
            ProfileWindow {
                seq,
                start_ns: start,
                end_ns: start,
                phases: BTreeMap::new(),
            }
        });
        cur.end_ns = cur.end_ns.max(t_ns);
        let stat = cur
            .phases
            .entry(format!("{};{}", sanitize(engine), sanitize(phase)))
            .or_default();
        stat.count += 1;
        stat.self_ns += self_ns;
        stat.instructions += instructions;
        stat.cycles += cycles;
    }

    fn seal(&mut self) {
        if let Some(mut w) = self.cur.take() {
            w.end_ns = w.start_ns + self.window_ns;
            if self.sealed.len() == self.cap {
                self.sealed.pop_front();
            }
            self.sealed.push_back(w);
        }
    }

    /// Every retained window, oldest first — the sealed ring plus the
    /// in-progress window (if any samples landed in it).
    pub fn windows(&self) -> Vec<ProfileWindow> {
        let mut out: Vec<ProfileWindow> = self.sealed.iter().cloned().collect();
        if let Some(cur) = &self.cur {
            out.push(cur.clone());
        }
        out
    }

    /// Phase shares of the most recent window (the in-progress one when
    /// it has samples, else the last sealed) — the drift rule's input.
    pub fn current_shares(&self) -> Vec<(String, f64)> {
        self.cur
            .as_ref()
            .or_else(|| self.sealed.back())
            .map(ProfileWindow::shares)
            .unwrap_or_default()
    }
}

/// Frame sanitizer shared with [`crate::folded`]'s conventions: the
/// collapsed format reserves `;` (frame separator) and space (weight
/// separator).
fn sanitize(frame: &str) -> String {
    frame
        .chars()
        .map(|c| if c == ';' || c == ' ' || c == '\n' { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn prof() -> ContProf {
        ContProf::new(Duration::from_millis(10), 4)
    }

    #[test]
    fn samples_aggregate_within_a_window() {
        let mut p = prof();
        p.record(MS, "wasm3", "compile", 100, 0, 0);
        p.record(2 * MS, "wasm3", "exec", 400, 1000, 500);
        p.record(3 * MS, "wasm3", "exec", 600, 2000, 900);
        let ws = p.windows();
        assert_eq!(ws.len(), 1, "one in-progress window");
        let w = &ws[0];
        assert_eq!(w.seq, 0);
        assert_eq!(w.start_ns, 0);
        assert_eq!(w.end_ns, 3 * MS, "partial window ends at latest sample");
        assert_eq!(w.phases.len(), 2);
        let exec = &w.phases["wasm3;exec"];
        assert_eq!((exec.count, exec.self_ns), (2, 1000));
        assert_eq!((exec.instructions, exec.cycles), (3000, 1400));
        assert_eq!(w.total_self_ns(), 1100);
    }

    #[test]
    fn windows_roll_on_aligned_boundaries_and_skip_quiet_spans() {
        let mut p = prof();
        p.record(5 * MS, "wasm3", "exec", 10, 0, 0);
        // Jump three spans ahead: the open window seals (full span),
        // and no empty filler windows appear for the quiet spans.
        p.record(35 * MS, "wamr", "exec", 20, 0, 0);
        let ws = p.windows();
        assert_eq!(ws.len(), 2);
        assert_eq!((ws[0].start_ns, ws[0].end_ns), (0, 10 * MS));
        assert_eq!((ws[1].start_ns, ws[1].seq), (30 * MS, 1));
    }

    #[test]
    fn sealed_ring_is_bounded() {
        let mut p = prof();
        for i in 0..10u64 {
            p.record(i * 10 * MS + MS, "wasm3", "exec", 1, 0, 0);
        }
        let ws = p.windows();
        // 9 sealed (capped to 4) + 1 in progress.
        assert_eq!(ws.len(), 5);
        let seqs: Vec<u64> = ws.iter().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![5, 6, 7, 8, 9], "oldest sealed evicted");
    }

    #[test]
    fn late_sample_folds_into_open_window() {
        let mut p = prof();
        p.record(12 * MS, "wasm3", "exec", 5, 0, 0);
        // A worker finishing late reports a pre-roll timestamp; it must
        // not reopen or corrupt sealed history.
        p.record(11 * MS, "wasm3", "exec", 7, 0, 0);
        let ws = p.windows();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].phases["wasm3;exec"].self_ns, 12);
        assert_eq!(ws[0].end_ns, 12 * MS);
    }

    #[test]
    fn folded_rendering_parses_and_shares_sum_to_one() {
        let mut p = prof();
        p.record(MS, "wasm3", "compile", 250, 0, 0);
        p.record(2 * MS, "wasm3", "exec", 750, 0, 0);
        p.record(3 * MS, "cranelift", "exec", 0, 0, 0); // zero-weight
        let w = &p.windows()[0];
        let doc = w.folded();
        assert_eq!(doc, "wasm3;compile 250\nwasm3;exec 750\n");
        let summary = crate::folded::parse(&doc).unwrap();
        assert_eq!(summary.total_weight, 1000);
        let shares = w.shares();
        assert_eq!(shares.len(), 3);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(shares[2], ("wasm3;exec".to_string(), 0.75));
    }

    #[test]
    fn current_shares_prefer_the_open_window() {
        let mut p = prof();
        p.record(MS, "wasm3", "exec", 100, 0, 0);
        p.record(11 * MS, "wamr", "exec", 100, 0, 0);
        let shares = p.current_shares();
        assert_eq!(shares, vec![("wamr;exec".to_string(), 1.0)]);
        let empty = ContProf::new(Duration::from_millis(10), 4);
        assert!(empty.current_shares().is_empty());
    }

    #[test]
    fn frames_are_sanitized() {
        let mut p = prof();
        p.record(MS, "eng;ne", "ph ase", 10, 0, 0);
        let w = &p.windows()[0];
        assert!(w.phases.contains_key("eng_ne;ph_ase"));
        assert!(crate::folded::parse(&w.folded()).is_ok());
    }
}
