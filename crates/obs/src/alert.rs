//! SLO alert rules, spec parsing, and the alert state machine.
//!
//! The series ring ([`crate::series`]) records what happened; this
//! module decides when what happened is an *incident*. An
//! [`AlertEngine`] is fed one [`SeriesPoint`] per telemetry sample and
//! evaluates a fixed set of [`Rule`]s over a bounded trailing window:
//! dual-window error-budget burn rate, a p99 latency ceiling, queue
//! saturation, circuit breakers not closed, and profile drift (an
//! engine × phase share of a point's self-time jumping versus the same
//! share in the trailing points).
//!
//! Rules parse from a compact spec string (`--alerts` /
//! `WABENCH_ALERTS`), the same shape `fault::FaultPlan` uses:
//!
//! ```text
//! slo=0.999,pending=5s,burn=14:5s:60s,p99=250ms:15s,queue=64:10s,breaker,drift=3:60s
//! ```
//!
//! Each rule runs a pending → firing → resolved state machine. The
//! evaluation clock is the point's own `t_ns`, never a wall
//! clock, so a synthetic point stream drives the machine
//! deterministically in tests — and nothing here runs unless an engine
//! is explicitly constructed, preserving the bit-identical-when-off
//! contract.

use std::collections::VecDeque;

use crate::metrics::fmt_ns;
use crate::series::{EngineName, SeriesPoint, Window};

/// Hard cap on samples an engine retains, on top of the time-window
/// bound (guards against a spec with an enormous window).
const MAX_SAMPLES: usize = 4096;

/// Bounded alert-event log length.
const LOG_CAP: usize = 256;

/// Baseline points the drift rule needs before it can judge a phase.
const DRIFT_MIN_BASELINE: usize = 3;

/// Jobs a point must cover for the drift rule to read it: the share of
/// a point holding one or two jobs is too noisy to judge or learn from.
pub const DRIFT_MIN_JOBS: u64 = 3;

/// What a rule watches.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Error-budget burn rate ≥ `threshold` over *both* the fast and
    /// slow trailing windows (the classic dual-window page rule: the
    /// fast window catches the incident, the slow window keeps a brief
    /// blip from paging).
    Burn {
        /// Burn-rate threshold (1.0 = consuming budget exactly on
        /// schedule).
        threshold: f64,
        /// Fast window span, ns.
        fast_ns: u64,
        /// Slow window span, ns.
        slow_ns: u64,
    },
    /// Merged p99 over the trailing window exceeds the ceiling.
    P99 {
        /// Latency ceiling, ns.
        ceiling_ns: u64,
        /// Trailing window span, ns.
        window_ns: u64,
    },
    /// Queue depth at or above `depth` for every sample in the window.
    Queue {
        /// Saturation depth.
        depth: u64,
        /// Trailing window span, ns.
        window_ns: u64,
    },
    /// Any circuit breaker not closed at the latest sample.
    Breaker,
    /// An engine × phase share of the latest point's self-time exceeds
    /// the mean of its shares in the trailing points by more than `k`
    /// standard deviations. Points of fewer than [`DRIFT_MIN_JOBS`] jobs
    /// are not read: they neither judge, join the baseline, nor move
    /// the rule's state.
    Drift {
        /// Sigma multiplier.
        k: f64,
        /// Trailing baseline window span, ns.
        window_ns: u64,
    },
}

/// One armed alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// What the rule watches.
    pub kind: RuleKind,
}

impl Rule {
    /// Stable short id (`burn` / `p99` / `queue` / `breaker` / `drift`)
    /// — the spec key, the wire name, and the postmortem file tag.
    pub fn id(&self) -> &'static str {
        match self.kind {
            RuleKind::Burn { .. } => "burn",
            RuleKind::P99 { .. } => "p99",
            RuleKind::Queue { .. } => "queue",
            RuleKind::Breaker => "breaker",
            RuleKind::Drift { .. } => "drift",
        }
    }

    /// The longest trailing span this rule looks back over.
    fn lookback_ns(&self) -> u64 {
        match self.kind {
            RuleKind::Burn { slow_ns, .. } => slow_ns,
            RuleKind::P99 { window_ns, .. } => window_ns,
            RuleKind::Queue { window_ns, .. } => window_ns,
            RuleKind::Breaker => 0,
            RuleKind::Drift { window_ns, .. } => window_ns,
        }
    }
}

/// A parsed alert spec: global tuning plus the armed rules.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertSpec {
    /// Availability SLO target for burn-rate rules (default 0.999).
    pub slo: f64,
    /// How long a condition must hold before pending becomes firing
    /// (default 0 — fire on first breach).
    pub pending_ns: u64,
    /// Armed rules, in spec order.
    pub rules: Vec<Rule>,
}

impl Default for AlertSpec {
    fn default() -> AlertSpec {
        AlertSpec {
            slo: 0.999,
            pending_ns: 0,
            rules: Vec::new(),
        }
    }
}

impl AlertSpec {
    /// Parses a spec string: comma-separated clauses.
    ///
    /// ```text
    /// slo=F           burn-rule SLO target in [0, 1)      (default 0.999)
    /// pending=DUR     hold before pending → firing        (default 0s)
    /// burn=T:FAST:SLOW   dual-window burn rule (threshold, two spans)
    /// p99=DUR:WINDOW     merged-p99 ceiling over a trailing window
    /// queue=N:WINDOW     queue depth ≥ N for the whole window
    /// breaker            any breaker not closed at the latest sample
    /// drift=K:WINDOW     phase share > baseline mean + K·σ
    /// ```
    ///
    /// Durations take `ms` or `s` suffixes, like fault-plan delays.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown keys, malformed clauses, or
    /// out-of-range numbers.
    pub fn parse(spec: &str) -> Result<AlertSpec, String> {
        let mut out = AlertSpec::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if part == "breaker" {
                out.rules.push(Rule {
                    kind: RuleKind::Breaker,
                });
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("alert spec: {part:?} is not key=value"))?;
            match key {
                "slo" => {
                    let slo: f64 = value
                        .parse()
                        .map_err(|_| format!("alert spec: bad slo {value:?}"))?;
                    if !(0.0..1.0).contains(&slo) {
                        return Err(format!("alert spec: slo {slo} outside [0, 1)"));
                    }
                    out.slo = slo;
                }
                "pending" => out.pending_ns = parse_duration_ns(value)?,
                "burn" => {
                    let (t, fast, slow) = split3(value, "burn")?;
                    let threshold = parse_pos_f64(t, "burn threshold")?;
                    out.rules.push(Rule {
                        kind: RuleKind::Burn {
                            threshold,
                            fast_ns: parse_duration_ns(fast)?,
                            slow_ns: parse_duration_ns(slow)?,
                        },
                    });
                }
                "p99" => {
                    let (ceiling, window) = split2(value, "p99")?;
                    out.rules.push(Rule {
                        kind: RuleKind::P99 {
                            ceiling_ns: parse_duration_ns(ceiling)?,
                            window_ns: parse_duration_ns(window)?,
                        },
                    });
                }
                "queue" => {
                    let (depth, window) = split2(value, "queue")?;
                    let depth: u64 = depth
                        .parse()
                        .map_err(|_| format!("alert spec: bad queue depth {depth:?}"))?;
                    out.rules.push(Rule {
                        kind: RuleKind::Queue {
                            depth,
                            window_ns: parse_duration_ns(window)?,
                        },
                    });
                }
                "drift" => {
                    let (k, window) = split2(value, "drift")?;
                    out.rules.push(Rule {
                        kind: RuleKind::Drift {
                            k: parse_pos_f64(k, "drift sigma")?,
                            window_ns: parse_duration_ns(window)?,
                        },
                    });
                }
                other => {
                    return Err(format!(
                        "alert spec: unknown key {other:?} \
                         (known: slo, pending, burn, p99, queue, breaker, drift)"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Reads a spec from `WABENCH_ALERTS`; `Ok(None)` when unset/empty.
    ///
    /// # Errors
    ///
    /// Parse errors from [`AlertSpec::parse`].
    pub fn from_env() -> Result<Option<AlertSpec>, String> {
        match std::env::var("WABENCH_ALERTS") {
            Ok(spec) if !spec.trim().is_empty() => AlertSpec::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// The longest lookback any armed rule needs.
    fn lookback_ns(&self) -> u64 {
        self.rules
            .iter()
            .map(Rule::lookback_ns)
            .max()
            .unwrap_or(0)
            .max(self.pending_ns)
    }
}

impl std::fmt::Display for AlertSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slo={}", self.slo)?;
        if self.pending_ns > 0 {
            write!(f, ",pending={}", fmt_dur(self.pending_ns))?;
        }
        for rule in &self.rules {
            match rule.kind {
                RuleKind::Burn {
                    threshold,
                    fast_ns,
                    slow_ns,
                } => write!(
                    f,
                    ",burn={threshold}:{}:{}",
                    fmt_dur(fast_ns),
                    fmt_dur(slow_ns)
                )?,
                RuleKind::P99 {
                    ceiling_ns,
                    window_ns,
                } => write!(f, ",p99={}:{}", fmt_dur(ceiling_ns), fmt_dur(window_ns))?,
                RuleKind::Queue { depth, window_ns } => {
                    write!(f, ",queue={depth}:{}", fmt_dur(window_ns))?
                }
                RuleKind::Breaker => write!(f, ",breaker")?,
                RuleKind::Drift { k, window_ns } => {
                    write!(f, ",drift={k}:{}", fmt_dur(window_ns))?
                }
            }
        }
        Ok(())
    }
}

fn split2<'a>(v: &'a str, key: &str) -> Result<(&'a str, &'a str), String> {
    v.split_once(':')
        .ok_or_else(|| format!("alert spec: {key} wants {key}=A:B, got {v:?}"))
}

fn split3<'a>(v: &'a str, key: &str) -> Result<(&'a str, &'a str, &'a str), String> {
    let (a, rest) = split2(v, key)?;
    let (b, c) = rest
        .split_once(':')
        .ok_or_else(|| format!("alert spec: {key} wants {key}=A:B:C, got {v:?}"))?;
    Ok((a, b, c))
}

fn parse_pos_f64(s: &str, what: &str) -> Result<f64, String> {
    let v: f64 = s
        .parse()
        .map_err(|_| format!("alert spec: bad {what} {s:?}"))?;
    if v > 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(format!("alert spec: {what} must be positive, got {v}"))
    }
}

/// Parses `250ms` / `15s` into nanoseconds.
fn parse_duration_ns(s: &str) -> Result<u64, String> {
    let bad = || format!("alert spec: bad duration {s:?} (use e.g. 250ms or 15s)");
    if let Some(ms) = s.strip_suffix("ms") {
        let v: u64 = ms.parse().map_err(|_| bad())?;
        Ok(v.saturating_mul(1_000_000))
    } else if let Some(secs) = s.strip_suffix('s') {
        let v: u64 = secs.parse().map_err(|_| bad())?;
        Ok(v.saturating_mul(1_000_000_000))
    } else {
        Err(bad())
    }
}

/// Renders a nanosecond span in the spec grammar (`ms` or whole `s`).
fn fmt_dur(ns: u64) -> String {
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else {
        format!("{}ms", ns / 1_000_000)
    }
}

/// A state-machine transition kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Condition breached; waiting out the pending hold.
    Pending,
    /// Alert is live — the flight-recorder trigger.
    Firing,
    /// A firing alert's condition cleared.
    Resolved,
}

impl Transition {
    /// Stable wire byte.
    pub fn byte(self) -> u8 {
        match self {
            Transition::Pending => 0,
            Transition::Firing => 1,
            Transition::Resolved => 2,
        }
    }

    /// Decodes a wire byte.
    pub fn from_byte(b: u8) -> Option<Transition> {
        Some(match b {
            0 => Transition::Pending,
            1 => Transition::Firing,
            2 => Transition::Resolved,
            _ => return None,
        })
    }

    /// Lowercase human name.
    pub fn name(self) -> &'static str {
        match self {
            Transition::Pending => "pending",
            Transition::Firing => "firing",
            Transition::Resolved => "resolved",
        }
    }
}

/// One logged state transition.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Monotone event number since engine creation.
    pub seq: u64,
    /// Evaluation-clock time of the transition.
    pub t_ns: u64,
    /// Rule id ([`Rule::id`]).
    pub rule: String,
    /// Which transition happened.
    pub transition: Transition,
    /// The evaluated value at transition time.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// Human context (`fast=14.2 slow=15.0`, `phase=wasm3;exec z=4.1`…).
    pub detail: String,
}

/// A currently-firing alert, for health surfaces.
#[derive(Debug, Clone, PartialEq)]
pub struct FiringAlert {
    /// Rule id.
    pub rule: String,
    /// When it started firing (evaluation clock).
    pub since_ns: u64,
    /// Latest evaluated value.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// Latest human context.
    pub detail: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Inactive,
    Pending { since_ns: u64 },
    Firing { since_ns: u64 },
}

/// One rule's evaluation this tick.
#[derive(Debug, Clone)]
struct Eval {
    breached: bool,
    value: f64,
    threshold: f64,
    detail: String,
}

/// The rule evaluator and per-rule state machines.
///
/// Feed it one [`SeriesPoint`] per sample via [`AlertEngine::observe`];
/// it returns the transitions that sample caused (the caller snapshots
/// a postmortem on each [`Transition::Firing`]).
#[derive(Debug)]
pub struct AlertEngine {
    spec: AlertSpec,
    /// Names the drift rule's phases in its detail.
    engine_name: EngineName,
    /// Retained samples, oldest first (the sampler's clock is monotone).
    window: Vec<SeriesPoint>,
    states: Vec<State>,
    last_eval: Vec<Eval>,
    log: VecDeque<AlertEvent>,
    seq: u64,
}

impl AlertEngine {
    /// An engine with every rule inactive and an empty window;
    /// `engine_name` renders engine codes in the drift rule's detail.
    pub fn new(spec: AlertSpec, engine_name: EngineName) -> AlertEngine {
        let n = spec.rules.len();
        AlertEngine {
            spec,
            engine_name,
            window: Vec::new(),
            states: vec![State::Inactive; n],
            last_eval: (0..n)
                .map(|_| Eval {
                    breached: false,
                    value: 0.0,
                    threshold: 0.0,
                    detail: String::new(),
                })
                .collect(),
            log: VecDeque::new(),
            seq: 0,
        }
    }

    /// The spec this engine runs.
    pub fn spec(&self) -> &AlertSpec {
        &self.spec
    }

    /// Feeds one sample and returns the transitions it caused, in rule
    /// order. The point's `t_ns` is the evaluation clock.
    pub fn observe(&mut self, point: SeriesPoint) -> Vec<AlertEvent> {
        let now = point.t_ns;
        self.window.push(point);
        // Drop samples older than any rule looks back (keeping the
        // newest), then enforce the hard cap.
        let keep_from = now.saturating_sub(self.spec.lookback_ns());
        let stale = self.window.partition_point(|p| p.t_ns < keep_from);
        let cut = stale
            .min(self.window.len() - 1)
            .max(self.window.len().saturating_sub(MAX_SAMPLES));
        self.window.drain(..cut);

        let mut transitions = Vec::new();
        for i in 0..self.spec.rules.len() {
            // A rule with nothing to read in this point keeps its state.
            let Some(eval) = self.evaluate(i, now) else {
                continue;
            };
            let state = self.states[i];
            let next = match (state, eval.breached) {
                (State::Inactive, true) if self.spec.pending_ns == 0 => {
                    transitions.push(self.log_event(i, now, Transition::Firing, &eval));
                    State::Firing { since_ns: now }
                }
                (State::Inactive, true) => {
                    transitions.push(self.log_event(i, now, Transition::Pending, &eval));
                    State::Pending { since_ns: now }
                }
                (State::Pending { since_ns }, true)
                    if now.saturating_sub(since_ns) >= self.spec.pending_ns =>
                {
                    transitions.push(self.log_event(i, now, Transition::Firing, &eval));
                    State::Firing { since_ns }
                }
                (State::Pending { .. }, false) => State::Inactive,
                (State::Firing { .. }, false) => {
                    transitions.push(self.log_event(i, now, Transition::Resolved, &eval));
                    State::Inactive
                }
                (s, _) => s,
            };
            self.states[i] = next;
            self.last_eval[i] = eval;
        }
        transitions
    }

    /// The alerts firing right now, in rule order.
    pub fn firing(&self) -> Vec<FiringAlert> {
        self.spec
            .rules
            .iter()
            .zip(self.states.iter())
            .zip(self.last_eval.iter())
            .filter_map(|((rule, state), eval)| match state {
                State::Firing { since_ns } => Some(FiringAlert {
                    rule: rule.id().to_string(),
                    since_ns: *since_ns,
                    value: eval.value,
                    threshold: eval.threshold,
                    detail: eval.detail.clone(),
                }),
                _ => None,
            })
            .collect()
    }

    /// The bounded transition log, oldest first.
    pub fn log(&self) -> Vec<AlertEvent> {
        self.log.iter().cloned().collect()
    }

    fn log_event(&mut self, rule: usize, t_ns: u64, tr: Transition, eval: &Eval) -> AlertEvent {
        let event = AlertEvent {
            seq: self.seq,
            t_ns,
            rule: self.spec.rules[rule].id().to_string(),
            transition: tr,
            value: eval.value,
            threshold: eval.threshold,
            detail: eval.detail.clone(),
        };
        self.seq += 1;
        if self.log.len() == LOG_CAP {
            self.log.pop_front();
        }
        self.log.push_back(event.clone());
        event
    }

    /// Index of the first retained sample inside the trailing `span_ns`.
    fn trailing(&self, now: u64, span_ns: u64) -> usize {
        let from = now.saturating_sub(span_ns);
        self.window.partition_point(|p| p.t_ns <= from)
    }

    /// `None` when the rule cannot read the newest point (drift over an
    /// idle or thin interval).
    fn evaluate(&self, rule: usize, now: u64) -> Option<Eval> {
        Some(match self.spec.rules[rule].kind {
            RuleKind::Burn {
                threshold,
                fast_ns,
                slow_ns,
            } => {
                let burn_over = |span: u64| {
                    Window::over(&self.window[self.trailing(now, span)..]).burn(self.spec.slo)
                };
                let fast = burn_over(fast_ns);
                let slow = burn_over(slow_ns);
                Eval {
                    breached: fast >= threshold && slow >= threshold,
                    value: fast.min(slow),
                    threshold,
                    detail: format!("fast={fast:.2} slow={slow:.2} slo={}", self.spec.slo),
                }
            }
            RuleKind::P99 {
                ceiling_ns,
                window_ns,
            } => {
                let p99 = Window::over(&self.window[self.trailing(now, window_ns)..]).p99_ns();
                Eval {
                    breached: p99 > ceiling_ns,
                    value: p99 as f64,
                    threshold: ceiling_ns as f64,
                    detail: format!("p99={} ceiling={}", fmt_ns(p99), fmt_ns(ceiling_ns)),
                }
            }
            RuleKind::Queue { depth, window_ns } => {
                let points = &self.window[self.trailing(now, window_ns)..];
                let min = points.iter().map(|p| p.queue_depth).min().unwrap_or(0);
                Eval {
                    breached: !points.is_empty() && min >= depth,
                    value: min as f64,
                    threshold: depth as f64,
                    detail: format!("min_depth={min} over {} samples", points.len()),
                }
            }
            RuleKind::Breaker => {
                // A point lists only breakers not closed: open and
                // half-open both count.
                let open = self.window.last().map_or(0, |p| p.breakers.len());
                Eval {
                    breached: open > 0,
                    value: open as f64,
                    threshold: 1.0,
                    detail: format!("breakers_open={open}"),
                }
            }
            RuleKind::Drift { k, window_ns } => {
                // Judge the newest point against the readable points
                // before it; idle and thin intervals neither judge nor
                // join the baseline.
                let (cur, past) = self.window[self.trailing(now, window_ns)..].split_last()?;
                if !drift_reads(cur) {
                    return None;
                }
                let mut worst: Option<(f64, String)> = None;
                for e in &cur.engines {
                    for exec in [false, true] {
                        let Some(share) = phase_share(cur, e.code, exec) else {
                            continue;
                        };
                        let (mut n, mut sum, mut sum_sq) = (0usize, 0.0, 0.0);
                        for s in past
                            .iter()
                            .filter(|p| drift_reads(p))
                            .filter_map(|p| phase_share(p, e.code, exec))
                        {
                            (n, sum, sum_sq) = (n + 1, sum + s, sum_sq + s * s);
                        }
                        if n < DRIFT_MIN_BASELINE {
                            continue;
                        }
                        let mean = sum / n as f64;
                        let var = (sum_sq / n as f64 - mean * mean).max(0.0);
                        // Share noise floor: a dead-flat baseline would
                        // turn any change into an infinite z-score.
                        let sigma = var.sqrt().max(1e-3);
                        let z = (share - mean) / sigma;
                        if worst.as_ref().is_none_or(|(w, _)| z > *w) {
                            let phase = if exec { "exec" } else { "compile" };
                            let stack = format!("{};{phase}", (self.engine_name)(e.code));
                            worst = Some((
                                z,
                                format!("phase={stack} share={share:.3} base={mean:.3} z={z:.2}"),
                            ));
                        }
                    }
                }
                let (z, detail) = worst.unwrap_or((0.0, "no baseline".to_string()));
                Eval {
                    breached: z > k,
                    value: z,
                    threshold: k,
                    detail,
                }
            }
        })
    }
}

/// Whether the drift rule reads a point: it must carry phase time from
/// at least [`DRIFT_MIN_JOBS`] jobs.
fn drift_reads(p: &SeriesPoint) -> bool {
    p.engines.iter().map(|e| e.jobs).sum::<u64>() >= DRIFT_MIN_JOBS && p.has_phase_time()
}

/// One engine's compile (`exec` false) or exec share of a point's
/// self-time; `None` when that phase recorded no time.
fn phase_share(p: &SeriesPoint, code: u8, exec: bool) -> Option<f64> {
    let e = p.engines.iter().find(|e| e.code == code)?;
    let ns = if exec { e.exec_ns } else { e.compile_ns };
    let total: u64 = p.engines.iter().map(|e| e.compile_ns + e.exec_ns).sum();
    (ns > 0).then(|| ns as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{EngineDelta, HistDelta};

    const S: u64 = 1_000_000_000;

    fn name(_: u8) -> &'static str {
        "wasm3"
    }

    fn obs(t_s: u64) -> SeriesPoint {
        SeriesPoint {
            t_ns: t_s * S,
            interval_ns: S,
            ..SeriesPoint::default()
        }
    }

    /// A point whose interval latency sits entirely in `bucket`.
    fn lat(t_s: u64, bucket: u8, count: u64) -> SeriesPoint {
        SeriesPoint {
            lat: HistDelta {
                count,
                max_ns: crate::metrics::bucket_bound_ns(usize::from(bucket)),
                buckets: vec![(bucket, count)],
                ..HistDelta::default()
            },
            ..obs(t_s)
        }
    }

    #[test]
    fn spec_parses_and_round_trips() {
        let spec = AlertSpec::parse(
            "slo=0.99,pending=5s,burn=14:5s:60s,p99=250ms:15s,queue=64:10s,breaker,drift=3:60s",
        )
        .unwrap();
        assert_eq!(spec.slo, 0.99);
        assert_eq!(spec.pending_ns, 5 * S);
        assert_eq!(spec.rules.len(), 5);
        assert_eq!(
            spec.rules.iter().map(Rule::id).collect::<Vec<_>>(),
            vec!["burn", "p99", "queue", "breaker", "drift"]
        );
        assert_eq!(
            spec.rules[1].kind,
            RuleKind::P99 {
                ceiling_ns: 250_000_000,
                window_ns: 15 * S
            }
        );
        let again = AlertSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(AlertSpec::parse("nonsense").is_err());
        assert!(AlertSpec::parse("bogus=1").is_err());
        assert!(AlertSpec::parse("slo=1.5").is_err());
        assert!(AlertSpec::parse("burn=14:5s").is_err(), "burn wants three parts");
        assert!(AlertSpec::parse("burn=-1:5s:60s").is_err());
        assert!(AlertSpec::parse("p99=250ms").is_err());
        assert!(AlertSpec::parse("p99=fast:15s").is_err());
        assert!(AlertSpec::parse("queue=x:10s").is_err());
        assert!(AlertSpec::parse("drift=3:10parsecs").is_err());
        assert!(AlertSpec::parse("pending=10").is_err(), "bare number has no unit");
    }

    #[test]
    fn empty_spec_arms_nothing() {
        let engine = &mut AlertEngine::new(AlertSpec::parse("").unwrap(), name);
        assert!(engine.observe(obs(1)).is_empty());
        assert!(engine.firing().is_empty());
        assert!(engine.log().is_empty());
    }

    #[test]
    fn p99_rule_fires_and_resolves_on_merged_quantile() {
        // Ceiling 1ms; bucket 13 holds (1.05ms, 2.1ms].
        let spec = AlertSpec::parse("p99=1ms:10s").unwrap();
        let mut engine = AlertEngine::new(spec, name);
        let slow = |t: u64| lat(t, 13, 10);
        let fast = |t: u64| lat(t, 9, 10);
        let events = engine.observe(slow(1));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].transition, Transition::Firing);
        assert_eq!(events[0].rule, "p99");
        assert!(events[0].value > 1_000_000.0);
        assert_eq!(engine.firing().len(), 1);
        // Still breached while the slow point is in the window...
        assert!(engine.observe(fast(2)).is_empty());
        // ...resolved once it ages out (window is 10s).
        let events = engine.observe(fast(12));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].transition, Transition::Resolved);
        assert!(engine.firing().is_empty());
        let log = engine.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].seq, 0);
        assert_eq!(log[1].seq, 1);
    }

    #[test]
    fn pending_hold_delays_firing_and_cancels_cleanly() {
        let spec = AlertSpec::parse("pending=3s,queue=4:10s").unwrap();
        let mut engine = AlertEngine::new(spec.clone(), name);
        let deep = |t: u64| SeriesPoint {
            queue_depth: 9,
            ..obs(t)
        };
        let events = engine.observe(deep(1));
        assert_eq!(events[0].transition, Transition::Pending);
        assert!(engine.firing().is_empty(), "pending is not firing");
        assert!(engine.observe(deep(2)).is_empty(), "still holding");
        let events = engine.observe(deep(4));
        assert_eq!(events[0].transition, Transition::Firing);
        assert_eq!(engine.firing()[0].since_ns, S, "firing since first breach");

        // A breach that clears during the hold never fires.
        let mut engine = AlertEngine::new(spec, name);
        engine.observe(deep(1));
        assert!(engine.observe(obs(20)).is_empty(), "cancelled silently");
        // The shallow sample must age out of the 10s window before the
        // rule can go pending again.
        assert!(engine.observe(deep(31))[0].transition == Transition::Pending);
    }

    #[test]
    fn burn_rule_needs_both_windows() {
        // slo=0.9 → budget 0.1; threshold 2 → failure ratio ≥ 0.2 in
        // both the 2s fast and 6s slow windows.
        let spec = AlertSpec::parse("slo=0.9,burn=2:2s:6s").unwrap();
        let mut engine = AlertEngine::new(spec, name);
        let failing = |t: u64| SeriesPoint {
            completed: 10,
            failed: 5,
            ..obs(t)
        };
        let clean = |t: u64| SeriesPoint {
            completed: 10,
            failed: 0,
            ..obs(t)
        };
        // A long clean history dilutes the slow window below threshold:
        // fast breaches, slow does not → no alert.
        for t in 1..=5 {
            assert!(engine.observe(clean(t)).is_empty());
        }
        assert!(engine.observe(failing(6)).is_empty(), "slow window still diluted");
        assert!(engine.observe(failing(7)).is_empty(), "slow window still diluted");
        // Sustained failures push both windows over.
        let events = engine.observe(failing(8));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].transition, Transition::Firing);
        assert_eq!(events[0].rule, "burn");
    }

    #[test]
    fn breaker_rule_tracks_latest_sample() {
        let mut engine = AlertEngine::new(AlertSpec::parse("breaker").unwrap(), name);
        assert!(engine.observe(obs(1)).is_empty());
        let open = SeriesPoint {
            breakers: vec![(1, 1), (4, 1)],
            ..obs(2)
        };
        let events = engine.observe(open);
        assert_eq!(events[0].transition, Transition::Firing);
        assert_eq!(events[0].value, 2.0);
        let events = engine.observe(obs(3));
        assert_eq!(events[0].transition, Transition::Resolved);
    }

    /// A probe job moves an open breaker to half-open (state byte 2);
    /// the breaker is still not closed, so the alert keeps firing
    /// instead of resolving mid-probe and re-firing if the probe fails.
    #[test]
    fn breaker_rule_keeps_firing_while_half_open() {
        let mut engine = AlertEngine::new(AlertSpec::parse("breaker").unwrap(), name);
        let with = |t: u64, state: u8| SeriesPoint {
            breakers: vec![(3, state)],
            ..obs(t)
        };
        assert_eq!(engine.observe(with(1, 1))[0].transition, Transition::Firing);
        assert!(engine.observe(with(2, 2)).is_empty(), "half-open is not closed");
        assert_eq!(engine.firing().len(), 1);
        assert_eq!(engine.firing()[0].value, 1.0);
        assert_eq!(engine.observe(obs(3))[0].transition, Transition::Resolved);
    }

    /// A point whose jobs split `exec` : `1 - exec` between exec and
    /// compile time (`exec` None: an idle interval, no phase time).
    fn phases(t_s: u64, exec: Option<f64>) -> SeriesPoint {
        let engines = exec.map_or_else(Vec::new, |e| {
            vec![EngineDelta {
                code: 3,
                jobs: 4,
                compile_ns: ((1.0 - e) * 1e6) as u64,
                exec_ns: (e * 1e6) as u64,
            }]
        });
        SeriesPoint {
            engines,
            ..obs(t_s)
        }
    }

    #[test]
    fn drift_rule_wants_a_baseline_before_judging() {
        let spec = AlertSpec::parse("drift=3:60s").unwrap();
        let mut engine = AlertEngine::new(spec, name);
        // A jump with no baseline cannot fire.
        assert!(engine.observe(phases(1, Some(0.9))).is_empty());
        // Build a steady baseline, then jump the exec share.
        let mut engine = AlertEngine::new(AlertSpec::parse("drift=3:60s").unwrap(), name);
        for (t, s) in [(1, 0.50), (2, 0.51), (3, 0.49), (4, 0.50)] {
            assert!(engine.observe(phases(t, Some(s))).is_empty(), "t={t}");
        }
        let events = engine.observe(phases(5, Some(0.95)));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rule, "drift");
        assert_eq!(events[0].transition, Transition::Firing);
        assert!(events[0].detail.contains("phase=wasm3;exec"), "{}", events[0].detail);
    }

    /// Idle points carry no phase time: they neither judge nor pad the
    /// baseline, so a long quiet spell between two stretches of the
    /// same mix leaves the rule quiet.
    #[test]
    fn drift_rule_ignores_idle_points() {
        let mut engine = AlertEngine::new(AlertSpec::parse("drift=3:60s").unwrap(), name);
        let steady = [0.50, 0.52, 0.48, 0.51, 0.49];
        for (t, s) in (1..).zip(steady) {
            assert!(engine.observe(phases(t, Some(s))).is_empty());
        }
        for t in 6..30 {
            assert!(engine.observe(phases(t, None)).is_empty(), "idle t={t}");
        }
        for (t, s) in (30..).zip(steady) {
            assert!(engine.observe(phases(t, Some(s))).is_empty(), "resumed t={t}");
        }
        assert!(engine.log().is_empty());
    }

    /// A point the drift rule cannot read changes nothing: a firing
    /// alert stays firing across idle points, and a pending one still
    /// fires when a breach read after an idle spell ends the hold.
    #[test]
    fn idle_points_keep_the_drift_state() {
        let steady = |engine: &mut AlertEngine| {
            for t in 1..=20 {
                let s = if t % 2 == 0 { 0.51 } else { 0.49 };
                assert!(engine.observe(phases(t, Some(s))).is_empty(), "t={t}");
            }
        };
        let mut engine = AlertEngine::new(AlertSpec::parse("drift=3:60s").unwrap(), name);
        steady(&mut engine);
        assert_eq!(engine.observe(phases(21, Some(0.95)))[0].transition, Transition::Firing);
        for t in 22..30 {
            assert!(engine.observe(phases(t, None)).is_empty(), "idle t={t}");
        }
        assert_eq!(engine.firing().len(), 1);

        let spec = AlertSpec::parse("pending=3s,drift=3:60s").unwrap();
        let mut engine = AlertEngine::new(spec, name);
        steady(&mut engine);
        assert_eq!(engine.observe(phases(21, Some(0.95)))[0].transition, Transition::Pending);
        for t in 22..30 {
            assert!(engine.observe(phases(t, None)).is_empty(), "idle t={t}");
        }
        let events = engine.observe(phases(30, Some(0.95)));
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].transition, Transition::Firing);
    }

    /// A point covering fewer than `DRIFT_MIN_JOBS` jobs is neither
    /// judged nor learnt from.
    #[test]
    fn drift_rule_skips_thin_points() {
        let thin = |t: u64, exec: f64| {
            let mut p = phases(t, Some(exec));
            p.engines[0].jobs = DRIFT_MIN_JOBS - 1;
            p
        };
        let mut engine = AlertEngine::new(AlertSpec::parse("drift=3:60s").unwrap(), name);
        for (t, s) in [(1, 0.50), (2, 0.51), (3, 0.49), (4, 0.50)] {
            engine.observe(phases(t, Some(s)));
        }
        assert!(engine.observe(thin(5, 0.95)).is_empty(), "a thin point cannot fire");
        // Thin points do not widen the baseline either.
        for t in 6..10 {
            engine.observe(thin(t, if t % 2 == 0 { 0.1 } else { 0.9 }));
        }
        assert_eq!(engine.observe(phases(10, Some(0.95)))[0].transition, Transition::Firing);
    }

    #[test]
    fn observations_are_bounded_by_lookback() {
        let mut engine = AlertEngine::new(AlertSpec::parse("queue=1:5s").unwrap(), name);
        for t in 1..=500 {
            engine.observe(obs(t));
        }
        assert!(
            engine.window.len() <= 8,
            "window holds ~5s of 1s samples, got {}",
            engine.window.len()
        );
    }

    #[test]
    fn transition_bytes_round_trip() {
        for t in [Transition::Pending, Transition::Firing, Transition::Resolved] {
            assert_eq!(Transition::from_byte(t.byte()), Some(t));
        }
        assert_eq!(Transition::from_byte(9), None);
    }
}
