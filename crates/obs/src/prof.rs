//! Attributed counter profile: a `perf report`-style table over spans.
//!
//! The self-time report ([`crate::report`]) answers "where did the wall
//! time go"; this one answers "where did the *machine* go" — retired
//! instructions, IPC, and the paper's MPKI metrics (Figures 10–14)
//! attributed to span paths. Producers attach a [`SpanCounters`] delta
//! to the spans they sample (engine compile/execute); aggregation here
//! distributes those deltas hierarchically:
//!
//! * a span's **total** counters are its own payload;
//! * its **self** counters are its payload minus whatever its descendant
//!   spans already account for, so nothing is counted twice even when a
//!   payload-free span sits between two attributed ones.
//!
//! Spans without a payload get zero counters (shown as `-`), not a share
//! of their parent's — attribution stays honest about what was sampled.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::fmt_ns;
use crate::trace::{SpanCounters, SpanEvent, Trace};

/// Aggregated figures for one span path.
#[derive(Debug, Default, Clone)]
pub struct ProfNode {
    /// Number of spans that landed on this path.
    pub count: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Summed wall time minus children's.
    pub self_ns: u64,
    /// Summed counter payloads (zero if no span on this path carried
    /// one).
    pub total: SpanCounters,
    /// Payloads minus descendants' accounted counters.
    pub self_counters: SpanCounters,
    /// Whether any span on this path carried a payload — distinguishes
    /// "measured zero" from "never measured".
    pub has_counters: bool,
}

/// One step of [`walk`].
pub(crate) enum Step<'a> {
    /// The span opens, nested in every span still open.
    Open(&'a SpanEvent),
    /// The innermost open span closes at the given time: its own end,
    /// clamped to its parent's.
    Close(&'a SpanEvent, u64),
}

/// The one span-nesting reconstruction: replays one thread's complete
/// spans as a balanced open/close sequence. Spans sort by (start asc,
/// depth asc, duration desc), so on a shared start the enclosing span
/// opens first; an open span closes once a span starts at or after its
/// end. RAII guards cannot produce a partial overlap, but a child's end
/// is clamped to its parent's so even a pathological input stays
/// nested. [`aggregate`] and the Chrome export ([`crate::chrome`])
/// both walk spans through this.
pub(crate) fn walk<'a>(events: &'a [SpanEvent], mut visit: impl FnMut(Step<'a>)) {
    let mut spans: Vec<&SpanEvent> = events.iter().collect();
    spans.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(a.depth.cmp(&b.depth))
            .then(b.dur_ns.cmp(&a.dur_ns))
    });
    // Open spans as (clamped end, span); the top is the innermost.
    let mut open: Vec<(u64, &SpanEvent)> = Vec::new();
    for span in spans {
        while let Some(&(end_ns, top)) = open.last() {
            if end_ns > span.start_ns {
                break;
            }
            open.pop();
            visit(Step::Close(top, end_ns));
        }
        let end_ns = match open.last() {
            Some(&(parent_end, _)) => span.end_ns().min(parent_end),
            None => span.end_ns(),
        };
        visit(Step::Open(span));
        open.push((end_ns, span));
    }
    while let Some((end_ns, top)) = open.pop() {
        visit(Step::Close(top, end_ns));
    }
}

/// Aggregates one thread's spans by call path, attributing counter
/// deltas hierarchically. The self-time report ([`crate::report`]) and
/// the folded export ([`crate::folded`]) read it too. Recursion and
/// zero-duration spans are safe.
pub fn aggregate(events: &[SpanEvent]) -> BTreeMap<Vec<&'static str>, ProfNode> {
    struct Open {
        dur_ns: u64,
        child_ns: u64,
        path: Vec<&'static str>,
        own: Option<SpanCounters>,
        // Sum over direct children of the counters they account for
        // (their payload, or — payload-free — their own children's).
        covered_by_children: SpanCounters,
    }

    let mut agg: BTreeMap<Vec<&'static str>, ProfNode> = BTreeMap::new();
    let mut open: Vec<Open> = Vec::new();
    walk(events, |step| match step {
        Step::Open(span) => {
            let mut path = open.last().map(|o| o.path.clone()).unwrap_or_default();
            path.push(span.name);
            open.push(Open {
                dur_ns: span.dur_ns,
                child_ns: 0,
                path,
                own: span.counters.as_deref().copied(),
                covered_by_children: SpanCounters::default(),
            });
        }
        Step::Close(..) => {
            let o = open.pop().expect("close with open span");
            let node = agg.entry(o.path).or_default();
            node.count += 1;
            node.total_ns += o.dur_ns;
            node.self_ns += o.dur_ns.saturating_sub(o.child_ns);
            let covered = match o.own {
                Some(c) => {
                    node.total = node.total.saturating_add(c);
                    node.self_counters = node
                        .self_counters
                        .saturating_add(c.delta_since(o.covered_by_children));
                    node.has_counters = true;
                    c
                }
                None => o.covered_by_children,
            };
            if let Some(parent) = open.last_mut() {
                parent.child_ns += o.dur_ns;
                parent.covered_by_children = parent.covered_by_children.saturating_add(covered);
            }
        }
    });
    agg
}

/// Renders `trace` as a per-thread `perf report`-style table: wall self
/// time next to self instructions, the thread-relative instruction
/// share, and the derived IPC / MPKI columns the paper's Figures 10–14
/// plot. Threads with no attributed spans are skipped.
pub fn render(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "counter profile ({} spans, {} threads)",
        trace.span_count(),
        trace.threads.len()
    );

    let mut any = false;
    for thread in &trace.threads {
        let agg = aggregate(&thread.events);
        if !agg.values().any(|n| n.has_counters) {
            continue;
        }
        any = true;
        // Thread-relative instruction base: top-level totals only, so
        // shares sum to ≤100% without double counting nesting.
        let thread_instrs: u64 = agg
            .iter()
            .filter(|(path, _)| path.len() == 1)
            .map(|(_, n)| n.total.instructions)
            .sum();
        let _ = writeln!(out, "\n[{} tid={}]", thread.name, thread.tid);
        let name_width = agg
            .keys()
            .map(|path| 2 * (path.len() - 1) + path.last().map_or(0, |n| n.len()))
            .max()
            .unwrap_or(0)
            .max("span".len());
        let _ = writeln!(
            out,
            "  {:name_width$}  {:>7}  {:>9}  {:>12}  {:>6}  {:>5}  {:>8}  {:>8}  {:>8}  {:>8}",
            "span",
            "count",
            "self",
            "instrs",
            "inst%",
            "ipc",
            "br-mpki",
            "l1d-mpki",
            "l1i-mpki",
            "llc-mpki"
        );
        for (path, node) in &agg {
            let indent = 2 * (path.len() - 1);
            let label = format!("{:indent$}{}", "", path.last().expect("non-empty path"));
            if node.has_counters {
                let c = &node.self_counters;
                let pct = if thread_instrs == 0 {
                    0.0
                } else {
                    100.0 * c.instructions as f64 / thread_instrs as f64
                };
                let _ = writeln!(
                    out,
                    "  {label:name_width$}  {:>7}  {:>9}  {:>12}  {pct:>5.1}%  {:>5.2}  {:>8.2}  {:>8.2}  {:>8.2}  {:>8.2}",
                    node.count,
                    fmt_ns(node.self_ns),
                    c.instructions,
                    c.ipc(),
                    c.branch_mpki(),
                    c.l1d_mpki(),
                    c.l1i_mpki(),
                    c.llc_mpki(),
                );
            } else {
                let _ = writeln!(
                    out,
                    "  {label:name_width$}  {:>7}  {:>9}  {:>12}  {:>6}  {:>5}  {:>8}  {:>8}  {:>8}  {:>8}",
                    node.count,
                    fmt_ns(node.self_ns),
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-"
                );
            }
        }
    }
    if !any {
        out.push_str("(no attributed spans — run under a profiled mode)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ThreadTrace;

    fn counters(instructions: u64, cycles: u64) -> SpanCounters {
        SpanCounters {
            instructions,
            cycles,
            ..Default::default()
        }
    }

    fn span(
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        depth: u16,
        c: Option<SpanCounters>,
    ) -> SpanEvent {
        SpanEvent {
            name,
            attr: None,
            start_ns,
            dur_ns,
            depth,
            counters: c.map(Box::new),
        }
    }

    #[test]
    fn self_counters_subtract_attributed_children() {
        let agg = aggregate(&[
            span("child", 100, 400, 1, Some(counters(300, 150))),
            span("parent", 0, 1_000, 0, Some(counters(1_000, 500))),
        ]);
        let parent = &agg[&vec!["parent"]];
        assert_eq!(parent.total.instructions, 1_000);
        assert_eq!(parent.self_counters.instructions, 700);
        assert_eq!(parent.self_counters.cycles, 350);
        let child = &agg[&vec!["parent", "child"]];
        assert_eq!(child.self_counters.instructions, 300);
    }

    #[test]
    fn payload_free_middle_span_forwards_coverage() {
        // parent(payload) → glue(no payload) → leaf(payload): the leaf's
        // counters must still come out of the parent's self share.
        let agg = aggregate(&[
            span("leaf", 200, 100, 2, Some(counters(400, 200))),
            span("glue", 100, 300, 1, None),
            span("parent", 0, 1_000, 0, Some(counters(1_000, 600))),
        ]);
        assert_eq!(agg[&vec!["parent"]].self_counters.instructions, 600);
        let glue = &agg[&vec!["parent", "glue"]];
        assert!(!glue.has_counters);
        assert!(glue.self_counters.is_zero());
        assert_eq!(
            agg[&vec!["parent", "glue", "leaf"]].self_counters.instructions,
            400
        );
    }

    #[test]
    fn attribution_conserves_instructions() {
        let events = [
            span("a", 100, 200, 1, Some(counters(250, 100))),
            span("b", 400, 300, 1, Some(counters(500, 250))),
            span("root", 0, 1_000, 0, Some(counters(1_000, 500))),
        ];
        let agg = aggregate(&events);
        let self_sum: u64 = agg.values().map(|n| n.self_counters.instructions).sum();
        assert_eq!(self_sum, 1_000, "self shares must partition the root total");
    }

    #[test]
    fn render_handles_empty_and_unattributed_traces() {
        let empty = render(&Trace::default());
        assert!(empty.contains("no attributed spans"));
        let trace = Trace {
            threads: vec![ThreadTrace {
                tid: 1,
                name: "main".into(),
                dropped: 0,
                events: vec![span("plain", 0, 100, 0, None)],
            }],
        };
        assert!(render(&trace).contains("no attributed spans"));
    }

    #[test]
    fn render_shows_derived_columns_without_nan() {
        // Zero-instruction payloads exercise every division guard.
        let trace = Trace {
            threads: vec![ThreadTrace {
                tid: 1,
                name: "main".into(),
                dropped: 0,
                events: vec![
                    span("empty", 0, 0, 0, Some(counters(0, 0))),
                    span("work", 10, 500, 0, Some(counters(2_000, 1_000))),
                ],
            }],
        };
        let text = render(&trace);
        assert!(!text.contains("NaN"), "NaN leaked:\n{text}");
        assert!(text.contains("work"));
        assert!(text.contains("2.00"), "ipc column missing:\n{text}");
    }
}
