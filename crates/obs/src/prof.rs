//! The span profile: a `perf report`-style table over spans.
//!
//! One table answers both "where did the wall time go" and "where did
//! the *machine* go". Spans aggregate by their full call path
//! (`svc.job.run/engine.compile/jit.pass`), so the same pass invoked
//! from two places shows up twice — attribution follows the path, not
//! the name. *Self* time is a span's duration minus its children's,
//! which is what you optimize. Next to it stand retired instructions,
//! IPC and the paper's MPKI metrics (Figures 6–10, Table 5). Producers attach
//! a [`SpanCounters`] delta to the spans they sample (engine
//! compile/execute); aggregation here distributes those deltas
//! hierarchically:
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
/// deltas hierarchically. [`render`] and the folded export
/// ([`crate::folded`]) read it. Recursion and
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

/// Renders `trace` as one table per thread: per span path the count,
/// wall total, self time and its share of the thread's wall time, then
/// self instructions, their share of the thread's instructions and the
/// derived IPC / MPKI columns behind the paper's Figures 6–10 and
/// Table 5. A path that carried no counter payload shows `-` in the
/// counter columns.
pub fn render(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "span profile ({} spans, {} threads{})",
        trace.span_count(),
        trace.threads.len(),
        if trace.dropped() > 0 {
            format!(", {} dropped", trace.dropped())
        } else {
            String::new()
        }
    );

    for thread in &trace.threads {
        if thread.events.is_empty() {
            continue;
        }
        let agg = aggregate(&thread.events);
        // Thread-relative bases: top-level totals only, so shares sum to
        // ≤100% without double counting nesting.
        let top = agg.iter().filter(|(path, _)| path.len() == 1).map(|(_, n)| n);
        let (thread_ns, thread_instrs) = top.fold((0u64, 0u64), |(ns, instrs), n| {
            (ns + n.total_ns, instrs + n.total.instructions)
        });
        let share = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        let _ = writeln!(out, "\n[{} tid={}]", thread.name, thread.tid);
        let name_width = agg
            .keys()
            .map(|path| 2 * (path.len() - 1) + path.last().map_or(0, |n| n.len()))
            .max()
            .unwrap_or(0)
            .max("span".len());
        let _ = writeln!(
            out,
            "  {:name_width$}  {:>7}  {:>9}  {:>9}  {:>6}  {:>12}  {:>6}  {:>5}  {:>8}  {:>8}  {:>8}  {:>8}",
            "span", "count", "total", "self", "self%", "instrs", "inst%", "ipc", "br-mpki",
            "l1d-mpki", "l1i-mpki", "llc-mpki"
        );
        for (path, node) in &agg {
            let indent = 2 * (path.len() - 1);
            let label = format!("{:indent$}{}", "", path.last().expect("non-empty path"));
            let counters = if node.has_counters {
                let c = &node.self_counters;
                format!(
                    "{:>12}  {:>5.1}%  {:>5.2}  {:>8.2}  {:>8.2}  {:>8.2}  {:>8.2}",
                    c.instructions,
                    share(c.instructions, thread_instrs),
                    c.ipc(),
                    c.branch_mpki(),
                    c.l1d_mpki(),
                    c.l1i_mpki(),
                    c.llc_mpki(),
                )
            } else {
                format!(
                    "{:>12}  {:>6}  {:>5}  {:>8}  {:>8}  {:>8}  {:>8}",
                    "-", "-", "-", "-", "-", "-", "-"
                )
            };
            let _ = writeln!(
                out,
                "  {label:name_width$}  {:>7}  {:>9}  {:>9}  {:>5.1}%  {counters}",
                node.count,
                fmt_ns(node.total_ns),
                fmt_ns(node.self_ns),
                share(node.self_ns, thread_ns),
            );
        }
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
    fn self_time_excludes_children() {
        let agg = aggregate(&[
            span("child", 2_000, 3_000, 1, None),
            span("parent", 1_000, 10_000, 0, None),
        ]);
        let parent = &agg[&vec!["parent"]];
        assert_eq!(parent.total_ns, 10_000);
        assert_eq!(parent.self_ns, 7_000);
        let child = &agg[&vec!["parent", "child"]];
        assert_eq!(child.total_ns, 3_000);
        assert_eq!(child.self_ns, 3_000);
    }

    #[test]
    fn same_name_different_paths_stay_separate() {
        let agg = aggregate(&[
            span("pass", 100, 50, 1, None),
            span("compile", 100, 100, 0, None),
            span("pass", 300, 80, 1, None),
            span("verify", 300, 100, 0, None),
        ]);
        assert_eq!(agg[&vec!["compile", "pass"]].count, 1);
        assert_eq!(agg[&vec!["verify", "pass"]].count, 1);
        assert!(!agg.contains_key(&vec!["pass"]));
    }

    #[test]
    fn repeated_spans_accumulate() {
        let agg = aggregate(&[
            span("pass", 100, 10, 1, None),
            span("pass", 120, 20, 1, None),
            span("compile", 100, 100, 0, None),
        ]);
        let pass = &agg[&vec!["compile", "pass"]];
        assert_eq!(pass.count, 2);
        assert_eq!(pass.total_ns, 30);
        assert_eq!(agg[&vec!["compile"]].self_ns, 70);
    }

    #[test]
    fn recursive_spans_do_not_double_count_self_time() {
        // f calls itself: outer 0..100, inner 20..60. The path keys
        // distinguish the recursion levels, each level's self time is
        // its duration minus its direct child, and total self time
        // equals the outer wall time — nothing counted twice.
        let agg = aggregate(&[span("f", 20, 40, 1, None), span("f", 0, 100, 0, None)]);
        let outer = &agg[&vec!["f"]];
        let inner = &agg[&vec!["f", "f"]];
        assert_eq!(outer.total_ns, 100);
        assert_eq!(outer.self_ns, 60);
        assert_eq!(inner.total_ns, 40);
        assert_eq!(inner.self_ns, 40);
        let self_sum: u64 = agg.values().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, 100, "self times must partition the wall time");
    }

    fn one_thread(events: Vec<SpanEvent>) -> Trace {
        Trace {
            threads: vec![ThreadTrace {
                tid: 3,
                name: "main".into(),
                dropped: 0,
                events,
            }],
        }
    }

    #[test]
    fn render_shows_every_thread_with_dashes_for_unattributed_paths() {
        let empty = render(&Trace::default());
        assert!(empty.starts_with("span profile (0 spans, 0 threads)"));
        let text = render(&one_thread(vec![
            span("cell", 0, 1_000, 0, None),
            span("compile", 100, 400, 1, None),
        ]));
        assert!(text.contains("[main tid=3]"));
        assert!(text.contains("self%") && text.contains("l1d-mpki"));
        let row = text.lines().find(|l| l.trim_start().starts_with("compile")).unwrap();
        assert!(row.starts_with("    compile"), "children are indented: {row:?}");
        assert!(row.contains("40.0%"), "self share of the thread: {row:?}");
        assert!(row.trim_end().ends_with('-'), "no payload, no counters: {row:?}");
    }

    #[test]
    fn zero_total_duration_renders_without_nan() {
        // Every span has zero duration: the thread's wall total is 0 and
        // the self% column must degrade to 0.0%, never NaN.
        let text = render(&one_thread(vec![
            span("instant", 10, 0, 0, None),
            span("blip", 20, 0, 0, None),
        ]));
        assert!(!text.contains("NaN"), "NaN leaked into report:\n{text}");
        assert!(text.contains("0.0%"));
    }

    #[test]
    fn render_shows_derived_columns_without_nan() {
        // Zero-instruction payloads exercise every division guard.
        let text = render(&one_thread(vec![
            span("empty", 0, 0, 0, Some(counters(0, 0))),
            span("work", 10, 500, 0, Some(counters(2_000, 1_000))),
        ]));
        assert!(!text.contains("NaN"), "NaN leaked:\n{text}");
        assert!(text.contains("work"));
        assert!(text.contains("2.00"), "ipc column missing:\n{text}");
    }
}
