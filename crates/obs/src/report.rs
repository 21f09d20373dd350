//! Plain-text hierarchical self-time report.
//!
//! The Chrome trace answers "what happened when"; this report answers
//! "where did the time go" without leaving the terminal. Spans aggregate
//! by their full call path (`svc.job.exec/engine.compile/jit.pass`), so
//! the same pass invoked from two places shows up twice — that is the
//! point: attribution follows the path, not the name. *Self* time is a
//! span's duration minus its children's, which is what you optimize.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::fmt_ns;
use crate::trace::{SpanEvent, Trace};

#[derive(Default, Clone)]
struct Node {
    total_ns: u64,
    self_ns: u64,
    count: u64,
}

/// Aggregates one thread's spans by call path.
fn aggregate(events: &[SpanEvent]) -> BTreeMap<Vec<&'static str>, Node> {
    let mut spans: Vec<&SpanEvent> = events.iter().collect();
    spans.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(a.depth.cmp(&b.depth))
            .then(b.dur_ns.cmp(&a.dur_ns))
    });

    let mut agg: BTreeMap<Vec<&'static str>, Node> = BTreeMap::new();
    // Open spans: (end_ns, duration, children's total so far, path).
    let mut open: Vec<(u64, u64, u64, Vec<&'static str>)> = Vec::new();
    let pop = |open: &mut Vec<(u64, u64, u64, Vec<&'static str>)>,
                   agg: &mut BTreeMap<Vec<&'static str>, Node>| {
        let (_, dur_ns, child_ns, path) = open.pop().expect("pop with open span");
        let node = agg.entry(path).or_default();
        node.total_ns += dur_ns;
        node.self_ns += dur_ns.saturating_sub(child_ns);
        node.count += 1;
        if let Some(parent) = open.last_mut() {
            parent.2 += dur_ns;
        }
    };

    for span in spans {
        while let Some(&(end_ns, ..)) = open.last() {
            if end_ns > span.start_ns {
                break;
            }
            pop(&mut open, &mut agg);
        }
        let end_ns = match open.last() {
            Some(&(parent_end, ..)) => span.end_ns().min(parent_end),
            None => span.end_ns(),
        };
        let mut path: Vec<&'static str> =
            open.last().map(|(.., p)| p.clone()).unwrap_or_default();
        path.push(span.name);
        open.push((end_ns, span.dur_ns, 0, path));
    }
    while !open.is_empty() {
        pop(&mut open, &mut agg);
    }
    agg
}

/// Renders `trace` as an indented per-thread self-time table.
pub fn render(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "self-time report ({} spans, {} threads{})",
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
        let thread_total: u64 = agg
            .iter()
            .filter(|(path, _)| path.len() == 1)
            .map(|(_, n)| n.total_ns)
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
            "  {:name_width$}  {:>7}  {:>9}  {:>9}  {:>6}",
            "span", "count", "total", "self", "self%"
        );
        for (path, node) in &agg {
            let indent = 2 * (path.len() - 1);
            let label = format!(
                "{:indent$}{}",
                "",
                path.last().expect("non-empty path")
            );
            let pct = if thread_total == 0 {
                0.0
            } else {
                100.0 * node.self_ns as f64 / thread_total as f64
            };
            let _ = writeln!(
                out,
                "  {label:name_width$}  {:>7}  {:>9}  {:>9}  {pct:>5.1}%",
                node.count,
                fmt_ns(node.total_ns),
                fmt_ns(node.self_ns),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ThreadTrace;

    fn span(name: &'static str, start_ns: u64, dur_ns: u64, depth: u16) -> SpanEvent {
        SpanEvent {
            name,
            attr: None,
            start_ns,
            dur_ns,
            depth,
            counters: None,
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let agg = aggregate(&[
            span("child", 2_000, 3_000, 1),
            span("parent", 1_000, 10_000, 0),
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
            span("pass", 100, 50, 1),
            span("compile", 100, 100, 0),
            span("pass", 300, 80, 1),
            span("verify", 300, 100, 0),
        ]);
        assert_eq!(agg[&vec!["compile", "pass"]].count, 1);
        assert_eq!(agg[&vec!["verify", "pass"]].count, 1);
        assert!(!agg.contains_key(&vec!["pass"]));
    }

    #[test]
    fn repeated_spans_accumulate() {
        let agg = aggregate(&[
            span("pass", 100, 10, 1),
            span("pass", 120, 20, 1),
            span("compile", 100, 100, 0),
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
        let agg = aggregate(&[span("f", 20, 40, 1), span("f", 0, 100, 0)]);
        let outer = &agg[&vec!["f"]];
        let inner = &agg[&vec!["f", "f"]];
        assert_eq!(outer.total_ns, 100);
        assert_eq!(outer.self_ns, 60);
        assert_eq!(inner.total_ns, 40);
        assert_eq!(inner.self_ns, 40);
        let self_sum: u64 = agg.values().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, 100, "self times must partition the wall time");
    }

    #[test]
    fn zero_total_duration_renders_without_nan() {
        // Every span has zero duration: thread_total is 0 and the
        // percentage column must degrade to 0.0%, never NaN.
        let trace = Trace {
            threads: vec![ThreadTrace {
                tid: 1,
                name: "main".into(),
                dropped: 0,
                events: vec![span("instant", 10, 0, 0), span("blip", 20, 0, 0)],
            }],
        };
        let text = render(&trace);
        assert!(!text.contains("NaN"), "NaN leaked into report:\n{text}");
        assert!(text.contains("0.0%"));
    }

    #[test]
    fn render_mentions_threads_and_spans() {
        let trace = Trace {
            threads: vec![ThreadTrace {
                tid: 3,
                name: "main".into(),
                dropped: 0,
                events: vec![span("cell", 0, 1_000, 0), span("compile", 100, 400, 1)],
            }],
        };
        let text = render(&trace);
        assert!(text.contains("[main tid=3]"));
        assert!(text.contains("cell"));
        assert!(text.contains("  compile"), "children are indented");
        assert!(text.contains("self%"));
    }
}
