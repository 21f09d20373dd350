//! Folded-stack (flamegraph) export from drained traces.
//!
//! Emits Brendan Gregg's collapsed format — one line per distinct stack,
//! `frame;frame;frame weight` — which `flamegraph.pl` and every
//! compatible viewer consume directly. The stack root is the thread
//! name, so lanes stay separable in one graph. The weight is *self*
//! wall nanoseconds (a frame's time minus its children's): folded
//! consumers derive the inclusive totals by summing descendants, so
//! exporting inclusive weights would double-count. Counter attribution
//! per span path is [`crate::prof`]'s table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::prof;
use crate::trace::Trace;

/// Renders `trace` as collapsed stacks weighted by self wall time.
/// Stacks whose weight is zero are omitted; lines sort lexically so
/// output is deterministic across runs.
pub fn export_string(trace: &Trace) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for thread in &trace.threads {
        for (path, node) in prof::aggregate(&thread.events) {
            let w = node.self_ns;
            if w == 0 {
                continue;
            }
            let mut key = thread.name.replace([';', ' ', '\n'], "_");
            for frame in &path {
                key.push(';');
                key.push_str(&frame.replace([';', ' ', '\n'], "_"));
            }
            *stacks.entry(key).or_insert(0) += w;
        }
    }
    let mut out = String::new();
    for (stack, w) in stacks {
        let _ = writeln!(out, "{stack} {w}");
    }
    out
}

/// Writes `trace` to `path` in collapsed format.
pub fn export_file(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, export_string(trace))
}

/// What [`parse`] learned about a folded document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldedSummary {
    /// Distinct stack lines.
    pub stacks: usize,
    /// Sum of all weights.
    pub total_weight: u64,
    /// Deepest stack, counted in frames *excluding* the thread root —
    /// comparable to a Chrome trace's `max_depth`.
    pub max_depth: usize,
    /// Distinct frame names (thread roots excluded), sorted.
    pub frames: Vec<String>,
}

/// Parses a collapsed-format document, checking each line is
/// `frame(;frame)* <weight>`.
///
/// # Errors
///
/// A message naming the first malformed line (1-based).
pub fn parse(doc: &str) -> Result<FoldedSummary, String> {
    let mut summary = FoldedSummary::default();
    let mut frames = std::collections::BTreeSet::new();
    for (i, line) in doc.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("folded: line {}: no weight field", i + 1))?;
        let weight: u64 = weight
            .parse()
            .map_err(|_| format!("folded: line {}: bad weight {weight:?}", i + 1))?;
        let parts: Vec<&str> = stack.split(';').collect();
        if parts.iter().any(|p| p.is_empty()) {
            return Err(format!("folded: line {}: empty frame", i + 1));
        }
        summary.stacks += 1;
        summary.total_weight += weight;
        summary.max_depth = summary.max_depth.max(parts.len().saturating_sub(1));
        for frame in &parts[1..] {
            frames.insert((*frame).to_string());
        }
    }
    summary.frames = frames.into_iter().collect();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanEvent, ThreadTrace};

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

    fn trace() -> Trace {
        Trace {
            threads: vec![ThreadTrace {
                tid: 1,
                name: "main".into(),
                dropped: 0,
                events: vec![
                    span("execute", 100, 600, 1),
                    span("cell", 0, 1_000, 0),
                    span("cell", 2_000, 500, 0),
                ],
            }],
        }
    }

    #[test]
    fn wall_weights_are_self_time() {
        let folded = export_string(&trace());
        assert!(folded.contains("main;cell 900\n"), "400+500 self:\n{folded}");
        assert!(folded.contains("main;cell;execute 600\n"));
    }

    #[test]
    fn export_parses_and_depths_match() {
        let s = parse(&export_string(&trace())).expect("parses");
        assert_eq!(s.stacks, 2);
        assert_eq!(s.total_weight, 1_500);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.frames, ["cell", "execute"]);
    }

    #[test]
    fn separators_in_names_are_sanitized() {
        let t = Trace {
            threads: vec![ThreadTrace {
                tid: 1,
                name: "pool worker;0".into(),
                dropped: 0,
                events: vec![span("a", 0, 10, 0)],
            }],
        };
        let folded = export_string(&t);
        assert!(folded.starts_with("pool_worker_0;a 10"));
        parse(&folded).expect("sanitized output parses");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("noweight").is_err());
        assert!(parse("a;b twelve").is_err());
        assert!(parse("a;;b 3").is_err());
        assert_eq!(parse("").unwrap().stacks, 0);
    }
}
