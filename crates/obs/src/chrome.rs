//! Chrome trace-event JSON export and round-trip validation.
//!
//! [`export_string`] turns a drained [`Trace`] into the Trace Event
//! Format understood by Perfetto and `chrome://tracing`: one metadata
//! (`M`) event naming each thread, then balanced duration (`B`/`E`)
//! pairs per span. We record *complete* spans (start + duration at guard
//! drop), so the begin/end stream is reconstructed per thread by the
//! nesting walk [`crate::prof::aggregate`] also uses: spans sort by
//! (start asc, depth asc, duration desc) and an end-time stack decides
//! when to close open spans. Because whole spans drop when a ring fills
//! — never half of a pair — the reconstruction always balances.
//!
//! [`validate`] re-parses an exported document and checks the structural
//! invariants a viewer relies on (valid JSON, a `traceEvents` array,
//! per-thread balanced and name-matched `B`/`E` nesting, monotone
//! timestamps). The `wabench-served trace-check` command and the
//! round-trip tests are built on it.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::prof::{self, Step};
use crate::trace::{SpanEvent, Trace};

/// The `pid` stamped on every exported event: the whole stack is one
/// process; threads are the interesting axis.
pub const TRACE_PID: u64 = 1;

fn push_event_prefix(out: &mut String, ph: char, tid: u64, name: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"{ph}\",\"pid\":{TRACE_PID},\"tid\":{tid},\"name\":\"{}\"",
        json::escape(name)
    );
}

/// Renders `trace` as a Chrome trace-event JSON document.
pub fn export_string(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };

    for thread in &trace.threads {
        sep(&mut out, &mut first);
        push_event_prefix(&mut out, 'M', thread.tid, "thread_name");
        let _ = write!(
            out,
            ",\"args\":{{\"name\":\"{}\"}}}}",
            json::escape(&thread.name)
        );

        // A balanced B/E stream from complete events: the nesting walk
        // every span consumer shares.
        prof::walk(&thread.events, |step| {
            sep(&mut out, &mut first);
            match step {
                Step::Open(span) => {
                    push_event_prefix(&mut out, 'B', thread.tid, span.name);
                    let _ = write!(out, ",\"ts\":{}", fmt_us(span.start_ns));
                    push_args(&mut out, span);
                    out.push('}');
                }
                Step::Close(span, end_ns) => {
                    push_event_prefix(&mut out, 'E', thread.tid, span.name);
                    let _ = write!(out, ",\"ts\":{}}}", fmt_us(end_ns));
                }
            }
        });
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// A `B` event's `args`: the span's detail string and, for spans with a
/// counter payload, its counters and derived ratios.
fn push_args(out: &mut String, span: &SpanEvent) {
    if span.attr.is_none() && span.counters.is_none() {
        return;
    }
    out.push_str(",\"args\":{");
    let mut first_arg = true;
    if let Some(attr) = &span.attr {
        let _ = write!(out, "\"detail\":\"{}\"", json::escape(attr));
        first_arg = false;
    }
    if let Some(c) = &span.counters {
        // Numeric args show up in the viewer's span details; derived
        // ratios are finite by construction (the helpers return 0 on
        // empty denominators), so this always stays valid JSON.
        for (key, val) in [
            ("instructions", c.instructions as f64),
            ("cycles", c.cycles as f64),
            ("ipc", c.ipc()),
            ("branch_mpki", c.branch_mpki()),
            ("l1d_mpki", c.l1d_mpki()),
            ("llc_mpki", c.llc_mpki()),
        ] {
            if !first_arg {
                out.push(',');
            }
            first_arg = false;
            let _ = write!(out, "\"{key}\":{val:.3}");
        }
    }
    out.push('}');
}

/// Writes `trace` to `path` as Chrome trace JSON.
pub fn export_file(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, export_string(trace))
}

/// Microseconds with nanosecond precision, as trace-format `ts` expects.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// What [`validate`] learned about a trace document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Total events of any phase.
    pub events: usize,
    /// Completed `B`/`E` span pairs.
    pub spans: usize,
    /// Distinct thread ids seen.
    pub tids: usize,
    /// Deepest observed `B` nesting (1 = no nesting).
    pub max_depth: usize,
    /// Distinct span names, sorted.
    pub names: Vec<String>,
}

/// Why [`validate`] rejected a document — split so tools can exit with
/// distinct codes for "not JSON" vs "JSON, but not a coherent trace".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The document is not well-formed JSON (message carries
    /// line/column from the parser).
    Parse(String),
    /// The JSON parses but violates a trace invariant: missing
    /// `traceEvents`, events without required fields, unbalanced or
    /// name-mismatched `B`/`E` pairs, or non-monotone timestamps.
    Semantic(String),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::Parse(m) | ValidateError::Semantic(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ValidateError {}

fn semantic(msg: String) -> ValidateError {
    ValidateError::Semantic(msg)
}

/// Parses a Chrome trace-event document and checks its structural
/// invariants.
///
/// # Errors
///
/// [`ValidateError::Parse`] on malformed JSON;
/// [`ValidateError::Semantic`] for a missing or non-array
/// `traceEvents`, events without required fields, unbalanced or
/// name-mismatched `B`/`E` pairs, or non-monotone timestamps within
/// a thread.
pub fn validate(doc: &str) -> Result<Summary, ValidateError> {
    let root = json::parse(doc).map_err(ValidateError::Parse)?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| semantic("trace: missing traceEvents array".into()))?;

    let mut summary = Summary {
        events: events.len(),
        ..Summary::default()
    };
    let mut names = BTreeSet::new();
    // Per (pid, tid): open-span name stack and last timestamp.
    let mut lanes: std::collections::BTreeMap<(u64, u64), (Vec<String>, f64)> =
        std::collections::BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| semantic(format!("trace: event {i} has no ph")))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_num)
            .ok_or_else(|| semantic(format!("trace: event {i} has no pid")))? as u64;
        let tid = ev
            .get("tid")
            .and_then(Value::as_num)
            .ok_or_else(|| semantic(format!("trace: event {i} has no tid")))? as u64;
        let lane = lanes.entry((pid, tid)).or_insert((Vec::new(), f64::MIN));

        match ph {
            "M" => continue,
            "B" | "E" => {
                let name = ev
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| semantic(format!("trace: event {i} ({ph}) has no name")))?;
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_num)
                    .ok_or_else(|| semantic(format!("trace: event {i} ({ph}) has no ts")))?;
                if ts < lane.1 {
                    return Err(semantic(format!(
                        "trace: event {i} ts {ts} precedes {} on tid {tid}",
                        lane.1
                    )));
                }
                lane.1 = ts;
                if ph == "B" {
                    lane.0.push(name.to_string());
                    summary.max_depth = summary.max_depth.max(lane.0.len());
                    names.insert(name.to_string());
                } else {
                    let open = lane.0.pop().ok_or_else(|| {
                        semantic(format!(
                            "trace: event {i} closes {name:?} with nothing open on tid {tid}"
                        ))
                    })?;
                    if open != name {
                        return Err(semantic(format!(
                            "trace: event {i} closes {name:?} but {open:?} is open on tid {tid}"
                        )));
                    }
                    summary.spans += 1;
                }
            }
            other => return Err(semantic(format!("trace: event {i} has unknown phase {other:?}"))),
        }
    }

    for ((_, tid), (stack, _)) in &lanes {
        if let Some(name) = stack.last() {
            return Err(semantic(format!("trace: span {name:?} never closed on tid {tid}")));
        }
    }
    summary.tids = lanes.len();
    summary.names = names.into_iter().collect();
    Ok(summary)
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

    fn one_thread(events: Vec<SpanEvent>) -> Trace {
        Trace {
            threads: vec![ThreadTrace {
                tid: 7,
                name: "main".into(),
                dropped: 0,
                events,
            }],
        }
    }

    #[test]
    fn export_round_trips_nested_spans() {
        // Completion order (inner first), as a real ring would hold them.
        let trace = one_thread(vec![
            span("inner", 1_500, 1_000, 1),
            span("outer", 1_000, 4_000, 0),
            span("sibling", 6_000, 500, 0),
        ]);
        let doc = export_string(&trace);
        let s = validate(&doc).expect("exported trace validates");
        assert_eq!(s.spans, 3);
        assert_eq!(s.tids, 1);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.names, ["inner", "outer", "sibling"]);
    }

    #[test]
    fn attrs_become_args_detail() {
        let mut trace = one_thread(vec![span("compile", 0, 100, 0)]);
        trace.threads[0].events[0].attr = Some("engine=WasmEdge level=\"-O2\"".into());
        let doc = export_string(&trace);
        validate(&doc).expect("escaped attrs stay valid JSON");
        assert!(doc.contains("engine=WasmEdge level=\\\"-O2\\\""));
    }

    #[test]
    fn zero_duration_and_shared_boundaries_stay_balanced() {
        let trace = one_thread(vec![
            span("instant", 1_000, 0, 1),
            span("outer", 1_000, 2_000, 0),
            span("child_to_end", 2_000, 1_000, 1), // ends exactly with outer
        ]);
        let s = validate(&export_string(&trace)).expect("boundary ties validate");
        assert_eq!(s.spans, 3);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        assert!(matches!(
            validate("not json"),
            Err(ValidateError::Parse(_))
        ));
        assert!(matches!(
            validate(r#"{"events":[]}"#),
            Err(ValidateError::Semantic(_))
        ));
        let unbalanced = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"name":"a","ts":1.0}
        ]}"#;
        let err = validate(unbalanced).unwrap_err();
        assert!(matches!(err, ValidateError::Semantic(_)));
        assert!(err.to_string().contains("never closed"));
        let mismatched = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"name":"a","ts":1.0},
            {"ph":"E","pid":1,"tid":1,"name":"b","ts":2.0}
        ]}"#;
        assert!(validate(mismatched).unwrap_err().to_string().contains("is open"));
        let backwards = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"name":"a","ts":5.0},
            {"ph":"E","pid":1,"tid":1,"name":"a","ts":1.0}
        ]}"#;
        assert!(validate(backwards).unwrap_err().to_string().contains("precedes"));
    }

    #[test]
    fn counter_payloads_export_as_numeric_args() {
        let mut trace = one_thread(vec![span("engine.execute", 0, 1_000, 0)]);
        trace.threads[0].events[0].attr = Some("engine=Wamr".into());
        trace.threads[0].events[0].counters = Some(Box::new(crate::trace::SpanCounters {
            instructions: 2_000,
            cycles: 1_000,
            branch_misses: 4,
            l1d_misses: 6,
            cache_misses: 2,
            ..Default::default()
        }));
        let doc = export_string(&trace);
        validate(&doc).expect("counter args stay valid JSON");
        assert!(doc.contains("\"detail\":\"engine=Wamr\""));
        assert!(doc.contains("\"instructions\":2000.000"));
        assert!(doc.contains("\"ipc\":2.000"));
        assert!(doc.contains("\"branch_mpki\":2.000"));
        assert!(doc.contains("\"l1d_mpki\":3.000"));
        assert!(doc.contains("\"llc_mpki\":1.000"));
    }

    #[test]
    fn threads_get_metadata_and_separate_lanes() {
        let trace = Trace {
            threads: vec![
                ThreadTrace {
                    tid: 1,
                    name: "main".into(),
                    dropped: 0,
                    events: vec![span("a", 0, 10, 0)],
                },
                ThreadTrace {
                    tid: 2,
                    name: "svc-worker-0".into(),
                    dropped: 0,
                    events: vec![span("b", 5, 10, 0)],
                },
            ],
        };
        let doc = export_string(&trace);
        let s = validate(&doc).expect("two lanes validate");
        assert_eq!(s.tids, 2);
        assert!(doc.contains("svc-worker-0"));
    }
}
