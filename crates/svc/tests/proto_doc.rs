//! Keeps `docs/PROTOCOL.md` honest: the opcode tables and version
//! documented there are parsed out of the markdown and asserted against
//! the actual encodings in `svc::proto`. Renumbering a tag, adding a
//! message or a field, or bumping `PROTO_VERSION` without updating the
//! spec fails this test.

use obs::metrics::HistogramSnapshot;
use svc::job::{JobSpec, JobStatus, Recovery, Scale, TraceCtx, TraceDigest};
use svc::proto::{BackendsReport, Request, Response, PROTO_VERSION};
use svc::scheduler::{HealthReport, SvcStats, SvcStatsExt};
use svc::telemetry::{AlertReport, ProfileReport, SeriesReport, TraceReport};
use svc::JobResult;

const DOC: &str = include_str!("../../../docs/PROTOCOL.md");

/// Extracts `(tag, name)` rows from the table under the given `##`
/// section heading. Rows look like `` | `7` | `Health` | — | ``.
fn doc_table(section: &str) -> Vec<(u8, String)> {
    let mut in_section = false;
    let mut rows = Vec::new();
    for line in DOC.lines() {
        if let Some(h) = line.strip_prefix("## ") {
            in_section = h.starts_with(section);
            continue;
        }
        if !in_section || !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // cells[0] and the last are the empty outsides of the pipes.
        if cells.len() < 4 {
            continue;
        }
        let tag_cell = cells[1].trim_matches('`');
        let name_cell = cells[2].trim_matches('`');
        if let Ok(tag) = tag_cell.parse::<u8>() {
            rows.push((tag, name_cell.to_string()));
        }
    }
    assert!(!rows.is_empty(), "no table rows found under {section:?}");
    rows
}

fn spec() -> JobSpec {
    JobSpec::exec("crc32", engines::EngineKind::Wasm3, wacc::OptLevel::O0, Scale::Test)
}

fn result() -> JobResult {
    JobResult {
        id: 0,
        spec: spec(),
        status: JobStatus::Ok,
        checksum: None,
        bytes_hash: 0,
        compile_s: 0.0,
        exec_s: 0.0,
        aot_compile_s: None,
        counters: None,
        warm_artifact: false,
        wall_s: 0.0,
        recovery: Recovery::default(),
        trace: TraceDigest::default(),
    }
}

fn stats_ext() -> SvcStatsExt {
    SvcStatsExt {
        base: SvcStats::default(),
        queue_depth: 0,
        workers: 0,
        uptime_s: 0.0,
        busy_s: 0.0,
        queue_wait: HistogramSnapshot::default(),
        engine_wall: Vec::new(),
        engine_counters: Vec::new(),
    }
}

/// Every request variant with its documented name.
fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Ping, "Ping"),
        (Request::Submit(spec(), TraceCtx::default()), "Submit"),
        (Request::Poll(0), "Poll"),
        (Request::Wait(0), "Wait"),
        (Request::Stats, "Stats"),
        (Request::Shutdown, "Shutdown"),
        (Request::StatsExt, "StatsExt"),
        (Request::Health, "Health"),
        (Request::Series(None), "Series"),
        (Request::TraceDump, "TraceDump"),
        (Request::ProfileDump, "ProfileDump"),
        (Request::AlertLog, "AlertLog"),
        (Request::Backends, "Backends"),
    ]
}

/// Every response variant with its documented name.
fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Pong, "Pong"),
        (Response::Submitted(0), "Submitted"),
        (Response::Pending, "Pending"),
        (Response::Result(result()), "Result"),
        (Response::Stats(SvcStats::default()), "Stats"),
        (Response::Err(String::new()), "Err"),
        (Response::Bye, "Bye"),
        (Response::StatsExt(Box::new(stats_ext())), "StatsExt"),
        (Response::Health(HealthReport::default()), "Health"),
        (Response::Series(SeriesReport::default()), "Series"),
        (Response::TraceDump(TraceReport::default()), "TraceDump"),
        (Response::ProfileDump(ProfileReport::default()), "ProfileDump"),
        (Response::AlertLog(AlertReport::default()), "AlertLog"),
        (Response::Busy(0), "Busy"),
        (Response::Backends(BackendsReport::default()), "Backends"),
    ]
}

/// The tag is the byte after the two-byte version head.
fn assert_tags_documented(section: &str, actual: Vec<(Vec<u8>, &str)>) {
    let documented = doc_table(section);
    assert_eq!(
        documented.len(),
        actual.len(),
        "PROTOCOL.md {section} table is missing or over-documenting messages"
    );
    for (payload, name) in &actual {
        assert_eq!(payload[..2], PROTO_VERSION.to_le_bytes());
        let tag = payload[2];
        assert!(
            documented.iter().any(|(t, n)| *t == tag && n == name),
            "{name} (tag {tag}) not documented correctly under {section} in PROTOCOL.md"
        );
    }
}

#[test]
fn documented_request_tags_match_the_code() {
    let actual = requests().into_iter().map(|(r, n)| (r.encode(), n)).collect();
    assert_tags_documented("Requests", actual);
}

#[test]
fn documented_response_tags_match_the_code() {
    let actual = responses().into_iter().map(|(r, n)| (r.encode(), n)).collect();
    assert_tags_documented("Responses", actual);
}

#[test]
fn documented_version_matches_the_code() {
    let needle = format!("The current protocol version is **{PROTO_VERSION}**.");
    assert!(
        DOC.contains(&needle),
        "PROTOCOL.md must state: {needle}"
    );
}

/// Every wire field the spec promises is named in it, and every variant
/// round-trips through the encoding the spec describes.
#[test]
fn documented_fields_appear_and_every_variant_round_trips() {
    for field in [
        // Submit trace context and the Result recovery / span digest.
        "trace_id", "origin_ns", "enqueue_ns", "start_ns", "done_ns",
        "attempts", "compile_fallback", "store_repairs", "checks_skipped",
        // Health.
        "queue_depth", "peak_queue_depth", "breaker_fast_fails",
        // Series, ProfileDump, AlertLog.
        "since", "bucket count", "window_ns", "self_ns", "instructions", "cycles",
        "armed", "since_ns", "threshold", "transition",
        // Busy and Backends.
        "retry_after_ms", "watermark", "shed", "forwarded", "failovers", "healthy",
    ] {
        assert!(DOC.contains(field), "PROTOCOL.md must document the {field} field");
    }
    for (req, name) in requests() {
        assert_eq!(Request::decode(&req.encode()).expect(name), req);
    }
    for (resp, name) in responses() {
        assert_eq!(Response::decode(&resp.encode()).expect(name), resp);
    }
}
