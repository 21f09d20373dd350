//! Keeps `docs/PROTOCOL.md` honest: the opcode tables and version
//! documented there are parsed out of the markdown and asserted against
//! the tag tables `svc::proto` generates its codec from (round trips are
//! `proto::tests`' job). Renumbering a tag, adding a message, or bumping
//! `PROTO_VERSION` without updating the spec fails this test.

use svc::proto::{Request, Response, PROTO_VERSION};

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

/// The documented opcode table is exactly the one the codec is
/// generated from: same tags, same names, same order.
fn assert_tags_documented(section: &str, table: &[(u8, &str)]) {
    let documented = doc_table(section);
    let actual: Vec<(u8, String)> = table.iter().map(|(t, n)| (*t, n.to_string())).collect();
    assert_eq!(documented, actual, "PROTOCOL.md {section} table disagrees with the code");
}

#[test]
fn documented_request_tags_match_the_code() {
    assert_tags_documented("Requests", Request::TABLE);
}

#[test]
fn documented_response_tags_match_the_code() {
    assert_tags_documented("Responses", Response::TABLE);
}

#[test]
fn documented_version_matches_the_code() {
    let needle = format!("The current protocol version is **{PROTO_VERSION}**.");
    assert!(
        DOC.contains(&needle),
        "PROTOCOL.md must state: {needle}"
    );
}

/// Every wire field the spec promises is named in it.
#[test]
fn documented_fields_appear() {
    for field in [
        // Submit trace context and the Result recovery / span digest.
        "trace_id", "origin_ns", "enqueue_ns", "start_ns", "done_ns",
        "attempts", "compile_fallback", "store_repairs", "checks_skipped",
        // Health.
        "queue_depth", "peak_queue_depth", "breaker_fast_fails",
        // Series, with its per-engine phase time.
        "since", "bucket count", "max_ns", "compile_ns", "exec_ns", "jobs",
        // Busy and Backends.
        "retry_after_ms", "watermark", "shed", "forwarded", "failovers", "healthy",
    ] {
        assert!(DOC.contains(field), "PROTOCOL.md must document the {field} field");
    }
}
