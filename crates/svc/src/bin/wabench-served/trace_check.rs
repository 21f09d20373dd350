//! `wabench-served trace-check TRACE` — validates a Chrome trace-event
//! JSON file produced by the wabench tools (or anything else claiming
//! the format).
//!
//! Exits 0 and prints a one-line summary when the document is valid, 1
//! when it is unreadable or invalid — the message says `parse error`
//! (malformed JSON, with line/column) or `semantic error` (valid JSON
//! violating a trace invariant: unbalanced or mismatched `B`/`E`,
//! missing fields, non-monotone timestamps) — and 2 on usage errors.

use std::process::exit;

use obs::chrome::ValidateError;
use obs::cli::{Args, Command};

pub const COMMAND: Command = Command::new("trace-check", &[]).takes("TRACE");

/// `trace-check`: validates the file and reports.
pub fn run(a: &Args) {
    let path = a.positional();
    let doc = std::fs::read_to_string(path).unwrap_or_else(|e| {
        obs::error!("trace-check: {path}: {e}");
        exit(1);
    });
    match obs::chrome::validate(&doc) {
        Ok(s) => println!(
            "{path}: ok — {} events, {} spans, {} threads, max depth {}, {} span names",
            s.events,
            s.spans,
            s.tids,
            s.max_depth,
            s.names.len()
        ),
        Err(e) => {
            let kind = match &e {
                ValidateError::Parse(_) => "parse error",
                ValidateError::Semantic(_) => "semantic error",
            };
            obs::error!("trace-check: {path}: {kind}: {e}");
            exit(1);
        }
    }
}
