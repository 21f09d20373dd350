//! The `wabench-served` command line: every subcommand accepts only its
//! own flags, a usage error exits 2 with a first line naming the
//! culprit, an invalid trace exits 1, and a well-formed command against
//! a socket nothing listens on fails on connect (exit 1) — so the
//! usage cases below test parsing, not the network.

use std::process::{Command, Output};

/// A socket path nothing can listen on.
const ABSENT: &str = "/nonexistent/wabench-served-cli.sock";

fn assert_exit(args: &[&str], code: i32, first_line_names: &str) {
    let out: Output = Command::new(env!("CARGO_BIN_EXE_wabench-served")).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains(first_line_names), "{args:?}: first line must name {first_line_names}: {stderr}");
}

#[test]
fn a_flag_of_another_subcommand_is_a_usage_error() {
    assert_exit(&["stats", "--socket", ABSENT, "--workers", "3"], 2, "--workers");
}

/// A following flag is not a value (`--socket --workers 2` used to take
/// `--workers` for the socket path).
#[test]
fn a_flag_missing_its_value_is_a_usage_error() {
    assert_exit(&["serve", "--socket", "--workers", "2"], 2, "--socket");
}

#[test]
fn trace_check_usage_exits_2_and_an_invalid_trace_exits_1() {
    assert_exit(&["trace-check"], 2, "TRACE");
    let dir = std::env::temp_dir();
    let malformed = dir.join(format!("wabench-cli-{}-malformed.json", std::process::id()));
    std::fs::write(&malformed, "{").expect("write trace");
    assert_exit(&["trace-check", &malformed.display().to_string()], 1, "parse error");
    let unbalanced = dir.join(format!("wabench-cli-{}-unbalanced.json", std::process::id()));
    std::fs::write(&unbalanced, r#"{"traceEvents":[{"ph":"B","pid":1,"tid":1,"name":"a","ts":1.0}]}"#)
        .expect("write trace");
    assert_exit(&["trace-check", &unbalanced.display().to_string()], 1, "semantic error");
    let _ = std::fs::remove_file(malformed);
    let _ = std::fs::remove_file(unbalanced);
}

/// The series ring's capacity and the slow-exemplar threshold are
/// constants (`SERIES_CAP`, `SLOW_THRESHOLD`), not `serve` flags, and
/// `--sample-ms` is the only telemetry interval.
#[test]
fn serve_refuses_the_retired_telemetry_flags() {
    assert_exit(&["serve", "--socket", ABSENT, "--series-cap", "5"], 2, "--series-cap");
    assert_exit(&["serve", "--socket", ABSENT, "--slow-ms", "1"], 2, "--slow-ms");
    assert_exit(&["serve", "--socket", ABSENT, "--profile-ms", "50"], 2, "--profile-ms");
}

#[test]
fn windows_refuses_another_commands_flag() {
    assert_exit(&["windows", "--socket", ABSENT, "--bench", "x"], 2, "--bench");
}

/// `doctor` exits 2 on evidence it cannot read: callers tell "no
/// diagnosis" from "findings" (1) by it.
#[test]
fn doctor_without_evidence_exits_2() {
    assert_exit(&["doctor", "--socket", ABSENT], 2, "connect");
}

/// Control: well-formed client commands reach the connect and fail there.
#[test]
fn socket_alone_fails_on_connect() {
    assert_exit(&["stats", "--socket", ABSENT], 1, "connect");
    assert_exit(&["top", "--once", "--socket", ABSENT], 1, "connect");
    assert_exit(&["windows", "--socket", ABSENT], 1, "connect");
    assert_exit(&["submit", "--socket", ABSENT, "--bench", "crc32", "--level", "O2", "--log", "error"], 1, "connect");
}
