//! The `wabench-router` command line: `status` and `shutdown` take only
//! `--socket`; a `serve` flag given to them is a usage error (exit 2,
//! first line naming it) instead of being silently ignored. Against a
//! socket nothing listens on, a well-formed command fails on connect
//! (exit 1), so the usage case tests parsing, not the network.

use std::process::{Command, Output};

/// A socket path nothing can listen on.
const ABSENT: &str = "/nonexistent/wabench-router-cli.sock";

fn assert_exit(args: &[&str], code: i32, first_line_names: &str) {
    let out: Output = Command::new(env!("CARGO_BIN_EXE_wabench-router")).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains(first_line_names), "{args:?}: first line must name {first_line_names}: {stderr}");
}

#[test]
fn a_serve_flag_on_status_is_a_usage_error() {
    assert_exit(&["status", "--socket", ABSENT, "--backend", "a=b.sock"], 2, "--backend");
}

/// Control: `status` alone parses and fails on connect.
#[test]
fn socket_alone_fails_on_connect() {
    assert_exit(&["status", "--socket", ABSENT], 1, "connect");
}
