//! The `wabench-prof` command line: each subcommand accepts only its
//! own flags and a usage error exits 2 with a first line naming the
//! culprit; runtime failures — here a socket nothing listens on — exit
//! 1, so the usage cases test parsing, not the network.

use std::process::{Command, Output};

/// A socket path nothing can listen on.
const ABSENT: &str = "/nonexistent/wabench-prof-cli.sock";

fn assert_exit(args: &[&str], code: i32, first_line_names: &str) {
    let out: Output = Command::new(env!("CARGO_BIN_EXE_wabench-prof")).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains(first_line_names), "{args:?}: first line must name {first_line_names}: {stderr}");
}

#[test]
fn a_flag_of_another_subcommand_is_a_usage_error() {
    assert_exit(&["windows", "--socket", ABSENT, "--bench", "x"], 2, "--bench");
}

#[test]
fn an_unknown_level_is_a_usage_error() {
    assert_exit(&["report", "--level", "O7"], 2, "--level");
}

/// Control: the same command without the stray flag fails on connect.
#[test]
fn socket_alone_fails_on_connect() {
    assert_exit(&["windows", "--socket", ABSENT], 1, "connect");
}
