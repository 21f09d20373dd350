//! `--workers`, `--faults` and `--store` configure the in-process
//! scheduler. Over `--socket` they would be dropped without a word (a
//! `--faults` run would silently run fault-free), so the CLI refuses
//! the combination as a usage error before it tries to connect.

use std::process::{Command, Output};

/// `wabench-load run` against a socket path nothing listens on, plus
/// `extra` arguments.
fn run_against_absent_socket(extra: &[&str]) -> Output {
    let socket = std::env::temp_dir().join(format!("wabench-load-cli-{}.sock", std::process::id()));
    Command::new(env!("CARGO_BIN_EXE_wabench-load"))
        .args(["run", "--seed", "1", "--jobs", "1", "--socket"])
        .arg(&socket)
        .args(extra)
        .output()
        .expect("spawn wabench-load")
}

fn assert_refused(flag: &str, value: &str) {
    let out = run_against_absent_socket(&[flag, value]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flag} with --socket: {stderr}");
    // The first line is the error; the usage text after it lists every flag.
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.contains(flag) && first.contains("--socket"),
        "error must name {flag}: {stderr}"
    );
}

#[test]
fn workers_with_socket_is_a_usage_error() {
    assert_refused("--workers", "2");
}

#[test]
fn faults_with_socket_is_a_usage_error() {
    assert_refused("--faults", "seed=1,delay=1.0:1ms");
}

#[test]
fn store_with_socket_is_a_usage_error() {
    assert_refused("--store", "/nonexistent/wabench-store");
}

/// Control: without an in-process flag the same command parses and
/// fails on connect instead (exit 1), so the cases above test parsing.
#[test]
fn socket_alone_fails_on_connect() {
    let out = run_against_absent_socket(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
}
