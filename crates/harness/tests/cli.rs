//! The `wabench-harness` command line: one experiment or one `run`
//! target, no flag the command does not declare, no flag missing its
//! value, and `--level` in both spellings. A usage error exits 2 with a
//! first line naming the culprit.

use std::process::{Command, Output};

fn assert_exit(args: &[&str], code: i32, first_line_names: &str) {
    let out: Output = Command::new(env!("CARGO_BIN_EXE_wabench-harness")).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains(first_line_names), "{args:?}: first line must name {first_line_names}: {stderr}");
}

#[test]
fn a_misspelled_flag_is_not_taken_for_the_experiment() {
    assert_exit(&["--jbos", "4", "fig6"], 2, "--jbos");
}

#[test]
fn a_second_positional_argument_is_a_usage_error() {
    assert_exit(&["fig6", "fig7"], 2, "fig7");
    assert_exit(&["run", "crc32", "fib"], 2, "fib");
}

/// A following flag is not a value: `--programs --md` used to lint the
/// directory `--md`, and `--bench --md` to audit nothing.
#[test]
fn a_flag_missing_its_value_is_a_usage_error() {
    assert_exit(&["lint", "--programs", "--md"], 2, "--programs");
    assert_exit(&["audit", "--bench", "--md"], 2, "--bench");
    assert_exit(&["audit", "--bench"], 2, "--bench");
}

#[test]
fn audit_takes_the_level_spelling_its_docs_show() {
    assert_exit(&["audit", "--bench", "crc32", "--level", "O2"], 0, "audit: 1 module(s)");
}

#[test]
fn audit_of_an_unknown_benchmark_is_a_usage_error() {
    assert_exit(&["audit", "--bench", "NOSUCH"], 2, "no benchmark named \"NOSUCH\"");
}

/// Control: a well-formed `run` of a file that does not exist parses
/// and fails at run time (exit 1).
#[test]
fn run_of_a_missing_file_fails_at_run_time() {
    assert_exit(&["run", "/nonexistent/module.wasm", "--engine", "wasm3"], 1, "/nonexistent/module.wasm");
}
