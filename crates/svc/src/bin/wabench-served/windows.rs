//! `wabench-served windows` and `wdiff` — read a live server's
//! continuous profiler (`serve --profile-ms N`).
//!
//! `windows` lists the buffered profile windows with their hottest
//! phases; `wdiff` diffs two windows' collapsed stacks (by
//! `--from`/`--to` seq, or the last two) and names the most-regressed
//! phase. Exit codes: 0 success, 1 connect or protocol failure, the
//! profiler off, or no such window; 2 usage error.

use std::collections::BTreeMap;
use std::process::exit;

use obs::cli::{self, Args, Command, Flag};
use obs::contprof::ProfileWindow;
use svc::telemetry::ProfileReport;

use crate::{connect, fetch};

pub const WINDOWS: Command = Command::new("windows", &[crate::SOCKET]);

#[rustfmt::skip]
pub const WDIFF: Command = Command::new("wdiff", &[
    crate::SOCKET,
    Flag::value("--from", "SEQ", "older window (default: second newest)"),
    Flag::value("--to", "SEQ", "newer window (default: newest)"),
]);

/// The server's profile windows; exits 1 when the profiler is off.
fn profile(a: &Args) -> ProfileReport {
    let rep = fetch("profile-dump", connect(a).profile_dump());
    if rep.window_ns == 0 {
        obs::error!("continuous profiler is off — serve with --profile-ms N");
        exit(1);
    }
    rep
}

/// `windows`: one line per buffered window with its top three phases.
pub fn run_windows(a: &Args) {
    let rep = profile(a);
    println!(
        "profiler: {} window(s) of {:.0}ms",
        rep.windows.len(),
        rep.window_ns as f64 / 1e6
    );
    for w in &rep.windows {
        let mut shares = w.shares();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = shares
            .iter()
            .take(3)
            .map(|(s, sh)| format!("{s} {:.1}%", sh * 100.0))
            .collect();
        println!(
            "window #{:<4} [{:8.2}s .. {:8.2}s]  self {:9.3}ms  {}",
            w.seq,
            w.start_ns as f64 / 1e9,
            w.end_ns as f64 / 1e9,
            w.total_self_ns() as f64 / 1e6,
            if top.is_empty() {
                "(no samples)".to_string()
            } else {
                top.join(", ")
            }
        );
    }
}

/// `wdiff`: per-phase share movement between two windows.
pub fn run_wdiff(a: &Args) {
    let from_seq = a.opt("--from", "a window seq (see `windows`)", cli::number::<u64>);
    let to_seq = a.opt("--to", "a window seq (see `windows`)", cli::number::<u64>);
    if from_seq.is_some() != to_seq.is_some() {
        a.fail("--from and --to must be given together (or neither)");
    }
    let rep = profile(a);
    let by_seq = |seq: u64| {
        rep.windows
            .iter()
            .find(|w| w.seq == seq)
            .unwrap_or_else(|| {
                obs::error!("no window with seq {seq} (see `windows`)");
                exit(1);
            })
    };
    let (from, to) = match (from_seq, to_seq) {
        (Some(f), Some(t)) => (by_seq(f), by_seq(t)),
        _ if rep.windows.len() >= 2 => (
            &rep.windows[rep.windows.len() - 2],
            &rep.windows[rep.windows.len() - 1],
        ),
        _ => {
            obs::error!(
                "need at least two buffered windows to diff (have {})",
                rep.windows.len()
            );
            exit(1);
        }
    };
    println!(
        "wdiff: window #{} ({:.2}s) -> #{} ({:.2}s), {:.0}ms windows",
        from.seq,
        from.start_ns as f64 / 1e9,
        to.seq,
        to.start_ns as f64 / 1e9,
        rep.window_ns as f64 / 1e6
    );
    let rows = window_share_diff(from, to);
    if rows.is_empty() {
        println!("no samples in either window");
        return;
    }
    for (stack, f, t) in &rows {
        println!(
            "phase {stack}: share {:.1}% -> {:.1}% ({:+.1}pt)",
            f * 100.0,
            t * 100.0,
            (t - f) * 100.0
        );
    }
    let (stack, f, t) = &rows[0];
    if t > f {
        println!("most regressed: {stack} ({:+.1}pt)", (t - f) * 100.0);
    } else {
        println!("no phase grew its share");
    }
}

/// Per-stack share movement between two profile windows: the union of
/// stacks with `(stack, from_share, to_share)`, largest share increase
/// first — the head row is the most-regressed phase.
fn window_share_diff(from: &ProfileWindow, to: &ProfileWindow) -> Vec<(String, f64, f64)> {
    let from_shares: BTreeMap<String, f64> = from.shares().into_iter().collect();
    let to_shares: BTreeMap<String, f64> = to.shares().into_iter().collect();
    let mut stacks: Vec<&String> = from_shares.keys().chain(to_shares.keys()).collect();
    stacks.sort();
    stacks.dedup();
    let mut rows: Vec<(String, f64, f64)> = stacks
        .into_iter()
        .map(|s| {
            (
                s.clone(),
                from_shares.get(s).copied().unwrap_or(0.0),
                to_shares.get(s).copied().unwrap_or(0.0),
            )
        })
        .collect();
    rows.sort_by(|a, b| (b.2 - b.1).total_cmp(&(a.2 - a.1)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::contprof::ContProf;
    use std::time::Duration;

    const MS: u64 = 1_000_000;

    /// Two windows where `exec` grows from a third to three quarters of
    /// self-time: the diff must rank it first and compute both shares.
    #[test]
    fn wdiff_names_the_phase_that_grew() {
        let mut p = ContProf::new(Duration::from_millis(10), 8);
        p.record(MS, "wasm3", "compile", 2 * MS, 0, 0);
        p.record(2 * MS, "wasm3", "exec", MS, 0, 0);
        p.record(11 * MS, "wasm3", "compile", MS, 0, 0);
        p.record(12 * MS, "wasm3", "exec", 3 * MS, 0, 0);
        p.record(21 * MS, "wasm3", "exec", 1, 0, 0); // seals window 2
        let windows = p.windows();
        assert!(windows.len() >= 2);
        let rows = window_share_diff(&windows[0], &windows[1]);
        assert_eq!(rows[0].0, "wasm3;exec");
        assert!((rows[0].1 - 1.0 / 3.0).abs() < 1e-9);
        assert!((rows[0].2 - 0.75).abs() < 1e-9);
        assert_eq!(rows[1].0, "wasm3;compile");
        assert!(rows[1].2 < rows[1].1, "compile's share shrank");
    }

    /// A phase present in only one window still appears, with a zero
    /// share on the missing side.
    #[test]
    fn wdiff_handles_phases_missing_from_one_window() {
        let mut p = ContProf::new(Duration::from_millis(10), 8);
        p.record(MS, "wasm3", "exec", MS, 0, 0);
        p.record(11 * MS, "wavm", "compile", MS, 0, 0);
        p.record(21 * MS, "wavm", "compile", 1, 0, 0);
        let windows = p.windows();
        let rows = window_share_diff(&windows[0], &windows[1]);
        assert_eq!(rows[0], ("wavm;compile".to_string(), 0.0, 1.0));
        assert_eq!(rows[1], ("wasm3;exec".to_string(), 1.0, 0.0));
    }
}
