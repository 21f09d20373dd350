//! `wabench-served windows` and `wdiff` — read the engine × phase
//! self-time profile a live server's telemetry points carry.
//!
//! Every series point holds each engine's compile and exec time for the
//! jobs it covers. `windows` lists the buffered points that have phase
//! time with their hottest stacks; `wdiff` diffs two points' stacks (by
//! `--from`/`--to` seq, or the last two with phase time) and names the
//! most-regressed phase. Exit codes: 0 success, 1 connect or protocol
//! failure, the sampler off, or no such point; 2 usage error.

use std::collections::BTreeMap;
use std::process::exit;

use obs::cli::{self, Args, Command, Flag};
use svc::telemetry::{engine_name, SeriesPoint};

use crate::{connect, fetch};

pub const WINDOWS: Command = Command::new("windows", &[crate::SOCKET]);

#[rustfmt::skip]
pub const WDIFF: Command = Command::new("wdiff", &[
    crate::SOCKET,
    Flag::value("--from", "SEQ", "older point (default: second newest with phase time)"),
    Flag::value("--to", "SEQ", "newer point (default: newest with phase time)"),
]);

/// The server's buffered points and its sampling interval, ns; exits 1
/// when the sampler is off.
fn series(a: &Args) -> (u64, Vec<SeriesPoint>) {
    let rep = fetch("series", connect(a).series());
    if rep.interval_ns == 0 {
        obs::error!("telemetry sampler is off — serve with --sample-ms N");
        exit(1);
    }
    (rep.interval_ns, rep.points)
}

/// `windows`: one line per buffered point with phase time, with its top
/// three stacks.
pub fn run_windows(a: &Args) {
    let (interval_ns, points) = series(a);
    let profiled: Vec<&SeriesPoint> = points.iter().filter(|p| p.has_phase_time()).collect();
    println!(
        "profile: {} of {} point(s) at {:.0}ms intervals carry phase time",
        profiled.len(),
        points.len(),
        interval_ns as f64 / 1e6
    );
    for p in profiled {
        let mut stacks = p.stacks(engine_name);
        let self_ns: u64 = stacks.iter().map(|(_, ns)| ns).sum();
        stacks.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
        let top: Vec<String> = stacks
            .iter()
            .take(3)
            .map(|(s, ns)| format!("{s} {:.1}%", *ns as f64 * 100.0 / self_ns as f64))
            .collect();
        println!(
            "window #{:<4} [{:8.2}s .. {:8.2}s]  self {:9.3}ms  {}",
            p.seq,
            p.t_ns.saturating_sub(p.interval_ns) as f64 / 1e9,
            p.t_ns as f64 / 1e9,
            self_ns as f64 / 1e6,
            top.join(", ")
        );
    }
}

/// `wdiff`: per-phase share movement between two points.
pub fn run_wdiff(a: &Args) {
    let from_seq = a.opt("--from", "a point seq (see `windows`)", cli::number::<u64>);
    let to_seq = a.opt("--to", "a point seq (see `windows`)", cli::number::<u64>);
    if from_seq.is_some() != to_seq.is_some() {
        a.fail("--from and --to must be given together (or neither)");
    }
    let (interval_ns, points) = series(a);
    let by_seq = |seq: u64| {
        points.iter().find(|p| p.seq == seq).unwrap_or_else(|| {
            obs::error!("no point with seq {seq} (see `windows`)");
            exit(1);
        })
    };
    let profiled: Vec<&SeriesPoint> = points.iter().filter(|p| p.has_phase_time()).collect();
    let (from, to) = match (from_seq, to_seq) {
        (Some(f), Some(t)) => (by_seq(f), by_seq(t)),
        _ if profiled.len() >= 2 => (profiled[profiled.len() - 2], profiled[profiled.len() - 1]),
        _ => {
            obs::error!(
                "need at least two buffered points with phase time to diff (have {})",
                profiled.len()
            );
            exit(1);
        }
    };
    println!(
        "wdiff: window #{} ({:.2}s) -> #{} ({:.2}s), {:.0}ms intervals",
        from.seq,
        from.t_ns as f64 / 1e9,
        to.seq,
        to.t_ns as f64 / 1e9,
        interval_ns as f64 / 1e6
    );
    let rows = window_share_diff(from, to);
    if rows.is_empty() {
        println!("no phase time in either point");
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

/// Per-stack share movement between two points: the union of stacks
/// with `(stack, from_share, to_share)`, largest share increase first —
/// the head row is the most-regressed phase.
fn window_share_diff(from: &SeriesPoint, to: &SeriesPoint) -> Vec<(String, f64, f64)> {
    let from_shares: BTreeMap<String, f64> = from.shares(engine_name).into_iter().collect();
    let to_shares: BTreeMap<String, f64> = to.shares(engine_name).into_iter().collect();
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
    use engines::EngineKind;
    use obs::series::EngineDelta;

    const MS: u64 = 1_000_000;

    /// A point whose jobs all ran on `engine`.
    fn point(engine: EngineKind, compile_ns: u64, exec_ns: u64) -> SeriesPoint {
        SeriesPoint {
            engines: vec![EngineDelta {
                code: engine.code(),
                jobs: 1,
                compile_ns,
                exec_ns,
            }],
            ..SeriesPoint::default()
        }
    }

    /// Two points where `exec` grows from a third to three quarters of
    /// self-time: the diff must rank it first and compute both shares.
    #[test]
    fn wdiff_names_the_phase_that_grew() {
        let from = point(EngineKind::Wasm3, 2 * MS, MS);
        let to = point(EngineKind::Wasm3, MS, 3 * MS);
        let rows = window_share_diff(&from, &to);
        assert_eq!(rows[0].0, "Wasm3;exec");
        assert!((rows[0].1 - 1.0 / 3.0).abs() < 1e-9);
        assert!((rows[0].2 - 0.75).abs() < 1e-9);
        assert_eq!(rows[1].0, "Wasm3;compile");
        assert!(rows[1].2 < rows[1].1, "compile's share shrank");
    }

    /// A phase present in only one point still appears, with a zero
    /// share on the missing side.
    #[test]
    fn wdiff_handles_phases_missing_from_one_window() {
        let from = point(EngineKind::Wasm3, 0, MS);
        let to = point(EngineKind::Wavm, MS, 0);
        let rows = window_share_diff(&from, &to);
        assert_eq!(rows[0], ("WAVM;compile".to_string(), 0.0, 1.0));
        assert_eq!(rows[1], ("Wasm3;exec".to_string(), 1.0, 0.0));
    }
}
