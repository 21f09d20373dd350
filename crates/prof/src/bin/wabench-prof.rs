//! `wabench-prof` — attributed profiles and flamegraph export. Every
//! command's flags are declared once in [`COMMANDS`]; `wabench-prof`
//! with no arguments prints them.
//!
//! `fold` runs a job matrix through the scheduler and writes folded
//! stacks for `flamegraph.pl`; `collapse` does the same offline from a
//! saved Chrome trace. `report` prints the counter-attributed phase
//! table.
//!
//! `windows` and `wdiff` query a live `wabench-served`
//! running with `--profile-ms`: `windows` lists the continuous
//! profiler's recent windows with their hottest phases, and `wdiff`
//! diffs two windows' collapsed stacks (by `--from`/`--to` seq, or the
//! last two) and names the most-regressed phase.
//!
//! These tools explain where time goes; none of them gates on it.
//! Performance is measured and gated by the repo benchmark
//! (`benchmark/README.md`).
//!
//! Exit codes: 0 success; 1 a failed job, an I/O error, a malformed
//! trace (`collapse`), or no profile to read (`windows`/`wdiff`:
//! profiler off, no such window); 2 usage error.

use std::process::exit;

use engines::EngineKind;
use obs::cli::{self, Args, Command, Flag};
use prof::measure::{measure_cell, CellSpec, Scale};
use prof::workload::WorkloadSpec;
use wacc::OptLevel;

const BENCH: Flag = Flag::value("--bench", "B", "benchmark").default("crc32").many();
const ENGINE: Flag = Flag::value("--engine", "E", "engine (default: every engine)").many();
const LEVEL: Flag = Flag::value("--level", "L", "WaCC level O0..O3").default("O2");
const SCALE: Flag = Flag::value("--scale", "S", "test|profile|timing").default("test");
const SOCKET: Flag = Flag::value("--socket", "PATH", "server running with --profile-ms; required");

#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command::new("fold", &[
        Flag::value("--out", "FILE", "folded-stacks output; required"),
        Flag::value("--weight", "W", "wall-ns or a simulated counter").default("wall-ns"),
        Flag::value("--workers", "N", "scheduler workers").default("4"),
        BENCH, ENGINE, LEVEL, SCALE,
        Flag::value("--chrome", "FILE", "also write the Chrome trace"),
    ]),
    Command::new("collapse", &[
        Flag::value("--trace", "FILE", "Chrome trace to collapse; required"),
        Flag::value("--out", "FILE", "folded-stacks output (default: stdout)"),
    ]),
    Command::new("report", &[BENCH, ENGINE, LEVEL, SCALE]),
    Command::new("windows", &[SOCKET]),
    Command::new("wdiff", &[
        SOCKET,
        Flag::value("--from", "SEQ", "older window (default: second newest)"),
        Flag::value("--to", "SEQ", "newer window (default: newest)"),
    ]),
];

fn level(a: &Args) -> OptLevel {
    a.get("--level", "a level O0..O3", OptLevel::parse)
}

fn scale(a: &Args) -> Scale {
    a.get("--scale", "test|profile|timing", Scale::parse)
}

fn benches(a: &Args) -> Vec<String> {
    a.all("--bench").into_iter().map(String::from).collect()
}

fn engines(a: &Args) -> Vec<EngineKind> {
    let given = a.all("--engine");
    if given.is_empty() {
        return EngineKind::all().to_vec();
    }
    given
        .into_iter()
        .map(|e| {
            EngineKind::parse(e)
                .unwrap_or_else(|| a.fail(format!("--engine needs an engine name, not {e:?}")))
        })
        .collect()
}

fn cmd_fold(a: &Args) {
    let out = a.get("--out", "a file", cli::path);
    let weight = a.get("--weight", "wall-ns or a counter name", obs::folded::Weight::parse);
    let spec = WorkloadSpec {
        benches: benches(a),
        engines: engines(a),
        level: level(a),
        scale: scale(a),
        mode: svc::JobMode::Profiled,
        workers: a.get("--workers", "a positive integer", cli::positive),
    };
    let trace = prof::workload::capture_trace(&spec).unwrap_or_else(|e| {
        obs::error!("{e}");
        exit(1);
    });
    if let Err(e) = obs::folded::export_file(&trace, weight, &out) {
        obs::error!("{}: {e}", out.display());
        exit(1);
    }
    println!(
        "wrote {} ({} spans, weight {})",
        out.display(),
        trace.span_count(),
        weight.name()
    );
    if let Some(chrome) = a.opt("--chrome", "a file", cli::path) {
        if let Err(e) = obs::chrome::export_file(&trace, &chrome) {
            obs::error!("{}: {e}", chrome.display());
            exit(1);
        }
        println!("wrote {}", chrome.display());
    }
}

fn cmd_collapse(a: &Args) {
    let trace = a.get("--trace", "a file", cli::path);
    let doc = std::fs::read_to_string(&trace).unwrap_or_else(|e| {
        obs::error!("{}: {e}", trace.display());
        exit(1);
    });
    let folded = prof::collapse::chrome_to_folded(&doc).unwrap_or_else(|e| {
        obs::error!("{}: {e}", trace.display());
        exit(1);
    });
    match a.opt("--out", "a file", cli::path) {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &folded) {
                obs::error!("{}: {e}", path.display());
                exit(1);
            }
            println!("wrote {}", path.display());
        }
        None => print!("{folded}"),
    }
}

fn cmd_report(a: &Args) {
    let (level, scale, engines) = (level(a), scale(a), engines(a));
    obs::trace::install(obs::trace::Sink::Ring);
    for bench in benches(a) {
        for kind in &engines {
            let measured = suite::by_name(&bench)
                .ok_or_else(|| format!("unknown benchmark {bench:?}"))
                .and_then(|b| {
                    measure_cell(&CellSpec {
                        bench: b,
                        engine: *kind,
                        level,
                        scale,
                    })
                });
            if let Err(e) = measured {
                obs::trace::install(obs::trace::Sink::Null);
                obs::error!("{e}");
                exit(1);
            }
        }
    }
    let trace = obs::trace::drain();
    obs::trace::install(obs::trace::Sink::Null);
    print!("{}", obs::prof::render(&trace));
}

/// Per-stack share movement between two profile windows: the union of
/// stacks with `(stack, from_share, to_share)`, largest share increase
/// first — the head row is the most-regressed phase.
fn window_share_diff(
    from: &obs::contprof::ProfileWindow,
    to: &obs::contprof::ProfileWindow,
) -> Vec<(String, f64, f64)> {
    let from_shares: std::collections::BTreeMap<String, f64> = from.shares().into_iter().collect();
    let to_shares: std::collections::BTreeMap<String, f64> = to.shares().into_iter().collect();
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

fn fetch_profile(a: &Args) -> svc::telemetry::ProfileReport {
    let socket = a.get("--socket", "a path", cli::path);
    let mut client = svc::server::Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    });
    let rep = client.profile_dump().unwrap_or_else(|e| {
        obs::error!("profile-dump: {e}");
        exit(1);
    });
    if rep.window_ns == 0 {
        obs::error!("continuous profiler is off — serve with --profile-ms N");
        exit(1);
    }
    rep
}

fn cmd_windows(a: &Args) {
    let rep = fetch_profile(a);
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

fn cmd_wdiff(a: &Args) {
    let from_seq = a.opt("--from", "a window seq (see `windows`)", cli::number::<u64>);
    let to_seq = a.opt("--to", "a window seq (see `windows`)", cli::number::<u64>);
    let rep = fetch_profile(a);
    let by_seq = |seq: u64| {
        rep.windows.iter().find(|w| w.seq == seq).unwrap_or_else(|| {
            obs::error!("no window with seq {seq} (see `windows`)");
            exit(1);
        })
    };
    let (from, to) = match (from_seq, to_seq) {
        (Some(f), Some(t)) => (by_seq(f), by_seq(t)),
        (None, None) if rep.windows.len() >= 2 => {
            (&rep.windows[rep.windows.len() - 2], &rep.windows[rep.windows.len() - 1])
        }
        (None, None) => {
            obs::error!(
                "need at least two buffered windows to diff (have {})",
                rep.windows.len()
            );
            exit(1);
        }
        _ => a.fail("--from and --to must be given together (or neither)"),
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

fn main() {
    let a = cli::parse("wabench-prof", COMMANDS);
    match a.command() {
        "fold" => cmd_fold(&a),
        "collapse" => cmd_collapse(&a),
        "report" => cmd_report(&a),
        "windows" => cmd_windows(&a),
        "wdiff" => cmd_wdiff(&a),
        other => unreachable!("{other} is in COMMANDS but not dispatched"),
    }
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
