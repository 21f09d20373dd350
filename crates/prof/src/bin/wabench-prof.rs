//! `wabench-prof` — attributed profiles and flamegraph export.
//!
//! ```text
//! wabench-prof fold     --out FILE [--weight wall-ns] [--workers 4] [--bench B]... [--level O2] [--scale test] [--chrome FILE]
//! wabench-prof collapse --trace FILE [--out FILE]
//! wabench-prof report   [--bench B]... [--engine E]... [--level O2] [--scale test]
//! wabench-prof windows  --socket PATH
//! wabench-prof wdiff    --socket PATH [--from SEQ] [--to SEQ]
//! ```
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

use std::path::PathBuf;
use std::process::exit;

use engines::EngineKind;
use prof::measure::{measure_cell, CellSpec, Scale};
use prof::workload::WorkloadSpec;
use wacc::OptLevel;

fn usage() -> ! {
    obs::error!(
        "usage: wabench-prof <fold|collapse|report|windows|wdiff> [options]\n\
         \n\
         fold     --out FILE [--weight wall-ns] [--workers 4] [--bench B]... [--level O2] [--scale test] [--chrome FILE]\n\
         collapse --trace FILE [--out FILE]\n\
         report   [--bench B]... [--engine E]... [--level O2] [--scale test]\n\
         windows  --socket PATH\n\
         wdiff    --socket PATH [--from SEQ] [--to SEQ]"
    );
    exit(2);
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => {
            obs::error!("missing value for {flag}");
            usage();
        }
    }
}

struct Opts {
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    chrome: Option<PathBuf>,
    benches: Vec<String>,
    engines: Vec<EngineKind>,
    level: OptLevel,
    scale: Scale,
    weight: obs::folded::Weight,
    workers: usize,
    socket: Option<PathBuf>,
    from_seq: Option<u64>,
    to_seq: Option<u64>,
}

impl Opts {
    fn base() -> Opts {
        Opts {
            out: None,
            trace: None,
            chrome: None,
            benches: Vec::new(),
            engines: Vec::new(),
            level: OptLevel::O2,
            scale: Scale::Test,
            weight: obs::folded::Weight::WallNs,
            workers: 4,
            socket: None,
            from_seq: None,
            to_seq: None,
        }
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::base();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => o.out = Some(PathBuf::from(take_value(args, &mut i, "--out"))),
            "--trace" => o.trace = Some(PathBuf::from(take_value(args, &mut i, "--trace"))),
            "--chrome" => o.chrome = Some(PathBuf::from(take_value(args, &mut i, "--chrome"))),
            "--bench" => o.benches.push(take_value(args, &mut i, "--bench")),
            "--engine" => {
                let v = take_value(args, &mut i, "--engine");
                o.engines.push(EngineKind::parse(&v).unwrap_or_else(|| {
                    obs::error!("unknown engine {v:?}");
                    usage();
                }));
            }
            "--level" => {
                let v = take_value(args, &mut i, "--level");
                o.level = parse_level(&v).unwrap_or_else(|| {
                    obs::error!("unknown level {v:?} (use O0..O3)");
                    usage();
                });
            }
            "--scale" => {
                let v = take_value(args, &mut i, "--scale");
                o.scale = Scale::parse(&v).unwrap_or_else(|| {
                    obs::error!("unknown scale {v:?} (use test|profile|timing)");
                    usage();
                });
            }
            "--weight" => {
                let v = take_value(args, &mut i, "--weight");
                o.weight = obs::folded::Weight::parse(&v).unwrap_or_else(|| {
                    obs::error!("unknown weight {v:?}");
                    usage();
                });
            }
            "--socket" => o.socket = Some(PathBuf::from(take_value(args, &mut i, "--socket"))),
            "--from" => {
                o.from_seq = Some(take_value(args, &mut i, "--from").parse().unwrap_or_else(
                    |_| {
                        obs::error!("--from needs a window seq (see `windows`)");
                        usage();
                    },
                ))
            }
            "--to" => {
                o.to_seq = Some(take_value(args, &mut i, "--to").parse().unwrap_or_else(|_| {
                    obs::error!("--to needs a window seq (see `windows`)");
                    usage();
                }))
            }
            "--workers" => {
                o.workers = take_value(args, &mut i, "--workers")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| {
                        obs::error!("--workers needs a positive integer");
                        usage();
                    });
            }
            other => {
                obs::error!("unknown option {other:?}");
                usage();
            }
        }
        i += 1;
    }
    if o.benches.is_empty() {
        o.benches.push("crc32".to_string());
    }
    if o.engines.is_empty() {
        o.engines = EngineKind::all().to_vec();
    }
    o
}

fn parse_level(s: &str) -> Option<OptLevel> {
    match s.trim_start_matches('-') {
        "O0" => Some(OptLevel::O0),
        "O1" => Some(OptLevel::O1),
        "O2" => Some(OptLevel::O2),
        "O3" => Some(OptLevel::O3),
        _ => None,
    }
}

fn need(path: &Option<PathBuf>, flag: &str) -> PathBuf {
    path.clone().unwrap_or_else(|| {
        obs::error!("{flag} is required");
        usage();
    })
}

fn cmd_fold(o: &Opts) {
    let out = need(&o.out, "--out");
    let spec = WorkloadSpec {
        benches: o.benches.clone(),
        engines: o.engines.clone(),
        level: o.level,
        scale: o.scale,
        mode: svc::JobMode::Profiled,
        workers: o.workers,
    };
    let trace = prof::workload::capture_trace(&spec).unwrap_or_else(|e| {
        obs::error!("{e}");
        exit(2);
    });
    if let Err(e) = obs::folded::export_file(&trace, o.weight, &out) {
        obs::error!("{}: {e}", out.display());
        exit(2);
    }
    println!(
        "wrote {} ({} spans, weight {})",
        out.display(),
        trace.span_count(),
        o.weight.name()
    );
    if let Some(chrome) = &o.chrome {
        if let Err(e) = obs::chrome::export_file(&trace, chrome) {
            obs::error!("{}: {e}", chrome.display());
            exit(2);
        }
        println!("wrote {}", chrome.display());
    }
}

fn cmd_collapse(o: &Opts) {
    let trace = need(&o.trace, "--trace");
    let doc = std::fs::read_to_string(&trace).unwrap_or_else(|e| {
        obs::error!("{}: {e}", trace.display());
        exit(2);
    });
    let folded = prof::collapse::chrome_to_folded(&doc).unwrap_or_else(|e| {
        obs::error!("{}: {e}", trace.display());
        exit(1);
    });
    match &o.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &folded) {
                obs::error!("{}: {e}", path.display());
                exit(2);
            }
            println!("wrote {}", path.display());
        }
        None => print!("{folded}"),
    }
}

fn cmd_report(o: &Opts) {
    obs::trace::install(obs::trace::Sink::Ring);
    for bench in &o.benches {
        for kind in &o.engines {
            let measured = suite::by_name(bench)
                .ok_or_else(|| format!("unknown benchmark {bench:?}"))
                .and_then(|b| {
                    measure_cell(&CellSpec {
                        bench: b,
                        engine: *kind,
                        level: o.level,
                        scale: o.scale,
                    })
                });
            if let Err(e) = measured {
                obs::trace::install(obs::trace::Sink::Null);
                obs::error!("{e}");
                exit(2);
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

fn fetch_profile(o: &Opts) -> svc::telemetry::ProfileReport {
    let socket = need(&o.socket, "--socket");
    let mut client = svc::server::Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(2);
    });
    let rep = client.profile_dump().unwrap_or_else(|e| {
        obs::error!("profile-dump: {e}");
        exit(2);
    });
    if rep.window_ns == 0 {
        obs::error!("continuous profiler is off — serve with --profile-ms N");
        exit(1);
    }
    rep
}

fn cmd_windows(o: &Opts) {
    let rep = fetch_profile(o);
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

fn cmd_wdiff(o: &Opts) {
    let rep = fetch_profile(o);
    let by_seq = |seq: u64| {
        rep.windows.iter().find(|w| w.seq == seq).unwrap_or_else(|| {
            obs::error!("no window with seq {seq} (see `windows`)");
            exit(1);
        })
    };
    let (from, to) = match (o.from_seq, o.to_seq) {
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
        _ => {
            obs::error!("--from and --to must be given together (or neither)");
            usage();
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let opts = parse_opts(&args[1..]);
    match cmd.as_str() {
        "fold" => cmd_fold(&opts),
        "collapse" => cmd_collapse(&opts),
        "report" => cmd_report(&opts),
        "windows" => cmd_windows(&opts),
        "wdiff" => cmd_wdiff(&opts),
        _ => usage(),
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
