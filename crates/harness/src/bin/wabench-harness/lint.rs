//! `wabench-harness lint`: run the `wabench-analysis` source lints over
//! every WaCC benchmark program of the suite.
//!
//! Each `.wc` file is composed with the shared suite helpers
//! ([`suite::COMMON`]) exactly as `Benchmark::full_source` does, linted,
//! and findings are windowed back to the program's own lines so every
//! report carries the real file and line. Exit status: `0` when every
//! program is clean, `1` when any lint fires, `2` on compile or I/O
//! errors.

use std::path::{Path, PathBuf};

use analysis::lint;
use harness::report::Report;
use obs::cli::{self, Args, Command, Flag};

#[rustfmt::skip]
pub const COMMAND: Command = Command::new("lint", &[
    Flag::value("--programs", "DIR", "WaCC sources to lint (default: the suite's programs)"),
    Flag::switch("--md", "also print a markdown report"),
]);

fn wc_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            files.extend(wc_files(&path)?);
        } else if path.extension().is_some_and(|e| e == "wc") {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// `lint`: exits 0 when every program is clean.
pub fn run(a: &Args) {
    // The harness crate lives in crates/harness; the suite's programs
    // are its sibling. Resolved at compile time so the binary works from
    // any working directory inside the repo.
    let dir = a.opt("--programs", "a directory", cli::path)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../suite/programs"));
    let files = wc_files(&dir).unwrap_or_else(|e| {
        eprintln!("{}: {e}", dir.display());
        std::process::exit(2);
    });
    if files.is_empty() {
        eprintln!("{}: no .wc programs found", dir.display());
        std::process::exit(2);
    }

    let mut findings = 0usize;
    let mut errors = 0usize;
    let mut report = Report::new(
        "lint",
        "lint findings",
        vec!["file".into(), "line".into(), "finding".into()],
    );
    for path in &files {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                errors += 1;
                continue;
            }
        };
        // Compose exactly like Benchmark::full_source, then window the
        // findings back to the program's own lines.
        let composed = format!("{}\n{}", suite::COMMON, src);
        let offset = (composed.lines().count() - src.lines().count()) as u32;
        let shown = path.strip_prefix(&dir).unwrap_or(path);
        match lint::lint_source(&composed) {
            Ok(diags) => {
                for d in lint::window(diags, offset, src.lines().count() as u32) {
                    println!("{}:{}: {d}", shown.display(), d.line);
                    report.row(vec![
                        shown.display().to_string(),
                        d.line.to_string(),
                        d.to_string(),
                    ]);
                    findings += 1;
                }
            }
            Err(e) => {
                eprintln!("{}: compile error: {e}", shown.display());
                errors += 1;
            }
        }
    }

    if a.on("--md") {
        report.note(format!(
            "{} programs swept, {findings} finding(s), {errors} error(s)",
            files.len()
        ));
        print!("{}", report.to_markdown());
    }
    if errors > 0 {
        std::process::exit(2);
    }
    if findings > 0 {
        eprintln!("lint: {findings} finding(s) across {} programs", files.len());
        std::process::exit(1);
    }
    eprintln!("lint: {} programs clean", files.len());
}
