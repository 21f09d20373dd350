//! The `wacc` command-line compiler: WaCC source to a `.wasm` binary.
//!
//! ```text
//! wacc input.wc [-o out.wasm] [-O0|-O1|-O2|-O3]
//! ```

use obs::cli::{Command, Flag};
use wacc::OptLevel;

const LEVELS: [&str; 4] = ["-O0", "-O1", "-O2", "-O3"];

#[rustfmt::skip]
static COMMANDS: &[Command] = &[Command::new("", &[
    Flag::value("-o", "FILE", "output path (default: INPUT with a .wasm extension)"),
    Flag::switch("-O0", "no optimization"),
    Flag::switch("-O1", "folding and simplification"),
    Flag::switch("-O2", "plus inlining and loop-invariant motion (the default level)"),
    Flag::switch("-O3", "plus loop unrolling"),
]).takes("INPUT")];

fn main() {
    let a = obs::cli::parse("wacc", COMMANDS);
    let given: Vec<&str> = LEVELS.into_iter().filter(|l| a.on(l)).collect();
    let level = match given[..] {
        [] => OptLevel::O2,
        [l] => OptLevel::parse(l).expect("table spellings parse"),
        _ => a.fail("give at most one of -O0..-O3"),
    };
    let input = a.positional();
    let source = match std::fs::read_to_string(input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{input}: {e}");
            std::process::exit(1);
        }
    };
    match wacc::compile_to_bytes(&source, level) {
        Ok(bytes) => {
            let out = a.opt("-o", "a path", obs::cli::text).unwrap_or_else(|| {
                std::path::Path::new(input)
                    .with_extension("wasm")
                    .to_string_lossy()
                    .into_owned()
            });
            if let Err(e) = std::fs::write(&out, &bytes) {
                eprintln!("{out}: {e}");
                std::process::exit(1);
            }
            eprintln!("{input} -> {out} ({} bytes, {level})", bytes.len());
        }
        Err(e) => {
            eprintln!("{input}:{e}");
            std::process::exit(1);
        }
    }
}
