#!/usr/bin/env bash
# The repo benchmark's one command. Run from the repo root.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is the result
#       as one JSON object (the form BENCHMARK.json's `command` takes)
#   benchmark/run.sh all [--seed N] [--seconds S] [--workload W]... [--traced] [--repeat K]
#       every workload in a fresh process each, untraced, then traced
#       with --traced; writes benchmark/out/result.json; with --repeat 2
#       or more also checks that the repeats agree within the bounds
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh check-manifest
#   benchmark/run.sh --selftest      the benchmark's own unit tests
#
# Builds the benchmark (a standalone cargo package in this directory) and
# the program under test (wabench-served, from the repo's workspace) in
# release mode first, then validates BENCHMARK.json, then does as asked.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"

# One target directory for both builds; honour the caller's choice.
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target

if [ "${1:-}" = "--selftest" ]; then
    exec cargo test --offline --quiet --manifest-path benchmark/Cargo.toml
fi

# Build output goes to stderr: stdout belongs to the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
cargo build --release --offline --quiet -p wabench-svc --bin wabench-served 1>&2

bench=$target/release/wabench-benchmark
"$bench" check-manifest 1>&2
exec "$bench" "$@"
