#!/usr/bin/env bash
# Tier-1 verify flow for wabench.
#
# Runs, in order:
#   1. cargo build --release          (the seed tier-1 build)
#   2. cargo test -q                  (the seed tier-1 test suite: the
#      root facade package only)
#   3. cargo test -q --workspace      (every crate's own tests)
#   4. cargo clippy --workspace --all-targets -- -D warnings
#   5. wabench-harness lint over crates/suite/programs (exits nonzero on
#      findings)
#   6. wabench-served smoke: socket round-trip, 3 jobs cold + 3 warm,
#      asserting warm artifact loads beat cold compiles
#   7. trace smoke: span capture (wabench-harness run) -> Chrome trace ->
#      validator (wabench-served trace-check)
#   8. profile smoke: an attributed `wabench-harness report` table, and
#      `--trace-out` of a 4-worker `run` writing folded stacks (a
#      `.folded` name) and a Chrome trace that validates (any other name)
#   9. benchmark selftest: `benchmark/run.sh --selftest`, the unit tests
#      of the repo's one performance gate (compare's
#      verdicts_follow_direction_bound_and_spread shows it can fire)
#  10. archsim digest: a short traced `arch_profiled` benchmark run must
#      print `archsim.counters_digest 3118169510689169` — the simulated
#      counters behind Figures 6-10 and Table 5 have not moved
#  11. compile_cold smoke: a short untraced `compile_cold` benchmark run
#      (warm miss -> compile -> put -> evict against a capped store) exits
#      0 and prints `"correct": true` — every checksum matched the native
#      mirror and the reference evaluator
#  12. serve_warm smoke: a short untraced `serve_warm` benchmark run
#      (every job over a live wabench-served socket, each `Wait` parked
#      until a worker's completion wakes the reactor) exits 0 and prints
#      `"correct": true`
#  13. docs check: every intra-repo markdown link in README.md,
#      EXPERIMENTS.md, and docs/*.md resolves, and every `--bin NAME`
#      they mention is a binary the workspace builds
#  14. chaos smoke: fig6 under a 5% fault plan is bit-identical to a
#      clean run, and the two chaos passes together exercise at least
#      one retry, one interpreter fallback, and one store repair
#  15. simulated figures: fig6, fig7, fig8 (with Table 5) and fig9 (with
#      Figure 10), regenerated at their default scale, are byte-identical
#      to their sections of the committed EXPERIMENTS.md
#  16. audit smoke: wabench-harness audit over the whole suite with the proof
#      verifier compiled in (--features verify-ir) must report zero
#      proof violations and exactly the pinned suite totals (checks,
#      eliminated, residual, unreachable blocks)
#  17. load smoke: a short fixed-seed wabench-load run against a live
#      wabench-served exits 0, i.e. jobs completed with zero protocol
#      errors
#  18. live telemetry smoke: a fixed-seed load run against a sampling
#      server stitches client+server request spans into a Chrome trace
#      that wabench-served trace-check accepts, with one request per
#      completed job, and wabench-served top
#      --once reports
#      a window (completed count, nonzero QPS, ordered quantiles) whose
#      completed count matches the load run's `jobs:` line
#  19. live doctor smoke: against a sampling server with a deterministic
#      20ms delay fault armed, wabench-served doctor --socket reports
#      findings (exit 1) naming the delay site, and wabench-served
#      windows lists the series points' engine x phase profiles; against
#      a fault-free control run doctor reports `diagnosis: healthy`
#      (exit 0)
#  20. router smoke: a fixed-seed load through wabench-router over two
#      wabench-served shards completes with zero protocol errors, prints
#      a summary line per shard, stitches a trace of every completed
#      request that trace-check accepts, and both shards serve jobs;
#      wabench-served top/doctor degrade gracefully against the router
#      socket; a chaos pass with one shard armed 'crash=1.0' (the
#      process aborts on its first job) still completes the run with at
#      least one failover
#  21. scripts/loc.sh: lines of Rust per crate and the crates/ total,
#      the table each CHANGES.md entry records
#
# Performance is measured and regression-gated in one place, the repo
# benchmark (benchmark/README.md); step 9 only proves that gate can fire.
# Front-end throughput in particular is not raced here: the reactor is
# the only server loop, and its gate is the benchmark's serving workload —
#   bash benchmark/run.sh --workload serve_warm --seed 12 --seconds 24 --trace 0
# compared against the parent commit (benchmark/README.md).
#
# Offline / vendored-cargo caveat: this workspace builds fully offline.
# Every external dependency (proptest, rand, serde, ...) is a path
# dependency on an API-compatible stub under vendor/ — see
# vendor/README.md. If a cargo invocation here fails trying to reach
# crates.io (e.g. "failed to get `...` as a dependency"), the cause is a
# new non-path dependency in some Cargo.toml, NOT a network outage to be
# retried: point the dependency at a vendor/ stub instead.

set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*" >&2; }

# wait_sock PATH LABEL LOG: wait up to 5 s for a server's socket; on a
# timeout, fail naming LABEL and show the server's LOG.
wait_sock() {
    for _ in $(seq 1 50); do [ -S "$1" ] && return 0; sleep 0.1; done
    echo "$2 FAILED: socket never appeared" >&2
    cat "$3" >&2
    exit 1
}

# check_stitched OUT TRACE LABEL: the Chrome trace a `wabench-load run
# --stitch-out TRACE` wrote (its stdout in OUT) validates and holds one
# request per job the run completed.
check_stitched() {
    ./target/release/wabench-served trace-check "$2"
    local completed stitched
    completed=$(sed -nE 's/^jobs: [0-9]+ submitted, ([0-9]+) completed.*/\1/p' "$1")
    stitched=$(sed -nE 's/^stitched trace: .* \(([0-9]+) requests\)$/\1/p' "$1")
    if [ -z "$completed" ] || [ "$completed" != "$stitched" ]; then
        echo "$3 FAILED: stitched ${stitched:-no} requests for ${completed:-no} completed jobs" >&2
        exit 1
    fi
}

step "tier-1 build (release)"
cargo build --release

step "tier-1 tests"
cargo test -q

step "workspace tests (every crate's own tests)"
cargo test -q --workspace

step "clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

step "wabench-harness lint (source diagnostics over all suite programs)"
cargo run -q -p wabench-harness -- lint

step "wabench-served smoke (socket protocol + artifact store, cold vs warm)"
cargo build -q --release -p wabench-svc
./target/release/wabench-served smoke --jobs 3

step "trace smoke (span capture -> Chrome trace export -> validator)"
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
cargo run -q --release -p wabench-harness -- \
    run crc32 --jobs 2 --trace-out "$trace_tmp/trace.json" > /dev/null
./target/release/wabench-served trace-check "$trace_tmp/trace.json"

step "profile smoke (attributed report; --trace-out as folded stacks and Chrome trace)"
cargo build -q --release -p wabench-harness
# The attributed phase table for one profiled cell must have rows.
./target/release/wabench-harness report --bench crc32 --engine wasm3 --level O1 \
    > "$trace_tmp/report.out"
grep -q '^ *engine.execute ' "$trace_tmp/report.out" || {
    echo "profile smoke FAILED: report printed no attributed rows" >&2
    cat "$trace_tmp/report.out" >&2
    exit 1
}
# The flamegraph comes straight from a 4-worker scheduler run: a
# `.folded` name picks folded stacks, any other name the Chrome trace
# (the folded/Chrome depth cross-check lives in harness/tests/obs_trace.rs).
./target/release/wabench-harness run crc32 --level O1 --jobs 4 \
    --trace-out "$trace_tmp/stacks.folded" > /dev/null
test -s "$trace_tmp/stacks.folded"
./target/release/wabench-harness run crc32 --level O1 --jobs 4 \
    --trace-out "$trace_tmp/prof-trace.json" > /dev/null
./target/release/wabench-served trace-check "$trace_tmp/prof-trace.json"

step "benchmark selftest (the one performance gate's own tests)"
# compare's verdicts_follow_direction_bound_and_spread is what shows the
# gate fires: a gate that cannot fail guards nothing.
bash benchmark/run.sh --selftest

step "archsim digest (simulated counters are bit-identical to the pinned oracle)"
# Any change to the simulator's hot paths must leave every simulated
# count alone; the digest hashes all of them across the workload's cells.
bash benchmark/run.sh --workload arch_profiled --seed 12 --seconds 2 --trace 1 \
    > "$trace_tmp/arch_digest.out"
grep -qx 'archsim.counters_digest 3118169510689169 count' "$trace_tmp/arch_digest.out" || {
    echo "archsim digest FAILED: counters moved" >&2
    grep '^archsim\.' "$trace_tmp/arch_digest.out" >&2
    exit 1
}

step "compile_cold smoke (warm miss -> compile -> put -> evict, outputs checked)"
# The only smoke that drives the cold serving path end to end against a
# capped store, with every checksum held to the native mirror and the
# reference evaluator.
bash benchmark/run.sh --workload compile_cold --seed 12 --seconds 2 --trace 0 \
    > "$trace_tmp/compile_cold.out"
grep -q '"correct": true' "$trace_tmp/compile_cold.out" || {
    echo "compile_cold smoke FAILED: outputs not correct" >&2
    tail -n 8 "$trace_tmp/compile_cold.out" >&2
    exit 1
}

step "serve_warm smoke (parked Waits resolved by completion wakes, outputs checked)"
# Drives the reactor's wake path through a real wabench-served daemon:
# a lost wake would stall replies to the loop's idle timeout, a wrong
# answer would fail the checksum check.
bash benchmark/run.sh --workload serve_warm --seed 12 --seconds 2 --trace 0 \
    > "$trace_tmp/serve_warm.out"
grep -q '"correct": true' "$trace_tmp/serve_warm.out" || {
    echo "serve_warm smoke FAILED: outputs not correct" >&2
    tail -n 8 "$trace_tmp/serve_warm.out" >&2
    exit 1
}

step "docs check (intra-repo markdown links resolve, --bin names exist)"
scripts/docs-check.sh

step "chaos smoke (fault injection: figures bit-identical, recovery paths exercised)"
harness=./target/release/wabench-harness
cargo build -q --release -p wabench-harness
plan='seed=7,compile=0.05,panic=0.02,store.read=0.05'
# A clean fig6 (simulated, deterministic) is the reference...
"$harness" fig6 --scale test --jobs 4 --out "$trace_tmp/clean6.md" \
    > /dev/null 2>&1
# ...a serial run (no --jobs: every cell measured inline) must match it
# byte for byte — serial is the N = 1 case of the same kernel...
"$harness" fig6 --scale test --out "$trace_tmp/serial6.md" > /dev/null 2>&1
cmp "$trace_tmp/clean6.md" "$trace_tmp/serial6.md" || {
    echo "chaos smoke FAILED: serial fig6 differs from --jobs 4" >&2
    exit 1
}
# ...and the same figure under 5% faults must reproduce it bit-for-bit:
# degraded/failed cells are skipped by the warm pass and measured
# inline, fault-free, during table assembly.
"$harness" fig6 --scale test --jobs 4 --faults "$plan" \
    --store "$trace_tmp/chaos-store" --out "$trace_tmp/chaos6.md" \
    > "$trace_tmp/chaos6.log" 2>&1
cmp "$trace_tmp/clean6.md" "$trace_tmp/chaos6.md" || {
    echo "chaos smoke FAILED: fig6 differs under fault injection" >&2
    exit 1
}
# A second chaos pass (Exec jobs this time) reuses the store directory,
# so keyed read-corruption faults now hit populated entries: together
# the two runs must show every recovery path engaging.
"$harness" fig4 --scale test --jobs 4 --faults "$plan" \
    --store "$trace_tmp/chaos-store" --out "$trace_tmp/chaos4.md" \
    > "$trace_tmp/chaos4.log" 2>&1
grep -h '^resilience:' "$trace_tmp/chaos6.log" "$trace_tmp/chaos4.log"
for counter in retries fallbacks repairs; do
    total=$(grep -h '^resilience:' "$trace_tmp/chaos6.log" "$trace_tmp/chaos4.log" \
        | grep -oE "$counter=[0-9]+" | cut -d= -f2 | awk '{s += $1} END {print s}')
    if [ "${total:-0}" -lt 1 ]; then
        echo "chaos smoke FAILED: no $counter recorded across chaos runs" >&2
        exit 1
    fi
done

step "simulated figures match EXPERIMENTS.md (Figures 6-10, Table 5)"
# The simulated tables are deterministic, so regenerating them must
# reproduce the committed EXPERIMENTS.md byte for byte: a change that
# moves a simulated count regenerates the file (wabench-harness all) in
# the same commit. fig8 also prints Table 5, fig9 also Figure 10.
for fig in fig6 fig7 fig8 fig9; do
    "$harness" "$fig" --jobs 2 --out "$trace_tmp/sim-$fig.md" > /dev/null 2>&1
    first=$(head -n 1 "$trace_tmp/sim-$fig.md")
    start=$(grep -nxF -- "$first" EXPERIMENTS.md | head -n 1 | cut -d: -f1)
    lines=$(wc -l < "$trace_tmp/sim-$fig.md")
    sed -n "${start:-1},$((${start:-1} + lines - 1))p" EXPERIMENTS.md \
        > "$trace_tmp/committed-$fig.md"
    if [ -z "$start" ] || ! cmp -s "$trace_tmp/committed-$fig.md" "$trace_tmp/sim-$fig.md"; then
        echo "simulated figures FAILED: $fig differs from EXPERIMENTS.md" \
            "(regenerate with: wabench-harness all --jobs 2)" >&2
        diff "$trace_tmp/committed-$fig.md" "$trace_tmp/sim-$fig.md" >&2 || true
        exit 1
    fi
done

step "audit smoke (static check-elimination proofs re-verified on the suite)"
# All 50 programs x O0..O3 with every eliminated check's proof
# obligation independently re-derived: zero violations (the command's
# own exit status), the eliminated-check floor, and the exact totals
# of the per-module table. Any drift in what the interval analysis
# proves moves a total and fails here; a change meant to move them
# updates the pinned line and says why.
cargo run -q --release --features verify-ir -p wabench-harness -- \
    audit --min-eliminated 4000 --md > "$trace_tmp/audit.md"
audit_totals=$(awk -F'|' '$3 ~ /-O[0-3]/ {
        m++; c += $5; e += $6; r += $7; u += $8
    } END { printf "modules=%d checks=%d eliminated=%d residual=%d unreachable=%d", m, c, e, r, u }' \
    "$trace_tmp/audit.md")
echo "audit totals: $audit_totals"
[ "$audit_totals" = "modules=200 checks=9024 eliminated=4288 residual=4736 unreachable=1799" ] || {
    echo "audit smoke FAILED: totals moved (pinned modules=200 checks=9024" \
        "eliminated=4288 residual=4736 unreachable=1799)" >&2
    exit 1
}

step "load smoke (open-loop generator -> live server)"
loadgen=./target/release/wabench-load
cargo build -q --release -p wabench-load
sock="$trace_tmp/load.sock"
./target/release/wabench-served serve --socket "$sock" --workers 2 \
    --store "$trace_tmp/load-store" > "$trace_tmp/served.log" 2>&1 &
served_pid=$!
wait_sock "$sock" "load smoke" "$trace_tmp/served.log"
# wabench-load itself exits nonzero on zero completed jobs or any
# protocol error, so a 0 here already covers both health assertions.
"$loadgen" run --seed 7 --mix fig1 --qps 200 --jobs 20 --phases cold,warm \
    --socket "$sock" | tee "$trace_tmp/load.out"
./target/release/wabench-served shutdown --socket "$sock" > /dev/null
wait "$served_pid" 2> /dev/null || true

step "live telemetry smoke (sampler window -> top --once; stitched request traces)"
sock="$trace_tmp/top.sock"
./target/release/wabench-served serve --socket "$sock" --workers 2 \
    --store "$trace_tmp/top-store" --sample-ms 25 > "$trace_tmp/served-top.log" 2>&1 &
served_pid=$!
wait_sock "$sock" "telemetry smoke" "$trace_tmp/served-top.log"
"$loadgen" run --seed 11 --mix fig1 --qps 200 --jobs 20 --phases cold,warm \
    --socket "$sock" \
    --stitch-out "$trace_tmp/requests.json" | tee "$trace_tmp/load-top.out"
sleep 0.2 # two+ sampler intervals, so the final completions get sampled
./target/release/wabench-served top --once --socket "$sock" | tee "$trace_tmp/top.out"
./target/release/wabench-served shutdown --socket "$sock" > /dev/null
wait "$served_pid" 2> /dev/null || true
# The stitched trace must pair client and server spans for every
# completed request and pass the same validator as every other trace
# artifact...
grep -q '"client.request"' "$trace_tmp/requests.json"
grep -q '"server.job"' "$trace_tmp/requests.json"
check_stitched "$trace_tmp/load-top.out" "$trace_tmp/requests.json" "telemetry smoke"
# ...and the live window must agree with the load run: the completed
# count its `jobs:` line printed, nonzero QPS, and ordered quantiles.
load_completed=$(grep -oE '^jobs: .*[0-9]+ completed' "$trace_tmp/load-top.out" \
    | grep -oE '[0-9]+ completed' | cut -d' ' -f1)
awk -F= -v load="${load_completed:-missing}" '
    $1 == "completed" { completed = $2 + 0 }
    $1 == "qps"       { qps = $2 + 0 }
    $1 == "p50_ns"    { p50 = $2 + 0 }
    $1 == "p99_ns"    { p99 = $2 + 0 }
    END {
        if (completed != load) {
            print "telemetry smoke FAILED: window completed " completed \
                " != load run completed " load; exit 1
        }
        if (qps <= 0) { print "telemetry smoke FAILED: qps=" qps; exit 1 }
        if (p50 <= 0 || p99 < p50) {
            print "telemetry smoke FAILED: quantiles p50=" p50 " p99=" p99; exit 1
        }
    }' "$trace_tmp/top.out"

step "live doctor smoke (delay fault -> doctor --socket, windows)"
served=./target/release/wabench-served
# Runs the seed-13 fig1 load against a fresh sampling server (extra
# serve flags in "$@"), then records `doctor --socket` output in
# $trace_tmp/doctor-<tag>.out and its exit code in $doctor_rc, and the
# `windows` listing in $trace_tmp/windows-<tag>.out.
doctor_run() {
    local tag=$1; shift
    local sock="$trace_tmp/doctor-$tag.sock"
    "$served" serve --socket "$sock" --workers 2 --sample-ms 25 "$@" \
        > "$trace_tmp/served-$tag.log" 2>&1 &
    local pid=$!
    wait_sock "$sock" "doctor smoke ($tag)" "$trace_tmp/served-$tag.log"
    "$loadgen" run --seed 13 --mix fig1 --qps 100 --jobs 10 --phases cold \
        --socket "$sock" > /dev/null
    sleep 0.2 # let the sampler cover the last completions
    doctor_rc=0
    "$served" doctor --socket "$sock" | tee "$trace_tmp/doctor-$tag.out" || doctor_rc=$?
    "$served" windows --socket "$sock" > "$trace_tmp/windows-$tag.out"
    "$served" shutdown --socket "$sock" > /dev/null
    wait "$pid" 2> /dev/null || true
}
# Every job is delayed 20ms (rate 1.0, seeded): doctor must report
# findings (exit 1) and name the injected delay site...
doctor_run fault --faults 'seed=7,delay=1.0:20ms'
if [ "$doctor_rc" -ne 1 ]; then
    echo "doctor smoke FAILED: doctor exit $doctor_rc on a server with a delay fault" >&2
    exit 1
fi
grep -q 'site=delay' "$trace_tmp/doctor-fault.out" || {
    echo "doctor smoke FAILED: doctor did not name the injected delay site" >&2
    exit 1
}
# ...and the series points must carry the jobs' engine x phase profile.
grep -q '^window #' "$trace_tmp/windows-fault.out" || {
    echo "doctor smoke FAILED: no series point carries phase time" >&2
    exit 1
}
# Control: the same load without faults is healthy (exit 0).
doctor_run clean
if [ "$doctor_rc" -ne 0 ]; then
    echo "doctor smoke FAILED: doctor exit $doctor_rc on a fault-free run" >&2
    exit 1
fi

step "router smoke (2-shard fleet -> failover chaos)"
routerbin=./target/release/wabench-router
cargo build -q --release -p wabench-router
s0="$trace_tmp/rshard0.sock"; s1="$trace_tmp/rshard1.sock"
rsock="$trace_tmp/router.sock"
"$served" serve --socket "$s0" --workers 2 --store "$trace_tmp/rstore0" \
    > "$trace_tmp/rshard0.log" 2>&1 &
shard0_pid=$!
"$served" serve --socket "$s1" --workers 2 --store "$trace_tmp/rstore1" \
    > "$trace_tmp/rshard1.log" 2>&1 &
shard1_pid=$!
wait_sock "$s0" "router smoke: shard-0" "$trace_tmp/rshard0.log"
wait_sock "$s1" "router smoke: shard-1" "$trace_tmp/rshard1.log"
"$routerbin" serve --socket "$rsock" \
    --backend shard-0="$s0" --backend shard-1="$s1" \
    > "$trace_tmp/router.log" 2>&1 &
router_pid=$!
wait_sock "$rsock" "router smoke: router" "$trace_tmp/router.log"
# wabench-load exits nonzero on zero completed jobs or any protocol
# error, so a 0 here covers both; clients speak the ordinary protocol
# to the router socket. The stitched trace comes from the results
# alone, so it holds every request whichever shard served it.
"$loadgen" run --seed 7 --mix fig1 --qps 200 --jobs 20 --phases cold,warm \
    --socket "$rsock" --stitch-out "$trace_tmp/routed.json" | tee "$trace_tmp/load-router.out"
check_stitched "$trace_tmp/load-router.out" "$trace_tmp/routed.json" "router smoke"
# Routed runs print the router's per-shard attribution.
for shard in shard-0 shard-1; do
    grep -q "^shard $shard " "$trace_tmp/load-router.out" || {
        echo "router smoke FAILED: load run printed no line for $shard" >&2
        exit 1
    }
done
# Both shards must have served traffic (the ring splits fig1's cells).
"$routerbin" status --socket "$rsock" | tee "$trace_tmp/router-status.out"
for shard in shard-0 shard-1; do
    fwd=$(grep -oE "^shard $shard .* ([0-9]+) forwarded" "$trace_tmp/router-status.out" \
        | grep -oE '[0-9]+ forwarded' | cut -d' ' -f1)
    if [ "${fwd:-0}" -lt 1 ]; then
        echo "router smoke FAILED: $shard served no jobs" >&2
        exit 1
    fi
done
# Pointed at the router, top and doctor must degrade gracefully
# (per-shard requests are refused with the router: prefix), not error
# out. doctor exits 2 only on evidence it cannot read.
"$served" top --once --socket "$rsock" > "$trace_tmp/top-router.out" 2>&1 || {
    echo "router smoke FAILED: top errored against the router socket" >&2
    cat "$trace_tmp/top-router.out" >&2
    exit 1
}
grep -q '^sampling=0' "$trace_tmp/top-router.out"
rc=0
"$served" doctor --socket "$rsock" > "$trace_tmp/doctor-router.out" 2>&1 || rc=$?
if [ "$rc" -gt 1 ]; then
    echo "router smoke FAILED: doctor exit $rc against the router socket" >&2
    cat "$trace_tmp/doctor-router.out" >&2
    exit 1
fi
"$routerbin" shutdown --socket "$rsock" > /dev/null
wait "$router_pid" 2> /dev/null || true
"$served" shutdown --socket "$s0" > /dev/null
"$served" shutdown --socket "$s1" > /dev/null
wait "$shard0_pid" "$shard1_pid" 2> /dev/null || true

# Chaos pass: one shard armed with the crash fault aborts its whole
# process on the first job it picks up; the run must still complete
# with zero protocol errors, the dead shard's keys failing over.
c0="$trace_tmp/cshard0.sock"; c1="$trace_tmp/cshard1.sock"
crsock="$trace_tmp/crouter.sock"
"$served" serve --socket "$c0" --workers 2 --faults 'seed=7,crash=1.0' \
    > "$trace_tmp/cshard0.log" 2>&1 &
cshard0_pid=$!
"$served" serve --socket "$c1" --workers 2 \
    > "$trace_tmp/cshard1.log" 2>&1 &
cshard1_pid=$!
wait_sock "$c0" "router smoke: chaos-shard-0" "$trace_tmp/cshard0.log"
wait_sock "$c1" "router smoke: chaos-shard-1" "$trace_tmp/cshard1.log"
"$routerbin" serve --socket "$crsock" \
    --backend shard-0="$c0" --backend shard-1="$c1" \
    > "$trace_tmp/crouter.log" 2>&1 &
crouter_pid=$!
wait_sock "$crsock" "router smoke: chaos-router" "$trace_tmp/crouter.log"
"$loadgen" run --seed 7 --mix fig1 --qps 200 --jobs 20 --phases cold \
    --socket "$crsock" | tee "$trace_tmp/load-chaos-router.out"
"$routerbin" status --socket "$crsock" | tee "$trace_tmp/crouter-status.out"
failovers=$(grep -oE '[0-9]+ failovers' "$trace_tmp/crouter-status.out" \
    | cut -d' ' -f1 | awk '{s += $1} END {print s}')
if [ "${failovers:-0}" -lt 1 ]; then
    echo "router smoke FAILED: shard crash caused no failovers" >&2
    exit 1
fi
"$routerbin" shutdown --socket "$crsock" > /dev/null
wait "$crouter_pid" 2> /dev/null || true
"$served" shutdown --socket "$c1" > /dev/null
wait "$cshard0_pid" "$cshard1_pid" 2> /dev/null || true

step "lines of Rust per crate (scripts/loc.sh)"
bash scripts/loc.sh

step "verify OK"
