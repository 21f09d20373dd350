#!/usr/bin/env bash
# Size and cache-line alignment of every copy of the engines' three
# dispatch loops (`TreeCode::call`, `ThreadedCode::call`,
# `RegCode::exec`) in one binary, read with `nm -S -C --defined-only`.
# A build whose loops moved to another start address mod 64 can read
# several percent slower on `exec_batch` with no change to their code,
# so compare this output between two builds before blaming a change's
# logic for such a shift.
#
#   scripts/hot_loops.sh [BIN]    # default target/release/wabench-served
set -euo pipefail

bin="${1:-$(dirname "${BASH_SOURCE[0]}")/../target/release/wabench-served}"
if [[ ! -f "$bin" ]]; then
    echo "hot_loops.sh: no binary at $bin (build it first)" >&2
    exit 2
fi
nm -S -C --defined-only "$bin" |
    grep -E '::(TreeCode::call|ThreadedCode::call|RegCode::exec)(<.*>)?$' |
    while read -r addr size _ sym; do
        name="${sym%%<*}"
        name="${name%::*}"
        name="${name##*::}::${sym##*::}"
        printf '%-20s size %6d (0x%05x)  addr 0x%08x  mod64 %2d\n' \
            "$name" "0x$size" "0x$size" "0x$addr" $((0x$addr % 64))
    done |
    sort
