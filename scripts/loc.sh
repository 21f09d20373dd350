#!/usr/bin/env bash
# Lines of Rust per crate and the crates/ total: the table ROADMAP
# item 3 wants in every CHANGES.md entry. With a directory argument,
# counts that checkout instead (e.g. a copy of the parent commit).
set -euo pipefail

cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"
total=0
for dir in crates/*/; do
    n=$(find "$dir" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    printf '%-10s %6d\n' "$(basename "$dir")" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' crates/ "$total"
