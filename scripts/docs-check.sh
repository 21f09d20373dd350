#!/usr/bin/env bash
# Validates README.md, EXPERIMENTS.md, and docs/*.md against the tree:
# every relative `](target)` link must resolve to a file or directory,
# and every `--bin NAME` must name a binary the workspace builds.
# External (http/https/mailto) links and pure #anchors are skipped; a
# `path#anchor` link is checked for the path part only. Exits nonzero
# listing every dangling link and unknown binary.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
checked=0

check_file() {
    local doc="$1"
    local dir
    dir="$(dirname "$doc")"
    # Inline links: `](target)` — good enough for the hand-written docs
    # here (no nested parens in targets).
    local links
    links="$(grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//' || true)"
    local target
    while IFS= read -r target; do
        [ -n "$target" ] || continue
        case "$target" in
            http://*|https://*|mailto:*) continue ;;
            '#'*) continue ;;
        esac
        local path="${target%%#*}"
        checked=$((checked + 1))
        if [ ! -e "$dir/$path" ]; then
            echo "docs-check: $doc: dangling link -> $target" >&2
            fail=1
        fi
    done <<< "$links"
}

# The workspace's binary targets, from cargo's own view of the manifests.
bins="$(cargo metadata --no-deps --format-version 1 --offline \
    | grep -oE '"kind":\["bin"\],"crate_types":\["bin"\],"name":"[^"]+"' \
    | sed -e 's/.*"name":"//' -e 's/"$//')"
[ -n "$bins" ] || { echo "docs-check: found no binary targets" >&2; exit 1; }

for doc in README.md EXPERIMENTS.md docs/*.md; do
    [ -f "$doc" ] || continue
    check_file "$doc"
    for bin in $(grep -oE -- '--bin [A-Za-z0-9_-]+' "$doc" | cut -d' ' -f2 || true); do
        checked=$((checked + 1))
        if ! grep -qx -- "$bin" <<< "$bins"; then
            echo "docs-check: $doc: --bin $bin is not a workspace binary" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "docs-check: FAILED" >&2
    exit 1
fi
echo "docs-check: $checked intra-repo links and --bin names OK"
