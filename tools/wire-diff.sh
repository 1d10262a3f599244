#!/usr/bin/env bash
# Did a change move a verb? Diff the wire-identity grid of a parent
# commit against the working tree's.
#
#   tools/wire-diff.sh <parent-ref> [test-filter]
#
# Runs the *working tree's* tests/tests/wire_hash.rs (fixed transaction
# shapes x protocols x configurations, a crash plan at every verb index;
# one line per cell: result, ops_issued, counter deltas, remote-memory
# hash) against both trees and prints the diff of the two outputs —
# nothing when no verb moved. `test-filter` narrows the run to one
# protocol's grid (`wire_hash_pandora`, `wire_hash_ford`,
# `wire_hash_traditional`).
#
# The parent is exported with `git archive` into target/wire-diff/<sha>/
# as tools/ab.sh does; both sides build through tools/wire-hash/Cargo.toml
# (its own workspace over the benchmark's stand-in crates, so no registry
# is needed). Nothing outside target/ is written. About a minute per
# side for the whole grid in release.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$1^{commit}")
filter=${2:-wire_hash}
work=$root/target/wire-diff
mkdir -p "$work"

rm -rf "${work:?}/$sha"
mkdir "$work/$sha"
git archive "$sha" | tar -x -C "$work/$sha"
# The change's harness, against the parent's sources.
mkdir -p "$work/$sha/tools/wire-hash" "$work/$sha/tests/tests"
cp tools/wire-hash/Cargo.toml "$work/$sha/tools/wire-hash/Cargo.toml"
cp tests/tests/wire_hash.rs "$work/$sha/tests/tests/wire_hash.rs"

grid() { # tree output
    echo "running the grid on $1" >&2
    cargo test --release --offline --quiet \
        --manifest-path "$1/tools/wire-hash/Cargo.toml" --target-dir "$work/build" \
        --test wire_hash -- --ignored --nocapture --test-threads=1 "$filter" \
        | grep -E '^(Pandora|Ford|Traditional) ' >"$2"
}
grid "$work/$sha" "$work/parent.txt"
grid "$root" "$work/change.txt"

cells=$(wc -l <"$work/change.txt")
if diff "$work/parent.txt" "$work/change.txt" >"$work/diff.txt"; then
    echo "no difference in $cells cells (parent ${sha:0:12})"
else
    cat "$work/diff.txt"
    moved=$(grep -c '^>' "$work/diff.txt" || true)
    echo "$moved of $cells cells differ from parent ${sha:0:12} (full diff: target/wire-diff/diff.txt)" >&2
    exit 1
fi
