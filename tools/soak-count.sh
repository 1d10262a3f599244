#!/usr/bin/env bash
# How often does the chaos soak fail — on a parent commit, and on the
# working tree?
#
#   tools/soak-count.sh <parent-ref> [runs]
#
# Builds the *working tree's* tests/tests/chaos_soak.rs against both
# trees in release (through tools/soak-count/Cargo.toml, its own
# workspace over the benchmark's stand-in crates, so no registry is
# needed), then runs the two binaries alternately, `runs` times each
# (default 50), a run being the binary's default tests — the three pinned
# seeds and the chaos-off check, in parallel as `cargo test` runs them —
# under a 60 s time-out. Prints every failing run with its assertion
# text, and the count per side. The soak is a threaded wall-clock test
# and its failure is a race (ROADMAP item 1): compare the two counts of
# one invocation, on an otherwise idle machine, never counts across
# invocations.
#
# The parent is exported with `git archive` into target/soak-count/<sha>/
# as tools/wire-diff.sh does. Nothing outside target/ is written. Exit
# status is 0 whatever the counts: the tool counts, it does not gate.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$1^{commit}")
runs=${2:-50}
work=$root/target/soak-count
mkdir -p "$work/tmp"

rm -rf "${work:?}/$sha"
mkdir "$work/$sha"
git archive "$sha" | tar -x -C "$work/$sha"
# The change's harness, against the parent's sources.
mkdir -p "$work/$sha/tools/soak-count" "$work/$sha/tests/tests"
cp tools/soak-count/Cargo.toml "$work/$sha/tools/soak-count/Cargo.toml"
cp tests/tests/chaos_soak.rs "$work/$sha/tests/tests/chaos_soak.rs"

build() { # tree side
    echo "building the soak on $1" >&2
    cargo test --release --offline --quiet --no-run \
        --manifest-path "$1/tools/soak-count/Cargo.toml" --target-dir "$work/build-$2"
    # The test executable cargo just linked: newest, no extension.
    local bin
    bin=$(find "$work/build-$2/release/deps" -maxdepth 1 -type f -name 'chaos_soak-*' \
        ! -name '*.*' -printf '%T@ %p\n' | sort -n | tail -n 1 | cut -d' ' -f2-)
    cp "$bin" "$work/$2.bin"
}
build "$work/$sha" parent
build "$root" change

declare -A failed=([parent]=0 [change]=0)
run() { # side i
    local log=$work/$1.$2.log
    # A failing run dumps its flight recorder into the temp dir.
    if TMPDIR=$work/tmp timeout 60 "$work/$1.bin" >"$log" 2>&1; then
        rm -f "$log"
        return
    fi
    failed[$1]=$((failed[$1] + 1))
    # The soak's assertions all begin `seed N:`.
    local why
    why=$(grep -m 1 -o -E 'seed [0-9]+: .*' "$log" || grep -m 1 -o 'panicked at .*' "$log" || true)
    echo "run $2 $1: FAILED ${why:-(timed out or killed; see $log)}"
}
for i in $(seq 1 "$runs"); do
    if [ $((i % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
    run "$first" "$i"
    run "$second" "$i"
done
echo "chaos soak, $runs alternating runs per side, parent ${sha:0:12} vs working tree:"
echo "  parent failed ${failed[parent]} of $runs"
echo "  change failed ${failed[change]} of $runs"
