#!/usr/bin/env bash
# A/B the repository's benchmark: a parent commit against the working tree.
#
#   tools/ab.sh <parent-ref> <workload> [pairs] [seconds]
#
# Builds both sides the way BENCHMARK.json's command does (the offline
# manifest, crates/perf/offline/Cargo.toml), runs `pairs` (default 10)
# alternating parent/change pairs of `seconds` each (default:
# BENCHMARK.json's run_seconds; anything shorter is a smoke run, not a
# measurement), pair i on seed i, and prints for every end-to-end
# metric each side's median and quartiles, every run's value in pair
# order, the change's wins, and the verdict by the rule of the
# choosing-metrics guide, section 8: a gain
# needs wins in nine tenths of the pairs and medians further apart than
# the parent's own inter-quartile distance.
#
# The parent is exported with `git archive` into target/ab/<sha>/ and
# built once per commit; nothing outside target/ is written. Run it on
# an idle machine: both coordinator threads are pinned.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$1^{commit}")
workload=$2
pairs=${3:-10}
seconds=${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
manifest=crates/perf/offline/Cargo.toml
built=crates/perf/offline/target/release/pandora-perf
work=$root/target/ab
mkdir -p "$work"

if [ ! -x "$work/$sha.bin" ]; then
    echo "building parent $sha" >&2
    rm -rf "${work:?}/$sha"
    mkdir "$work/$sha"
    git archive "$sha" | tar -x -C "$work/$sha"
    cargo build --release --offline --quiet --manifest-path "$work/$sha/$manifest"
    cp "$work/$sha/$built" "$work/$sha.bin"
fi
echo "building working tree" >&2
cargo build --release --offline --quiet --manifest-path "$manifest"
cp "$built" "$work/change.bin"

runs=$work/runs.$$
rm -rf "$runs"
mkdir "$runs"
trap 'rm -rf "$runs"' EXIT
run() { # side seed
    local bin=$work/change.bin
    [ "$1" = parent ] && bin=$work/$sha.bin
    "$bin" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 \
        | tail -n 1 >"$runs/$1.$2.json"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
    echo "pair $i/$pairs: $first, $second (${seconds}s each)" >&2
    run "$first" "$i"
    run "$second" "$i"
done

python3 - "$runs" "$pairs" "$workload" "$sha" "$seconds" <<'PY'
import json, statistics, sys

runs, pairs, workload, sha, seconds = sys.argv[1], int(sys.argv[2]), *sys.argv[3:6]
bench = json.load(open("BENCHMARK.json"))
load = lambda side, i: json.load(open(f"{runs}/{side}.{i}.json"))
sides = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"{workload}: parent {sha[:12]} vs working tree, {pairs} pairs x {seconds} s")
for side, rs in sides.items():
    attempted = sum(r["attempted"] for r in rs)
    failed = sum(r["failed"] for r in rs)
    wrong = sum(not r["correct"] for r in rs)
    print(f"  {side}: {failed} failed of {attempted} operations, {wrong} runs failed their audit")
print(f"  {'metric':<18}{'side':<8}{'q1':>14}{'median':>14}{'q3':>14}")
for m in bench["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    vals = {s: [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
            for s, rs in sides.items()}
    if len(vals["parent"]) != pairs or len(vals["change"]) != pairs:
        continue  # the workload does not report this metric
    stats = {s: quartiles(v) for s, v in vals.items()}
    for s in ("parent", "change"):
        q1, med, q3 = stats[s]
        print(f"  {name:<18}{s:<8}{q1:>14.4f}{med:>14.4f}{q3:>14.4f}")
    for s in ("parent", "change"):
        print(f"  {'':<18}{s:<8}runs: " + " ".join(f"{v:.6g}" for v in vals[s]))
    better = lambda a, b: a > b if higher else a < b
    wins = sum(better(c, p) for p, c in zip(vals["parent"], vals["change"]))
    losses = sum(better(p, c) for p, c in zip(vals["parent"], vals["change"]))
    (pq1, pmed, pq3), cmed = stats["parent"], stats["change"][1]
    delta = (cmed - pmed) / pmed if pmed else 0.0
    worse_by = -delta if higher else delta
    if wins * 10 >= pairs * 9 and better(cmed, pmed) and abs(cmed - pmed) > pq3 - pq1:
        verdict = "gain" if pairs >= 10 else "better (a verdict needs ten pairs)"
    elif worse_by > m["bound"]:
        verdict = f"REGRESSION (bound {m['bound']:.0%})"
    else:
        verdict = "within bound"
    print(f"  {'':<18}change wins {wins}, loses {losses}; median {delta:+.2%} "
          f"({m['unit']}, {m['better']} is better), parent IQR {pq3 - pq1:.4f}: {verdict}")
PY
