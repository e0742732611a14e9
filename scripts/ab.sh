#!/usr/bin/env bash
# Paired A/B run of one benchmark workload on two revisions.
#
#   scripts/ab.sh <parent-rev> <change-rev> <workload> <pairs> [seed]
#
# Exports both revisions with `git archive` into target/ab/parent and
# target/ab/change (sibling paths of equal length: a one-character path
# difference alone moves `characterize` by about 1 %), builds the benchmark
# in each, then runs <pairs> alternating untraced pairs with the command and
# the `run_seconds` of BENCHMARK.json, the parent first in odd pairs and the
# change first in even ones. Each run's result file is kept under
# target/ab/<workload>-s<seed>/{parent,change}/. Every pair prints both
# sides' `throughput`, `failed` and `correct`; the end prints the pairs the
# change won on `throughput`, both sides' total `failed`, and the
# benchmark's `compare` verdict per end-to-end metric. `seed` defaults to 1.
#
# Exits with the status of `compare`, or 1 when any run is not `correct` or
# the change fails more operations in total than the parent: a throughput
# gain does not count then.
#
# It writes only under target/; the benchmark/ of this checkout is untouched.
# Needs `jq` to read BENCHMARK.json and the result files.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    sed -n '4p' "$0" >&2
    exit 2
fi
parent_rev=$1
change_rev=$2
workload=$3
pairs=$4
seed=${5:-1}

cd "$(dirname "$0")/.."
root=$PWD
ab=$root/target/ab
mapfile -t bench < <(jq -r '.command[]' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)

# Extracts <rev> into target/ab/<side> unless that commit is already there,
# then builds its benchmark.
checkout() {
    local side=$1 sha
    sha=$(git rev-parse --verify "$2^{commit}")
    local dir=$ab/$side
    if [ "$(cat "$dir/.ab-rev" 2>/dev/null)" != "$sha" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git archive "$sha" | tar -x -C "$dir"
        echo "$sha" >"$dir/.ab-rev"
    fi
    echo "$side: $sha" >&2
    (cd "$dir" && cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml)
}

# One untraced run on <side>; its result file is kept as run-<pair>.json.
# The benchmark exits non-zero on an incorrect run; its result file is still
# written, and the `correct` field in it is checked below.
run() {
    local side=$1 pair=$2
    local out=$results/$side/pair-$pair
    (cd "$ab/$side" && "${bench[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$out" >/dev/null) || true
    mv "$out/$workload-s$seed.json" "$results/$side/run-$pair.json"
    rmdir "$out"
}

# `throughput`, `failed` and `correct` of one result file, on one line.
reading() {
    jq -r '"\(.metrics.throughput.value) \(.failed) \(.correct)"' "$1"
}

checkout parent "$parent_rev"
checkout change "$change_rev"

results=$ab/$workload-s$seed
rm -rf "$results"
mkdir -p "$results/parent" "$results/change"
wins=0
failed_parent=0
failed_change=0
incorrect=0
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$pair"
        run change "$pair"
    else
        run change "$pair"
        run parent "$pair"
    fi
    read -r p pf pc < <(reading "$results/parent/run-$pair.json")
    read -r c cf cc < <(reading "$results/change/run-$pair.json")
    echo "pair $pair/$pairs: parent throughput $p failed $pf correct $pc;" \
        "change throughput $c failed $cf correct $cc" >&2
    wins=$((wins + $(awk -v p="$p" -v c="$c" 'BEGIN { print (c > p) }')))
    failed_parent=$((failed_parent + pf))
    failed_change=$((failed_change + cf))
    [ "$pc" = true ] || incorrect=$((incorrect + 1))
    [ "$cc" = true ] || incorrect=$((incorrect + 1))
done
echo "the change had the higher throughput in $wins of $pairs pairs" >&2
echo "failed operations in total: parent $failed_parent, change $failed_change" >&2

status=0
(cd "$ab/change" && "${bench[@]}" compare "$results/parent" "$results/change") || status=$?
if [ "$incorrect" -gt 0 ]; then
    echo "$incorrect run(s) not correct" >&2
    status=1
fi
if [ "$failed_change" -gt "$failed_parent" ]; then
    echo "the change failed more operations than the parent" >&2
    status=1
fi
exit "$status"
