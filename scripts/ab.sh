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
# target/ab/<workload>-s<seed>/{parent,change}/, with its exit status in
# code-<pair>. Every pair prints both sides' exit status, `failed`,
# `correct` and every end-to-end metric of BENCHMARK.json;
# the end prints, for each of those metrics, the pairs the change won in
# the direction its `better` field gives, then both sides' total `failed`
# and the benchmark's `compare` verdict per metric. `seed` defaults to 1.
#
# Exits with the status of `compare`, or 1 when any run exits non-zero, is
# not `correct`, or the change fails more operations in total than the
# parent: a gain does not count then. A run that leaves no result file
# stops the script at once; every failing run is named by side and pair.
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
# End-to-end metrics as "<name> <better>" lines, in BENCHMARK.json order.
mapfile -t metrics < <(jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json)

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

# One untraced run on <side>; its result file is kept as run-<pair>.json and
# its exit status as code-<pair>. The benchmark exits non-zero on an
# incorrect run and still writes its result file, so a non-zero status is
# recorded and judged after the pairs; a missing result file ends the
# script here.
run() {
    local side=$1 pair=$2
    local out=$results/$side/pair-$pair code=0
    (cd "$ab/$side" && "${bench[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$out" >/dev/null) || code=$?
    echo "$code" >"$results/$side/code-$pair"
    if [ ! -f "$out/$workload-s$seed.json" ]; then
        echo "the $side run of pair $pair exited with status $code and wrote no result file" >&2
        exit 1
    fi
    mv "$out/$workload-s$seed.json" "$results/$side/run-$pair.json"
    rmdir "$out"
}

# `failed` and `correct` of one result file, on one line.
status_of() {
    jq -r '"\(.failed) \(.correct)"' "$1"
}

# The value of end-to-end metric <name> in one result file, or `null`.
value_of() {
    jq -r --arg m "$2" '.metrics[$m].value // null' "$1"
}

# 1 when <change> beats <parent> in direction <better> (higher/lower).
beats() {
    awk -v p="$1" -v c="$2" -v better="$3" \
        'BEGIN { print (better == "higher" ? c > p : c < p) }'
}

checkout parent "$parent_rev"
checkout change "$change_rev"

results=$ab/$workload-s$seed
rm -rf "$results"
mkdir -p "$results/parent" "$results/change"
declare -A wins
failed_parent=0
failed_change=0
incorrect=0
exited=()
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$pair"
        run change "$pair"
    else
        run change "$pair"
        run parent "$pair"
    fi
    read -r pf pc < <(status_of "$results/parent/run-$pair.json")
    read -r cf cc < <(status_of "$results/change/run-$pair.json")
    pe=$(cat "$results/parent/code-$pair")
    ce=$(cat "$results/change/code-$pair")
    [ "$pe" -eq 0 ] || exited+=("parent run of pair $pair exited with status $pe")
    [ "$ce" -eq 0 ] || exited+=("change run of pair $pair exited with status $ce")
    line="pair $pair/$pairs: exit $pe/$ce failed $pf/$cf correct $pc/$cc"
    for entry in "${metrics[@]}"; do
        read -r name better <<<"$entry"
        p=$(value_of "$results/parent/run-$pair.json" "$name")
        c=$(value_of "$results/change/run-$pair.json" "$name")
        line="$line; $name $p/$c"
        if [ "$p" != null ] && [ "$c" != null ]; then
            wins[$name]=$((${wins[$name]:-0} + $(beats "$p" "$c" "$better")))
        fi
    done
    echo "$line (parent/change)" >&2
    failed_parent=$((failed_parent + pf))
    failed_change=$((failed_change + cf))
    [ "$pc" = true ] || incorrect=$((incorrect + 1))
    [ "$cc" = true ] || incorrect=$((incorrect + 1))
done
for entry in "${metrics[@]}"; do
    read -r name better <<<"$entry"
    echo "the change won ${wins[$name]:-0} of $pairs pairs on $name ($better is better)" >&2
done
echo "failed operations in total: parent $failed_parent, change $failed_change" >&2

status=0
(cd "$ab/change" && "${bench[@]}" compare "$results/parent" "$results/change") || status=$?
for msg in ${exited[@]+"${exited[@]}"}; do
    echo "$msg" >&2
    status=1
done
if [ "$incorrect" -gt 0 ]; then
    echo "$incorrect run(s) not correct" >&2
    status=1
fi
if [ "$failed_change" -gt "$failed_parent" ]; then
    echo "the change failed more operations than the parent" >&2
    status=1
fi
exit "$status"
