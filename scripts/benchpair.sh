#!/bin/sh
# benchpair.sh — compare two checkouts on one benchmark workload the way
# docs/TESTING.md ("Comparing two commits") asks for it: interleaved pairs
# of runs, alternating which side goes first, a fresh seed per pair, and per
# metric both medians, the parent's quartiles and wins/pairs.
#
#   scripts/benchpair.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS]
#
# Each side is built and run from its own directory with its own
# benchmark/run.sh, so the two commits never share a binary or a build
# cache.  Environment: SEED0 (first seed, default 1000; pair i uses
# SEED0+i), SECONDS_PER_RUN (default: run_seconds of CHANGE_DIR's
# BENCHMARK.json), TRACE (default 0; 1 compares the per-layer pass instead
# and hides metrics that are zero on both sides), OUT (directory that keeps
# every run's result line; default a fresh mktemp -d).
#
# A metric is marked GAIN (or WORSE) only by the nine-in-ten rule: the change
# wins (loses) at least 9/10 of the pairs, ties counting for neither, and
# the medians differ by more than the distance between the parent's
# quartiles.  Everything else is "-": not shown to have moved.
set -eu

if [ $# -lt 3 ]; then
    sed -n '2,21p' "$0" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seed0="${SEED0:-1000}"
trace="${TRACE:-0}"
secs="${SECONDS_PER_RUN:-$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$change/BENCHMARK.json")}"
out="${OUT:-$(mktemp -d /tmp/benchpair.XXXXXX)}"
mkdir -p "$out"

# one SIDE DIR SEED: run the benchmark, keep its result line (the last one).
one() {
    (cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds "$secs" --trace "$trace") \
        | tail -n 1 >"$out/$1-$3.json"
    if ! grep -q '"correct":true' "$out/$1-$3.json"; then
        echo "benchpair: $1 run with seed $3 did not verify:" >&2
        cat "$out/$1-$3.json" >&2
        exit 1
    fi
}

echo "benchpair: $workload, $pairs pairs, seeds $((seed0 + 1))..$((seed0 + pairs)), ${secs}s per run, trace $trace"
echo "  parent $parent ($(git -C "$parent" rev-parse --short HEAD 2>/dev/null || echo '?'))"
echo "  change $change ($(git -C "$change" rev-parse --short HEAD 2>/dev/null || echo '?')$(git -C "$change" diff --quiet HEAD 2>/dev/null || echo ' + uncommitted'))"
echo "  results in $out"
i=1
while [ "$i" -le "$pairs" ]; do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 1 ]; then
        one parent "$parent" "$seed"; one change "$change" "$seed"
    else
        one change "$change" "$seed"; one parent "$parent" "$seed"
    fi
    printf '  pair %d (seed %d) done\n' "$i" "$seed"
    i=$((i + 1))
done

# Flatten every result line into "side seed metric value", then let awk do
# the order statistics.  "better" comes from the change's BENCHMARK.json.
for f in "$out"/parent-*.json "$out"/change-*.json; do
    base="$(basename "$f" .json)"
    grep -o '"[A-Za-z0-9_.]*":{"value":[-0-9.e+]*' "$f" \
        | sed "s/^\"\([^\"]*\)\":{\"value\":/${base%%-*} ${base##*-} \1 /"
done >"$out/flat.txt"
awk '/"name":/ { gsub(/[",]/, ""); name = $2 } /"better":/ { gsub(/[",]/, ""); print name, $2 }' \
    "$change/BENCHMARK.json" >"$out/better.txt"

awk -v pairs="$pairs" -v trace="$trace" '
function quant(a, n, p,    h, lo) {   # type-7 quantile of sorted a[1..n]
    h = (n - 1) * p + 1; lo = int(h)
    if (lo >= n) return a[n]
    return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sorted(side, m, dst,    n, s, i, j, t) {
    n = 0
    for (s in seeds) if ((side, s, m) in v) dst[++n] = v[side, s, m]
    for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
    return n
}
FNR == NR { better[$1] = $2; next }
{ v[$1, $2, $3] = $4 + 0; seeds[$2] = 1; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
END {
    printf "%-34s %14s %29s %14s %8s %7s  %s\n", "metric", "parent median", "[parent q1 - q3]", "change median", "change/p", "wins", "verdict"
    for (k = 1; k <= nm; k++) {
        m = order[k]
        np = sorted("parent", m, P); nc = sorted("change", m, C)
        pm = quant(P, np, 0.5); cm = quant(C, nc, 0.5)
        if (trace != 0 && pm == 0 && cm == 0) continue
        q1 = quant(P, np, 0.25); q3 = quant(P, np, 0.75)
        dir = (better[m] == "higher") ? 1 : -1
        wins = 0; losses = 0
        for (s in seeds) {
            d = (v["change", s, m] - v["parent", s, m]) * dir
            if (d > 0) wins++; else if (d < 0) losses++
        }
        verdict = "-"
        if ((cm - pm) * dir > q3 - q1 && wins * 10 >= pairs * 9) verdict = "GAIN"
        if ((pm - cm) * dir > q3 - q1 && losses * 10 >= pairs * 9) verdict = "WORSE"
        printf "%-34s %14.6g %14.6g - %-12.6g %14.6g %8.3f %4d/%-2d  %s\n", m, pm, q1, q3, cm, (pm != 0) ? cm / pm : 0, wins, pairs, verdict
    }
}' "$out/better.txt" "$out/flat.txt"
