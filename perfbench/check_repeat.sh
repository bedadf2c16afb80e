#!/usr/bin/env bash
# Repeatability check: runs the full untraced benchmark in two sets of three
# runs with the same seed, prints for every workload x end-to-end metric the
# two sets' medians and their relative difference next to the metric's
# bound, and exits non-zero if any difference is out of bounds.
#
#   perfbench/check_repeat.sh [seed]      (default seed 1; about 9 minutes)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
out=perfbench/out
mkdir -p "$out"
for set in a b; do
    for run in 1 2 3; do
        cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
            run --seed "$seed" --trace 0 >"$out/repeat-$set-$run.txt"
    done
done
# Metric lines are tab-separated: workload, name, value, unit, bound, direction.
awk -F'\t' '
    function median3(x, y, z) { return x > y ? (y > z ? y : (x > z ? z : x)) : (x > z ? x : (y > z ? z : y)) }
    NF == 6 {
        set = FILENAME ~ /repeat-a-/ ? "a" : "b"
        key = $1 "\t" $2
        n[set, key]++
        value[set, key, n[set, key]] = $3 + 0
        if (!(key in unit)) { order[++keys] = key; unit[key] = $4; bound[key] = substr($5, 7) + 0 }
    }
    END {
        for (i = 1; i <= keys; i++) {
            key = order[i]
            a = median3(value["a", key, 1], value["a", key, 2], value["a", key, 3])
            b = median3(value["b", key, 1], value["b", key, 2], value["b", key, 3])
            diff = (b > a ? b - a : a - b) / a
            verdict = "ok"
            if (diff > bound[key]) { bad = 1; verdict = "OUT OF BOUNDS" }
            split(key, part, "\t"); gsub(/ +$/, "", part[2])
            printf "%-22s %-20s %14.4f %14.4f %-9s %6.2f %% of %2.0f %%  %s\n", part[1], part[2], a, b, unit[key], diff * 100, bound[key] * 100, verdict
        }
        exit bad
    }
' "$out"/repeat-a-*.txt "$out"/repeat-b-*.txt
