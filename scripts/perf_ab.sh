#!/usr/bin/env bash
# A/B the perfbench end-to-end metrics of two revisions in alternating
# pairs of runs.
#
#   scripts/perf_ab.sh BASE [CHANGE] [--workload W]... [--pairs N]
#                      [--seed S] [--seconds T]
#
# BASE and CHANGE are git revisions; CHANGE defaults to HEAD. Each is
# exported with `git archive` into a temporary directory outside the
# repository, and perfbench is built there (`--release --offline`). Per
# workload (default: offline and session), N pairs (default 10) of runs
# go from each export's root, base first in odd pairs and change first
# in even ones; seed 1 and 30 s runs by default.
#
# For every end-to-end metric of BENCHMARK.json it prints q1/median/q3
# per side, the change median over the base median, and the pairs the
# change won in the metric's `better` direction; per pair, whether the
# two `perfbench-exact` lines are byte-identical. Exits non-zero if a
# run fails or reports failed operations. Nothing is written into the
# repository; the exports are removed on exit. It takes minutes, so CI
# does not run it.
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"

usage() {
    echo "usage: scripts/perf_ab.sh BASE [CHANGE] [--workload W]... [--pairs N] [--seed S] [--seconds T]"
}

base="" change="" pairs=10 seed=1 seconds=30
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload | --pairs | --seed | --seconds)
            [ $# -ge 2 ] || { usage; exit 2; }
            case "$1" in
                --workload) workloads+=("$2") ;;
                --pairs) pairs="$2" ;;
                --seed) seed="$2" ;;
                --seconds) seconds="$2" ;;
            esac
            shift 2 ;;
        -h | --help) usage; exit 0 ;;
        -*) echo "unknown argument: $1"; usage; exit 2 ;;
        *)
            if [ -z "$base" ]; then base="$1"
            elif [ -z "$change" ]; then change="$1"
            else usage; exit 2
            fi
            shift ;;
    esac
done
[ -n "$base" ] || { usage; exit 2; }
change="${change:-HEAD}"
[ "${#workloads[@]}" -gt 0 ] || workloads=(offline session)
case "$pairs" in '' | *[!0-9]* | 0) echo "--pairs must be a positive integer"; exit 2 ;; esac

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Export and build one revision into $work/$side.
export_side() {
    local side="$1" rev="$2" commit
    commit="$(git -C "$repo" rev-parse --verify --quiet "$rev^{commit}")" ||
        { echo "perf_ab: not a revision: $rev"; exit 2; }
    mkdir "$work/$side"
    git -C "$repo" archive --format=tar "$commit" | tar -xf - -C "$work/$side"
    echo "perf_ab: $side = $rev ($commit), building perfbench"
    CARGO_TARGET_DIR="$work/$side/perfbench/target" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/perfbench/Cargo.toml" ||
        { echo "perf_ab: building $side failed"; exit 1; }
}
export_side base "$base"
export_side change "$change"

# name better, per end-to-end metric of BENCHMARK.json.
awk '/"end_to_end"/ { on = 1; next }
     on && /\]/ { on = 0 }
     on && /"name"/ { split($0, f, "\""); name = f[4] }
     on && /"better"/ { split($0, f, "\""); print name, f[4] }' \
    "$work/base/BENCHMARK.json" > "$work/metrics"

# One run; appends "workload side pair metric value" lines to
# $work/values and keeps its exact line in $work/exact.$pair.$side.
failed_ops=0
run_side() {
    local workload="$1" side="$2" pair="$3" out
    out="$work/run.$side"
    if ! (cd "$work/$side" && ./perfbench/target/release/perfbench --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0) > "$out.json" 2> "$out.err"; then
        echo "perf_ab: $workload pair $pair: the $side run failed"
        tail -5 "$out.err"
        exit 1
    fi
    tail -1 "$out.json" | awk -v w="$workload" -v s="$side" -v p="$pair" \
        -v metrics="$work/metrics" -v values="$work/values" '
        function num(key,   i, v) {
            i = index($0, "\"" key "\":")
            if (!i) return ""
            v = substr($0, i + length(key) + 3)
            sub(/[,}].*/, "", v)
            return v
        }
        {
            if (num("failed") == "") { print "missing the failed count"; exit }
            if (num("failed") != 0) print "failed", num("failed")
            while ((getline line < metrics) > 0) {
                split(line, f, " ")
                v = num(f[1] "\":{\"value")
                if (v == "") { print "missing", f[1]; exit }
                print w, s, p, f[1], v >> values
            }
        }' > "$out.check"
    if grep -q '^missing' "$out.check"; then
        echo "perf_ab: $workload pair $pair: the $side run's JSON is $(cat "$out.check")"
        exit 1
    fi
    if grep -q '^failed' "$out.check"; then
        echo "perf_ab: $workload pair $pair: the $side run reported $(cut -d' ' -f2 "$out.check") failed operations"
        failed_ops=1
    fi
    grep '^perfbench-exact ' "$out.err" > "$work/exact.$pair.$side" || true
}

for workload in "${workloads[@]}"; do
    : > "$work/values"
    echo
    echo "== $workload: $pairs pairs, seed $seed, $seconds s per run"
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
        for side in $order; do
            run_side "$workload" "$side" "$pair"
        done
        if [ -s "$work/exact.$pair.base" ] &&
            cmp -s "$work/exact.$pair.base" "$work/exact.$pair.change"; then
            exact="identical"
        else
            exact="DIFFERENT"
        fi
        echo "  pair $pair ($order): perfbench-exact $exact"
    done
    awk -v n="$pairs" '
        NR == FNR { better[$1] = $2; order[++m] = $1; next }
        { v[$4, $2, $3] = $5 }
        function quart(metric, side, q,   i, j, t, a, pos, lo) {
            for (i = 1; i <= n; i++) a[i] = v[metric, side, i] + 0
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            pos = 1 + q * (n - 1); lo = int(pos)
            return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
        }
        END {
            printf "  %-16s %-6s %32s %32s %7s %5s\n", "metric", "better", \
                "base q1/median/q3", "change q1/median/q3", "ratio", "wins"
            for (k = 1; k <= m; k++) {
                name = order[k]; wins = 0
                for (p = 1; p <= n; p++) {
                    b = v[name, "base", p] + 0; c = v[name, "change", p] + 0
                    if ((better[name] == "higher" && c > b) || (better[name] == "lower" && c < b)) wins++
                }
                bm = quart(name, "base", 0.5); cm = quart(name, "change", 0.5)
                printf "  %-16s %-6s %32s %32s %7.3f %2d/%-2d\n", name, better[name], \
                    sprintf("%.4g/%.4g/%.4g", quart(name, "base", 0.25), bm, quart(name, "base", 0.75)), \
                    sprintf("%.4g/%.4g/%.4g", quart(name, "change", 0.25), cm, quart(name, "change", 0.75)), \
                    (bm == 0 ? 0 : cm / bm), wins, n
            }
        }' "$work/metrics" "$work/values"
done
exit "$failed_ops"
