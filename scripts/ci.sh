#!/usr/bin/env bash
# Tier-1 gate, staged: fmt, clippy, build, test, perfbench, e2e,
# ablations.
#
#   scripts/ci.sh                 run every stage (the full gate)
#   scripts/ci.sh --stage clippy  run only the named stage (repeatable)
#   scripts/ci.sh --skip e2e      run everything except the named stage
#   scripts/ci.sh --list          print the stage names and exit
#
# Stages run in the fixed order below and fail fast; a summary table
# with per-stage wall-clock timing prints at exit either way. Run from
# anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES=(fmt clippy build test perfbench e2e ablations)

usage() {
    echo "usage: scripts/ci.sh [--stage NAME]... [--skip NAME]... [--list]"
    echo "stages: ${ALL_STAGES[*]}"
}

only=()
skip=()
while [ $# -gt 0 ]; do
    case "$1" in
        --stage) only+=("$2"); shift 2 ;;
        --skip) skip+=("$2"); shift 2 ;;
        --list) echo "${ALL_STAGES[*]}"; exit 0 ;;
        -h|--help) usage; exit 0 ;;
        *) echo "unknown argument: $1"; usage; exit 2 ;;
    esac
done
for name in ${only[@]+"${only[@]}"} ${skip[@]+"${skip[@]}"}; do
    case " ${ALL_STAGES[*]} " in
        *" $name "*) ;;
        *) echo "unknown stage: $name"; usage; exit 2 ;;
    esac
done

selected() {
    local name="$1"
    if [ "${#only[@]}" -gt 0 ]; then
        case " ${only[*]} " in *" $name "*) ;; *) return 1 ;; esac
    fi
    for s in ${skip[@]+"${skip[@]}"}; do
        [ "$s" = "$name" ] && return 1
    done
    return 0
}

tmp="$(mktemp -d)"
SUMMARY=()
FLAKY=()
CURRENT=""
on_exit() {
    local code=$?
    rm -rf "$tmp"
    echo
    echo "== ci stage summary =="
    for row in ${SUMMARY[@]+"${SUMMARY[@]}"}; do
        echo "$row"
    done
    if [ -n "$CURRENT" ] && [ "$code" -ne 0 ]; then
        printf '  %-10s %5s  %s\n' "$CURRENT" "-" "FAILED"
    fi
    for f in ${FLAKY[@]+"${FLAKY[@]}"}; do
        echo "  !! FLAKY (passed on retry — investigate): $f"
    done
    if [ "$code" -eq 0 ]; then
        echo "ci: all green"
    else
        echo "ci: FAILED (exit $code)"
    fi
}
trap on_exit EXIT

# One-retry quarantine for the e2e suites: spawning real daemons and
# SIGKILLing them mid-flight is inherently raceable on a loaded CI box,
# so a single failure earns exactly one retry. A pass-on-retry is
# reported loudly in the summary — quarantine is visibility, not a rug.
retry_once() {
    local desc="$1"
    shift
    if "$@"; then
        return 0
    fi
    echo "!! '$desc' failed; retrying once (flaky quarantine)"
    if "$@"; then
        echo "!! FLAKY: '$desc' passed on retry"
        FLAKY+=("$desc")
        return 0
    fi
    return 1
}

stage_fmt() {
    cargo fmt --all -- --check
}

stage_clippy() {
    # Besides the default lints, this enforces the workspace's own rules
    # (Cargo.toml [workspace.lints], clippy.toml): no wall-clock reads,
    # unseeded randomness or std hash collections in the files that deny
    # them, no panicking shortcuts in the connection-thread handlers, and
    # a reason on every suppression. A stale `#[expect]` fails too.
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_build() {
    cargo build --release --workspace
}

stage_test() {
    echo "--> cargo test -q --workspace"
    cargo test -q --workspace

    echo "--> analyzer regression gate (diagnostic drift over bench workloads)"
    # rrf-analyze output is byte-deterministic, so any drift against the
    # committed expected files is a behavior change that must be
    # reviewed (and the files regenerated deliberately).
    ANALYZE=target/release/rrf-analyze
    "$ANALYZE" --workload paper:1 --format ndjson > "$tmp/paper1_clean.ndjson" 2>/dev/null
    set +e
    "$ANALYZE" --workload paper:1 --width 24 --format ndjson > "$tmp/paper1_width24.ndjson" 2>/dev/null
    status=$?
    set -e
    if [ "$status" -ne 2 ]; then
        echo "rrf-analyze: expected exit 2 (errors) for the overloaded workload, got $status"
        return 1
    fi
    diff -u tests/expected/analyze/paper1_clean.ndjson "$tmp/paper1_clean.ndjson"
    diff -u tests/expected/analyze/paper1_width24.ndjson "$tmp/paper1_width24.ndjson"

    echo "--> trace determinism gate (logical stream, byte-exact goldens)"
    # The logical trace stream (no wall-clock records) of a seeded
    # workload is byte-deterministic: two runs must agree with each
    # other AND with the committed goldens. Drift means the search
    # explored a different tree or the trace schema changed — review,
    # then regenerate with the trace_workload binary (see its --help).
    TRACE_WORKLOAD=target/release/trace_workload
    for w in "paper1_w240 --workload paper:1" "paper1_w120 --workload paper:1 --width 120"; do
        name="${w%% *}"
        args="${w#* }"
        # shellcheck disable=SC2086
        "$TRACE_WORKLOAD" $args --fail-limit 4000 --out "$tmp/$name.a.ndjson" 2>/dev/null
        # shellcheck disable=SC2086
        "$TRACE_WORKLOAD" $args --fail-limit 4000 --out "$tmp/$name.b.ndjson" 2>/dev/null
        diff -u "$tmp/$name.a.ndjson" "$tmp/$name.b.ndjson"
        diff -u "tests/expected/trace/$name.ndjson" "$tmp/$name.a.ndjson"
    done
    cargo test --release -q -p rrf-bench --test trace_replay -- --include-ignored

    echo "--> trace overhead budget (counting sink < 5%)"
    cargo bench -p rrf-bench --bench trace_overhead

    echo "--> golden-schedule regression (byte-exact replay)"
    # The scheduler is purely logical-time, so a replayed op script must
    # produce the identical event stream, digest, and stats every run.
    # Drift means admission or packing behavior changed — review, then
    # regenerate with the two rrf-sched commands below.
    SCHED=target/release/rrf-sched
    "$SCHED" --tasks tests/expected/sched/small_trace.tasks.ndjson \
        --width 12 --height 8 --bram-period 0 --advance-to 2000 > "$tmp/small_trace.ndjson"
    diff -u tests/expected/sched/small_trace.ndjson "$tmp/small_trace.ndjson"
    "$SCHED" --gen poisson:20:11 --advance-to 4000 > "$tmp/gen_poisson20.ndjson"
    diff -u tests/expected/sched/gen_poisson20.ndjson "$tmp/gen_poisson20.ndjson"
}

stage_perfbench() {
    # perfbench is a package of its own (its own workspace), so the
    # workspace build never compiles it. Its tests run every workload in
    # short mode: every check must pass and the exact figures repeat.
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
}

stage_e2e() {
    echo "--> server observability e2e (stats_detail ladder + --trace stream)"
    retry_once "server trace_e2e" cargo test -q -p rrf-server --test trace_e2e

    echo "--> fault-tolerance e2e (inject/repair/clear, panic isolation, recovery)"
    retry_once "server fault_e2e" cargo test -q -p rrf-server --test fault_e2e

    echo "--> kill-and-recover smoke test (SIGKILL mid-session, journal replay)"
    retry_once "server kill_and_recover" cargo test -q -p rrf-server --test kill_and_recover

    echo "--> scheduler e2e (submit/cancel/status over the wire, SIGKILL replay)"
    retry_once "server sched_e2e" cargo test -q -p rrf-server --test sched_e2e

    echo "--> overload e2e (request-line cap, backpressure -> retrying client)"
    retry_once "server overload_e2e" cargo test -q -p rrf-server --test overload_e2e

    echo "--> journal torn-tail robustness (every byte offset + corruption proptest)"
    cargo test -q -p rrf-server --test journal_props

    echo "--> chaos soak (seeded fault-injection proxy against the real daemon)"
    # Deterministic: RRF_CHAOS_SEED pins the injection sequence (default
    # 42); the test asserts zero invariant violations, live workers,
    # bounded shed, and bit-identical journal recovery after a SIGKILL.
    retry_once "server chaos_soak" cargo test --release -q -p rrf-server --test chaos_soak

    echo "--> cache concurrency battery (model equivalence, coalescing, persistence)"
    cargo test -q -p rrf-server --test cache_props
    retry_once "server cache_e2e" cargo test --release -q -p rrf-server --test cache_e2e
    retry_once "server cache_persist_e2e" cargo test --release -q -p rrf-server --test cache_persist_e2e
    cargo test -q -p rrf-server --test determinism_e2e

    echo "--> router failover e2e (SIGKILL pinned backend, journal adoption, bit-identical digests)"
    retry_once "router failover_e2e" cargo test --release -q -p rrf-router --test failover_e2e

    echo "--> router partition soak (chaos-proxy cable pull, eject + rejoin)"
    retry_once "router partition_soak" cargo test --release -q -p rrf-router --test partition_soak

    echo "--> CLI --help/--version consistency"
    version="$(sed -n 's/^version = "\(.*\)"$/\1/p' Cargo.toml | head -1)"
    for tool in rrf-serve rrf-analyze rrf-trace rrf-sched rrf-client rrf-chaos rrf-router; do
        got="$(target/release/$tool --version)"
        if [ "$got" != "$tool $version" ]; then
            echo "version mismatch: $tool reported '$got', want '$tool $version'"
            return 1
        fi
        target/release/$tool --help > /dev/null
    done
}

run_ablations() {
    echo "--> schedule ablation (alternatives at equal offered load)" &&
        target/release/sched_load 120 3 40 --out BENCH_sched.json &&
        echo "--> overload ablation (shedding at 2x saturation)" &&
        target/release/overload_load 12 10 0 --out BENCH_overload.json &&
        echo "--> cache ablation (coalescing on duplicate-heavy load)" &&
        target/release/cache_load 48 0 --out BENCH_cache.json &&
        echo "--> cluster ablation (4 routed backends vs 1)" &&
        target/release/cluster_load 24 0 --out BENCH_cluster.json &&
        echo "--> bench_gate (unified floors over every BENCH_*.json)" &&
        target/release/bench_gate
}

stage_ablations() {
    # The load binaries measure and refresh the committed artifacts; the
    # unified bench_gate then enforces every floor in one place. A
    # regression in any ablation fails CI at the gate, not inside the
    # binary that happened to measure it. The wall-clock-bearing arms
    # earn the same one-retry quarantine as the e2e suites: a blown
    # floor re-measures the whole set once, and a pass-on-retry is
    # reported loudly — a real regression fails twice.
    retry_once "ablations (bench floors)" run_ablations
}

# Stage bodies are plain functions sharing the global namespace, so the
# driver keeps its loop state in variables no stage touches.
for ci_stage in "${ALL_STAGES[@]}"; do
    if ! selected "$ci_stage"; then
        printf -v row '  %-10s %5s  %s' "$ci_stage" "-" "skipped"
        SUMMARY+=("$row")
        continue
    fi
    echo "==> stage: $ci_stage"
    CURRENT="$ci_stage"
    ci_start=$SECONDS
    "stage_$ci_stage"
    ci_dur=$((SECONDS - ci_start))
    CURRENT=""
    printf -v row '  %-10s %4ss  %s' "$ci_stage" "$ci_dur" "ok"
    SUMMARY+=("$row")
done
