#!/usr/bin/env sh
# Consolidated verification entry point.  One mode per hardening axis;
# each mode uses its own build tree so none of them disturb the normal
# build/ directory.
#
# Usage: ./scripts/check.sh <mode> [extra cmake args...]
#
# Modes:
#   asan       AddressSanitizer + UBSan build, full ctest suite
#              (build-asan/).  Catches heap errors in the DES arenas,
#              container misuse, signed overflow, bad shifts.
#   tsan       ThreadSanitizer build of the concurrency-sensitive
#              suites (test_exec, test_des, test_partitioned,
#              test_analysis_cache, test_obs, test_campaign minus its
#              slow CampaignResumeTest cases) plus one figure bench
#              and a tiny campaign, each at --jobs 4 (build-tsan/).
#              Catches races in the thread pool, the sweep runner,
#              the analysis cache, RunLog, the ledger writer and the
#              bench/campaign worker fan-out.
#   contracts  Debug build with -DRSIN_CONTRACTS=ON, full ctest suite
#              (build-contracts/).  Runtime invariants fire: calendar
#              heap order, per-fire time monotonicity, task
#              conservation, sweep seed uniqueness.
#   lint       Build rsin_lint and run it over src/, bench/, examples/,
#              tools/ and tests/ filtered through the committed
#              baseline (reuses build/ if configured, else
#              build-lint/).  Fails on any non-baselined finding.
#   tidy       clang-tidy over the library sources (skips with a
#              notice when clang-tidy is not installed).
#   bench      Release build of bench/micro_kernels compared against
#              the committed BENCH_baseline.json (build-bench/).
#              Fails on a >30% slowdown in the solver / DES families.
#   all        asan, tsan, contracts, lint, tidy, bench in sequence;
#              fails if any mode fails.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
mode="${1:-}"
[ $# -gt 0 ] && shift

run_asan() {
    build="$repo/build-asan"
    cmake -B "$build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
        "$@"
    cmake --build "$build" -j "$(nproc)"
    (cd "$build" && ctest -j "$(nproc)" --output-on-failure)
}

run_tsan() {
    build="$repo/build-tsan"
    cmake -B "$build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
        "$@"
    cmake --build "$build" --target test_exec test_des test_partitioned \
        test_analysis_cache test_obs test_campaign rsin_campaign \
        fig04_sbus_ratio01 -j "$(nproc)"
    status=0
    for t in test_exec test_des test_partitioned test_analysis_cache \
             test_obs; do
        echo "== TSan: $t =="
        "$build/tests/$t" || status=1
    done
    # The resume tests solve the 495-phase OMEGA chain for ~30-60 s
    # each without instrumentation; the concurrent ledger test and the
    # export test (which drives the TSan-built rsin_campaign) stay in.
    echo "== TSan: test_campaign =="
    "$build/tests/test_campaign" --gtest_filter='-CampaignResumeTest.*' ||
        status=1
    echo "== TSan: fig04_sbus_ratio01 --jobs 4 =="
    "$build/bench/fig04_sbus_ratio01" --jobs 4 > /dev/null || status=1
    echo "== TSan: rsin_campaign --jobs 4 =="
    ledger="$build/tsan_campaign"
    rm -rf "$ledger"
    "$build/examples/rsin_campaign" '8/8x1x1 SBUS/2' --ratios 0.5 \
        --steps 2 --tasks 300 --replications 2 --seed 3 --jobs 4 \
        --ledger "$ledger" > /dev/null || status=1
    return $status
}

run_contracts() {
    build="$repo/build-contracts"
    cmake -B "$build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=Debug \
        -DRSIN_CONTRACTS=ON \
        "$@"
    cmake --build "$build" -j "$(nproc)"
    (cd "$build" && ctest -j "$(nproc)" --output-on-failure)
}

run_lint() {
    # Reuse the main build tree when it is already configured so the
    # linter binary is shared with the ctest registration.
    if [ -f "$repo/build/CMakeCache.txt" ]; then
        build="$repo/build"
    else
        build="$repo/build-lint"
        cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release "$@"
    fi
    cmake --build "$build" --target rsin_lint -j "$(nproc)"
    # Whole-tree run with per-phase timings; gate the wall time so the
    # linter never quietly becomes the slow part of the loop.
    timings=$("$build/tools/rsin_lint/rsin_lint" --root "$repo" \
        --ratchet --timings \
        --baseline "$repo/tools/rsin_lint/baseline.json" 2>&1 >&3) ||
        { echo "$timings" >&2; exit 1; }
    echo "$timings" >&2
    total=$(echo "$timings" |
        sed -n 's/.*total=\([0-9][0-9]*\)ms.*/\1/p')
    if [ -n "$total" ] && [ "$total" -ge 1000 ]; then
        echo "check.sh: whole-tree lint took ${total}ms" \
             "(budget < 1000ms)" >&2
        exit 1
    fi
} 3>&1

run_tidy() {
    "$repo/scripts/check_tidy.sh" "$@"
}

run_bench() {
    "$repo/scripts/check_bench.sh" "$@"
}

case "$mode" in
  asan)      run_asan "$@" ;;
  tsan)      run_tsan "$@" ;;
  contracts) run_contracts "$@" ;;
  lint)      run_lint "$@" ;;
  tidy)      run_tidy "$@" ;;
  bench)     run_bench "$@" ;;
  all)
    status=0
    for m in asan tsan contracts lint tidy bench; do
        echo "==== check.sh: $m ===="
        "run_$m" "$@" || { echo "check.sh: mode '$m' FAILED"; status=1; }
    done
    exit $status
    ;;
  *)
    echo "usage: $0 {asan|tsan|contracts|lint|tidy|bench|all} [cmake args...]" >&2
    exit 2
    ;;
esac
