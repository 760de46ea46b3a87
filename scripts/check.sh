#!/usr/bin/env bash
# Tier-1 verify (ROADMAP.md), end to end: configure, build, run the test
# suite. Run from anywhere; builds into <repo>/build.
#
#   scripts/check.sh              # configure + build + ctest, then
#                                 # configure + build servebench/'s
#                                 # standalone project (src/ plus
#                                 # bench/bench_util.h) into
#                                 # build/servebench, compile only, so a
#                                 # change that breaks the serving
#                                 # benchmark's build fails here
#   scripts/check.sh --bench      # additionally run bench_snapshot,
#                                 # bench_sharded, bench_whynot_sharded,
#                                 # bench_remote_shards,
#                                 # bench_replica_failover and bench_load,
#                                 # leaving BENCH_*.json in the build dir
#                                 # (each sharded/remote bench fails the run
#                                 # on any divergence from the unsharded
#                                 # answers; the failover bench additionally
#                                 # fails on any client-visible error while
#                                 # replicas are killed under load; the load
#                                 # bench drives open-loop traffic over 64
#                                 # keep-alive connections and fails on any
#                                 # non-200 or payload divergence), then
#                                 # the google-benchmark harnesses of the
#                                 # paper's experiments when
#                                 # google-benchmark is installed:
#                                 # bench_kw_adapt (basic vs keyword-mask
#                                 # columns at every N), bench_pref_adjust,
#                                 # bench_explanation, bench_lambda_effect,
#                                 # bench_end_to_end,
#                                 # bench_refinement_quality, bench_topk,
#                                 # bench_ablation and bench_index_build,
#                                 # each with a short
#                                 # min-time, five repetitions reported as
#                                 # aggregates (bench_compare.py reads the
#                                 # medians) and its JSON in
#                                 # BENCH_<name>.json (their printed tables
#                                 # go to stderr)
#   scripts/check.sh --fleet      # additionally run scripts/fleet_smoke.sh:
#                                 # a real loopback process fleet (2 shards
#                                 # x 2 replicas of yask_shard_server booted
#                                 # from snapshot files behind a coordinator)
#                                 # serving /query + /whynot while one
#                                 # replica is kill -9ed and restarted —
#                                 # asserts zero non-200 responses, payload
#                                 # parity with the in-process sharded
#                                 # server, and that the /metrics failover
#                                 # counters moved across the kill window —
#                                 # and scripts/fleet_rolling.sh: the
#                                 # rolling-upgrade smoke (dataset_tool
#                                 # reshard 2 -> 4 shards, POST /admin/layout
#                                 # cutover, replica add/remove, and a
#                                 # kill -9 rolling restart of every replica,
#                                 # all under live traffic with byte parity)
#   scripts/check.sh --sanitize   # ASan/UBSan build of the whole tree into
#                                 # <repo>/build-sanitize + ctest under the
#                                 # sanitizers (use for the concurrency and
#                                 # shutdown tests; pair with TSAN_OPTIONS/
#                                 # a TSan toolchain for race hunting)
#   scripts/check.sh --ci         # machine-readable per-phase summaries:
#                                 # every phase emits one line
#                                 #   CHECK-RESULT {"phase":...,"status":
#                                 #   "pass"|"fail","seconds":N}
#                                 # before the run exits non-zero on the
#                                 # first failure, plus one
#                                 #   CHECK-RESULT fleet=<pass|fail|skipped>
#                                 # line so the fleet job is grep-able even
#                                 # when the smoke was not requested — what
#                                 # .github/workflows/ci.yml greps.
#
# The distributed suite alone: (cd build && ctest -L sharded) — that label
# covers the in-process sharding tests AND the remote shard/replica tier;
# the sanitize run below covers it too (full ctest includes every labelled
# test).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"

run_bench=0
run_sanitize=0
run_fleet=0
ci_mode=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    --sanitize) run_sanitize=1 ;;
    --fleet) run_fleet=1 ;;
    --ci) ci_mode=1 ;;
    *) echo "usage: $0 [--bench] [--fleet] [--sanitize] [--ci]" >&2; exit 2 ;;
  esac
done

# run_phase <name> <cmd...>: runs the command; in --ci mode emits one
# CHECK-RESULT line per phase. The first failing phase ends the run (later
# phases depend on its outputs) — after reporting.
run_phase() {
  local name="$1"
  shift
  local start end status
  start=$(date +%s)
  if "$@"; then
    status=pass
  else
    status=fail
  fi
  end=$(date +%s)
  if [[ "$ci_mode" -eq 1 ]]; then
    echo "CHECK-RESULT {\"phase\":\"${name}\",\"status\":\"${status}\",\"seconds\":$((end - start))}"
  fi
  if [[ "$status" == fail ]]; then
    echo "check.sh: phase '${name}' FAILED" >&2
    exit 1
  fi
}

if [[ "$run_sanitize" -eq 1 ]]; then
  sanitize_dir="${repo_root}/build-sanitize"
  sanitize_flags="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  run_phase sanitize-configure cmake -B "$sanitize_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$sanitize_flags" \
    -DCMAKE_EXE_LINKER_FLAGS="$sanitize_flags"
  run_phase sanitize-build cmake --build "$sanitize_dir" -j "$(nproc)"
  run_phase sanitize-ctest env -C "$sanitize_dir" \
    ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --output-on-failure --no-tests=error -j "$(nproc)"
  echo "check.sh: sanitize OK"
fi

run_phase configure cmake -B "$build_dir" -S "$repo_root"
run_phase build cmake --build "$build_dir" -j "$(nproc)"
# --no-tests=error: test registration is conditional on finding gtest, so a
# runner image without it must FAIL the gate, not green-light zero tests.
run_phase ctest env -C "$build_dir" ctest --output-on-failure --no-tests=error -j "$(nproc)"
run_phase servebench-configure cmake -S "${repo_root}/servebench" \
  -B "${build_dir}/servebench" -DCMAKE_BUILD_TYPE=RelWithDebInfo
run_phase servebench-build cmake --build "${build_dir}/servebench" -j "$(nproc)"

if [[ "$run_bench" -eq 1 ]]; then
  run_phase bench-snapshot env -C "$build_dir" ./bench_snapshot --json=BENCH_snapshot.json
  run_phase bench-sharded env -C "$build_dir" ./bench_sharded --json=BENCH_sharded.json
  run_phase bench-whynot-sharded env -C "$build_dir" ./bench_whynot_sharded --json=BENCH_whynot_sharded.json
  run_phase bench-remote-shards env -C "$build_dir" ./bench_remote_shards --json=BENCH_remote_shards.json
  run_phase bench-replica-failover env -C "$build_dir" ./bench_replica_failover --json=BENCH_replica_failover.json
  run_phase bench-load env -C "$build_dir" ./bench_load --json=BENCH_load.json
  for name in kw_adapt pref_adjust explanation lambda_effect end_to_end \
      refinement_quality topk ablation index_build; do
    if [[ -x "${build_dir}/bench_${name}" ]]; then
      run_phase "bench-${name//_/-}" env -C "$build_dir" sh -c \
        "./bench_${name} --benchmark_format=json --benchmark_min_time=0.05 --benchmark_repetitions=5 --benchmark_report_aggregates_only=true > BENCH_${name}.json"
    fi
  done
fi

# The fleet smokes emit their satellite CHECK-RESULT lines (pass/fail/
# skipped) so the CI fleet jobs stay grep-able even when the phase is off.
if [[ "$run_fleet" -eq 1 ]]; then
  fleet_status=pass
  "${repo_root}/scripts/fleet_smoke.sh" "$build_dir" || fleet_status=fail
  if [[ "$ci_mode" -eq 1 ]]; then
    echo "CHECK-RESULT fleet=${fleet_status}"
  fi
  if [[ "$fleet_status" == fail ]]; then
    echo "check.sh: phase 'fleet' FAILED" >&2
    exit 1
  fi
  rolling_status=pass
  "${repo_root}/scripts/fleet_rolling.sh" "$build_dir" || rolling_status=fail
  if [[ "$ci_mode" -eq 1 ]]; then
    echo "CHECK-RESULT fleet_rolling=${rolling_status}"
  fi
  if [[ "$rolling_status" == fail ]]; then
    echo "check.sh: phase 'fleet-rolling' FAILED" >&2
    exit 1
  fi
elif [[ "$ci_mode" -eq 1 ]]; then
  echo "CHECK-RESULT fleet=skipped"
  echo "CHECK-RESULT fleet_rolling=skipped"
fi

echo "check.sh: OK"
