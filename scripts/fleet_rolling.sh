#!/usr/bin/env bash
# The rolling-upgrade smoke: the elastic-fleet contract proved end to end on
# a REAL loopback process fleet — the CI `fleet-rolling` job's payload,
# runnable locally via scripts/check.sh --fleet (or directly:
# scripts/fleet_rolling.sh <build_dir>).
#
#   1. Seeds 2-shard snapshot files, then RESHARDs them into a 4-shard
#      layout with `dataset_tool reshard` (the old files stay untouched).
#   2. Boots the OLD fleet (2 shards x 2 replicas), a coordinator over it,
#      and an in-process sharded reference server from the same snapshots.
#   3. Under live /query + /whynot traffic:
#        a. boots the NEW fleet (4 shards x 2 replicas) — with ONE replica
#           deliberately still dead,
#        b. cuts the coordinator over with POST /admin/layout (lazy connect
#           admits the dead endpoint as pending-validation),
#        c. kills the old fleet once drained,
#        d. boots the late replica on its reserved port (validated on first
#           contact), adds and removes an extra replica via
#           POST /admin/replicas,
#        e. kill -9s and restarts EVERY new-fleet replica, one at a time.
#   4. Fails on ANY non-200 client response, ANY payload divergence from the
#      reference, a layout generation that did not advance as scripted, or a
#      run where no replica was ever lazily validated (the dead-endpoint
#      window must actually bite).
#   5. Also asserts the build-identity surface: --version on both binaries
#      prints the same git sha + shardrpc range that /health reports.
#
# shellcheck disable=SC2154  # pid_*/port_* are bound via start_replica's eval.
set -euo pipefail

build_dir="${1:?usage: $0 <build_dir>}"
for bin in yask_server_demo yask_shard_server dataset_tool; do
  if [[ ! -x "${build_dir}/${bin}" ]]; then
    echo "fleet_rolling: ${build_dir}/${bin} not built" >&2
    exit 1
  fi
done

work="$(mktemp -d)"
declare -a fleet_pids=()
cleanup() {
  local pid
  for pid in "${fleet_pids[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$work"
}
trap cleanup EXIT

# Polls a server log for the bound port ("listening on 127.0.0.1:<port>").
wait_port() {
  local log="$1" port="" tries=0
  while [[ -z "$port" ]]; do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
              "$log" 2>/dev/null | head -1)"
    if [[ -z "$port" ]]; then
      tries=$((tries + 1))
      if [[ "$tries" -gt 100 ]]; then
        echo "fleet_rolling: server did not come up; log:" >&2
        cat "$log" >&2
        return 1
      fi
      sleep 0.1
    fi
  done
  echo "$port"
}

# --- Build identity: --version must agree with itself across binaries. ---
demo_version="$("${build_dir}/yask_server_demo" --version)"
shard_version="$("${build_dir}/yask_shard_server" --version)"
echo "fleet_rolling: ${demo_version}"
echo "fleet_rolling: ${shard_version}"
if ! grep -q 'shardrpc=[0-9][0-9]*\.\.[0-9][0-9]*' <<< "$demo_version"; then
  echo "fleet_rolling: FAILED (--version missing the shardrpc range)" >&2
  exit 1
fi
build_sha="$(awk '{print $2}' <<< "$demo_version")"
if [[ "$(awk '{print $2}' <<< "$shard_version")" != "$build_sha" ]]; then
  echo "fleet_rolling: FAILED (coordinator and shard server shas differ)" >&2
  exit 1
fi

echo "fleet_rolling: seeding 2-shard snapshots"
"${build_dir}/yask_server_demo" --shards 2 --snapshot "${work}/state" \
  > "${work}/seed.log" 2>&1

echo "fleet_rolling: resharding 2 -> 4 shards"
"${build_dir}/dataset_tool" reshard "${work}/state" "${work}/state4" 4 \
  > "${work}/reshard.log" 2>&1
for shard in 0 1 2 3; do
  if [[ ! -f "${work}/state4.shard-${shard}.snap" ]]; then
    echo "fleet_rolling: resharded state4.shard-${shard}.snap missing" >&2
    cat "${work}/reshard.log" >&2
    exit 1
  fi
done
# The old layout must be untouched — it is still serving.
for shard in 0 1; do
  if [[ ! -f "${work}/state.shard-${shard}.snap" ]]; then
    echo "fleet_rolling: reshard destroyed the serving layout" >&2
    exit 1
  fi
done

# start_replica <prefix> <shard> <replica> [port] -> pid_<p>_<s>_<r> etc.
start_replica() {
  local prefix="$1" s="$2" r="$3" port_arg=()
  [[ "${4:-}" != "" ]] && port_arg=(--port "$4")
  "${build_dir}/yask_shard_server" \
    --snapshot "${work}/${prefix}.shard-${s}.snap" \
    ${port_arg[@]:+"${port_arg[@]}"} \
    > "${work}/${prefix}-${s}-${r}.log" 2>&1 &
  local pid=$!
  disown "$pid"  # kill -9 is the point; keep bash's job reaper quiet.
  fleet_pids+=("$pid")
  local port
  port="$(wait_port "${work}/${prefix}-${s}-${r}.log")"
  eval "pid_${prefix}_${s}_${r}=${pid}"
  eval "port_${prefix}_${s}_${r}=${port}"
}

echo "fleet_rolling: booting the old fleet (2 shards x 2 replicas)"
for s in 0 1; do
  for r in 0 1; do
    start_replica state "$s" "$r"
  done
done
# shellcheck disable=SC2154  # port_state_*_* are set by start_replica's eval.
old_spec="127.0.0.1:${port_state_0_0}|127.0.0.1:${port_state_0_1},127.0.0.1:${port_state_1_0}|127.0.0.1:${port_state_1_1}"

"${build_dir}/yask_server_demo" --serve --remote-shards "$old_spec" \
  > "${work}/coordinator.log" 2>&1 &
fleet_pids+=("$!")
disown "$!"
coordinator_port="$(wait_port "${work}/coordinator.log")"

"${build_dir}/yask_server_demo" --serve --shards 2 \
  --snapshot "${work}/state" > "${work}/reference.log" 2>&1 &
fleet_pids+=("$!")
disown "$!"
reference_port="$(wait_port "${work}/reference.log")"
echo "fleet_rolling: coordinator :${coordinator_port}, reference :${reference_port}"

# Reserve a port for the late replica: boot shard 3 replica 1, note the
# port, kill it. The cutover spec names this endpoint while it is DEAD.
start_replica state4 3 1
# shellcheck disable=SC2154  # set by start_replica's eval.
late_port="${port_state4_3_1}"
kill -9 "${pid_state4_3_1}"
echo "fleet_rolling: reserved :${late_port} for the late replica (dead at cutover)"

strip_timing() {
  sed -E 's/"response_millis":[0-9.eE+-]+/"response_millis":0/g'
}

# fetch <port> <method> <path> <body> <outfile> -> echoes the HTTP code.
fetch() {
  if [[ "$2" == GET ]]; then
    curl -s -o "$5" -w '%{http_code}' "http://127.0.0.1:$1$3" || echo 000
  else
    curl -s -o "$5" -w '%{http_code}' -X POST \
      -H 'Content-Type: application/json' \
      --data "$4" "http://127.0.0.1:$1$3" || echo 000
  fi
}

# admin <path> <body> <want_status> <label>: POSTs to the coordinator's
# admin plane and fails the run on an unexpected status.
admin() {
  local code
  code="$(fetch "$coordinator_port" POST "$1" "$2" "${work}/admin.json")"
  if [[ "$code" != "$3" ]]; then
    echo "fleet_rolling: $4: got HTTP ${code}, want $3:" >&2
    cat "${work}/admin.json" >&2
    exit 1
  fi
}

# expect_generation <n> <label>: asserts GET /admin/layout reports it.
expect_generation() {
  local code gen
  code="$(fetch "$coordinator_port" GET /admin/layout "" "${work}/layout.json")"
  gen="$(grep -o '"generation":[0-9]*' "${work}/layout.json" | cut -d: -f2)"
  if [[ "$code" != 200 || "$gen" != "$1" ]]; then
    echo "fleet_rolling: $2: layout generation ${gen:-?} (HTTP ${code}), want $1" >&2
    cat "${work}/layout.json" >&2
    exit 1
  fi
}

query_body='{"x":114.158,"y":22.281,"keywords":"clean comfortable","k":3}'
rounds=46
failures=0
new_spec=""
extra_pid=""
lazy_seen=0
for round in $(seq 1 "$rounds"); do
  case "$round" in
    4)
      expect_generation 1 "pre-cutover"
      ;;
    6)
      echo "fleet_rolling: booting the new fleet (4 shards x 2 replicas, one dead)"
      for s in 0 1 2 3; do
        start_replica state4 "$s" 0
      done
      for s in 0 1 2; do
        start_replica state4 "$s" 1
      done
      # shellcheck disable=SC2154  # port_state4_*_* set by start_replica.
      new_spec="127.0.0.1:${port_state4_0_0}|127.0.0.1:${port_state4_0_1},127.0.0.1:${port_state4_1_0}|127.0.0.1:${port_state4_1_1},127.0.0.1:${port_state4_2_0}|127.0.0.1:${port_state4_2_1},127.0.0.1:${port_state4_3_0}|127.0.0.1:${late_port}"
      ;;
    8)
      echo "fleet_rolling: cutover — POST /admin/layout to the 4-shard fleet"
      admin /admin/layout "{\"remote_shards\":\"${new_spec}\"}" 200 cutover
      expect_generation 2 "post-cutover"
      ;;
    12)
      echo "fleet_rolling: old fleet drained — killing all 4 old replicas"
      for s in 0 1; do
        for r in 0 1; do
          eval "kill -9 \"\${pid_state_${s}_${r}}\""
        done
      done
      ;;
    16)
      echo "fleet_rolling: booting the late replica on reserved :${late_port}"
      start_replica state4 3 1 "$late_port"
      ;;
    18)
      # Force first contact with the pending replica: kill its validated
      # sibling, so shard 3 traffic MUST run the deferred handshake.
      echo "fleet_rolling: killing shard 3's validated replica — traffic must lazily validate the late one"
      kill -9 "${pid_state4_3_0}"
      ;;
    22)
      echo "fleet_rolling: restarting shard 3 replica 0 on :${port_state4_3_0}"
      start_replica state4 3 0 "${port_state4_3_0}"
      ;;
    23)
      # The lazy-validation evidence lives in generation 2's corpus
      # registry; the replica add/remove below swaps in a fresh
      # RemoteCorpus whose counters start at zero. Scrape the proof
      # now, while generation 2 is still the active deployment.
      curl -s "http://127.0.0.1:${coordinator_port}/metrics" \
        > "${work}/metrics-gen2.txt"
      lazy_seen="$(grep -E '^yask_replica_lazy_validations_total(\{[^}]*\})? ' \
                     "${work}/metrics-gen2.txt" \
                   | awk '{sum += $NF} END {print sum + 0}')"
      ;;
    24)
      echo "fleet_rolling: POST /admin/replicas — adding a third shard-0 replica"
      start_replica state4 0 2
      # shellcheck disable=SC2154  # set by start_replica's eval.
      extra_pid="${pid_state4_0_2}"
      admin /admin/replicas \
        "{\"shard\":0,\"add\":\"127.0.0.1:${port_state4_0_2}\"}" 200 add-replica
      expect_generation 3 "post-add"
      ;;
    28)
      echo "fleet_rolling: POST /admin/replicas — removing it again"
      admin /admin/replicas \
        "{\"shard\":0,\"remove\":\"127.0.0.1:${port_state4_0_2}\"}" 200 \
        remove-replica
      expect_generation 4 "post-remove"
      kill -9 "$extra_pid"
      ;;
    30|32|34|36|38|40|42|44)
      # The rolling restart proper: every new-fleet replica, one at a time.
      idx=$(((round - 30) / 2))
      s=$((idx / 2))
      r=$((idx % 2))
      eval "pid=\${pid_state4_${s}_${r}}"
      eval "port=\${port_state4_${s}_${r}}"
      echo "fleet_rolling: rolling restart ${idx}: shard ${s} replica ${r} (:${port})"
      kill -9 "$pid"
      # kill returns before the replica has exited; until it has, its
      # listening socket still holds the port and the restart's bind fails.
      while kill -0 "$pid" 2>/dev/null; do sleep 0.05; done
      start_replica state4 "$s" "$r" "$port"
      ;;
  esac

  whynot_body="{\"query_id\":${round},\"missing\":[81],\"model\":\"both\"}"
  for call in query whynot; do
    if [[ "$call" == query ]]; then body="$query_body"; else body="$whynot_body"; fi
    coord_code="$(fetch "$coordinator_port" POST "/${call}" "$body" "${work}/coord.json")"
    ref_code="$(fetch "$reference_port" POST "/${call}" "$body" "${work}/ref.json")"
    if [[ "$coord_code" != 200 || "$ref_code" != 200 ]]; then
      echo "fleet_rolling: round ${round} /${call}: coordinator=${coord_code} reference=${ref_code} (want 200/200)" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! diff <(strip_timing < "${work}/coord.json") \
              <(strip_timing < "${work}/ref.json") > /dev/null; then
      echo "fleet_rolling: round ${round} /${call}: payload DIVERGED" >&2
      failures=$((failures + 1))
    fi
  done
done

echo "fleet_rolling: checking the lazy-validation window actually bit"
if [[ "${lazy_seen:-0}" -lt 1 ]]; then
  echo "fleet_rolling: FAILED (no replica was ever lazily validated — the dead-endpoint window did not bite)" >&2
  exit 1
fi
echo "fleet_rolling: ${lazy_seen} lazy validation(s) absorbed"

# /health must agree with --version on the coordinator's build identity.
health="$(curl -s "http://127.0.0.1:${coordinator_port}/health")"
health_sha="$(grep -o '"git_sha":"[^"]*"' <<< "$health" | head -1 | cut -d'"' -f4)"
if [[ "$health_sha" != "$build_sha" ]]; then
  echo "fleet_rolling: FAILED (/health git_sha '${health_sha}' != --version '${build_sha}')" >&2
  exit 1
fi

expect_generation 4 "final"
echo "fleet_rolling: ${rounds} rounds, ${failures} failures"
if [[ "$failures" -ne 0 ]]; then
  echo "fleet_rolling: FAILED (${failures} bad responses)" >&2
  exit 1
fi
echo "fleet_rolling: OK — reshard + cutover + rolling restart stayed invisible, payloads byte-identical"
