#!/usr/bin/env bash
# Two-node snaked cluster smoke test.
#
# Boots two snaked processes on localhost as mutual peers, runs the same
# sweep through each node, and asserts from /metrics that cells crossed the
# cluster as forwarded requests, which the owner answers from its cache or
# simulates, instead of being re-simulated. Exercises the real binary and
# real HTTP transport end to end — the in-process equivalent lives in
# internal/service/cluster_test.go.
#
# Usage: scripts/cluster_smoke.sh [port_a] [port_b]
set -euo pipefail

cd "$(dirname "$0")/.."

PORT_A="${1:-18080}"
PORT_B="${2:-18081}"
URL_A="http://127.0.0.1:${PORT_A}"
URL_B="http://127.0.0.1:${PORT_B}"

WORK="$(mktemp -d)"
PID_A=""
PID_B=""
cleanup() {
  [ -n "$PID_A" ] && kill "$PID_A" 2>/dev/null || true
  [ -n "$PID_B" ] && kill "$PID_B" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/snaked" ./cmd/snaked

# Tiny scale so the whole grid simulates in seconds; per-node cache dirs so
# the disk tier is exercised too.
COMMON=(-workers 2 -sms 2 -warps 16 -ctas 4 -iters 2)
echo "== boot $URL_A and $URL_B"
"$WORK/snaked" -addr "127.0.0.1:${PORT_A}" "${COMMON[@]}" \
  -self "$URL_A" -peers "$URL_B" -cache-dir "$WORK/cache-a" \
  >"$WORK/a.log" 2>&1 &
PID_A=$!
"$WORK/snaked" -addr "127.0.0.1:${PORT_B}" "${COMMON[@]}" \
  -self "$URL_B" -peers "$URL_A" -cache-dir "$WORK/cache-b" \
  >"$WORK/b.log" 2>&1 &
PID_B=$!

wait_up() {
  for _ in $(seq 1 50); do
    if curl -sf "$1/v1/benchmarks" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "node $1 did not come up" >&2
  cat "$WORK"/*.log >&2
  exit 1
}
wait_up "$URL_A"
wait_up "$URL_B"

# A wide grid (11 benches x 2 mechs = 22 cells) so rendezvous hashing is
# essentially certain to split ownership across both nodes.
SWEEP='{"benches":["cp","lps","lib","mum","backprop","hotspot","srad","lud","nw","histo","mrq"],"mechs":["baseline","snake"]}'

run_sweep() {
  local url="$1"
  local id
  # The response is pretty-printed; the sweep id is the first "id" field
  # (jobs carry their own r… ids further down).
  id="$(curl -sf -XPOST "$url/v1/sweeps" -d "$SWEEP" |
    sed -n 's/.*"id": *"\(s[^"]*\)".*/\1/p' | head -1)"
  [ -n "$id" ] || { echo "sweep submit failed on $url" >&2; exit 1; }
  # The stream endpoint blocks until every cell is terminal — no polling.
  curl -sfN "$url/v1/sweeps/$id/stream" >"$WORK/stream.$id"
  grep -q '"stream_done":true' "$WORK/stream.$id" || {
    echo "stream from $url ended without summary" >&2; exit 1; }
  if grep -q '"status":"failed"' "$WORK/stream.$id"; then
    echo "sweep on $url had failed cells" >&2
    cat "$WORK/stream.$id" >&2
    exit 1
  fi
}

metric() { # metric <url> <sample-prefix>  -> summed value
  curl -sf "$1/metrics" | awk -v p="$2" '
    index($0, p) == 1 { sum += $NF } END { printf "%d\n", sum + 0 }'
}

echo "== sweep through node A (cells owned by B are forwarded to B)"
run_sweep "$URL_A"
FWD_A="$(metric "$URL_A" 'snaked_forwards_total{result="ok"}')"
echo "   node A forwarded $FWD_A cells to node B"

echo "== same sweep through node B (cells simulated on A are forwarded to A, which answers from its cache)"
run_sweep "$URL_B"

FWD_IN_A="$(metric "$URL_A" 'snaked_forwarded_in_total')"
FWD_IN_B="$(metric "$URL_B" 'snaked_forwarded_in_total')"
CROSS=$((FWD_IN_A + FWD_IN_B))
echo "   forwarded-in: A=$FWD_IN_A B=$FWD_IN_B"

if [ "$CROSS" -lt 1 ]; then
  echo "FAIL: no cross-node traffic after two sweeps" >&2
  curl -s "$URL_A/metrics" >&2 || true
  curl -s "$URL_B/metrics" >&2 || true
  exit 1
fi

# Exactly-once across the cluster: 22 distinct cells were swept twice, so
# total simulations across both nodes must be exactly 22. The wall-clock
# histogram counts only real local simulations (never cache or forward
# serves), so its _count sum is the per-node simulation count.
SIM_A="$(metric "$URL_A" 'snaked_sim_wall_ms_count')"
SIM_B="$(metric "$URL_B" 'snaked_sim_wall_ms_count')"
echo "   simulations: A=$SIM_A B=$SIM_B (want 22 total)"
if [ "$((SIM_A + SIM_B))" -ne 22 ]; then
  echo "FAIL: cluster simulated $((SIM_A + SIM_B)) cells, want exactly 22" >&2
  exit 1
fi

echo "PASS: cross-node traffic=$CROSS, exactly-once over 22 cells"
