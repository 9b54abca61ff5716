#!/usr/bin/env bash
# 16-node localhost cluster harness for the emerged daemon.
#
# Boots one seed daemon plus N-1 joiners on 127.0.0.1, waits for the Chord
# ring to converge (successor-walk closes over all N nodes), submits two
# timed-release sessions with T seconds to emergence — a joint one, then a
# share one at the default carriers (k+1) and threshold (k) — stays up as
# the receiver of each, and asserts
#   * each secret emerges within TOLERANCE seconds of its tr,
#   * no daemon counted a single malformed wire frame, and
#   * every node answers a metrics query over the wire (status --metrics).
#
# Usage: tools/cluster.sh [BUILD_DIR] [NODES] [T_SECONDS] [TOLERANCE]
# Exit 0 on success. Daemon logs live in $LOG_DIR (kept on failure so CI
# can upload them).
set -u -o pipefail

BUILD_DIR="${1:-build}"
NODES="${2:-16}"
T_SECONDS="${3:-20}"
TOLERANCE="${4:-3}"
BASE_PORT="${BASE_PORT:-42100}"
EMERGED="$BUILD_DIR/tools/emerged"
LOG_DIR="${LOG_DIR:-$BUILD_DIR/cluster-logs}"
SEED_ADDR="127.0.0.1:$BASE_PORT"

if [ ! -x "$EMERGED" ]; then
  echo "cluster.sh: $EMERGED not built (cmake --build $BUILD_DIR --target emerged)" >&2
  exit 2
fi

mkdir -p "$LOG_DIR"
rm -f "$LOG_DIR"/node-*.log "$LOG_DIR"/submit.log "$LOG_DIR"/status.log

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

echo "cluster.sh: starting $NODES daemons on 127.0.0.1:$BASE_PORT+"
for i in $(seq 0 $((NODES - 1))); do
  port=$((BASE_PORT + i))
  args=(serve --listen="127.0.0.1:$port" --name="node-$i" \
        --rng-seed=$((1000 + i)) --stabilize-interval=0.25 \
        --repair-interval=1.0 --status-interval=5)
  if [ "$i" -ne 0 ]; then
    args+=(--seed-node="$SEED_ADDR")
  fi
  "$EMERGED" "${args[@]}" >"$LOG_DIR/node-$i.log" 2>&1 &
  PIDS+=($!)
done

echo "cluster.sh: waiting for the ring to converge"
converged=0
for attempt in $(seq 1 60); do
  sleep 1
  if "$EMERGED" status --daemon="$SEED_ADDR" --expect-ring="$NODES" \
      >"$LOG_DIR/status.log" 2>&1; then
    converged=1
    echo "cluster.sh: ring of $NODES converged after ${attempt}s"
    break
  fi
done
if [ "$converged" -ne 1 ]; then
  echo "cluster.sh: FAIL - ring did not converge; last walk:" >&2
  cat "$LOG_DIR/status.log" >&2
  exit 1
fi

for scheme in joint share; do
  echo "cluster.sh: submitting a $scheme session with T=${T_SECONDS}s"
  if ! "$EMERGED" submit --daemon="$SEED_ADDR" \
      --message="the emerged $scheme cluster secret" --T="$T_SECONDS" \
      --k=2 --l=3 --scheme="$scheme" --await --tolerance="$TOLERANCE" \
      | tee -a "$LOG_DIR/submit.log"; then
    echo "cluster.sh: FAIL - $scheme submit/emergence failed; see $LOG_DIR" >&2
    exit 1
  fi
done

echo "cluster.sh: verifying a clean ring and a metrics answer from every node"
if ! "$EMERGED" status --daemon="$SEED_ADDR" --expect-ring="$NODES" \
    --expect-clean --metrics | tee "$LOG_DIR/status.log"; then
  echo "cluster.sh: FAIL - post-run ring check; see $LOG_DIR" >&2
  exit 1
fi

echo "cluster.sh: OK - both secrets emerged on time, ring clean"
exit 0
