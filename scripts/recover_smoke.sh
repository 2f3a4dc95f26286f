#!/usr/bin/env bash
# Crash-recovery smoke test (docs/durability.md): run a durable `mc3 serve
# --listen` under loadgen churn, kill -9 it at a (deterministically)
# randomized point, and assert that
#
#   mc3 recover  ==  offline replay of the surviving WAL prefix
#
# byte for byte, for every one of $ITERATIONS kill points — the durability
# invariant is that the recovered state equals replaying exactly the
# batches that reached the log, no more, no less. The data dir carries over
# between iterations (recovery chains across crashes), the server keeps
# checkpointing (--checkpoint-every), and --keep-wal-segments preserves the
# full history so the offline replay can start from the base workload.
# A final clean restart + drain checks the recovered server still serves.
#
# Usage: scripts/recover_smoke.sh [build-dir] [iterations]
# Artifacts are left in ./recover_smoke_artifacts for CI upload.
set -euo pipefail

BUILD_DIR="${1:-build}"
ITERATIONS="${2:-20}"
MC3="$BUILD_DIR/tools/mc3"
LOADGEN="$BUILD_DIR/tools/mc3_loadgen"
ART_DIR="recover_smoke_artifacts"

for bin in "$MC3" "$LOADGEN"; do
  if [ ! -x "$bin" ]; then
    echo "recover_smoke: missing binary $bin (build mc3 and mc3_loadgen first)" >&2
    exit 2
  fi
done

rm -rf "$ART_DIR"
mkdir -p "$ART_DIR"
WORKLOAD="$ART_DIR/workload.csv"
DATA_DIR="$ART_DIR/data"
PORT_FILE="$ART_DIR/port"

"$MC3" generate --dataset synthetic --n 60 --seed 5 -o "$WORKLOAD"

SERVER_PID=""
LOADGEN_PID=""
cleanup() {
  [ -n "$LOADGEN_PID" ] && kill -9 "$LOADGEN_PID" 2>/dev/null || true
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
}
trap cleanup EXIT

start_server() {
  local log="$1"
  shift
  rm -f "$PORT_FILE"
  "$MC3" serve "$WORKLOAD" --listen 0 --port-file "$PORT_FILE" \
    --default-cost 2 --data-dir "$DATA_DIR" --checkpoint-every 7 \
    --keep-wal-segments "$@" >"$log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && return 0
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "recover_smoke: server exited before listening" >&2
      cat "$log" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "recover_smoke: timed out waiting for the port file" >&2
  cat "$log" >&2
  return 1
}

for i in $(seq 1 "$ITERATIONS"); do
  # Chain crashes in groups of five: within a chain each life recovers the
  # previous one's data dir, which keeps exercising snapshot + WAL-tail
  # recovery across restarts without letting the offline replay (the full
  # history every iteration) grow quadratically in the loop length.
  if [ $(( (i - 1) % 5 )) -eq 0 ]; then rm -rf "$DATA_DIR"; fi
  LOG="$ART_DIR/server_$i.log"
  start_server "$LOG"

  # Open-loop churn; no --shutdown — this server dies by SIGKILL. Keep
  # --ops modest: the generator materializes its whole op schedule up
  # front, and the kill window below starts ~50 ms in.
  "$LOADGEN" --port-file "$PORT_FILE" --qps 2000 --ops 5000 \
    --seed "$i" --remove-every 3 >"$ART_DIR/loadgen_$i.log" 2>&1 &
  LOADGEN_PID=$!

  # Deterministically "random" kill point: 50..449 ms into the churn, a
  # different phase every iteration (7919 is prime to 400).
  DELAY=$(awk "BEGIN{printf \"%.3f\", 0.05 + (($i * 7919) % 400) / 1000}")
  sleep "$DELAY"
  kill -9 "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
  kill -9 "$LOADGEN_PID" 2>/dev/null || true
  wait "$LOADGEN_PID" 2>/dev/null || true
  LOADGEN_PID=""

  # The surviving WAL prefix IS the acknowledged history. Replaying it
  # offline from the base workload must reproduce exactly what recovery
  # (latest snapshot + WAL tail) reconstructs.
  DUMP="$ART_DIR/wal_dump_$i.txt"
  "$MC3" wal dump --data-dir "$DATA_DIR" -o "$DUMP" \
    2>"$ART_DIR/wal_dump_$i.log"
  "$MC3" serve "$WORKLOAD" --trace "$DUMP" --default-cost 2 \
    --solution-out "$ART_DIR/expected_$i.txt" \
    >"$ART_DIR/replay_$i.log" 2>&1
  "$MC3" recover "$WORKLOAD" --data-dir "$DATA_DIR" --default-cost 2 \
    --solution-out "$ART_DIR/recovered_$i.txt" \
    >"$ART_DIR/recover_$i.log" 2>&1

  if ! cmp -s "$ART_DIR/expected_$i.txt" "$ART_DIR/recovered_$i.txt"; then
    echo "recover_smoke: iteration $i: recovered solution differs from the" \
         "offline WAL replay (kill after ${DELAY}s)" >&2
    diff "$ART_DIR/expected_$i.txt" "$ART_DIR/recovered_$i.txt" >&2 || true
    exit 1
  fi
  RECORDS=$(grep -o '[0-9]* records' "$ART_DIR/wal_dump_$i.log" | head -1)
  echo "recover_smoke: iteration $i OK (kill after ${DELAY}s, $RECORDS)"
done

# The WAL must have actually seen traffic, or the loop proved nothing.
FINAL_RECORDS=$("$MC3" wal stats --data-dir "$DATA_DIR" |
  sed -n 's/^records:[[:space:]]*\([0-9]*\).*/\1/p')
if [ "${FINAL_RECORDS:-0}" -eq 0 ]; then
  echo "recover_smoke: no WAL records were ever written — the kill points" \
       "never let an update through; lower the delay floor" >&2
  exit 1
fi

# Final life: a clean restart must report recovery and then serve + drain.
LOG="$ART_DIR/server_final.log"
start_server "$LOG"
"$LOADGEN" --quick --port-file "$PORT_FILE" --shutdown \
  --report "$ART_DIR/load_report.json" >"$ART_DIR/loadgen_final.log" 2>&1
if ! wait "$SERVER_PID"; then
  echo "recover_smoke: recovered server exited non-zero after drain" >&2
  cat "$LOG" >&2
  exit 1
fi
SERVER_PID=""
grep -q '^recovered:' "$LOG"
grep -q '^drained:' "$LOG"

echo "recover_smoke: OK ($ITERATIONS crash-recovery iterations," \
     "$FINAL_RECORDS WAL records)"
grep '^recovered:' "$LOG"
