#!/usr/bin/env bash
# End-to-end serving smoke test (docs/serving.md): start `mc3 serve
# --listen` on an ephemeral loopback port, drive it with a quick open-loop
# mc3_loadgen run, request a graceful drain, and assert
#
#   * zero lost requests (every admitted request was answered),
#   * at least one coalesced batch of size >= 2 (batching engaged),
#   * a schema-valid mc3.load_report/2 document,
#   * a clean (exit 0) server drain with passing engine invariants.
#
# A second pass repeats the run with durability on (--data-dir, see
# docs/durability.md) and additionally asserts the WAL recorded every
# update and that a restart on the same data dir recovers the state.
#
# A telemetry pass (docs/observability.md, "Serving telemetry") serves with
# trace sampling + export on while the loadgen scrapes the `metrics`
# exposition mid-run: the loadgen's reconcile gate cross-checks server
# counters against client-side accounting, the final exposition is kept as
# an artifact, and the exported Chrome trace must contain connected flow
# events ("ph":"s" .. "ph":"f"), the engine's own spans nested under the
# sampled batches (online_update, solve_component), and no dropped span.
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
# Artifacts (report + logs) are left in ./serve_smoke_artifacts for CI upload.
set -euo pipefail

BUILD_DIR="${1:-build}"
MC3="$BUILD_DIR/tools/mc3"
LOADGEN="$BUILD_DIR/tools/mc3_loadgen"
ART_DIR="serve_smoke_artifacts"

for bin in "$MC3" "$LOADGEN"; do
  if [ ! -x "$bin" ]; then
    echo "serve_smoke: missing binary $bin (build the mc3 and mc3_loadgen targets first)" >&2
    exit 2
  fi
done

rm -rf "$ART_DIR"
mkdir -p "$ART_DIR"
WORKLOAD="$ART_DIR/workload.csv"
PORT_FILE="$ART_DIR/port"

"$MC3" generate --dataset synthetic --n 40 --seed 3 -o "$WORKLOAD"

# Runs one serve + loadgen + drain round. $1 names the pass (artifact
# suffix); remaining args are appended to the server command line. Extra
# loadgen flags come in via $LOADGEN_EXTRA (space-separated).
run_pass() {
  local pass="$1"
  shift
  local report="$ART_DIR/load_report_$pass.json"
  local server_log="$ART_DIR/server_$pass.log"
  rm -f "$PORT_FILE"

  "$MC3" serve "$WORKLOAD" --listen 0 --port-file "$PORT_FILE" \
    --default-cost 2 "$@" >"$server_log" 2>&1 &
  SERVER_PID=$!

  # Ephemeral-port handshake: the server writes its bound port once
  # listening.
  for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "serve_smoke: $pass server exited before listening" >&2
      cat "$server_log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ ! -s "$PORT_FILE" ]; then
    echo "serve_smoke: timed out waiting for the $pass port file" >&2
    kill "$SERVER_PID" 2>/dev/null || true
    cat "$server_log" >&2
    exit 1
  fi

  # The loadgen exits non-zero on lost requests, on an invalid report, or
  # when no coalesced batch reached size 2; --shutdown drains the server.
  # shellcheck disable=SC2086  # LOADGEN_EXTRA is intentionally word-split
  "$LOADGEN" --quick --port-file "$PORT_FILE" --shutdown \
    --report "$report" --min-coalesced-batch 2 ${LOADGEN_EXTRA:-}

  if ! wait "$SERVER_PID"; then
    echo "serve_smoke: $pass server exited non-zero after drain" >&2
    cat "$server_log" >&2
    exit 1
  fi

  grep -q '"schema": "mc3.load_report/2"' "$report"
  grep -q '^drained:' "$server_log"
}

run_pass plain

# Read-heavy pass (docs/serving.md#lock-free-reads): 90% of the ops are
# solves answered on the lock-free read path while the remaining writes
# keep the coalescer folding, and the loadgen scrapes the exposition
# mid-run. The report must carry the split read/write latency summaries,
# and the scrape must show the server.read.* stage histograms and the
# view/epoch gauges that only the lock-free path populates.
LOADGEN_EXTRA="--read-ratio 0.9 --ops 400 --qps 2000 \
  --scrape-interval 0.02 --scrape-out $ART_DIR/exposition_readheavy.txt" \
  run_pass readheavy
grep -q '"read_ratio": 0.9' "$ART_DIR/load_report_readheavy.json"
grep -q '"read_latency_seconds"' "$ART_DIR/load_report_readheavy.json"
grep -q '"write_latency_seconds"' "$ART_DIR/load_report_readheavy.json"
grep -q '^mc3_server_read_acquire_solve_count ' \
  "$ART_DIR/exposition_readheavy.txt"
grep -q '^mc3_server_read_render_solve_count ' \
  "$ART_DIR/exposition_readheavy.txt"
grep -q '^mc3_engine_view_version ' "$ART_DIR/exposition_readheavy.txt"
grep -q '^mc3_engine_epoch_retired ' "$ART_DIR/exposition_readheavy.txt"

# Durable pass: same drill with a write-ahead log and checkpoints on. The
# WAL must hold at least one record afterwards, and a restart on the same
# data dir must recover (snapshot + WAL replay) rather than start fresh.
DATA_DIR="$ART_DIR/data"
run_pass durable --data-dir "$DATA_DIR" --checkpoint-every 16
# The durable pass commits a timing-dependent number of batches; when it is
# a multiple of 16 its last checkpoint empties the WAL. A second pass on the
# same data dir without checkpoints appends a tail the restart must replay.
run_pass durable_tail --data-dir "$DATA_DIR"
"$MC3" wal stats --data-dir "$DATA_DIR" >"$ART_DIR/wal_stats.txt"
if ! grep -q '^records:    [1-9]' "$ART_DIR/wal_stats.txt"; then
  echo "serve_smoke: the durable pass left no WAL records" >&2
  cat "$ART_DIR/wal_stats.txt" >&2
  exit 1
fi
run_pass restart --data-dir "$DATA_DIR" --checkpoint-every 16
if ! grep -q '^recovered:  snapshot' "$ART_DIR/server_restart.log"; then
  echo "serve_smoke: restart did not report recovery" >&2
  cat "$ART_DIR/server_restart.log" >&2
  exit 1
fi

# Telemetry pass: durable with every request traced, while the
# loadgen scrapes the metrics exposition mid-run. The loadgen itself gates
# the counter reconcile (exit 1 on drift between the exposition and its own
# accounting) and validates the embedded telemetry block; here we addition-
# ally assert the exposition artifact looks like Prometheus text format and
# that the exported Chrome trace stitched request flows across threads.
TRACE_DIR="$ART_DIR/traces"
LOADGEN_EXTRA="--scrape-interval 0.02 --scrape-out $ART_DIR/exposition.txt" \
  run_pass telemetry --data-dir "$ART_DIR/data_telemetry" \
  --trace-sample 1 --trace-out "$TRACE_DIR"
grep -q '^mc3_server_requests_total ' "$ART_DIR/exposition.txt"
grep -q '^mc3_server_queue_depth_max ' "$ART_DIR/exposition.txt"
grep -q '^mc3_build_info{.*obs="on"' "$ART_DIR/exposition.txt"
grep -q '"telemetry"' "$ART_DIR/load_report_telemetry.json"
# The engine's apply stage histogram lives in the metrics registry.
grep -q '^mc3_server_stage_shard_apply_update' "$ART_DIR/exposition.txt"
# The server announced the trace file on drain with no span dropped, and
# it must contain complete spans plus a connected flow (start + finish
# bound to the enclosing slice) for at least one sampled request, and the
# engine's spans recorded under the sampled batches' apply.
if ! grep -q '^trace:.* 0 dropped;' "$ART_DIR/server_telemetry.log"; then
  echo "serve_smoke: trace line missing or reports dropped spans" >&2
  grep '^trace:' "$ART_DIR/server_telemetry.log" >&2 || true
  exit 1
fi
TRACE_FILE="$TRACE_DIR/serve_trace_$(cat "$PORT_FILE").json"
if [ ! -s "$TRACE_FILE" ]; then
  echo "serve_smoke: telemetry pass wrote no trace file at $TRACE_FILE" >&2
  exit 1
fi
for needle in '"ph":"X"' '"ph":"s"' '"ph":"f"' '"bp":"e"' \
    '"name":"wal_durable"' '"name":"wal-committer"' \
    '"name":"online_update"' '"name":"solve_component"'; do
  if ! grep -qF "$needle" "$TRACE_FILE"; then
    echo "serve_smoke: trace file lacks $needle" >&2
    exit 1
  fi
done

echo "serve_smoke: OK"
cat "$ART_DIR"/server_*.log
