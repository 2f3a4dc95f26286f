// Request-scoped telemetry for the serving pipeline (docs/observability.md,
// "Serving telemetry").
//
// Two layers, both owned by ServingTelemetry:
//   * always-on per-stage histograms `server.stage.<stage>.<verb>`
//     (queue_wait, coalesce, shard_apply, publish, checkpoint, wal_durable,
//     serialize; shard_apply is the engine's apply, a name kept from when
//     the engine could be sharded) recorded through RecordStageSeconds —
//     relaxed atomic ops,
//     surfaced as p50/p95/p99 by the `stats` verb and the `metrics`
//     exposition;
//   * sampled trace export (`mc3 serve --trace-sample N --trace-out DIR`):
//     every Nth request gets a trace id whose spans are recorded into an
//     obs::TraceEventSink and written as Chrome trace-event JSON on
//     shutdown, with flow events stitching the request across the
//     connection worker, engine worker and WAL committer threads.
//
// The wal_durable stage needs special handling: group commit acknowledges a
// batch before its fsync completes, so the append registers a pending entry
// (NoteWalAppend) that the WalOptions::on_durable callback resolves on the
// committer thread (OnWalDurable). Under kImmediate the callback fires
// inside the append itself; a durable floor keeps that ordering race
// harmless.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_event.h"
#include "server/protocol.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace mc3::server {

struct TelemetryOptions {
  /// Record every Nth request's spans into the trace sink; 0 disables
  /// tracing entirely (ids are not assigned, responses are byte-identical
  /// to a build without this feature).
  uint64_t trace_sample = 0;
  /// Directory receiving the trace-event file on shutdown ("" = render
  /// only on demand; nothing written).
  std::string trace_out_dir;
};

/// Trace-id assignment for one request: `trace_id` is echoed in engine-op
/// responses when tracing is on (0 = tracing off), `sampled` gates span
/// recording.
struct TraceAssignment {
  uint64_t trace_id = 0;
  bool sampled = false;
};

/// Records one stage duration into the always-on registry histogram
/// `server.stage.<stage>.<verb>` (a relaxed atomic op).
void RecordStageSeconds(const char* stage, Request::Op op, double seconds);

class ServingTelemetry {
 public:
  explicit ServingTelemetry(TelemetryOptions options);

  /// True when trace sampling is configured (`--trace-sample N > 0`).
  bool enabled() const { return options_.trace_sample > 0; }

  /// Microseconds on the trace timebase (valid whether or not enabled).
  double NowUs() const { return sink_.NowUs(); }

  /// Assigns the next trace id and the sampling decision; all-zero when
  /// tracing is off. The first request is always sampled, then every
  /// trace_sample-th after it.
  TraceAssignment Assign();

  /// Registers the calling thread's display name (first call wins).
  void NameThread(const std::string& name);

  /// Records a span [start_us, now) on the calling thread, tagged with the
  /// given trace ids; dropped when tracing is off or no id is non-zero.
  void Span(const char* name, double start_us,
            const std::vector<uint64_t>& trace_ids);
  void Span(const char* name, double start_us, uint64_t trace_id);

  /// Registers WAL sequence `seq` (appended at `append_start_us`, carrying
  /// `trace_ids`) for wal_durable stage resolution. Must not be called for
  /// SyncPolicy::kNone (nothing would ever resolve it).
  void NoteWalAppend(uint64_t seq, Request::Op op, double append_start_us,
                     const std::vector<uint64_t>& trace_ids);

  /// WalOptions::on_durable target: resolves every pending append with
  /// seq <= durable_seq — records its wal_durable stage histogram and, for
  /// sampled requests, a span on the calling (committer) thread.
  void OnWalDurable(uint64_t durable_seq);

  /// Path the trace file will be written to for a server bound to `port`,
  /// or "" when export is not configured.
  std::string TraceFilePath(uint16_t port) const;

  /// Renders the sink and writes TraceFilePath(port), creating the output
  /// directory if needed. No-op (OK) when export is not configured.
  Status WriteTraceFile(uint16_t port);

  /// Direct sink access for tests.
  const obs::TraceEventSink& sink() const { return sink_; }

 private:
  struct PendingDurable {
    Request::Op op = Request::Op::kUpdate;
    double start_us = 0;
    std::vector<uint64_t> trace_ids;
  };

  // mc3-lint: guard-ok(frozen at construction, immutable afterwards)
  TelemetryOptions options_;
  // mc3-lint: guard-ok(TraceEventSink is internally synchronized)
  obs::TraceEventSink sink_;
  std::atomic<uint64_t> next_trace_id_{0};

  util::Mutex mu_;
  std::map<uint64_t, PendingDurable> pending_wal_ MC3_GUARDED_BY(mu_);
  /// Highest durable seq seen; appends at or below it resolve inline
  /// (kImmediate fires on_durable before NoteWalAppend can register).
  uint64_t durable_floor_ MC3_GUARDED_BY(mu_) = 0;
};

}  // namespace mc3::server
