// Request-scoped telemetry for the serving pipeline (docs/observability.md,
// "Serving telemetry").
//
// Each timed stage of a request (queue_wait, coalesce, shard_apply, publish,
// checkpoint, wal_durable, serialize, and the lock-free reads' acquire and
// render; shard_apply is the engine's apply, a name kept from when the
// engine could be sharded) is timed by one clock: a StageScope reads it when
// the stage opens and when it closes. Closing records the always-on
// histogram `server.stage.<stage>.<verb>` (`server.read.<stage>.<verb>` for
// the read stages) through a handle resolved once, a relaxed atomic op
// surfaced as p50/p95/p99 by the `stats` verb and the `metrics` exposition.
//
// Sampled tracing (`mc3 serve --trace-sample N --trace-out DIR`) gives every
// Nth request's stages a span in one obs::Trace, opened when the stage
// opens, and writes the trace as Chrome trace-event JSON on shutdown, with
// flow events stitching each request across the connection worker, engine
// worker and WAL committer threads. The engine's own spans nest under the
// shard_apply span of a sampled batch.
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

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace mc3::server {

using Clock = obs::Trace::Clock;

struct TelemetryOptions {
  /// Record every Nth request's spans into the trace; 0 disables tracing
  /// entirely (ids are not assigned, responses carry no `trace_id`).
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

/// A timed stage of the serving pipeline: one histogram per verb, and one
/// span per sampled request.
enum class Stage {
  kQueueWait,
  kCoalesce,
  kShardApply,
  kPublish,
  kCheckpoint,
  kWalDurable,
  kSerialize,
  kReadAcquire,  ///< lock-free read: epoch pin + root load
  kReadRender,   ///< lock-free read: response built from the pinned root
};
inline constexpr size_t kNumStages =
    static_cast<size_t>(Stage::kReadRender) + 1;
inline constexpr size_t kNumOps =
    static_cast<size_t>(Request::Op::kShutdown) + 1;

class ServingTelemetry {
 public:
  explicit ServingTelemetry(TelemetryOptions options);

  /// True when trace sampling is configured (`--trace-sample N > 0`).
  bool enabled() const { return options_.trace_sample > 0; }

  /// Assigns the next trace id and the sampling decision; all-zero when
  /// tracing is off. The first request is always sampled, then every
  /// trace_sample-th after it.
  TraceAssignment Assign();

  /// Registers the calling thread's display name (first call wins).
  void NameThread(const std::string& name);

  /// The histogram `stage` records for verb `op`, looked up in the registry
  /// on first use only.
  obs::Histogram& StageHistogram(Stage stage, Request::Op op);

  /// Opens the span of `stage` at `start` on the calling thread for the
  /// sampled requests `trace_ids`, as a context to nest spans under; empty
  /// when there are none, tracing is off or the trace is full.
  obs::TraceContext OpenSpan(Stage stage, Clock::time_point start,
                             std::vector<uint64_t> trace_ids);

  /// Records a span [start, end) on the calling thread for the sampled
  /// requests `trace_ids` (none: nothing is recorded).
  void RecordSpan(const char* name, Clock::time_point start,
                  Clock::time_point end, std::vector<uint64_t> trace_ids);

  /// Records a stage that began at `start`, earlier or on another thread:
  /// its histogram sample and its span, both ending at `end`.
  void RecordStage(Stage stage, Request::Op op, Clock::time_point start,
                   Clock::time_point end, std::vector<uint64_t> trace_ids);

  /// Registers WAL sequence `seq` (appended at `append_start`, carrying
  /// `trace_ids`) for wal_durable stage resolution. Must not be called for
  /// SyncPolicy::kNone (nothing would ever resolve it).
  void NoteWalAppend(uint64_t seq, Request::Op op,
                     Clock::time_point append_start,
                     std::vector<uint64_t> trace_ids);

  /// WalOptions::on_durable target: resolves every pending append with
  /// seq <= durable_seq — records its wal_durable stage histogram and, for
  /// sampled requests, a span on the calling (committer) thread.
  void OnWalDurable(uint64_t durable_seq);

  /// Path the trace file will be written to for a server bound to `port`,
  /// or "" when export is not configured.
  std::string TraceFilePath(uint16_t port) const;

  /// Renders the trace and writes TraceFilePath(port), creating the output
  /// directory if needed. No-op (OK) when export is not configured.
  Status WriteTraceFile(uint16_t port);

  /// The sampled requests' spans (quiescent once the server is joined).
  const obs::Trace& trace() const { return trace_; }

 private:
  struct PendingDurable {
    Request::Op op = Request::Op::kUpdate;
    Clock::time_point start;
    std::vector<uint64_t> trace_ids;
  };

  // mc3-lint: guard-ok(frozen at construction, immutable afterwards)
  TelemetryOptions options_;
  // mc3-lint: guard-ok(obs::Trace is internally synchronized)
  obs::Trace trace_;
  std::atomic<uint64_t> next_trace_id_{0};
  /// StageHistogram's handles, filled on first use; a race stores the same
  /// registry handle twice.
  std::atomic<obs::Histogram*> histograms_[kNumStages][kNumOps]{};

  util::Mutex mu_;
  std::map<uint64_t, PendingDurable> pending_wal_ MC3_GUARDED_BY(mu_);
  /// Highest durable seq seen; appends at or below it resolve inline
  /// (kImmediate fires on_durable before NoteWalAppend can register).
  uint64_t durable_floor_ MC3_GUARDED_BY(mu_) = 0;
};

/// Times one stage of one request, or of one batch, with one clock: the
/// scope reads it on construction and again on Close() or destruction,
/// whichever comes first. Closing records the stage's histogram sample; a
/// sampled request's span opens with the scope.
class StageScope {
 public:
  /// `trace_ids` lists the sampled requests the stage serves (empty for an
  /// unsampled one).
  StageScope(ServingTelemetry& telemetry, Stage stage, Request::Op op,
             std::vector<uint64_t> trace_ids);
  ~StageScope() { Close(); }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  /// Ends the stage now; later calls do nothing. With `count` false the
  /// span ends without a histogram sample: the stage ran, but it is not an
  /// event its histogram counts.
  void Close(bool count = true);

  /// The span as an ambient trace context, for obs::ScopedSpanAdoption;
  /// empty (the adopting scope runs untraced) without a span.
  obs::TraceContext context() const { return span_; }

 private:
  obs::Histogram& histogram_;
  Clock::time_point start_;
  obs::TraceContext span_;
  bool open_ = true;
};

}  // namespace mc3::server
