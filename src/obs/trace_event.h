// Chrome trace-event exporter for the serving pipeline (docs/observability.md,
// "Serving telemetry"). Collects per-thread spans tagged with request trace
// IDs and renders them as a Chrome trace-event JSON document
// ({"traceEvents": [...]}) loadable in Perfetto / chrome://tracing.
//
// A request's journey crosses threads (connection worker -> engine worker ->
// WAL committer), so spans alone do not show causality. Each
// span may therefore carry one or more trace IDs; at render time the sink
// stitches every ID's spans together with flow events ('s' -> 't' -> 'f'),
// ordered by timestamp. Phases are assigned at render time rather than at
// record time because stages can complete out of order (group commit acks a
// batch before the fsync that makes it durable).
//
// Recording is mutex-guarded but off the default path: the server only
// records spans for sampled requests (`--trace-sample N`).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace mc3::obs {

/// Thread-safe collector of trace-event records. One sink lives for the
/// duration of a server run; threads register a display name once and append
/// spans as sampled requests pass through them.
class TraceEventSink {
 public:
  /// `max_events` bounds memory for long runs; further spans are counted in
  /// dropped() instead of recorded.
  explicit TraceEventSink(size_t max_events = 1 << 20);

  /// Microseconds since the sink was created (the trace timebase).
  double NowUs() const;

  /// Registers the calling thread under `name` (first call wins; later calls
  /// are cheap no-ops). Rendered as a thread_name metadata event.
  void NameCurrentThread(const std::string& name);

  /// Records a complete ('X') event [start_us, start_us + dur_us) on the
  /// calling thread. `trace_ids` lists the sampled requests this span worked
  /// for (empty is allowed: the span renders without flow stitching).
  void Span(const std::string& name, double start_us, double dur_us,
            const std::vector<uint64_t>& trace_ids);

  /// Convenience overload for single-request spans. trace_id 0 means "not
  /// sampled": the span is recorded without a flow id.
  void Span(const std::string& name, double start_us, double dur_us,
            uint64_t trace_id);

  uint64_t dropped() const;

  /// Renders the whole sink as a Chrome trace-event JSON document. Flow
  /// events are finalized here: for each trace id with >= 2 spans, the
  /// earliest gets 's', the latest 'f', the rest 't'.
  std::string RenderJson() const;

  /// Renders and writes the document to `path` (overwrites).
  Status WriteFile(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    int tid = 0;
    double ts = 0;   ///< microseconds since sink creation
    double dur = 0;  ///< microseconds
    std::vector<uint64_t> flow_ids;
  };

  int TidForCurrentThread() MC3_REQUIRES(mu_);

  // mc3-lint: guard-ok(started at construction, read-only afterwards)
  Timer timer_;
  const size_t max_events_;

  mutable util::Mutex mu_;
  std::map<std::thread::id, int> tids_ MC3_GUARDED_BY(mu_);
  std::vector<std::string> thread_names_ MC3_GUARDED_BY(mu_);
  std::vector<Record> records_ MC3_GUARDED_BY(mu_);
  uint64_t dropped_ MC3_GUARDED_BY(mu_) = 0;
};

}  // namespace mc3::obs
