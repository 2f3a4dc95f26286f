// Span tracing: a tree of timed spans covering Algorithm 1's four
// preprocessing steps, component decomposition, the k<=2 max-flow pipeline,
// the WSC greedy / f-approximation loops, the online engine's update path
// and, in a server's trace, the pipeline stages of sampled requests. A Trace
// is activated on the current thread (RAII); instrumented code opens
// ScopedSpans against the ambient trace without any API threading.
// When no trace is active — the common production case — every ScopedSpan
// constructor is a single thread-local read, so instrumentation stays in the
// noise (docs/observability.md, "Overhead").
//
// Parallel sections (ParallelFor over components) and server stages adopt a
// parent span on another thread via ScopedSpanAdoption; child creation
// under a shared parent is serialized by the Trace's mutex.
//
// Every span also keeps its start, the thread that recorded it and the
// trace ids of the sampled requests it served, so one tree renders two
// ways: as the `phases` tree of a mc3.solve_report/1 (Render), and as a
// Chrome trace-event document loadable in Perfetto / chrome://tracing
// (RenderChromeJson), where flow events stitch each sampled request across
// the threads its spans ran on.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace mc3::obs {

class JsonWriter;

/// One node of the span tree: a named phase, its wall time, optional numeric
/// stats (insertion-ordered), and nested sub-phases.
struct SpanNode {
  std::string name;
  double seconds = 0;
  std::vector<std::pair<std::string, double>> stats;
  std::vector<std::unique_ptr<SpanNode>> children;
  /// Microseconds from the trace's creation to the span's start.
  double start_us = 0;
  /// Index of the recording thread in the trace's thread table.
  int thread = 0;
  /// Trace ids of the sampled requests the span served (empty in solve
  /// traces).
  std::vector<uint64_t> trace_ids;

  /// Sum of `seconds` over this node and descendants matching `name`.
  double TotalSeconds(const std::string& span_name) const;
  /// Number of this node + descendants matching `name`.
  size_t CountSpans(const std::string& span_name) const;
  /// First descendant (pre-order, self included) named `span_name`.
  const SpanNode* FindSpan(const std::string& span_name) const;
};

/// A span tree: one solve's phases, or a server run's sampled requests.
/// Thread-compatible for reads after the traced region ends; concurrent
/// span creation during the region is internally synchronized.
class Trace {
 public:
  using Clock = std::chrono::steady_clock;
  /// Spans kept below the root by default; later ones are only counted.
  static constexpr size_t kDefaultMaxSpans = size_t{1} << 20;

  explicit Trace(std::string root_name = "solve",
                 size_t max_spans = kDefaultMaxSpans);

  SpanNode* root() { return root_.get(); }
  const SpanNode& root() const { return *root_; }

  /// Appends a child span under `parent`, started at `start` on the calling
  /// thread and serving `trace_ids` (thread-safe). Past max_spans it returns
  /// nullptr and counts the span in dropped().
  SpanNode* OpenChild(SpanNode* parent, const char* name,
                      Clock::time_point start,
                      std::vector<uint64_t> trace_ids);

  /// Records a span that already ended, [start, end), under `parent` on the
  /// calling thread: a stage that began earlier or on another thread (a
  /// request's queue wait, a WAL append's fsync).
  void RecordSpan(SpanNode* parent, const char* name, Clock::time_point start,
                  Clock::time_point end, std::vector<uint64_t> trace_ids);

  /// Names the calling thread's row in the Chrome rendering (first call
  /// wins; an unnamed row renders as "thread-<index>").
  void NameCurrentThread(const std::string& name);

  /// Spans kept below the root.
  size_t recorded() const;
  /// Spans refused at the cap. The code under a refused span runs untraced,
  /// so its own spans are neither kept nor counted.
  uint64_t dropped() const;

  /// Renders the span tree as a JSON object into `writer` (value position):
  /// name, seconds, stats and children of every node.
  void Render(JsonWriter* writer) const;

  /// Renders every span below the root as a Chrome trace-event document: a
  /// complete ('X') event per span, a thread-name ('M') event per thread,
  /// and for each trace id carried by two or more spans a flow chain, the
  /// earliest 's', the latest 'f' and 't' between. Phases are assigned by
  /// timestamp here because stages can complete out of order (group commit
  /// acks a batch before the fsync that makes it durable).
  std::string RenderChromeJson() const;

 private:
  /// Thread-table index of the calling thread, registered on first use.
  int ThreadIndex() MC3_REQUIRES(mu_);

  const Clock::time_point epoch_;
  const size_t max_spans_;
  mutable util::Mutex mu_;
  // mu_ serializes concurrent OpenChild appends during the traced region;
  // root()/Render read the tree only after the region ends (class contract
  // above), so the pointer is deliberately not lock-annotated.
  // mc3-lint: guard-ok(reads are quiescent by contract; only OpenChild runs concurrently)
  std::unique_ptr<SpanNode> root_;
  std::map<std::thread::id, int> threads_ MC3_GUARDED_BY(mu_);
  std::vector<std::string> thread_names_ MC3_GUARDED_BY(mu_);
  size_t recorded_ MC3_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ MC3_GUARDED_BY(mu_) = 0;
};

/// The ambient tracing context of the current thread.
struct TraceContext {
  Trace* trace = nullptr;
  SpanNode* span = nullptr;
};

/// Current thread's ambient context ({nullptr, nullptr} when tracing is
/// inactive). Pass the result to ScopedSpanAdoption inside ParallelFor
/// workers to keep spans attached across threads.
TraceContext CurrentTraceContext();

/// Activates `trace` on this thread for the scope's lifetime: subsequent
/// ScopedSpans attach under the trace's root. On destruction adds the
/// scope's wall time to the root's seconds and restores the previous ambient
/// context.
class ScopedTraceActivation {
 public:
  explicit ScopedTraceActivation(Trace* trace);
  ~ScopedTraceActivation();
  ScopedTraceActivation(const ScopedTraceActivation&) = delete;
  ScopedTraceActivation& operator=(const ScopedTraceActivation&) = delete;

 private:
  Trace* trace_;
  TraceContext saved_;
  Trace::Clock::time_point start_;
};

/// Re-installs a captured context on a worker thread (RAII). An empty
/// context runs the scope untraced.
class ScopedSpanAdoption {
 public:
  explicit ScopedSpanAdoption(const TraceContext& context);
  ~ScopedSpanAdoption();
  ScopedSpanAdoption(const ScopedSpanAdoption&) = delete;
  ScopedSpanAdoption& operator=(const ScopedSpanAdoption&) = delete;

 private:
  TraceContext saved_;
};

/// RAII span: opens a child of the ambient span on construction (no-op when
/// tracing is inactive), records wall time and pops on destruction. A span
/// the trace refuses at its cap is inactive, and the code under it runs
/// untraced.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a numeric stat to this span (no-op when inactive).
  void AddStat(const char* key, double value);

  bool active() const { return node_ != nullptr; }

 private:
  SpanNode* node_ = nullptr;
  /// The ambient context this span replaced; empty when tracing was
  /// inactive, so the destructor has nothing to restore.
  TraceContext saved_;
  Trace::Clock::time_point start_;
};

}  // namespace mc3::obs
