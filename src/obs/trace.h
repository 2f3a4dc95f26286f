// Per-solve phase tracing: a tree of timed spans covering Algorithm 1's four
// preprocessing steps, component decomposition, the k<=2 max-flow pipeline,
// the WSC greedy / f-approximation loops, and the online engine's update
// path. A Trace is activated on the current thread (RAII); instrumented code
// opens ScopedSpans against the ambient trace without any API threading.
// When no trace is active — the common production case — every ScopedSpan
// constructor is a single thread-local read, so instrumentation stays in the
// noise (docs/observability.md, "Overhead").
//
// Parallel sections (ParallelFor over components) adopt the parent span on
// each worker thread via ScopedSpanAdoption; child creation under a shared
// parent is serialized by the Trace's mutex.
#pragma once

#include <chrono>
#include <memory>
#include <string>
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

  /// Sum of `seconds` over this node and descendants matching `name`.
  double TotalSeconds(const std::string& span_name) const;
  /// Number of this node + descendants matching `name`.
  size_t CountSpans(const std::string& span_name) const;
  /// First descendant (pre-order, self included) named `span_name`.
  const SpanNode* FindSpan(const std::string& span_name) const;
};

/// A per-solve span tree. Thread-compatible for reads after the traced
/// region ends; concurrent span creation during the region is internally
/// synchronized.
class Trace {
 public:
  explicit Trace(std::string root_name = "solve");

  SpanNode* root() { return root_.get(); }
  const SpanNode& root() const { return *root_; }

  /// Appends a child span under `parent` (thread-safe).
  SpanNode* OpenChild(SpanNode* parent, const char* name);

  /// Renders the span tree as a JSON object into `writer` (value position).
  void Render(JsonWriter* writer) const;

 private:
  util::Mutex mu_;
  // mu_ serializes concurrent OpenChild appends during the traced region;
  // root()/Render read the tree only after the region ends (class contract
  // above), so the pointer is deliberately not lock-annotated.
  // mc3-lint: guard-ok(reads are quiescent by contract; only OpenChild runs concurrently)
  std::unique_ptr<SpanNode> root_;
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
  std::chrono::steady_clock::time_point start_;
};

/// Re-installs a captured context on a worker thread (RAII).
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
/// tracing is inactive), records wall time and pops on destruction.
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
  Trace* trace_ = nullptr;
  SpanNode* node_ = nullptr;
  TraceContext saved_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mc3::obs

