// In-memory span recorder for the traced runs. Spans are opened around the
// benchmark's own calls into each layer (nothing inside the program is
// instrumented), kept in memory, and written once at exit as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open directly.
//
// Single-threaded by design: the traced pipelines run on one thread, so the
// open-span stack gives every span its parent.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;  ///< steady-clock seconds
  double end = 0;
  int parent = -1;   ///< index into the log, -1 for a root
  uint64_t request_id = 0;

  double Seconds() const { return end - start; }
};

class SpanLog {
 public:
  /// A disabled log records nothing; the same pipeline then runs untraced,
  /// which is how tracing overhead is measured.
  explicit SpanLog(bool enabled = true) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int Open(const std::string& name, uint64_t request_id = 0);
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `index` minus the time its direct children cover.
  double SelfSeconds(int index) const;
  /// Total duration of the direct children of span `index`.
  double ChildSeconds(int index) const;
  /// Direct children of `index` named `name`.
  std::vector<int> ChildrenNamed(int index, const std::string& name) const;

  /// Renders the log as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span).
  std::string ToChromeTrace() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, uint64_t request_id = 0)
      : log_(log), index_(log.Open(name, request_id)) {}
  ~ScopedSpan() { log_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace perfbench
