#include "span_log.h"

#include <algorithm>

#include "common.h"
#include "obs/json.h"

namespace perfbench {

int SpanLog::Open(const std::string& name, uint64_t request_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  span.start = Now();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int index) {
  if (index < 0) return;
  spans_[index].end = Now();
  // Spans close innermost first; tolerate a caller closing out of order by
  // dropping everything opened after `index`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

double SpanLog::ChildSeconds(int index) const {
  double covered = 0;
  for (const Span& span : spans_) {
    if (span.parent == index) covered += span.Seconds();
  }
  return covered;
}

double SpanLog::SelfSeconds(int index) const {
  // Children of one single-threaded parent never overlap, so their union is
  // their sum.
  return spans_[index].Seconds() - ChildSeconds(index);
}

std::vector<int> SpanLog::ChildrenNamed(int index,
                                        const std::string& name) const {
  std::vector<int> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == index && spans_[i].name == name) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::string SpanLog::ToChromeTrace() const {
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  std::vector<double> child_seconds(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_seconds[span.parent] += span.Seconds();
  }
  mc3::obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("displayTimeUnit").String("ms");
  writer.Key("traceEvents").BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    writer.BeginObject();
    writer.Key("name").String(span.name);
    writer.Key("cat").String(span.name.substr(0, span.name.find('.')));
    writer.Key("ph").String("X");
    writer.Key("ts").Number(1e6 * (span.start - origin));
    writer.Key("dur").Number(1e6 * span.Seconds());
    writer.Key("pid").Int(1);
    writer.Key("tid").Int(1);
    writer.Key("args").BeginObject();
    writer.Key("span").Int(i);
    if (span.parent >= 0) writer.Key("parent").Int(span.parent);
    if (span.request_id != 0) writer.Key("request_id").Int(span.request_id);
    writer.Key("self_us").Number(1e6 * (span.Seconds() - child_seconds[i]));
    writer.EndObject();
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return writer.Take();
}

}  // namespace perfbench
