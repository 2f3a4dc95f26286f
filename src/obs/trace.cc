#include "obs/trace.h"

#include <algorithm>

#include "obs/json.h"

namespace mc3::obs {

double SpanNode::TotalSeconds(const std::string& span_name) const {
  double total = name == span_name ? seconds : 0;
  for (const auto& child : children) total += child->TotalSeconds(span_name);
  return total;
}

size_t SpanNode::CountSpans(const std::string& span_name) const {
  size_t total = name == span_name ? 1 : 0;
  for (const auto& child : children) total += child->CountSpans(span_name);
  return total;
}

const SpanNode* SpanNode::FindSpan(const std::string& span_name) const {
  if (name == span_name) return this;
  for (const auto& child : children) {
    if (const SpanNode* found = child->FindSpan(span_name)) return found;
  }
  return nullptr;
}

namespace {

double Seconds(Trace::Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

void RenderNode(const SpanNode& node, JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("name").String(node.name);
  writer->Key("seconds").Number(node.seconds);
  if (!node.stats.empty()) {
    writer->Key("stats").BeginObject();
    for (const auto& [key, value] : node.stats) {
      writer->Key(key).Number(value);
    }
    writer->EndObject();
  }
  if (!node.children.empty()) {
    writer->Key("children").BeginArray();
    for (const auto& child : node.children) RenderNode(*child, writer);
    writer->EndArray();
  }
  writer->EndObject();
}

/// Where a request's flow arrow binds: the middle of one of its spans.
struct FlowPoint {
  double ts = 0;
  int thread = 0;
  size_t order = 0;  ///< pre-order index, tie-break for equal timestamps
};

/// Emits an 'X' event for every descendant of `node` (pre-order) and
/// collects the flow points of the ones that carry trace ids.
void RenderChromeSpans(const SpanNode& node, JsonWriter* w,
                       std::map<uint64_t, std::vector<FlowPoint>>* flows,
                       size_t* order) {
  for (const auto& child : node.children) {
    const SpanNode& span = *child;
    const double dur_us = span.seconds * 1e6;
    w->BeginObject();
    w->Key("ph").String("X");
    w->Key("pid").Int(1);
    w->Key("tid").Int(static_cast<uint64_t>(span.thread));
    w->Key("name").String(span.name);
    w->Key("cat").String("request");
    w->Key("ts").Number(span.start_us);
    w->Key("dur").Number(dur_us);
    if (!span.trace_ids.empty()) {
      w->Key("args").BeginObject().Key("trace_ids").BeginArray();
      for (uint64_t id : span.trace_ids) w->Int(id);
      w->EndArray().EndObject();
    }
    w->EndObject();
    for (uint64_t id : span.trace_ids) {
      (*flows)[id].push_back({span.start_us + dur_us / 2, span.thread,
                              *order});
    }
    ++*order;
    RenderChromeSpans(span, w, flows, order);
  }
}

thread_local TraceContext g_ambient;

}  // namespace

Trace::Trace(std::string root_name, size_t max_spans)
    : epoch_(Clock::now()),
      max_spans_(max_spans),
      root_(std::make_unique<SpanNode>()) {
  root_->name = std::move(root_name);
}

int Trace::ThreadIndex() {
  const auto [it, added] = threads_.emplace(
      std::this_thread::get_id(), static_cast<int>(thread_names_.size()));
  if (added) thread_names_.emplace_back();  // named lazily, if ever
  return it->second;
}

SpanNode* Trace::OpenChild(SpanNode* parent, const char* name,
                           Clock::time_point start,
                           std::vector<uint64_t> trace_ids) {
  auto child = std::make_unique<SpanNode>();
  child->name = name;
  child->start_us = Seconds(start - epoch_) * 1e6;
  child->trace_ids = std::move(trace_ids);
  SpanNode* raw = child.get();
  util::MutexLock lock(mu_);
  if (recorded_ >= max_spans_) {
    ++dropped_;
    return nullptr;
  }
  ++recorded_;
  child->thread = ThreadIndex();
  parent->children.push_back(std::move(child));
  return raw;
}

void Trace::RecordSpan(SpanNode* parent, const char* name,
                       Clock::time_point start, Clock::time_point end,
                       std::vector<uint64_t> trace_ids) {
  SpanNode* span = OpenChild(parent, name, start, std::move(trace_ids));
  if (span != nullptr) span->seconds = Seconds(end - start);
}

void Trace::NameCurrentThread(const std::string& name) {
  util::MutexLock lock(mu_);
  std::string& slot = thread_names_[ThreadIndex()];
  if (slot.empty()) slot = name;
}

size_t Trace::recorded() const {
  util::MutexLock lock(mu_);
  return recorded_;
}

uint64_t Trace::dropped() const {
  util::MutexLock lock(mu_);
  return dropped_;
}

void Trace::Render(JsonWriter* writer) const {
  RenderNode(*root_, writer);
}

std::string Trace::RenderChromeJson() const {
  util::MutexLock lock(mu_);
  JsonWriter w(/*compact=*/true);
  w.BeginObject().Key("traceEvents").BeginArray();

  // Thread-name metadata events first, so viewers label the rows.
  for (size_t tid = 0; tid < thread_names_.size(); ++tid) {
    std::string name = thread_names_[tid];
    if (name.empty()) name = "thread-" + std::to_string(tid);
    w.BeginObject();
    w.Key("ph").String("M");
    w.Key("pid").Int(1);
    w.Key("tid").Int(tid);
    w.Key("name").String("thread_name");
    w.Key("args").BeginObject().Key("name").String(name).EndObject();
    w.EndObject();
  }

  std::map<uint64_t, std::vector<FlowPoint>> flows;
  size_t order = 0;
  RenderChromeSpans(*root_, &w, &flows, &order);

  for (auto& [id, points] : flows) {
    if (points.size() < 2) continue;  // nothing to connect
    std::sort(points.begin(), points.end(),
              [](const FlowPoint& a, const FlowPoint& b) {
                return a.ts != b.ts ? a.ts < b.ts : a.order < b.order;
              });
    for (size_t i = 0; i < points.size(); ++i) {
      const char* ph = i == 0 ? "s" : (i + 1 == points.size() ? "f" : "t");
      w.BeginObject();
      w.Key("ph").String(ph);
      w.Key("pid").Int(1);
      w.Key("tid").Int(static_cast<uint64_t>(points[i].thread));
      w.Key("name").String("request");
      w.Key("cat").String("request");
      w.Key("id").Int(id);
      w.Key("ts").Number(points[i].ts);
      if (ph[0] == 'f') w.Key("bp").String("e");
      w.EndObject();
    }
  }

  w.EndArray().EndObject();
  return w.Take();
}

TraceContext CurrentTraceContext() { return g_ambient; }

ScopedTraceActivation::ScopedTraceActivation(Trace* trace)
    : trace_(trace), saved_(g_ambient), start_(Trace::Clock::now()) {
  g_ambient = TraceContext{trace, trace != nullptr ? trace->root() : nullptr};
}

ScopedTraceActivation::~ScopedTraceActivation() {
  if (trace_ != nullptr) {
    trace_->root()->seconds += Seconds(Trace::Clock::now() - start_);
  }
  g_ambient = saved_;
}

ScopedSpanAdoption::ScopedSpanAdoption(const TraceContext& context)
    : saved_(g_ambient) {
  g_ambient = context;
}

ScopedSpanAdoption::~ScopedSpanAdoption() { g_ambient = saved_; }

ScopedSpan::ScopedSpan(const char* name) {
  const TraceContext ambient = g_ambient;
  if (ambient.trace == nullptr) return;
  saved_ = ambient;
  start_ = Trace::Clock::now();
  node_ = ambient.trace->OpenChild(ambient.span, name, start_, {});
  // A refused span leaves no parent to nest under: its scope runs untraced.
  g_ambient = node_ != nullptr ? TraceContext{ambient.trace, node_}
                               : TraceContext{};
}

ScopedSpan::~ScopedSpan() {
  if (saved_.trace == nullptr) return;
  if (node_ != nullptr) node_->seconds = Seconds(Trace::Clock::now() - start_);
  g_ambient = saved_;
}

void ScopedSpan::AddStat(const char* key, double value) {
  if (node_ == nullptr) return;
  node_->stats.emplace_back(key, value);
}

}  // namespace mc3::obs
