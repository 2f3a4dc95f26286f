#include "obs/trace.h"

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

thread_local TraceContext g_ambient;

}  // namespace

Trace::Trace(std::string root_name) : root_(std::make_unique<SpanNode>()) {
  root_->name = std::move(root_name);
}

SpanNode* Trace::OpenChild(SpanNode* parent, const char* name) {
  auto child = std::make_unique<SpanNode>();
  child->name = name;
  SpanNode* raw = child.get();
  {
    util::MutexLock lock(mu_);
    parent->children.push_back(std::move(child));
  }
  return raw;
}

void Trace::Render(JsonWriter* writer) const {
  RenderNode(*root_, writer);
}

TraceContext CurrentTraceContext() { return g_ambient; }

ScopedTraceActivation::ScopedTraceActivation(Trace* trace)
    : trace_(trace),
      saved_(g_ambient),
      start_(std::chrono::steady_clock::now()) {
  g_ambient = TraceContext{trace, trace != nullptr ? trace->root() : nullptr};
}

ScopedTraceActivation::~ScopedTraceActivation() {
  if (trace_ != nullptr) {
    trace_->root()->seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
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
  trace_ = ambient.trace;
  node_ = trace_->OpenChild(ambient.span, name);
  saved_ = ambient;
  g_ambient = TraceContext{trace_, node_};
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (node_ == nullptr) return;
  node_->seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  g_ambient = saved_;
}

void ScopedSpan::AddStat(const char* key, double value) {
  if (node_ == nullptr) return;
  node_->stats.emplace_back(key, value);
}

}  // namespace mc3::obs
