#include "obs/trace_event.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "obs/json.h"

namespace mc3::obs {

TraceEventSink::TraceEventSink(size_t max_events) : max_events_(max_events) {}

double TraceEventSink::NowUs() const { return timer_.Seconds() * 1e6; }

int TraceEventSink::TidForCurrentThread() {
  const std::thread::id self = std::this_thread::get_id();
  auto it = tids_.find(self);
  if (it != tids_.end()) return it->second;
  const int tid = static_cast<int>(thread_names_.size());
  tids_.emplace(self, tid);
  thread_names_.emplace_back();  // named lazily; render falls back to tid-N
  return tid;
}

void TraceEventSink::NameCurrentThread(const std::string& name) {
  util::MutexLock lock(mu_);
  const int tid = TidForCurrentThread();
  if (thread_names_[tid].empty()) thread_names_[tid] = name;
}

void TraceEventSink::Span(const std::string& name, double start_us,
                          double dur_us,
                          const std::vector<uint64_t>& trace_ids) {
  util::MutexLock lock(mu_);
  if (records_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  Record rec;
  rec.name = name;
  rec.tid = TidForCurrentThread();
  rec.ts = start_us;
  rec.dur = dur_us;
  rec.flow_ids = trace_ids;
  records_.push_back(std::move(rec));
}

void TraceEventSink::Span(const std::string& name, double start_us,
                          double dur_us, uint64_t trace_id) {
  std::vector<uint64_t> ids;
  if (trace_id != 0) ids.push_back(trace_id);
  Span(name, start_us, dur_us, ids);
}

uint64_t TraceEventSink::dropped() const {
  util::MutexLock lock(mu_);
  return dropped_;
}

std::string TraceEventSink::RenderJson() const {
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

  // Complete ('X') events, in recording order.
  for (const Record& rec : records_) {
    w.BeginObject();
    w.Key("ph").String("X");
    w.Key("pid").Int(1);
    w.Key("tid").Int(static_cast<uint64_t>(rec.tid));
    w.Key("name").String(rec.name);
    w.Key("cat").String("request");
    w.Key("ts").Number(rec.ts);
    w.Key("dur").Number(rec.dur);
    if (!rec.flow_ids.empty()) {
      w.Key("args").BeginObject().Key("trace_ids").BeginArray();
      for (uint64_t id : rec.flow_ids) w.Int(id);
      w.EndArray().EndObject();
    }
    w.EndObject();
  }

  // Flow events, finalized at render time: stages can finish out of order
  // (the WAL fsync may land after the response is written), so phases are
  // assigned by timestamp once all spans are in, not when they are recorded.
  struct FlowPoint {
    double ts = 0;  ///< binding point, inside the span on its thread
    int tid = 0;
    size_t order = 0;  ///< recording index, tie-break for equal timestamps
  };
  std::map<uint64_t, std::vector<FlowPoint>> flows;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& rec = records_[i];
    for (uint64_t id : rec.flow_ids) {
      flows[id].push_back({rec.ts + rec.dur / 2, rec.tid, i});
    }
  }
  for (const auto& [id, points_in] : flows) {
    if (points_in.size() < 2) continue;  // nothing to connect
    std::vector<FlowPoint> points = points_in;
    std::sort(points.begin(), points.end(),
              [](const FlowPoint& a, const FlowPoint& b) {
                return a.ts != b.ts ? a.ts < b.ts : a.order < b.order;
              });
    for (size_t i = 0; i < points.size(); ++i) {
      const char* ph = i == 0 ? "s" : (i + 1 == points.size() ? "f" : "t");
      w.BeginObject();
      w.Key("ph").String(ph);
      w.Key("pid").Int(1);
      w.Key("tid").Int(static_cast<uint64_t>(points[i].tid));
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

Status TraceEventSink::WriteFile(const std::string& path) const {
  const std::string doc = RenderJson();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open trace file: " + path);
  out << doc << "\n";
  out.flush();
  if (!out) return Status::IOError("cannot write trace file: " + path);
  return Status::OK();
}

}  // namespace mc3::obs
