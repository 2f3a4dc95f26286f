#include "server/telemetry.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <fstream>
#include <utility>

namespace mc3::server {

namespace {
/// Backstop against a durability hook that never fires (misconfiguration):
/// the pending map sheds its oldest entries past this size.
constexpr size_t kMaxPendingWal = 65536;

/// Each stage's histogram name prefix and span name, in Stage order.
struct StageNames {
  const char* series;
  const char* span;
};
constexpr StageNames kStageNames[kNumStages] = {
    {"server.stage.queue_wait.", "queue_wait"},
    {"server.stage.coalesce.", "coalesce"},
    {"server.stage.shard_apply.", "shard_apply"},
    {"server.stage.publish.", "publish"},
    {"server.stage.checkpoint.", "checkpoint"},
    {"server.stage.wal_durable.", "wal_durable"},
    {"server.stage.serialize.", "serialize"},
    {"server.read.acquire.", "read_acquire"},
    {"server.read.render.", "read_render"},
};

const StageNames& NamesOf(Stage stage) {
  return kStageNames[static_cast<size_t>(stage)];
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

ServingTelemetry::ServingTelemetry(TelemetryOptions options)
    : options_(std::move(options)), trace_("serve") {}

TraceAssignment ServingTelemetry::Assign() {
  TraceAssignment assignment;
  if (!enabled()) return assignment;
  const uint64_t seq = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  assignment.trace_id = seq + 1;
  assignment.sampled = seq % options_.trace_sample == 0;
  return assignment;
}

void ServingTelemetry::NameThread(const std::string& name) {
  if (!enabled()) return;
  trace_.NameCurrentThread(name);
}

obs::Histogram& ServingTelemetry::StageHistogram(Stage stage,
                                                 Request::Op op) {
  std::atomic<obs::Histogram*>& slot =
      histograms_[static_cast<size_t>(stage)][static_cast<size_t>(op)];
  obs::Histogram* histogram = slot.load(std::memory_order_acquire);
  if (histogram == nullptr) {
    histogram = &obs::MetricsRegistry::Global().GetHistogram(
        std::string(NamesOf(stage).series) + OpName(op));
    slot.store(histogram, std::memory_order_release);
  }
  return *histogram;
}

obs::TraceContext ServingTelemetry::OpenSpan(Stage stage,
                                             Clock::time_point start,
                                             std::vector<uint64_t> trace_ids) {
  if (!enabled() || trace_ids.empty()) return {};
  obs::SpanNode* span = trace_.OpenChild(trace_.root(), NamesOf(stage).span,
                                         start, std::move(trace_ids));
  return span != nullptr ? obs::TraceContext{&trace_, span}
                         : obs::TraceContext{};
}

void ServingTelemetry::RecordSpan(const char* name, Clock::time_point start,
                                  Clock::time_point end,
                                  std::vector<uint64_t> trace_ids) {
  if (!enabled() || trace_ids.empty()) return;
  trace_.RecordSpan(trace_.root(), name, start, end, std::move(trace_ids));
}

void ServingTelemetry::RecordStage(Stage stage, Request::Op op,
                                   Clock::time_point start,
                                   Clock::time_point end,
                                   std::vector<uint64_t> trace_ids) {
  StageHistogram(stage, op).Record(Seconds(end - start));
  RecordSpan(NamesOf(stage).span, start, end, std::move(trace_ids));
}

void ServingTelemetry::NoteWalAppend(uint64_t seq, Request::Op op,
                                     Clock::time_point append_start,
                                     std::vector<uint64_t> trace_ids) {
  {
    util::MutexLock lock(mu_);
    if (seq > durable_floor_) {
      pending_wal_.emplace(
          seq, PendingDurable{op, append_start, std::move(trace_ids)});
      while (pending_wal_.size() > kMaxPendingWal) {
        pending_wal_.erase(pending_wal_.begin());
      }
      return;
    }
  }
  RecordStage(Stage::kWalDurable, op, append_start, Clock::now(),
              std::move(trace_ids));
}

void ServingTelemetry::OnWalDurable(uint64_t durable_seq) {
  NameThread("wal-committer");
  std::vector<PendingDurable> resolved;
  {
    util::MutexLock lock(mu_);
    durable_floor_ = std::max(durable_floor_, durable_seq);
    auto it = pending_wal_.begin();
    while (it != pending_wal_.end() && it->first <= durable_seq) {
      resolved.push_back(std::move(it->second));
      it = pending_wal_.erase(it);
    }
  }
  if (resolved.empty()) return;
  const Clock::time_point now = Clock::now();
  for (PendingDurable& pending : resolved) {
    RecordStage(Stage::kWalDurable, pending.op, pending.start, now,
                std::move(pending.trace_ids));
  }
}

std::string ServingTelemetry::TraceFilePath(uint16_t port) const {
  if (!enabled() || options_.trace_out_dir.empty()) return "";
  return options_.trace_out_dir + "/serve_trace_" + std::to_string(port) +
         ".json";
}

Status ServingTelemetry::WriteTraceFile(uint16_t port) {
  const std::string path = TraceFilePath(port);
  if (path.empty()) return Status::OK();
  // Best-effort single-level create; an unwritable path fails below with a
  // useful message either way.
  (void)::mkdir(options_.trace_out_dir.c_str(), 0755);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open trace file: " + path);
  out << trace_.RenderChromeJson() << "\n";
  out.flush();
  if (!out) return Status::IOError("cannot write trace file: " + path);
  return Status::OK();
}

StageScope::StageScope(ServingTelemetry& telemetry, Stage stage,
                       Request::Op op, std::vector<uint64_t> trace_ids)
    : histogram_(telemetry.StageHistogram(stage, op)),
      start_(Clock::now()),
      span_(telemetry.OpenSpan(stage, start_, std::move(trace_ids))) {}

void StageScope::Close(bool count) {
  if (!open_) return;
  open_ = false;
  const double seconds = Seconds(Clock::now() - start_);
  if (count) histogram_.Record(seconds);
  if (span_.span != nullptr) span_.span->seconds = seconds;
}

}  // namespace mc3::server
