#include "server/telemetry.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace mc3::server {

void RecordStageSeconds(const char* stage, Request::Op op, double seconds) {
  obs::MetricsRegistry::Global()
      .GetHistogram(std::string("server.stage.") + stage + "." + OpName(op))
      .Record(seconds);
}

namespace {
/// Backstop against a durability hook that never fires (misconfiguration):
/// the pending map sheds its oldest entries past this size.
constexpr size_t kMaxPendingWal = 65536;
}  // namespace

ServingTelemetry::ServingTelemetry(TelemetryOptions options)
    : options_(std::move(options)) {}

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
  sink_.NameCurrentThread(name);
}

void ServingTelemetry::Span(const char* name, double start_us,
                            const std::vector<uint64_t>& trace_ids) {
  if (!enabled()) return;
  std::vector<uint64_t> ids;
  ids.reserve(trace_ids.size());
  for (uint64_t id : trace_ids) {
    if (id != 0) ids.push_back(id);
  }
  if (ids.empty()) return;
  sink_.Span(name, start_us, NowUs() - start_us, ids);
}

void ServingTelemetry::Span(const char* name, double start_us,
                            uint64_t trace_id) {
  if (!enabled() || trace_id == 0) return;
  sink_.Span(name, start_us, NowUs() - start_us, trace_id);
}

void ServingTelemetry::NoteWalAppend(uint64_t seq, Request::Op op,
                                     double append_start_us,
                                     const std::vector<uint64_t>& trace_ids) {
  bool durable_already = false;
  {
    util::MutexLock lock(mu_);
    if (seq <= durable_floor_) {
      durable_already = true;
    } else {
      PendingDurable pending;
      pending.op = op;
      pending.start_us = append_start_us;
      if (enabled()) {
        for (uint64_t id : trace_ids) {
          if (id != 0) pending.trace_ids.push_back(id);
        }
      }
      pending_wal_.emplace(seq, std::move(pending));
      while (pending_wal_.size() > kMaxPendingWal) {
        pending_wal_.erase(pending_wal_.begin());
      }
    }
  }
  if (durable_already) {
    RecordStageSeconds("wal_durable", op, (NowUs() - append_start_us) / 1e6);
    Span("wal_durable", append_start_us, trace_ids);
  }
}

void ServingTelemetry::OnWalDurable(uint64_t durable_seq) {
  if (enabled()) sink_.NameCurrentThread("wal-committer");
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
  const double now = NowUs();
  for (const PendingDurable& pending : resolved) {
    RecordStageSeconds("wal_durable", pending.op,
                       (now - pending.start_us) / 1e6);
    if (enabled() && !pending.trace_ids.empty()) {
      sink_.Span("wal_durable", pending.start_us, now - pending.start_us,
                 pending.trace_ids);
    }
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
  return sink_.WriteFile(path);
}

}  // namespace mc3::server
