#include "serve_replay.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "concurrency/epoch.h"
#include "concurrency/versioned_publisher.h"
#include "data/io.h"
#include "durability/durability.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "online/read_view.h"
#include "online/update_trace.h"
#include "serve_gen.h"
#include "server/coalescer.h"
#include "server/protocol.h"
#include "span_log.h"

namespace perfbench {
namespace {

struct Requests {
  std::vector<std::string> warmup[2];
  std::vector<std::string> measured[2];
};

mc3::Result<Requests> LoadRequests(const std::string& dir) {
  Requests out;
  for (int w = 0; w < 2; ++w) {
    const std::string prefix = dir + "/writer-" + std::to_string(w);
    auto warm = ReadLines(prefix + "-warmup.jsonl");
    if (!warm.ok()) return warm.status();
    auto main = ReadLines(prefix + ".jsonl");
    if (!main.ok()) return main.status();
    out.warmup[w] = std::move(*warm);
    out.measured[w] = std::move(*main);
  }
  return out;
}

/// An update request's queries as engine property sets.
struct Update {
  std::vector<mc3::PropertySet> add;
  std::vector<mc3::PropertySet> remove;
};

/// Resolves request names against the engine's name table. The workload
/// only revives catalog queries, so every name is known.
class Interner {
 public:
  explicit Interner(const std::vector<std::string>& names) {
    for (size_t i = 0; i < names.size(); ++i) {
      ids_.emplace(names[i], static_cast<mc3::PropertyId>(i));
    }
  }

  mc3::Result<Update> Resolve(const mc3::server::Request& request) const {
    Update out;
    MC3_RETURN_IF_ERROR(ResolveAll(request.add, &out.add));
    MC3_RETURN_IF_ERROR(ResolveAll(request.remove, &out.remove));
    return out;
  }

 private:
  mc3::Status ResolveAll(const std::vector<std::vector<std::string>>& queries,
                         std::vector<mc3::PropertySet>* out) const {
    for (const auto& names : queries) {
      std::vector<mc3::PropertyId> ids;
      for (const std::string& name : names) {
        auto it = ids_.find(name);
        if (it == ids_.end()) {
          return mc3::Status::InvalidArgument("unknown property " + name);
        }
        ids.push_back(it->second);
      }
      out->push_back(mc3::PropertySet::FromUnsorted(std::move(ids)));
    }
    return mc3::Status::OK();
  }

  std::unordered_map<std::string, mc3::PropertyId> ids_;
};

/// Parses one update request line and resolves its names.
mc3::Result<Update> ParseUpdate(const std::string& line,
                                const Interner& interner) {
  auto request = mc3::server::ParseRequest(line);
  if (!request.ok()) return request.status();
  return interner.Resolve(*request);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Per-layer samples of one replay pass.
struct ReplaySamples {
  std::vector<double> parse_us, coalesce_us, apply_ms, read_view_ms,
      wal_append_us, publish_us, unattributed_ms, coverage;
  double checkpoint_ms = 0;
  double snapshot_mb = 0;
  double records_per_fsync = 0;
  uint64_t queries_touched = 0;
  uint64_t source_ops = 0;
  double loop_seconds = 0;
  size_t batches = 0;
  std::string plan;
};

double Seconds(const SpanLog& log, int span) {
  return span >= 0 ? log.spans()[span].Seconds() : 0;
}

/// One pass of the serving pipeline over the measured requests, writing a
/// snapshot of the catalog as loaded and a WAL into `data_dir`, as the live
/// run does.
mc3::Result<ReplaySamples> ReplayLayered(const mc3::Instance& catalog,
                                         const Requests& requests,
                                         const std::string& data_dir,
                                         SpanLog& log) {
  ReplaySamples out;
  std::filesystem::remove_all(data_dir);
  mc3::durability::DurabilityOptions durability;
  durability.data_dir = data_dir;
  auto manager = mc3::durability::DurabilityManager::Open(durability);
  if (!manager.ok()) return manager.status();
  mc3::online::OnlineEngine engine;
  auto recovered = (*manager)->Recover(catalog, -1, &engine);
  if (!recovered.ok()) return recovered.status();
  const Interner interner(engine.property_names());
  {
    const int span = log.Open("durability.checkpoint");
    auto checkpoint = (*manager)->Checkpoint(engine.ExportState());
    log.Close(span);
    if (!checkpoint.ok()) return checkpoint.status();
    out.checkpoint_ms = 1e3 * Seconds(log, span);
    out.snapshot_mb = static_cast<double>(checkpoint->bytes) / (1 << 20);
  }
  for (int w = 0; w < 2; ++w) {
    for (const std::string& line : requests.warmup[w]) {
      auto update = ParseUpdate(line, interner);
      if (!update.ok()) return update.status();
      auto applied = engine.ApplyUpdate(update->add, update->remove);
      if (!applied.ok()) return applied.status();
      auto payload = mc3::online::RenderUpdateBatch(
          update->add, update->remove, engine.property_names());
      if (!payload.ok()) return payload.status();
      auto logged = (*manager)->LogPayload(std::move(*payload));
      if (!logged.ok()) return logged.status();
    }
  }

  mc3::concurrency::EpochManager epochs;
  mc3::concurrency::VersionedPublisher<mc3::online::EngineReadView> publisher;
  // The first publish displaces nothing.
  publisher.Publish(
      new mc3::online::EngineReadView(mc3::online::BuildReadView(engine, 1)));
  // One request per batch, alternating writers: with the writers' think
  // time the live server sees one request in flight at a time (its
  // server.batch_ops is one request's 8 ops), so it runs a batch each.
  const size_t rounds =
      std::min(requests.measured[0].size(), requests.measured[1].size());
  const double loop_start = Now();
  for (size_t i = 0; i < rounds; ++i) {
    for (int w = 0; w < 2; ++w) {
      const uint64_t id = out.batches + 1;
      const int batch = log.Open("serve.batch", id);
      mc3::Result<mc3::server::Request> request = mc3::Status::Internal("");
      {
        const int span = log.Open("server.parse", id);
        request = mc3::server::ParseRequest(requests.measured[w][i]);
        log.Close(span);
        out.parse_us.push_back(1e6 * Seconds(log, span));
      }
      if (!request.ok()) return request.status();
      out.source_ops += request->add.size() + request->remove.size();
      auto update = interner.Resolve(*request);
      if (!update.ok()) return update.status();
      mc3::server::NetUpdate net;
      {
        const int span = log.Open("server.coalesce", id);
        mc3::server::UpdateCoalescer coalescer;
        coalescer.Fold(update->add, update->remove);
        net = coalescer.Take();
        log.Close(span);
        out.coalesce_us.push_back(1e6 * Seconds(log, span));
      }
      mc3::Result<mc3::online::UpdateStats> applied = mc3::Status::Internal("");
      {
        const int span = log.Open("online.apply", id);
        applied = engine.ApplyUpdate(net.add, net.remove);
        log.Close(span);
        out.apply_ms.push_back(1e3 * Seconds(log, span));
      }
      if (!applied.ok()) return applied.status();
      out.queries_touched += applied->queries_touched;
      {
        const int span = log.Open("durability.wal_append", id);
        auto payload = mc3::online::RenderUpdateBatch(net.add, net.remove,
                                                      engine.property_names());
        mc3::Result<uint64_t> logged = mc3::Status::Internal("not rendered");
        if (payload.ok()) logged = (*manager)->LogPayload(std::move(*payload));
        log.Close(span);
        if (!logged.ok()) return logged.status();
        out.wal_append_us.push_back(1e6 * Seconds(log, span));
      }
      const mc3::online::EngineReadView* view = nullptr;
      {
        const int span = log.Open("online.read_view", id);
        view = new mc3::online::EngineReadView(
            mc3::online::BuildReadView(engine, id + 1));
        log.Close(span);
        out.read_view_ms.push_back(1e3 * Seconds(log, span));
      }
      {
        const int span = log.Open("concurrency.publish", id);
        epochs.Retire(publisher.Publish(view));
        epochs.AdvanceAndReclaim();
        log.Close(span);
        out.publish_us.push_back(1e6 * Seconds(log, span));
      }
      log.Close(batch);
      if (batch >= 0) {
        out.unattributed_ms.push_back(1e3 * log.SelfSeconds(batch));
        out.coverage.push_back(log.ChildSeconds(batch) / Seconds(log, batch));
      }
      ++out.batches;
    }
  }
  out.loop_seconds = Now() - loop_start;
  const mc3::durability::WalWriterStats wal = (*manager)->GetWalStats();
  if (mc3::Status status = (*manager)->Close(); !status.ok()) return status;
  out.records_per_fsync = wal.syncs > 0 ? static_cast<double>(wal.records_appended) /
                                              static_cast<double>(wal.syncs)
                                        : 0;
  out.plan = EnginePlan(engine);
  return out;
}

/// Recovers `data_dir` layer by layer: the latest snapshot, then the WAL
/// tail re-applied through the update-trace parser.
mc3::Status RecoverLayered(const std::string& data_dir, SpanLog& log,
                           RunResult* out, std::string* plan) {
  mc3::Result<mc3::durability::LoadedSnapshot> snapshot =
      mc3::Status::Internal("not loaded");
  {
    const int span = log.Open("durability.snapshot_load");
    snapshot = mc3::durability::LoadLatestSnapshot(data_dir);
    log.Close(span);
    out->Set("durability.snapshot_load_ms", 1e3 * Seconds(log, span), "ms");
  }
  if (!snapshot.ok()) return snapshot.status();
  mc3::online::OnlineEngine engine;
  MC3_RETURN_IF_ERROR(engine.ImportState(snapshot->state));
  const int span = log.Open("durability.wal_replay");
  auto scan = mc3::durability::ReadWal(data_dir, snapshot->seq);
  if (!scan.ok()) return scan.status();
  for (const mc3::durability::WalRecord& record : scan->records) {
    auto trace = mc3::online::ParseUpdateTrace(SplitLines(record.payload),
                                               engine.property_names());
    if (!trace.ok()) return trace.status();
    engine.set_property_names(trace->property_names);
    std::vector<mc3::PropertySet> add, remove;
    for (mc3::online::TraceOp& op : trace->ops) {
      (op.kind == mc3::online::TraceOp::Kind::kAdd ? add : remove)
          .push_back(std::move(op.query));
    }
    auto applied = engine.ApplyUpdate(add, remove);
    if (!applied.ok()) return applied.status();
  }
  log.Close(span);
  out->Set("durability.wal_replay_ms", 1e3 * Seconds(log, span), "ms");
  out->notes["wal_tail_records"] = static_cast<double>(scan->records.size());
  *plan = EnginePlan(engine);
  return mc3::Status::OK();
}

}  // namespace

std::string CanonicalPlan(PlanRows rows) {
  for (auto& row : rows) std::sort(row.first.begin(), row.first.end());
  std::sort(rows.begin(), rows.end());
  std::string out;
  mc3::Cost total = 0;
  char buffer[64];
  for (const auto& [names, cost] : rows) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) out += ' ';
      out += names[i];
    }
    std::snprintf(buffer, sizeof(buffer), " # %.17g\n", cost);
    out += buffer;
    total += cost;
  }
  std::snprintf(buffer, sizeof(buffer), "total %.17g\n", total);
  return out + buffer;
}

std::string EnginePlan(const mc3::online::OnlineEngine& engine) {
  const std::vector<std::string>& names = engine.property_names();
  PlanRows rows;
  for (const mc3::PropertySet& classifier : engine.CurrentSolution().Sorted()) {
    std::vector<std::string> row;
    for (mc3::PropertyId id : classifier) {
      row.push_back(id < names.size() ? names[id] : std::to_string(id));
    }
    rows.emplace_back(std::move(row), engine.CostOf(classifier));
  }
  return CanonicalPlan(std::move(rows));
}

mc3::Result<std::string> ReplayOffline(const std::string& dir) {
  auto catalog = mc3::data::LoadInstance(dir + "/catalog.csv");
  if (!catalog.ok()) return catalog.status();
  auto requests = LoadRequests(dir);
  if (!requests.ok()) return requests.status();
  mc3::online::OnlineEngine engine;
  auto initialized = engine.Initialize(*catalog);
  if (!initialized.ok()) return initialized.status();
  const Interner interner(engine.property_names());
  for (int w = 0; w < 2; ++w) {
    for (const auto* lines : {&requests->warmup[w], &requests->measured[w]}) {
      for (const std::string& line : *lines) {
        auto update = ParseUpdate(line, interner);
        if (!update.ok()) return update.status();
        auto applied = engine.ApplyUpdate(update->add, update->remove);
        if (!applied.ok()) return applied.status();
      }
    }
  }
  MC3_RETURN_IF_ERROR(engine.CheckInvariants());
  return EnginePlan(engine);
}

RunResult RunServeReplayTraced(const std::string& dir,
                               const std::string& data_dir,
                               const std::string& trace_path) {
  RunResult out;
  SpanLog log;
  const int load_span = log.Open("data.load");
  auto catalog = mc3::data::LoadInstance(dir + "/catalog.csv");
  log.Close(load_span);
  out.Set("data.load_ms", 1e3 * log.spans()[load_span].Seconds(), "ms");
  auto requests = LoadRequests(dir);
  if (!catalog.ok() || !requests.ok()) {
    out.Fail("cannot load the serve workload in " + dir);
    return out;
  }
  ++out.attempted;
  auto traced = ReplayLayered(*catalog, *requests, data_dir, log);
  if (!traced.ok()) {
    out.Fail("traced replay: " + traced.status().ToString());
    return out;
  }
  std::string recovered_plan;
  ++out.attempted;
  if (mc3::Status status = RecoverLayered(data_dir, log, &out, &recovered_plan);
      !status.ok()) {
    out.Fail("layered recovery: " + status.ToString());
  } else if (recovered_plan != traced->plan) {
    out.Fail("layered recovery ends at another plan than the replay");
  }
  SpanLog off(/*enabled=*/false);
  ++out.attempted;
  auto untraced = ReplayLayered(*catalog, *requests, data_dir + "-untraced", off);
  if (!untraced.ok()) {
    out.Fail("untraced replay: " + untraced.status().ToString());
  } else if (untraced->plan != traced->plan) {
    out.Fail("traced and untraced replays end at different plans");
  }
  std::filesystem::remove_all(data_dir + "-untraced");

  const ReplaySamples& s = *traced;
  out.Set("server.parse_us", Median(s.parse_us), "us");
  out.Set("server.coalesce_us", Median(s.coalesce_us), "us");
  out.Set("online.apply_ms", Median(s.apply_ms), "ms");
  out.Set("online.resolved_queries_per_op",
          s.source_ops > 0 ? static_cast<double>(s.queries_touched) /
                                 static_cast<double>(s.source_ops)
                           : 0,
          "ratio");
  out.Set("online.read_view_ms", Median(s.read_view_ms), "ms");
  out.Set("durability.wal_append_us", Median(s.wal_append_us), "us");
  out.Set("durability.records_per_fsync", s.records_per_fsync, "count");
  out.Set("durability.checkpoint_ms", s.checkpoint_ms, "ms");
  out.Set("durability.snapshot_mb", s.snapshot_mb, "MiB");
  out.Set("concurrency.publish_us", Median(s.publish_us), "us");
  out.Set("serve.unattributed_ms", Median(s.unattributed_ms), "ms");
  out.Set("trace.coverage", Median(s.coverage), "share");
  if (untraced.ok() && s.batches > 0) {
    out.Set("trace.overhead_ms",
            1e3 * (s.loop_seconds - untraced->loop_seconds) /
                static_cast<double>(s.batches),
            "ms");
  }
  out.notes["replay_batches"] = static_cast<double>(s.batches);
  if (mc3::Status status = WriteFile(dir + "/traced-plan.txt", s.plan);
      !status.ok()) {
    out.Fail(status.ToString());
  }
  if (!trace_path.empty()) {
    if (mc3::Status status = WriteFile(trace_path, log.ToChromeTrace());
        !status.ok()) {
      out.Fail(status.ToString());
    }
  }
  return out;
}

}  // namespace perfbench
