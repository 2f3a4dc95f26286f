#include "durability/durability.h"

#include <chrono>
#include <utility>

#include "data/query_log.h"
#include "durability/snapshot.h"
#include "obs/metrics.h"
#include "online/update_trace.h"
#include "util/float_cmp.h"

namespace mc3::durability {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Splits trace text into lines (the inverse of RenderUpdateBatch's
/// newline-terminated framing).
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) lines.push_back(std::move(current));
  return lines;
}

}  // namespace

Result<size_t> PriceUnknown(const std::vector<PropertySet>& added,
                            double default_cost, online::OnlineEngine* engine) {
  if (default_cost < 0 || added.empty()) return size_t{0};
  Instance pricing;
  pricing.share_property_names(engine->shared_property_names());
  for (const PropertySet& query : added) pricing.AddQuery(query);
  data::CostEstimatorOptions estimator;
  estimator.default_difficulty = default_cost;
  MC3_RETURN_IF_ERROR(data::EstimateCosts(&pricing, estimator));
  const ClassifierStore& costs = pricing.costs();
  size_t priced = 0;
  for (ClassifierId id : costs.ids()) {
    const PropertySet classifier = costs.Classifier(id);
    if (!IsInfiniteCost(engine->CostOf(classifier))) continue;
    MC3_RETURN_IF_ERROR(engine->SetCost(classifier, costs.cost(id)));
    ++priced;
  }
  return priced;
}

DurabilityManager::DurabilityManager(DurabilityOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    DurabilityOptions options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("durability requires a data directory");
  }
  std::unique_ptr<DurabilityManager> manager(
      // mc3-lint: new-delete-ok(private ctor; owned by unique_ptr at birth)
      new DurabilityManager(std::move(options)));
  auto wal = WalWriter::Open(manager->options_.data_dir, manager->options_.wal);
  if (!wal.ok()) return wal.status();
  manager->wal_ = std::move(*wal);
  manager->last_checkpoint_at_ = NowSeconds();
  return manager;
}

Result<RecoveryStats> DurabilityManager::Recover(
    const Instance& base, double default_cost, online::OnlineEngine* engine) {
  if (recovered_) return Status::Internal("Recover called twice");
  const double started = NowSeconds();

  RecoveryStats stats;
  const WalWriterStats wal_stats = wal_->Stats();
  stats.wal_last_seq = wal_stats.last_seq;
  stats.torn_tail = wal_stats.torn_tail_on_open;

  auto snapshot = LoadLatestSnapshot(options_.data_dir);
  if (snapshot.ok()) {
    stats.snapshot_loaded = true;
    stats.snapshot_seq = snapshot->seq;
    stats.snapshots_skipped = snapshot->skipped_invalid;
    MC3_RETURN_IF_ERROR(engine->ImportState(snapshot->state));
  } else if (snapshot.status().code() == StatusCode::kNotFound) {
    auto initialized = engine->Initialize(base);
    if (!initialized.ok()) return initialized.status();
  } else {
    return snapshot.status();
  }

  if (stats.snapshot_seq > stats.wal_last_seq) {
    // The snapshot outlived its covering WAL segments (rotated away, or the
    // segments were lost). The snapshot alone is the recovered state; the
    // writer just must never reassign sequences at or below it.
    MC3_RETURN_IF_ERROR(wal_->EnsureSeqFloor(stats.snapshot_seq));
  }

  auto scan = ReadWal(options_.data_dir, stats.snapshot_seq);
  if (!scan.ok()) return scan.status();
  // The tail must continue the restored state. When the newest snapshot
  // does not load, recovery falls back to an older one (or to the base),
  // but the checkpoint that wrote the newer one may have rotated away the
  // records in between; replaying what is left would skip them.
  const uint64_t expected_seq = stats.snapshot_seq + 1;
  const uint64_t found_seq = scan->records.empty()
                                 ? scan->last_seq + 1
                                 : scan->records.front().seq;
  if (found_seq > expected_seq) {
    return Status::IOError(
        "WAL tail has a hole: expected seq " + std::to_string(expected_seq) +
        (stats.snapshot_loaded
             ? " after snapshot " + std::to_string(stats.snapshot_seq)
             : std::string(" after the base workload")) +
        ", found seq " + std::to_string(found_seq));
  }
  // One interner for the whole tail: a record costs its own names, not a
  // re-index of the table, and the engine's table is re-made only by a
  // record that brings a new name.
  PropertyInterner names;
  MC3_RETURN_IF_ERROR(names.Load(engine->shared_property_names()));
  for (const WalRecord& record : scan->records) {
    const size_t known = names.size();
    auto trace = online::ParseUpdateTrace(SplitLines(record.payload), names);
    if (!trace.ok()) {
      return Status::IOError("WAL record " + std::to_string(record.seq) +
                             ": " + trace.status().message());
    }
    if (names.size() != known) engine->share_property_names(names.names());
    std::vector<PropertySet> add;
    std::vector<PropertySet> remove;
    for (online::TraceOp& op : trace->ops) {
      if (op.kind == online::TraceOp::Kind::kAdd) {
        add.push_back(std::move(op.query));
      } else {
        remove.push_back(std::move(op.query));
      }
    }
    auto priced = PriceUnknown(add, default_cost, engine);
    if (!priced.ok()) return priced.status();
    auto applied = engine->ApplyUpdate(add, remove);
    if (!applied.ok()) {
      return Status::IOError("WAL record " + std::to_string(record.seq) +
                             " does not replay: " +
                             applied.status().message());
    }
    ++stats.wal_records_replayed;
  }

  stats.recovery_seconds = NowSeconds() - started;
  recovery_ = stats;
  recovered_ = true;

  obs::MetricsRegistry::Global()
      .GetCounter("durability.wal_records_replayed")
      .Add(stats.wal_records_replayed);
  obs::MetricsRegistry::Global()
      .GetGauge("durability.snapshot_seq")
      .Set(static_cast<double>(stats.snapshot_seq));
  obs::MetricsRegistry::Global()
      .GetGauge("durability.recovery_ms")
      .Set(stats.recovery_seconds * 1e3);
  return stats;
}

Result<uint64_t> DurabilityManager::LogBatch(
    const std::vector<PropertySet>& add, const std::vector<PropertySet>& remove,
    const std::vector<std::string>& names) {
  auto payload = online::RenderUpdateBatch(add, remove, names);
  if (!payload.ok()) return payload.status();
  return LogPayload(std::move(*payload));
}

Result<uint64_t> DurabilityManager::LogPayload(std::string payload) {
  auto seq = wal_->Append(std::move(payload));
  if (seq.ok()) ++batches_since_checkpoint_;
  return seq;
}

bool DurabilityManager::ShouldCheckpoint() const {
  if (batches_since_checkpoint_ == 0) return false;
  if (options_.checkpoint_every_updates > 0 &&
      batches_since_checkpoint_ >= options_.checkpoint_every_updates) {
    return true;
  }
  if (options_.checkpoint_interval_s > 0 &&
      NowSeconds() - last_checkpoint_at_ >= options_.checkpoint_interval_s) {
    return true;
  }
  return false;
}

Result<CheckpointInfo> DurabilityManager::Checkpoint(
    const online::EngineState& state) {
  const double started = NowSeconds();
  // Barrier: everything logged so far must be durable before the snapshot
  // that supersedes it is published — otherwise a crash after rotation
  // could lose acknowledged records the snapshot does not contain.
  MC3_RETURN_IF_ERROR(wal_->Sync());
  const uint64_t seq = wal_->Stats().last_seq;
  auto bytes = WriteSnapshotFile(options_.data_dir, state, seq);
  if (!bytes.ok()) return bytes.status();
  MC3_RETURN_IF_ERROR(wal_->Rotate(seq, options_.keep_segments));

  batches_since_checkpoint_ = 0;
  last_checkpoint_at_ = NowSeconds();

  CheckpointInfo info;
  info.seq = seq;
  info.path = options_.data_dir + "/" + SnapshotFileName(seq);
  info.bytes = *bytes;
  info.seconds = last_checkpoint_at_ - started;

  obs::MetricsRegistry::Global().GetCounter("durability.checkpoints").Add();
  obs::MetricsRegistry::Global()
      .GetCounter("durability.snapshot_bytes_written")
      .Add(info.bytes);
  obs::MetricsRegistry::Global()
      .GetGauge("durability.snapshot_seq")
      .Set(static_cast<double>(seq));
  return info;
}

WalWriterStats DurabilityManager::GetWalStats() const { return wal_->Stats(); }

Status DurabilityManager::Close() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Close();
}

}  // namespace mc3::durability
