// DurabilityManager: the serving engine's persistence facade
// (docs/durability.md). Owns a data directory holding WAL segments
// (src/durability/wal.h) and snapshots (src/durability/snapshot.h) and
// implements the recovery contract:
//
//   recovered state = latest valid snapshot
//                   + replay of WAL records with seq > snapshot seq
//
// which equals the state of the crashed process up to the acknowledged
// batches that were not yet durable (the group-commit window). The engine's
// determinism guarantee (docs/online.md) makes the equality byte-exact:
// replaying the same admitted batches from the same base always reproduces
// the same solution store.
//
// Lifecycle: Open -> Recover (exactly once, before any logging) ->
// LogBatch per admitted update -> Checkpoint when the policy fires or the
// `checkpoint` verb asks -> Close. The engine worker is the only caller of
// LogBatch/Checkpoint, mirroring its exclusive ownership of the engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/instance.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "online/online_engine.h"
#include "util/status.h"

namespace mc3::durability {

struct DurabilityOptions {
  /// Directory holding WAL segments and snapshots. Created if missing.
  std::string data_dir;

  WalOptions wal;

  /// Take a snapshot after this many logged update batches (0 = only on
  /// demand via the `checkpoint` verb).
  uint64_t checkpoint_every_updates = 0;
  /// ... and/or when this many seconds have passed since the last
  /// checkpoint and at least one batch was logged (0 = off).
  double checkpoint_interval_s = 0;

  /// Keep WAL segments that a checkpoint made redundant instead of deleting
  /// them (debugging / audit: `mc3 wal dump` then sees the full history).
  bool keep_segments = false;
};

/// What Recover did, surfaced as obs metrics (`durability.snapshot_seq`,
/// `durability.wal_records_replayed`, `durability.recovery_ms` gauges/
/// counters) and through the `wal_stats` verb.
struct RecoveryStats {
  bool snapshot_loaded = false;
  uint64_t snapshot_seq = 0;        ///< 0 when no snapshot was found
  uint64_t wal_records_replayed = 0;
  uint64_t wal_last_seq = 0;        ///< last valid sequence found on disk
  bool torn_tail = false;           ///< a torn final record was truncated
  size_t snapshots_skipped = 0;     ///< invalid snapshot files ignored
  double recovery_seconds = 0;
};

/// Outcome of one checkpoint.
struct CheckpointInfo {
  uint64_t seq = 0;       ///< WAL sequence the snapshot includes
  std::string path;       ///< published snapshot file
  uint64_t bytes = 0;     ///< snapshot document size
  double seconds = 0;     ///< sync + render + publish + rotate wall time
};

/// Prices the classifiers of `added` that `engine` has no price for, at
/// `default_cost` per-property difficulty (data::EstimateCosts); a no-op
/// when `default_cost` is negative. The live server's admission, WAL
/// replay and `mc3 serve --trace` all call it, so replay grows the same
/// cost table. Returns how many classifiers it priced.
Result<size_t> PriceUnknown(const std::vector<PropertySet>& added,
                            double default_cost, online::OnlineEngine* engine);

class DurabilityManager {
 public:
  /// Opens `options.data_dir` (creating it if missing) and the WAL writer,
  /// truncating a torn final record. No engine state is touched yet.
  static Result<std::unique_ptr<DurabilityManager>> Open(
      DurabilityOptions options);

  /// Restores engine state: loads the latest valid snapshot into `engine`
  /// (which must be untouched) or, when none exists, initializes it from
  /// `base`; then replays the WAL tail past the snapshot's sequence.
  /// Classifiers unknown at replay time are priced exactly like the live
  /// server prices them (data::EstimateCosts with `default_cost` as the
  /// per-property difficulty; negative disables pricing). Call exactly
  /// once, before any LogBatch. When a snapshot was loaded, `base` is
  /// ignored — its content is part of the snapshot.
  Result<RecoveryStats> Recover(const Instance& base, double default_cost,
                                online::OnlineEngine* engine);

  /// Appends one admitted update batch; returns its sequence number.
  Result<uint64_t> LogBatch(const std::vector<PropertySet>& add,
                            const std::vector<PropertySet>& remove,
                            const std::vector<std::string>& names);
  /// Same, for a batch already rendered through RenderUpdateBatch (callers
  /// that also record a debug trace render once and share the text).
  Result<uint64_t> LogPayload(std::string payload);

  /// True when the checkpoint policy (count and/or interval) asks for a
  /// snapshot now. Resets only when Checkpoint succeeds.
  bool ShouldCheckpoint() const;

  /// Publishes a snapshot of `state` covering every logged batch: WAL sync
  /// barrier, atomic snapshot write, segment rotation. `state` must be the
  /// engine's export under the same exclusion that serializes LogBatch
  /// (the engine worker), so the captured WAL sequence is exact.
  Result<CheckpointInfo> Checkpoint(const online::EngineState& state);

  WalWriterStats GetWalStats() const;
  const RecoveryStats& recovery() const { return recovery_; }
  const DurabilityOptions& options() const { return options_; }

  /// Syncs and closes the WAL (idempotent; destruction closes too).
  Status Close();

 private:
  explicit DurabilityManager(DurabilityOptions options);

  DurabilityOptions options_;
  std::unique_ptr<WalWriter> wal_;
  RecoveryStats recovery_;
  bool recovered_ = false;

  uint64_t batches_since_checkpoint_ = 0;
  /// steady_clock seconds at the last checkpoint (or Open).
  double last_checkpoint_at_ = 0;
};

}  // namespace mc3::durability
