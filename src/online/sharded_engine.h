// ShardedEngine: N OnlineEngines behind one facade, each owning a disjoint
// slice of the live components (docs/serving.md).
//
// The paper's decomposition (Observation 3.2) already splits the instance
// into independently solvable components; the sharded engine scales that
// across engine workers while staying byte-equivalent to a single engine:
//
//   * a ShardRouter (src/online/shard_router.h) keeps every connected
//     component entirely on one shard, migrating queries when an add merges
//     groups placed apart;
//   * the classifier cost table is replicated to every shard, so each
//     shard prices, validates and solves exactly as the single engine
//     would; the facade keeps no copy of its own and asks shard 0;
//   * every shard shares one immutable property-name table;
//   * merged reads (CurrentSolution, CanonicalState, CanonicalTotalCost)
//     combine per-shard results in canonical order, so the merged answer
//     does not depend on which shard holds which component.
//
// With num_shards == 1 the facade is a transparent pass-through to one
// OnlineEngine — no router, no replication, byte-for-byte the legacy
// behavior (including the legacy mc3.snapshot/1 export).
//
// Not thread-safe: callers serialize all calls, exactly like OnlineEngine.
// The ShardRunner hook lets a caller execute the per-shard apply jobs of
// one batch on its own worker threads (src/server/server.cc does); the
// facade only requires that all jobs completed before the runner returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/solution.h"
#include "online/online_engine.h"
#include "online/shard_router.h"
#include "util/status.h"

namespace mc3::online {

/// Serializable sharded engine state: the concatenated per-shard
/// EngineState (components in shard-major order) plus each component's
/// owning shard. num_shards == 1 round-trips through the legacy
/// mc3.snapshot/1 document; larger layouts use mc3.snapshot/2
/// (src/durability/snapshot.h).
struct ShardedState {
  uint32_t num_shards = 1;
  EngineState state;
  /// Owning shard per state.components entry (parallel array).
  std::vector<uint32_t> component_shards;
};

/// Canonicalizes an exported engine state independently of shard placement
/// and component creation order: an export already lists each component's
/// queries and solution sorted, and this sorts the components by their
/// (distinct) smallest query. Byte-identical canonical states are the
/// sharded-vs-single equivalence oracle (tests/determinism_test.cc).
EngineState CanonicalizeState(EngineState state);

/// Per-batch routing outcome, for server metrics and tests.
struct ShardBatchStats {
  /// Ops (adds + removes) dispatched to each shard by the last batch.
  std::vector<size_t> shard_ops;
  /// Wall-clock seconds each shard spent applying its slice of the last
  /// batch (0 for untouched shards; measured inside the apply job, so a
  /// concurrent runner reports genuinely parallel times).
  std::vector<double> shard_apply_seconds;
  size_t migrated = 0;
};

class ShardedEngine {
 public:
  /// Executes the per-shard apply jobs of one routed batch. Entries are
  /// empty std::functions for shards the batch does not touch; a runner may
  /// run the rest concurrently (one job per shard at most) but must finish
  /// them all before returning.
  using ShardRunner =
      std::function<void(std::vector<std::function<void()>>* jobs)>;

  explicit ShardedEngine(uint32_t num_shards, EngineOptions options = {});

  uint32_t num_shards() const {
    return static_cast<uint32_t>(engines_.size());
  }
  OnlineEngine& shard(uint32_t index) { return engines_[index]; }
  const OnlineEngine& shard(uint32_t index) const { return engines_[index]; }

  /// Merges `base`'s cost table into every shard and routes its queries as
  /// one batch (mirrors OnlineEngine::Initialize).
  Result<UpdateStats> Initialize(const Instance& base);

  /// Prices `classifier` on every shard (the table is replicated so each
  /// shard validates and solves exactly like the single engine).
  Status SetCost(const PropertySet& classifier, Cost cost);
  /// Price in the replicated table (read from shard 0).
  Cost CostOf(const PropertySet& classifier) const;

  /// Applies one net update batch: validates every add up front
  /// (OnlineEngine::ValidateAdds against the router's live set, so a
  /// rejected batch mutates nothing), routes it, applies per shard, and
  /// merges the stats.
  /// queries_added/removed count the user's net effect; components_resolved
  /// and queries_touched sum the per-shard work (group migrations re-solve
  /// the moved components on both sides, so these can exceed the
  /// single-engine numbers).
  Result<UpdateStats> ApplyUpdate(const std::vector<PropertySet>& add,
                                  const std::vector<PropertySet>& remove);
  Result<UpdateStats> ApplyUpdate(const std::vector<PropertySet>& add,
                                  const std::vector<PropertySet>& remove,
                                  const ShardRunner& runner);

  /// Sum of the per-shard aggregate costs in shard order (for num_shards
  /// == 1, exactly the single engine's TotalCost).
  Cost TotalCost() const;
  /// Shard- and history-independent total: per-component costs summed in
  /// canonical component order. Use when comparing across shard layouts
  /// (float addition is not associative).
  Cost CanonicalTotalCost() const;

  /// Union of every shard's solution, merged in shard order (deduplicated;
  /// render through Solution::Sorted for canonical bytes).
  Solution CurrentSolution() const;

  size_t NumQueries() const;
  size_t NumComponents() const;

  /// Facade-level counters: updates counts batches through this facade;
  /// queries_added/removed count net user effect (migrations excluded);
  /// the work counters sum the shards. For num_shards == 1 these are the
  /// single engine's counters verbatim.
  EngineCounters counters() const;

  /// Live queries migrated between shards over the engine's lifetime.
  size_t migrated_total() const { return migrated_total_; }
  /// Routing outcome of the most recent ApplyUpdate.
  const ShardBatchStats& last_batch() const { return last_batch_; }

  /// The name table every shard shares (read from shard 0).
  const std::vector<std::string>& property_names() const {
    return engines_.front().property_names();
  }
  const PropertyNames& shared_property_names() const {
    return engines_.front().shared_property_names();
  }
  /// Shares `names` with every shard (no copy).
  void share_property_names(const PropertyNames& names);

  /// Exports the full sharded state (shard-major canonical component
  /// order, replicated cost table rendered once).
  ShardedState ExportSharded() const;
  /// The merged state in canonical form (shard- and history-independent).
  EngineState CanonicalState() const;

  /// Restores an exported sharded state into this untouched engine. Fails
  /// with InvalidArgument when `state.num_shards` disagrees with this
  /// engine's layout (a snapshot/--shards mismatch) or the placement
  /// splits a connected component across shards.
  Status ImportSharded(const ShardedState& state);

  /// Per-shard invariants plus the sharding contract: live sets disjoint,
  /// no property shared across shards (connected queries co-located), the
  /// router's placement in sync, the cost table replicated everywhere.
  Status CheckInvariants() const;

  const ShardRouter& router() const { return router_; }

 private:
  std::vector<OnlineEngine> engines_;
  ShardRouter router_;

  size_t migrated_total_ = 0;
  ShardBatchStats last_batch_;
  EngineCounters counters_;
};

}  // namespace mc3::online
