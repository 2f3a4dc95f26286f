#include "online/sharded_engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/instance_util.h"
#include "util/timer.h"

namespace mc3::online {

EngineState CanonicalizeState(EngineState state) {
  std::sort(state.components.begin(), state.components.end(),
            [](const EngineState::Component& a,
               const EngineState::Component& b) {
              return a.queries < b.queries;
            });
  return state;
}

ShardedEngine::ShardedEngine(uint32_t num_shards, EngineOptions options)
    : router_(num_shards == 0 ? 1 : num_shards) {
  const uint32_t n = num_shards == 0 ? 1 : num_shards;
  engines_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) engines_.emplace_back(options);
  last_batch_.shard_ops.assign(n, 0);
  last_batch_.shard_apply_seconds.assign(n, 0.0);
}

Result<UpdateStats> ShardedEngine::Initialize(const Instance& base) {
  if (!base.property_names().empty()) {
    share_property_names(base.shared_property_names());
  }
  // In price-table order, so a failing classifier reports the same error
  // on every run (mirrors OnlineEngine::Initialize).
  const ClassifierStore& costs = base.costs();
  for (ClassifierId id : costs.ids()) {
    MC3_RETURN_IF_ERROR(SetCost(costs.Classifier(id), costs.cost(id)));
  }
  return ApplyUpdate(base.queries(), {});
}

Status ShardedEngine::SetCost(const PropertySet& classifier, Cost cost) {
  for (OnlineEngine& engine : engines_) {
    MC3_RETURN_IF_ERROR(engine.SetCost(classifier, cost));
  }
  return Status::OK();
}

Cost ShardedEngine::CostOf(const PropertySet& classifier) const {
  return engines_.front().CostOf(classifier);
}

Result<UpdateStats> ShardedEngine::ApplyUpdate(
    const std::vector<PropertySet>& add,
    const std::vector<PropertySet>& remove) {
  return ApplyUpdate(add, remove, [](std::vector<std::function<void()>>* jobs) {
    for (std::function<void()>& job : *jobs) {
      if (job) job();
    }
  });
}

Result<UpdateStats> ShardedEngine::ApplyUpdate(
    const std::vector<PropertySet>& add,
    const std::vector<PropertySet>& remove, const ShardRunner& runner) {
  const uint32_t n = num_shards();
  if (n == 1) return engines_.front().ApplyUpdate(add, remove);

  // Validate before any router or shard mutation: the whole batch commits
  // or nothing does, matching the single engine's all-or-nothing contract.
  // The checks and messages are the single engine's, against the
  // replicated table and the router's live set.
  const auto live = [this](const PropertySet& q) { return router_.IsLive(q); };
  MC3_RETURN_IF_ERROR(engines_.front().ValidateAdds(add, live).status());

  const RoutePlan plan = router_.Route(add, remove);
  last_batch_.shard_ops.assign(n, 0);
  last_batch_.shard_apply_seconds.assign(n, 0.0);
  last_batch_.migrated = plan.migrated;

  UpdateStats stats;
  stats.queries_added = plan.queries_added;
  stats.queries_removed = plan.queries_removed;
  stats.duplicate_adds = plan.duplicate_adds;
  stats.missing_removes = plan.missing_removes;
  ++counters_.updates;

  std::vector<std::function<void()>> jobs(n);
  std::vector<Status> statuses(n);
  std::vector<UpdateStats> shard_stats(n);
  // Timed into a local (one slot per shard, no sharing) and copied into
  // last_batch_ after the runner joins, so concurrent jobs never touch a
  // member.
  std::vector<double> apply_seconds(n, 0.0);
  bool any = false;
  for (uint32_t i = 0; i < n; ++i) {
    if (plan.shards[i].empty()) continue;
    any = true;
    last_batch_.shard_ops[i] = plan.shards[i].ops();
    const ShardOps& ops = plan.shards[i];
    jobs[i] = [this, i, &ops, &statuses, &shard_stats, &apply_seconds] {
      const Timer apply_timer;
      auto applied = engines_[i].ApplyUpdate(ops.add, ops.remove);
      apply_seconds[i] = apply_timer.Seconds();
      if (applied.ok()) {
        shard_stats[i] = *applied;
      } else {
        statuses[i] = applied.status();
      }
    };
  }
  if (!any) return stats;
  runner(&jobs);
  last_batch_.shard_apply_seconds = apply_seconds;

  for (uint32_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      // Unreachable for validated batches (the routed ops were pre-checked
      // against the same replicated table); surfaced loudly as the engine
      // bug it would be.
      return Status::Internal("shard " + std::to_string(i) +
                              " rejected a pre-validated batch: " +
                              statuses[i].message());
    }
    stats.components_dirtied += shard_stats[i].components_dirtied;
    stats.components_resolved += shard_stats[i].components_resolved;
    stats.queries_touched += shard_stats[i].queries_touched;
    stats.resolve_seconds += shard_stats[i].resolve_seconds;
  }
  migrated_total_ += plan.migrated;
  counters_.queries_added += stats.queries_added;
  counters_.queries_removed += stats.queries_removed;
  counters_.components_resolved += stats.components_resolved;
  counters_.queries_touched += stats.queries_touched;
  counters_.resolve_seconds += stats.resolve_seconds;
  return stats;
}

Cost ShardedEngine::TotalCost() const {
  Cost total = 0;
  for (const OnlineEngine& engine : engines_) total += engine.TotalCost();
  return total;
}

Cost ShardedEngine::CanonicalTotalCost() const {
  Cost total = 0;
  for (const EngineState::Component& component : CanonicalState().components) {
    total += component.cost;
  }
  return total;
}

Solution ShardedEngine::CurrentSolution() const {
  Solution merged;
  for (const OnlineEngine& engine : engines_) {
    merged.Merge(engine.CurrentSolution());
  }
  return merged;
}

size_t ShardedEngine::NumQueries() const {
  size_t total = 0;
  for (const OnlineEngine& engine : engines_) total += engine.NumQueries();
  return total;
}

size_t ShardedEngine::NumComponents() const {
  size_t total = 0;
  for (const OnlineEngine& engine : engines_) total += engine.NumComponents();
  return total;
}

EngineCounters ShardedEngine::counters() const {
  if (engines_.size() == 1) return engines_.front().counters();
  return counters_;
}

void ShardedEngine::share_property_names(const PropertyNames& names) {
  for (OnlineEngine& engine : engines_) engine.share_property_names(names);
}

ShardedState ShardedEngine::ExportSharded() const {
  ShardedState out;
  out.num_shards = num_shards();
  out.state.property_names = property_names();
  out.state.costs = SortedCostEntries(engines_.front().costs());
  for (uint32_t i = 0; i < engines_.size(); ++i) {
    EngineState shard_state = engines_[i].ExportState();
    for (EngineState::Component& component : shard_state.components) {
      out.state.components.push_back(std::move(component));
      out.component_shards.push_back(i);
    }
  }
  return out;
}

EngineState ShardedEngine::CanonicalState() const {
  return CanonicalizeState(ExportSharded().state);
}

Status ShardedEngine::ImportSharded(const ShardedState& state) {
  if (state.num_shards != num_shards()) {
    return Status::InvalidArgument(
        "snapshot lays out " + std::to_string(state.num_shards) +
        " shard(s) but the engine is sharded " +
        std::to_string(num_shards()) +
        " way(s); restart with a matching --shards");
  }
  if (state.component_shards.size() != state.state.components.size()) {
    return Status::InvalidArgument(
        "snapshot shard tags do not match its component list");
  }
  std::vector<EngineState> per_shard(engines_.size());
  for (EngineState& shard_state : per_shard) {
    shard_state.property_names = state.state.property_names;
    shard_state.costs = state.state.costs;
  }
  for (size_t idx = 0; idx < state.state.components.size(); ++idx) {
    const uint32_t shard = state.component_shards[idx];
    if (shard >= engines_.size()) {
      return Status::InvalidArgument(
          "snapshot places a component on unknown shard " +
          std::to_string(shard));
    }
    per_shard[shard].components.push_back(state.state.components[idx]);
  }
  for (uint32_t i = 0; i < engines_.size(); ++i) {
    MC3_RETURN_IF_ERROR(engines_[i].ImportState(per_shard[i]));
  }
  // Each shard imported its own copy of the names; keep one.
  share_property_names(engines_.front().shared_property_names());
  if (num_shards() > 1) {
    std::vector<std::vector<PropertySet>> live(engines_.size());
    for (size_t idx = 0; idx < state.state.components.size(); ++idx) {
      for (const PropertySet& q : state.state.components[idx].queries) {
        live[state.component_shards[idx]].push_back(q);
      }
    }
    MC3_RETURN_IF_ERROR(router_.AdoptAssignment(live));
  }
  return Status::OK();
}

Status ShardedEngine::CheckInvariants() const {
  for (const OnlineEngine& engine : engines_) {
    MC3_RETURN_IF_ERROR(engine.CheckInvariants());
  }
  if (num_shards() == 1) return Status::OK();

  // The sharding contract: no property (and hence no connected component)
  // spans two shards, the router placement matches reality, and the cost
  // table is replicated bit-exactly.
  std::unordered_map<PropertyId, uint32_t> prop_shard;
  size_t total_live = 0;
  const ClassifierStore& table = engines_.front().costs();
  for (uint32_t i = 0; i < engines_.size(); ++i) {
    const EngineState shard_state = engines_[i].ExportState();
    for (const EngineState::Component& component : shard_state.components) {
      for (const PropertySet& q : component.queries) {
        ++total_live;
        if (router_.ShardOf(q) != i) {
          return Status::Internal(
              "router places a live query away from its shard");
        }
        for (const PropertyId p : q) {
          const auto [it, inserted] = prop_shard.emplace(p, i);
          if (!inserted && it->second != i) {
            return Status::Internal(
                "property shared across shards (a component is split)");
          }
        }
      }
    }
    if (engines_[i].costs().size() != table.size()) {
      return Status::Internal("cost table not fully replicated to a shard");
    }
    for (ClassifierId id : table.ids()) {
      // mc3-lint: float-eq-ok(replication is bit-exact: same SetCost values)
      if (engines_[i].costs().CostOf(table.key(id)) != table.cost(id)) {
        return Status::Internal("cost table diverged on a shard");
      }
    }
  }
  if (router_.num_live() != total_live) {
    return Status::Internal("router live set out of sync with the shards");
  }
  return router_.CheckInvariants();
}

}  // namespace mc3::online
