#include "online/shard_router.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace mc3::online {

ShardRouter::ShardRouter(uint32_t num_shards)
    : num_shards_(num_shards == 0 ? 1 : num_shards) {}

uint32_t ShardRouter::ShardOf(const PropertySet& query) const {
  const auto it = shard_of_query_.find(query);
  return it == shard_of_query_.end() ? num_shards_ : it->second;
}

uint32_t ShardRouter::HashShard(const PropertySet& query) const {
  // FNV-1a's low bits are weak (multiplication only carries upward, so
  // they see just the low bits of the input); a raw `% num_shards` sends
  // whole query families to one shard. Finalize with a splitmix64-style
  // mixer so every input bit reaches the modulus.
  uint64_t h = query.Hash();
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<uint32_t>(h % num_shards_);
}

ShardRouter::Group* ShardRouter::FindGroup(PropertyId prop) {
  const auto it = groups_.find(uf_.Find(prop));
  return it == groups_.end() ? nullptr : &it->second;
}

RoutePlan ShardRouter::Route(const std::vector<PropertySet>& add,
                             const std::vector<PropertySet>& remove) {
  RoutePlan plan;
  plan.shards.resize(num_shards_);

  /// Before/after placement of one affected query; the plan is emitted from
  /// these diffs so every query appears at most once per shard.
  struct Delta {
    bool was_live = false;
    uint32_t old_shard = 0;
    bool now_live = false;
    uint32_t new_shard = 0;
  };
  std::unordered_map<PropertySet, Delta, PropertySetHash> deltas;

  const std::unordered_set<PropertySet, PropertySetHash> added_set(
      add.begin(), add.end());

  // Removes first (ApplyUpdate order). A remove cancelled by an add of the
  // same query nets out, exactly as the engine nets it; repeated removes of
  // one query collapse silently, as they do in the engine.
  std::unordered_set<PropertySet, PropertySetHash> removed_now;
  for (const PropertySet& q : remove) {
    if (added_set.count(q) > 0) continue;
    if (removed_now.count(q) > 0) continue;
    const auto it = shard_of_query_.find(q);
    if (it == shard_of_query_.end()) {
      ++plan.missing_removes;
      continue;
    }
    Group* group = FindGroup(q.ids().front());
    if (group != nullptr) {
      const auto pos = std::find(group->queries.begin(), group->queries.end(), q);
      if (pos != group->queries.end()) group->queries.erase(pos);
    }
    Delta d;
    d.was_live = true;
    d.old_shard = it->second;
    deltas.emplace(q, d);
    removed_now.insert(q);
    shard_of_query_.erase(it);
    ++plan.queries_removed;
  }

  // Adds, in batch order: join the touched groups' shard (merging groups
  // and migrating losers when they disagree) or place a fresh group by
  // hash.
  std::unordered_set<PropertySet, PropertySetHash> batch_new;
  for (const PropertySet& q : add) {
    if (shard_of_query_.count(q) > 0 || !batch_new.insert(q).second) {
      ++plan.duplicate_adds;
      continue;
    }
    std::vector<uint32_t> roots;
    for (const PropertyId p : q) {
      const uint32_t root = uf_.Find(p);
      if (groups_.count(root) > 0) roots.push_back(root);
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());

    uint32_t target = 0;
    if (roots.empty()) {
      target = HashShard(q);
    } else {
      // Winner: the shard holding the most live queries among the touched
      // groups; ties break to the smallest shard index. Deterministic and
      // migration-minimizing.
      std::vector<std::pair<uint32_t, size_t>> live_per_shard;
      for (const uint32_t root : roots) {
        const Group& group = groups_.at(root);
        bool merged = false;
        for (auto& [shard, count] : live_per_shard) {
          if (shard == group.shard) {
            count += group.queries.size();
            merged = true;
            break;
          }
        }
        if (!merged) live_per_shard.emplace_back(group.shard,
                                                 group.queries.size());
      }
      target = live_per_shard.front().first;
      size_t best = live_per_shard.front().second;
      for (const auto& [shard, count] : live_per_shard) {
        if (count > best || (count == best && shard < target)) {
          target = shard;
          best = count;
        }
      }
    }

    // Merge the touched groups: migrate losers' live queries to the target
    // shard, fold every group into one, and union the query's properties.
    Group merged;
    merged.shard = target;
    for (const uint32_t root : roots) {
      Group& group = groups_.at(root);
      if (group.shard != target) {
        std::vector<PropertySet> moving = group.queries;
        std::sort(moving.begin(), moving.end());
        for (const PropertySet& m : moving) {
          shard_of_query_[m] = target;
          const auto [dit, inserted] = deltas.try_emplace(m, Delta{});
          if (inserted) {
            dit->second.was_live = true;
            dit->second.old_shard = group.shard;
          }
          dit->second.now_live = true;
          dit->second.new_shard = target;
        }
      }
      merged.queries.insert(merged.queries.end(), group.queries.begin(),
                            group.queries.end());
      groups_.erase(root);
    }
    for (const PropertyId p : q) uf_.Union(p, q.ids().front());
    merged.queries.push_back(q);
    groups_[uf_.Find(q.ids().front())] = std::move(merged);

    shard_of_query_[q] = target;
    Delta d;
    d.now_live = true;
    d.new_shard = target;
    deltas.emplace(q, d);
    ++plan.queries_added;
  }

  // Emit per-shard ops from the placement diffs, in canonical query order.
  std::vector<std::pair<PropertySet, Delta>> ordered(deltas.begin(),
                                                     deltas.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [q, d] : ordered) {
    const bool moved = d.was_live && d.now_live && d.new_shard != d.old_shard;
    if (d.was_live && (!d.now_live || moved)) {
      plan.shards[d.old_shard].remove.push_back(q);
    }
    if (d.now_live && (!d.was_live || moved)) {
      plan.shards[d.new_shard].add.push_back(q);
    }
    if (moved) ++plan.migrated;
  }
  return plan;
}

Status ShardRouter::AdoptAssignment(
    const std::vector<std::vector<PropertySet>>& live_by_shard) {
  if (!shard_of_query_.empty() || !groups_.empty()) {
    return Status::Internal("AdoptAssignment requires an untouched router");
  }
  if (live_by_shard.size() != num_shards_) {
    return Status::InvalidArgument(
        "placement lists " + std::to_string(live_by_shard.size()) +
        " shards but the router has " + std::to_string(num_shards_));
  }
  for (uint32_t shard = 0; shard < live_by_shard.size(); ++shard) {
    for (const PropertySet& q : live_by_shard[shard]) {
      if (q.empty()) {
        return Status::InvalidArgument("cannot adopt an empty query");
      }
      if (!shard_of_query_.emplace(q, shard).second) {
        return Status::InvalidArgument("placement repeats a query");
      }
      std::vector<uint32_t> roots;
      for (const PropertyId p : q) {
        const uint32_t root = uf_.Find(p);
        if (groups_.count(root) > 0) roots.push_back(root);
      }
      std::sort(roots.begin(), roots.end());
      roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
      Group merged;
      merged.shard = shard;
      for (const uint32_t root : roots) {
        Group& group = groups_.at(root);
        if (group.shard != shard) {
          return Status::InvalidArgument(
              "placement splits connected queries across shards " +
              std::to_string(group.shard) + " and " + std::to_string(shard));
        }
        merged.queries.insert(merged.queries.end(), group.queries.begin(),
                              group.queries.end());
        groups_.erase(root);
      }
      for (const PropertyId p : q) uf_.Union(p, q.ids().front());
      merged.queries.push_back(q);
      groups_[uf_.Find(q.ids().front())] = std::move(merged);
    }
  }
  return Status::OK();
}

Status ShardRouter::CheckInvariants() const {
  size_t grouped = 0;
  // mc3-lint: unordered-ok(invariant scan; every failure is the same error)
  for (const auto& [root, group] : groups_) {
    if (group.shard >= num_shards_) {
      return Status::Internal("router group placed on an unknown shard");
    }
    for (const PropertySet& q : group.queries) {
      ++grouped;
      const auto it = shard_of_query_.find(q);
      if (it == shard_of_query_.end()) {
        return Status::Internal("router group lists a dead query");
      }
      if (it->second != group.shard) {
        return Status::Internal("query placement disagrees with its group");
      }
      for (const PropertyId p : q) {
        if (uf_.Find(p) != root) {
          return Status::Internal(
              "query property outside its group's connectivity class");
        }
      }
    }
  }
  if (grouped != shard_of_query_.size()) {
    return Status::Internal("router groups do not partition the live set");
  }
  return Status::OK();
}

}  // namespace mc3::online
