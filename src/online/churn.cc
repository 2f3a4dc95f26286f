#include "online/churn.h"

#include <algorithm>
#include <utility>

namespace mc3::online {
namespace {

/// Shifts every property id of `set` by `offset`.
PropertySet OffsetSet(const PropertySet& set, PropertyId offset) {
  std::vector<PropertyId> ids = set.ids();
  for (PropertyId& id : ids) id += offset;
  return PropertySet::FromSorted(std::move(ids));
}

}  // namespace

Instance GenerateShardedSynthetic(const ShardedSyntheticConfig& config) {
  Instance merged;
  PropertyId offset = 0;
  for (size_t d = 0; d < config.num_domains; ++d) {
    data::SyntheticConfig domain = config.domain;
    domain.seed = config.domain.seed + d;
    const Instance shard = data::GenerateSynthetic(domain);
    PropertyId max_id = 0;
    for (const PropertySet& q : shard.queries()) {
      merged.AddQuery(OffsetSet(q, offset));
      max_id = std::max(max_id, *(q.end() - 1));
    }
    for (ClassifierId id : shard.costs().ids()) {
      merged.SetCost(OffsetSet(shard.costs().Classifier(id), offset),
                     shard.costs().cost(id));
    }
    offset += max_id + 1;
  }
  return merged;
}

ChurnGenerator::ChurnGenerator(const Instance& base, uint64_t seed)
    : queries_(base.queries()), rng_(seed) {
  live_.resize(queries_.size());
  for (size_t i = 0; i < live_.size(); ++i) live_[i] = i;
}

size_t ChurnGenerator::Draw(std::vector<size_t>* pool) {
  const size_t at = rng_.UniformInt(0, pool->size() - 1);
  const size_t picked = (*pool)[at];
  (*pool)[at] = pool->back();
  pool->pop_back();
  return picked;
}

ChurnGenerator::Batch ChurnGenerator::Next(size_t adds, size_t removes) {
  Batch batch;
  removes = std::min(removes, live_.size());
  for (size_t i = 0; i < removes; ++i) {
    const size_t picked = Draw(&live_);
    batch.remove.push_back(queries_[picked]);
    retired_.push_back(picked);
  }
  adds = std::min(adds, retired_.size());
  for (size_t i = 0; i < adds; ++i) {
    const size_t picked = Draw(&retired_);
    batch.add.push_back(queries_[picked]);
    live_.push_back(picked);
  }
  return batch;
}

}  // namespace mc3::online
