#include "core/instance_util.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>

#include "util/rng.h"

namespace mc3 {

void CopySubsetPrices(const ClassifierStore& from, Instance* to,
                      size_t max_length) {
  // A slice of queries at a time, so the walk's scratch rows stay small
  // however many queries `to` holds (the engine copies its whole catalog).
  constexpr size_t kSlice = 1024;
  const std::span<const PropertySet> queries = to->queries();
  std::vector<QuerySubset> subsets;
  for (size_t first = 0; first < queries.size(); first += kSlice) {
    subsets.clear();
    from.AppendSubsets(
        queries.subspan(first, std::min(kSlice, queries.size() - first)),
        &subsets);
    for (const QuerySubset& s : subsets) {
      if (static_cast<size_t>(std::popcount(s.mask)) <= max_length) {
        to->SetCost(from.key(s.id), from.cost(s.id));
      }
    }
  }
}

Instance SubInstance(const Instance& instance,
                     const std::vector<size_t>& query_indices) {
  Instance sub;
  sub.share_property_names(instance.shared_property_names());
  for (size_t i : query_indices) {
    sub.AddQuery(instance.queries()[i]);
  }
  CopySubsetPrices(instance.costs(), &sub);
  return sub;
}

Instance RandomSubInstance(const Instance& instance, size_t count,
                           uint64_t seed) {
  const size_t n = instance.NumQueries();
  count = std::min(count, n);
  std::vector<size_t> indices(n);
  std::iota(indices.begin(), indices.end(), size_t{0});
  Rng rng(seed);
  // Partial Fisher-Yates: the first `count` slots become the sample.
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + static_cast<size_t>(rng.UniformInt(0, n - 1 - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(count);
  std::sort(indices.begin(), indices.end());  // keep original query order
  return SubInstance(instance, indices);
}

void PropertyIndex::Build() {
  if (ids_.empty()) return;
  const auto [lo, hi] = std::minmax_element(ids_.begin(), ids_.end());
  const PropertyId min = *lo;
  const size_t span = size_t{*hi} - min + 1;
  if (span > 2 * ids_.size() + 64) {
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
    return;
  }
  // Compact: mark the present ids, then number them in ascending order.
  direct_.assign(span, 0);
  for (PropertyId p : ids_) direct_[p - min] = 1;
  ids_.clear();
  for (size_t offset = 0; offset < span; ++offset) {
    if (direct_[offset] == 0) continue;
    direct_[offset] = static_cast<uint32_t>(ids_.size());
    ids_.push_back(static_cast<PropertyId>(min + offset));
  }
}

ComponentPartition PartitionQueries(const std::vector<PropertySet>& queries) {
  std::vector<size_t> all(queries.size());
  std::iota(all.begin(), all.end(), size_t{0});
  return PartitionQueries(queries, all);
}

std::vector<Instance> DecomposeComponents(const Instance& instance) {
  const ComponentPartition partition = PartitionQueries(instance.queries());
  std::vector<std::vector<size_t>> members(partition.num_components);
  for (size_t qi = 0; qi < instance.NumQueries(); ++qi) {
    members[partition.component_of[qi]].push_back(qi);
  }
  std::vector<Instance> components;
  components.reserve(members.size());
  for (const std::vector<size_t>& indices : members) {
    components.push_back(SubInstance(instance, indices));
  }
  return components;
}

Instance BoundClassifierLength(const Instance& instance, size_t max_length) {
  Instance bounded;
  bounded.share_property_names(instance.shared_property_names());
  for (const PropertySet& q : instance.queries()) bounded.AddQuery(q);
  CopySubsetPrices(instance.costs(), &bounded, max_length);
  return bounded;
}

}  // namespace mc3
