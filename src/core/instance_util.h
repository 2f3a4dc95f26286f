// Instance manipulation helpers shared by solvers, generators and benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <vector>

#include "core/instance.h"
#include "util/union_find.h"

namespace mc3 {

/// Prices every subset of `to`'s queries of length at most `max_length`
/// that `from` prices, at that price, queries in order and each query's
/// subsets by ascending mask.
void CopySubsetPrices(const ClassifierStore& from, Instance* to,
                      size_t max_length = kMaxQueryLength);

/// Builds the sub-instance over the queries at `query_indices`, restricting
/// the cost table to classifiers relevant to those queries (members of the
/// sub-instance's C_Q). Property names are carried over.
Instance SubInstance(const Instance& instance,
                     const std::vector<size_t>& query_indices);

/// Sub-instance over a uniformly random subset of `count` queries (the
/// paper's experiments evaluate random query-subsets of varying
/// cardinality). Deterministic for a fixed seed; `count` is clamped to the
/// number of queries.
Instance RandomSubInstance(const Instance& instance, size_t count,
                           uint64_t seed);

/// Restricts the cost table to the relevant classifiers (members of C_Q) of
/// length at most `max_length` (the "bounded classifiers" regime of
/// Section 5.3, k' < k), keeping singletons so feasibility is preserved
/// whenever singletons are priced.
Instance BoundClassifierLength(const Instance& instance, size_t max_length);

/// Dense indices 0..size()-1 for the properties of some queries, in
/// ascending id order and sized by the number of distinct properties
/// however large the ids are: a direct table over a compact id range,
/// binary search over a sparse one.
class PropertyIndex {
 public:
  /// Indexes the properties of `queries`, a range of PropertySets.
  template <typename Queries>
  explicit PropertyIndex(const Queries& queries) {
    for (const PropertySet& q : queries) {
      ids_.insert(ids_.end(), q.begin(), q.end());
    }
    Build();
  }

  size_t size() const { return ids_.size(); }
  PropertyId id(uint32_t index) const { return ids_[index]; }
  /// The index of `p`, which must be a property of an indexed query.
  uint32_t operator()(PropertyId p) const {
    if (!direct_.empty()) return direct_[p - ids_.front()];
    return static_cast<uint32_t>(
        std::lower_bound(ids_.begin(), ids_.end(), p) - ids_.begin());
  }

 private:
  void Build();  ///< turns the collected ids into the index

  std::vector<PropertyId> ids_;   ///< ascending
  std::vector<uint32_t> direct_;  ///< by p - ids_.front(); empty if sparse
};

/// Assignment of queries to connected components of the shared-property
/// graph (paper Section 3, Observation 3.2): two queries are connected iff
/// they share a property, and connected queries must be solved together.
struct ComponentPartition {
  size_t num_components = 0;
  /// component_of[i] is the component (0..num_components-1) of the i-th
  /// partitioned query. Ids are assigned in order of first appearance, so
  /// the partition is deterministic for a fixed query order.
  std::vector<size_t> component_of;
};

/// Partitions the queries at `query_indices` (indices into `queries`, a
/// random-access range of PropertySets) into shared-property components.
/// `component_of` is parallel to `query_indices`.
template <typename Queries>
ComponentPartition PartitionQueries(const Queries& queries,
                                    const std::vector<size_t>& query_indices) {
  ComponentPartition partition;
  partition.component_of.assign(query_indices.size(), 0);
  if (query_indices.empty()) return partition;

  auto query = [&](size_t qi) -> const PropertySet& { return queries[qi]; };
  const PropertyIndex index(std::views::transform(query_indices, query));
  UnionFind uf;
  for (size_t qi : query_indices) {
    const auto& ids = query(qi).ids();
    for (size_t j = 1; j < ids.size(); ++j) {
      uf.Union(index(ids[j - 1]), index(ids[j]));
    }
  }
  std::vector<size_t> component_of_root(index.size(), SIZE_MAX);
  for (size_t idx = 0; idx < query_indices.size(); ++idx) {
    const uint32_t root = uf.Find(index(*query(query_indices[idx]).begin()));
    size_t& component = component_of_root[root];
    if (component == SIZE_MAX) component = partition.num_components++;
    partition.component_of[idx] = component;
  }
  return partition;
}

/// Partitions all of `queries`.
ComponentPartition PartitionQueries(const std::vector<PropertySet>& queries);

/// Splits `instance` into its independent sub-instances (Algorithm 1
/// step 2), restricting each component's cost table to its relevant
/// classifiers. Unlike Preprocess, no pruning is applied: the components of
/// the raw instance are returned as-is. Solving the components separately
/// and uniting the solutions solves the original instance.
std::vector<Instance> DecomposeComponents(const Instance& instance);

}  // namespace mc3

