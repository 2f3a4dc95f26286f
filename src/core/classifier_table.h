// ClassifierTable: a classifier store interned once against a query list.
//
// Algorithm 1, the Section 5 WSC reduction, coverage verification and
// pruning all ask the same question of every query q: which subsets of q
// are classifiers of the set, and at what cost. The store's lattice walk
// (core/classifier_store.h) answers it per query; the table keeps the
// answers for one solve as a per-query CSR list of (subset mask, id) pairs
// in ascending mask order, the visit order of ForEachNonEmptySubset, and
// renumbers the classifiers it meets densely so per-classifier state lives
// in arrays indexed by id.
//
// Keys are not copied: they live in the store the table was built from (an
// Instance's prices, or a small store of a Solution's classifiers the table
// owns), which must outlive the table and stay unmodified while it is used.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/classifier_store.h"
#include "core/instance.h"

namespace mc3 {

class ClassifierTable {
 public:
  static constexpr ClassifierId kNotFound = ClassifierStore::kNotFound;

  /// Interns the classifiers priced in `store` against `queries`.
  ClassifierTable(const std::vector<PropertySet>& queries,
                  const ClassifierStore& store);

  /// Interns `classifiers` (pairwise distinct) against `instance`'s
  /// queries, each priced by `instance` (kInfiniteCost when unpriced).
  ClassifierTable(const Instance& instance,
                  const std::vector<PropertySet>& classifiers);

  /// Number of interned classifiers: those that are a subset of at least
  /// one query. Ids 0..size()-1 are assigned in order of first appearance
  /// over the queries (in order) and each query's subsets (ascending mask),
  /// so they depend on the query list alone.
  size_t size() const { return store_ids_.size(); }
  ClassifierKey classifier(ClassifierId id) const {
    return store_->key(store_ids_[id]);
  }
  Cost cost(ClassifierId id) const { return costs_[id]; }

  /// The interned subsets of query `query`, in ascending mask order. Empty
  /// for a query longer than kMaxQueryLength.
  std::span<const QuerySubset> subsets(size_t query) const {
    return {entries_.data() + offsets_[query],
            entries_.data() + offsets_[query + 1]};
  }

  /// True iff the interned classifiers that are subsets of query `query`
  /// jointly cover it (never for a query longer than kMaxQueryLength).
  bool Covers(size_t query) const { return covers_[query]; }
  /// True iff Covers(query) holds for every query.
  bool CoversAll() const;

  /// Id of the subset of query `query` at `mask`, or kNotFound when that
  /// subset is not interned.
  ClassifierId FindSubset(size_t query, uint32_t mask) const;

  /// Id of `classifier`, or kNotFound when it is not interned.
  ClassifierId Find(const PropertySet& classifier) const;

  /// Id of the store's classifier `store_id`, or kNotFound when no query
  /// contains it.
  ClassifierId FromStore(ClassifierId store_id) const {
    return id_of_[store_id];
  }

 private:
  /// Walks every query over `store`; `prices`, when given, overrides the
  /// store's costs (indexed by store id).
  void Build(const std::vector<PropertySet>& queries,
             const ClassifierStore& store, const std::vector<Cost>* prices);

  std::unique_ptr<ClassifierStore> owned_;  ///< a solution's classifiers
  const ClassifierStore* store_ = nullptr;
  std::vector<ClassifierId> store_ids_;  ///< by id
  std::vector<Cost> costs_;              ///< by id
  std::vector<ClassifierId> id_of_;      ///< by store id
  std::vector<size_t> offsets_;  ///< CSR row starts, one per query + 1
  std::vector<QuerySubset> entries_;
  std::vector<bool> covers_;  ///< by query
};

}  // namespace mc3
