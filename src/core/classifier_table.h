// ClassifierTable: a classifier store interned once against a query list.
//
// Algorithm 1, the Section 5 WSC reduction, the k <= 2 vertex-cover build,
// coverage verification and pruning all ask the same question of every
// query q: which subsets of q are classifiers of the set, and at what cost.
// The store's lattice walk (core/classifier_store.h) answers it for the
// whole query list at once; the table keeps the answers for one solve as a
// per-query CSR list of (subset mask, id) pairs in ascending mask order,
// the visit order of ForEachNonEmptySubset, and renumbers the classifiers
// it meets densely so per-classifier state lives in arrays indexed by id.
//
// A solve walks its queries once. Every later stage reads that table, or a
// table derived from it for a subset of its queries under other prices (a
// residual component of Algorithm 1, a phase of Short-First): a derived
// table copies the rows it keeps, so it walks no lattice and probes no
// store, and it remembers each classifier's id in its parent table.
//
// Keys and queries are not copied: they live in the store and query list
// the table was built from (an Instance's prices, an engine's store, or a
// small store of a Solution's classifiers the table owns), which must
// outlive the table and stay unmodified while it is used.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
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

  /// The table of `parent`'s queries at `queries` (indices into the
  /// parent's), each classifier priced `prices[id]` by its parent id; a
  /// kInfiniteCost price leaves it out. Ids are numbered as a table built
  /// over those queries from a store of those prices would number them.
  ClassifierTable(const ClassifierTable& parent,
                  std::span<const uint32_t> queries,
                  std::span<const Cost> prices);

  size_t num_queries() const { return queries_.size(); }
  const PropertySet& query(size_t qi) const { return *queries_[qi]; }

  /// Number of interned classifiers: those that are a subset of at least
  /// one query. Ids 0..size()-1 are assigned in order of first appearance
  /// over the queries (in order) and each query's subsets (ascending mask),
  /// so they depend on the query list alone.
  size_t size() const { return store_ids_.size(); }
  ClassifierKey classifier(ClassifierId id) const {
    return store_->key(store_ids_[id]);
  }
  Cost cost(ClassifierId id) const { return costs_[id]; }

  /// Number of (query, subset) entries over all rows: the lattice walk's
  /// hits.
  size_t num_subsets() const { return entries_.size(); }

  /// The id of classifier `id` in the table this one was derived from
  /// (`id` itself on a table built from a store).
  ClassifierId parent_id(ClassifierId id) const {
    return parent_ids_.empty() ? id : parent_ids_[id];
  }

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

  /// Id of `classifier`, or kNotFound when it is not interned. Only on a
  /// table built from a store (not a derived one).
  ClassifierId Find(const PropertySet& classifier) const;

  /// Id of the store's classifier `store_id`, or kNotFound when no query
  /// contains it. Only on a table built from a store.
  ClassifierId FromStore(ClassifierId store_id) const {
    return id_of_.Find(store_id);
  }

 private:
  /// Dense ids, in order of first sight, for ids of a larger numbering (a
  /// store's, or a parent table's). A direct array when that numbering is
  /// at most four times the lookups that can come; otherwise an
  /// open-addressing map that doubles with the ids it holds, so a table of
  /// a few queries over a large store allocates nothing by the store's
  /// size.
  class DenseIds {
   public:
    DenseIds() = default;
    DenseIds(size_t bound, size_t max_lookups);
    /// The dense id of `from`, the next one when `from` is new.
    ClassifierId Intern(ClassifierId from);
    /// The dense id of `from`, or kNotFound when it was never interned.
    ClassifierId Find(ClassifierId from) const;

   private:
    std::vector<ClassifierId> direct_;  ///< by `from`
    /// Power-of-two size, load <= 1/2: (from + 1, dense id), 0 = empty.
    std::vector<std::pair<ClassifierId, ClassifierId>> slots_;
    ClassifierId next_ = 0;
  };

  /// Walks the queries over `store` in one list walk, which writes the rows,
  /// their ends and coverage, then numbers the hits in row order; `prices`,
  /// when given, overrides the store's costs (indexed by store id).
  void Build(const std::vector<PropertySet>& queries,
             const ClassifierStore& store, const std::vector<Cost>* prices);

  std::unique_ptr<ClassifierStore> owned_;  ///< a solution's classifiers
  const ClassifierStore* store_ = nullptr;
  std::vector<const PropertySet*> queries_;
  std::vector<ClassifierId> store_ids_;  ///< by id
  std::vector<ClassifierId> parent_ids_;  ///< by id; empty unless derived
  std::vector<Cost> costs_;              ///< by id
  DenseIds id_of_;                       ///< store id -> id, unless derived
  std::vector<size_t> offsets_;  ///< CSR row starts, one per query + 1
  std::vector<QuerySubset> entries_;
  std::vector<bool> covers_;  ///< by query
};

}  // namespace mc3
