// ClassifierStore: an instance's price table W, each priced classifier held
// once.
//
// Every non-empty subset of every query is a candidate classifier (C_Q,
// paper Section 2.1), and Algorithm 1, the Section 5 WSC reduction,
// coverage verification, pruning, the generators and the online engine all
// ask the same question of a query q: which subsets of q are priced, and at
// what cost. The store keeps the classifiers in a flat arena of sorted
// property ids with one (offset, length, cost) entry per classifier, under
// an open-addressing index keyed by an additive lattice hash: a set hashes
// to a mix of the sum of per-property terms. Walking a query's masks in
// ascending order updates that sum by two terms on average, so each subset
// costs one mix, and every hit is confirmed against the exact key. No
// PropertySet is built or hashed per subset, and nothing is re-indexed per
// solve: the index lives as long as the prices.
//
// There is one walk, over a list of queries. Its masks move through the
// index's slot, entry and key reads in fixed batches that take the masks of
// as many consecutive queries as they hold, so the cache misses of
// neighbouring queries overlap; a two-property query has only three masks.
// The one-query walk is that walk over a list of one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "core/property_set.h"
#include "util/float_cmp.h"

namespace mc3 {

/// Classifier construction cost. The paper's unit N may stand for dollars,
/// labeled examples, or expert hours.
using Cost = double;

/// Weight of classifiers omitted from the input.
inline constexpr Cost kInfiniteCost = std::numeric_limits<Cost>::infinity();

/// The longest query this library accepts. Every subset lattice walk (and
/// the 32-bit position masks over a query) is exponential in the query
/// length, so longer queries are rejected as InvalidArgument at every input
/// boundary: Instance::Validate, the protocol, the update-trace parser and
/// the online engine.
inline constexpr size_t kMaxQueryLength = 25;

/// A classifier as the store holds it: its sorted, distinct property ids.
using ClassifierKey = std::span<const PropertyId>;

/// Dense classifier handle. A store numbers its classifiers in the order
/// they were first priced; a ClassifierTable renumbers the ones it interns.
using ClassifierId = uint32_t;

/// A classifier that is a subset of one query: its bitmask over the query's
/// sorted property positions, and its id.
struct QuerySubset {
  uint32_t mask;
  ClassifierId id;
};

/// The mask of every position of a query with `length` properties
/// (length <= kMaxQueryLength).
inline uint32_t FullMask(size_t length) {
  return (uint32_t{1} << length) - 1;
}

class ClassifierStore {
 public:
  static constexpr ClassifierId kNotFound = UINT32_MAX;

  /// Prices `classifier`. A classifier not stored before gets the next id;
  /// re-pricing keeps its id. kInfiniteCost hides the entry from Find,
  /// size() and ids() (it keeps its id and revives under it when priced
  /// again); hiding a classifier that was never stored stores nothing.
  void Set(ClassifierKey classifier, Cost cost);

  /// Id of `classifier`, or kNotFound when it is not priced.
  ClassifierId Find(ClassifierKey classifier) const;

  /// Cost of `classifier`; kInfiniteCost when it is not priced.
  Cost CostOf(ClassifierKey classifier) const {
    const ClassifierId id = Find(classifier);
    return id == kNotFound ? kInfiniteCost : entries_[id].cost;
  }

  /// Number of priced classifiers.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// One past the largest id ever assigned, hidden entries included: the
  /// length of an array indexed by id.
  size_t id_bound() const { return entries_.size(); }

  /// The ids of the priced classifiers, ascending.
  auto ids() const {
    return std::views::iota(ClassifierId{0},
                            static_cast<ClassifierId>(entries_.size())) |
           std::views::filter([this](ClassifierId id) {
             return !IsInfiniteCost(entries_[id].cost);
           });
  }

  ClassifierKey key(ClassifierId id) const {
    return {arena_.data() + entries_[id].offset, entries_[id].length};
  }
  /// The classifier of `id` as a PropertySet (a copy of its key).
  PropertySet Classifier(ClassifierId id) const {
    return PropertySet::FromSorted(key(id));
  }
  /// kInfiniteCost for a hidden entry.
  Cost cost(ClassifierId id) const { return entries_[id].cost; }

  /// The priced ids in classifier order (PropertySet's lexicographic order):
  /// the canonical order of every output that lists the table.
  std::vector<ClassifierId> SortedIds() const;

  /// The lattice walk: appends every priced subset of each of `queries`,
  /// query after query, to `out` as (mask over the query's positions, id),
  /// each query's in ascending mask order, the visit order of
  /// ForEachNonEmptySubset. After each query's subsets it appends the size
  /// of `out` to `row_ends` and, to `covers`, whether those subsets jointly
  /// cover the query (either may be null). A query longer than
  /// kMaxQueryLength walks as no subsets and is not covered.
  void AppendSubsets(std::span<const PropertySet> queries,
                     std::vector<QuerySubset>* out,
                     std::vector<size_t>* row_ends = nullptr,
                     std::vector<bool>* covers = nullptr) const;

  /// The walk over the one query `query` (sorted, distinct ids). Returns
  /// the union of the appended masks.
  uint32_t AppendSubsets(ClassifierKey query,
                         std::vector<QuerySubset>* out) const;

 private:
  /// One classifier: its key's place in the arena, and its price.
  struct Entry {
    uint32_t offset;
    uint32_t length;
    Cost cost;
  };
  /// One index cell: `ref` is 0 when empty, else id + 1. `tag` holds the
  /// high hash bits, so most mismatches are rejected without reading a key.
  struct Slot {
    uint32_t tag = 0;
    uint32_t ref = 0;
  };

  /// The walk under both AppendSubsets: `count` queries, the i-th keyed
  /// `key_at(i)`; `row_end(i, covered)` runs once per query, in order,
  /// after its subsets are appended, with the union of their masks.
  template <typename KeyAt, typename RowEnd>
  void Walk(size_t count, KeyAt key_at, std::vector<QuerySubset>* out,
            RowEnd row_end) const;
  /// Id of the entry keyed `classifier` with hash `hash`, hidden or not;
  /// kNotFound when there is none.
  ClassifierId Probe(uint64_t hash, ClassifierKey classifier) const;
  /// Puts id `id`, hashed `hash`, into the index (no duplicate check).
  void Index(uint64_t hash, ClassifierId id);
  /// Doubles the index and re-inserts every entry.
  void Grow();

  std::vector<PropertyId> arena_;
  std::vector<Entry> entries_;  ///< by id
  std::vector<Slot> slots_;     ///< power-of-two size, load <= 1/2
  size_t size_ = 0;             ///< priced entries
};

/// The priced entries of `store` as (classifier, cost) pairs sorted by
/// classifier: the canonical form snapshots and exports carry.
std::vector<std::pair<PropertySet, Cost>> SortedCostEntries(
    const ClassifierStore& store);

}  // namespace mc3
