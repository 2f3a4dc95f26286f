// ClassifierTable: a classifier set interned once against a query list.
//
// Algorithm 1, the Section 5 WSC reduction, coverage verification and
// pruning all ask the same question of every query q: which subsets of q
// are classifiers of the set, and at what cost. The table answers it once.
// Each query's subset lattice is hashed incrementally — a set hashes to a
// mix of the sum of per-property terms, and walking the masks in ascending
// order updates that sum by two terms on average, so each subset costs one
// mix — and probed against a flat open-addressing index whose every hit is
// confirmed against the exact key. No PropertySet is built or hashed per
// subset. The answers are kept as a per-query CSR list of (subset mask, id)
// pairs in ascending mask order, the visit order of ForEachNonEmptySubset,
// and per-classifier state lives in arrays indexed by the dense ids.
//
// Keys are not copied: they point at the PropertySets of the owner the
// table was built from (an Instance's cost map or a Solution's classifier
// list), which must outlive the table and stay unmodified while it is used.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.h"

namespace mc3 {

/// Dense classifier handle: 0..ClassifierTable::size()-1, assigned in order
/// of first appearance over the queries (in order) and each query's subsets
/// (ascending mask), so ids depend on the query list alone.
using ClassifierId = uint32_t;

/// A classifier of the table that is a subset of one query: its bitmask
/// over the query's sorted property positions, and its id.
struct QuerySubset {
  uint32_t mask;
  ClassifierId id;
};

/// The mask of every position of a query with `length` properties
/// (length <= kMaxQueryLength).
inline uint32_t FullMask(size_t length) {
  return (uint32_t{1} << length) - 1;
}

class ClassifierTable {
 public:
  static constexpr ClassifierId kNotFound = UINT32_MAX;

  /// Interns the classifiers priced in `costs` against `queries`.
  ClassifierTable(const std::vector<PropertySet>& queries,
                  const CostMap& costs);

  /// Interns `classifiers` (pairwise distinct) against `instance`'s
  /// queries, each priced by `instance` (kInfiniteCost when unpriced).
  ClassifierTable(const Instance& instance,
                  const std::vector<PropertySet>& classifiers);

  /// Number of interned classifiers: those that are a subset of at least
  /// one query. Classifiers of the input that are not are left out.
  size_t size() const { return keys_.size(); }
  const PropertySet& classifier(ClassifierId id) const { return *keys_[id]; }
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

 private:
  struct Candidate {
    const PropertySet* key;
    Cost cost;
    uint64_t hash;  ///< taken while the key is in cache
  };
  /// One index cell: `ref` is 0 when empty, kTombstone for an input
  /// classifier that no query contains, else id + 1. `tag` holds the high
  /// hash bits, so most mismatches are rejected without touching the key.
  struct Slot {
    uint32_t tag = 0;
    uint32_t ref = 0;
  };
  static constexpr uint32_t kTombstone = UINT32_MAX;

  void Build(const std::vector<PropertySet>& queries,
             const std::vector<Candidate>& candidates);

  /// Probes for hash `hash`; returns the ref of the first live slot with a
  /// matching tag for which `same(ref)` holds, or 0.
  template <typename Same>
  uint32_t Probe(uint64_t hash, const Same& same) const;

  std::vector<Slot> slots_;  ///< power-of-two open-addressing index
  std::vector<const PropertySet*> keys_;
  std::vector<Cost> costs_;
  std::vector<size_t> offsets_;  ///< CSR row starts, one per query + 1
  std::vector<QuerySubset> entries_;
  std::vector<bool> covers_;  ///< by query
};

}  // namespace mc3
