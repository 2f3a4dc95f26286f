#include "core/classifier_store.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace mc3 {
namespace {

/// The murmur3 finalizer: every output bit depends on every input bit.
inline uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

/// A property's term in set hashes. A set hashes to Mix(sum of its
/// members' terms), so the lattice walk gets each subset's sum from its
/// predecessor's in ascending mask order by adding and dropping terms (two
/// on average) and spends one mix per subset.
inline uint64_t Term(PropertyId p) {
  return Mix(p ^ 0x243F6A8885A308D3ULL);
}

uint64_t HashOf(ClassifierKey key) {
  uint64_t sum = 0;
  for (PropertyId p : key) sum += Term(p);
  return Mix(sum);
}

inline uint32_t TagOf(uint64_t hash) {
  return static_cast<uint32_t>(hash >> 32);
}

/// True iff `key` is the subset of the sorted `ids` selected by `mask`.
bool IsSubsetAt(ClassifierKey key, ClassifierKey ids, uint32_t mask) {
  if (key.size() != static_cast<size_t>(std::popcount(mask))) return false;
  const PropertyId* k = key.data();
  for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
    if (*k++ != ids[std::countr_zero(rest)]) return false;
  }
  return true;
}

}  // namespace

void ClassifierStore::Set(ClassifierKey classifier, Cost cost) {
  const uint64_t hash = HashOf(classifier);
  const ClassifierId id = slots_.empty() ? kNotFound : Probe(hash, classifier);
  if (id != kNotFound) {
    Entry& entry = entries_[id];
    size_ -= static_cast<size_t>(!IsInfiniteCost(entry.cost));
    size_ += static_cast<size_t>(!IsInfiniteCost(cost));
    entry.cost = cost;
    return;
  }
  if (IsInfiniteCost(cost)) return;
  if (arena_.size() + classifier.size() > UINT32_MAX) {
    throw std::length_error("ClassifierStore arena exceeds 2^32 ids");
  }
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  const auto next = static_cast<ClassifierId>(entries_.size());
  entries_.push_back({static_cast<uint32_t>(arena_.size()),
                      static_cast<uint32_t>(classifier.size()), cost});
  arena_.insert(arena_.end(), classifier.begin(), classifier.end());
  Index(hash, next);
  ++size_;
}

ClassifierId ClassifierStore::Find(ClassifierKey classifier) const {
  if (slots_.empty()) return kNotFound;
  const ClassifierId id = Probe(HashOf(classifier), classifier);
  return id == kNotFound || IsInfiniteCost(entries_[id].cost) ? kNotFound
                                                               : id;
}

ClassifierId ClassifierStore::Probe(uint64_t hash,
                                    ClassifierKey classifier) const {
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = TagOf(hash);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.ref == 0) return kNotFound;
    if (slot.tag != tag) continue;
    const ClassifierKey k = key(slot.ref - 1);
    if (std::ranges::equal(k, classifier)) return slot.ref - 1;
  }
}

void ClassifierStore::Index(uint64_t hash, ClassifierId id) {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].ref != 0) i = (i + 1) & mask;
  slots_[i] = Slot{TagOf(hash), id + 1};
}

void ClassifierStore::Grow() {
  slots_.assign(std::max<size_t>(16, 2 * slots_.size()), Slot{});
  for (ClassifierId id = 0; id < entries_.size(); ++id) {
    Index(HashOf(key(id)), id);
  }
}

std::vector<ClassifierId> ClassifierStore::SortedIds() const {
  std::vector<ClassifierId> sorted;
  sorted.reserve(size_);
  for (ClassifierId id : ids()) sorted.push_back(id);
  std::sort(sorted.begin(), sorted.end(),
            [&](ClassifierId a, ClassifierId b) {
              return std::ranges::lexicographical_compare(key(a), key(b));
            });
  return sorted;
}

template <typename KeyAt, typename RowEnd>
void ClassifierStore::Walk(size_t count, KeyAt key_at,
                           std::vector<QuerySubset>* out,
                           RowEnd row_end) const {
  if (slots_.empty()) {
    for (size_t qi = 0; qi < count; ++qi) row_end(qi, 0);
    return;
  }
  // A batch of masks moves through the probe in stages, each prefetching
  // what the next one reads (slot, entry, key), so the cache misses of a
  // batch overlap instead of queueing behind each other. A batch fills with
  // the masks of as many consecutive queries as it takes.
  constexpr size_t kBatch = 32;
  struct Pending {
    uint64_t hash;
    size_t slot;  // the first with a matching tag, or the empty one
    size_t query;
    uint32_t mask;
  };
  std::array<Pending, kBatch> batch;
  std::array<uint64_t, kMaxQueryLength> terms;
  const size_t capacity_mask = slots_.size() - 1;
  // The masks of query `next` come in ascending order up to `limit`; the
  // rows of queries below `row` are finished.
  size_t next = 0;
  uint32_t mask = 0;
  uint32_t limit = 0;
  uint64_t sum = 0;  // of the terms of mask's positions
  const auto start = [&](size_t qi) {
    const ClassifierKey query = key_at(qi);
    mask = 0;
    sum = 0;
    limit = 1;
    if (query.size() > kMaxQueryLength) return;
    limit <<= query.size();
    for (size_t i = 0; i < query.size(); ++i) terms[i] = Term(query[i]);
  };
  size_t row = 0;
  uint32_t covered = 0;
  if (count > 0) start(0);
  while (next < count) {
    size_t n = 0;
    while (n < kBatch) {
      if (++mask == limit) {
        if (++next == count) break;
        start(next);
        continue;
      }
      // mask - 1 -> mask clears the trailing ones and sets the bit above
      // them.
      const int low = std::countr_zero(mask);
      for (int i = 0; i < low; ++i) sum -= terms[i];
      sum += terms[low];
      const uint64_t hash = Mix(sum);
      batch[n++] = Pending{hash, 0, next, mask};
      __builtin_prefetch(&slots_[hash & capacity_mask]);
    }
    for (size_t b = 0; b < n; ++b) {
      Pending& p = batch[b];
      const uint32_t tag = TagOf(p.hash);
      size_t i = p.hash & capacity_mask;
      while (slots_[i].ref != 0 && slots_[i].tag != tag) {
        i = (i + 1) & capacity_mask;
      }
      p.slot = i;
      if (slots_[i].ref != 0) __builtin_prefetch(&entries_[slots_[i].ref - 1]);
    }
    for (size_t b = 0; b < n; ++b) {
      const Slot& slot = slots_[batch[b].slot];
      if (slot.ref != 0) {
        __builtin_prefetch(arena_.data() + entries_[slot.ref - 1].offset);
      }
    }
    // Confirm each candidate against the exact key; past a tag collision
    // the probe goes on. A mask of a later query finishes the rows before
    // it.
    for (size_t b = 0; b < n; ++b) {
      const Pending& p = batch[b];
      for (; row < p.query; ++row, covered = 0) row_end(row, covered);
      const ClassifierKey query = key_at(p.query);
      const uint32_t tag = TagOf(p.hash);
      for (size_t i = p.slot;; i = (i + 1) & capacity_mask) {
        const Slot& slot = slots_[i];
        if (slot.ref == 0) break;
        if (slot.tag != tag) continue;
        const ClassifierId id = slot.ref - 1;
        if (!IsSubsetAt(key(id), query, p.mask)) continue;
        if (!IsInfiniteCost(entries_[id].cost)) {
          out->push_back(QuerySubset{p.mask, id});
          covered |= p.mask;
        }
        break;
      }
    }
  }
  for (; row < count; ++row, covered = 0) row_end(row, covered);
}

void ClassifierStore::AppendSubsets(std::span<const PropertySet> queries,
                                    std::vector<QuerySubset>* out,
                                    std::vector<size_t>* row_ends,
                                    std::vector<bool>* covers) const {
  Walk(
      queries.size(),
      [queries](size_t qi) -> ClassifierKey { return queries[qi].ids(); },
      out, [&](size_t qi, uint32_t covered) {
        if (row_ends != nullptr) row_ends->push_back(out->size());
        if (covers != nullptr) {
          const size_t length = queries[qi].size();
          covers->push_back(length <= kMaxQueryLength &&
                            covered == FullMask(length));
        }
      });
}

uint32_t ClassifierStore::AppendSubsets(ClassifierKey query,
                                        std::vector<QuerySubset>* out) const {
  uint32_t covered = 0;
  Walk(
      1, [query](size_t) { return query; }, out,
      [&covered](size_t, uint32_t mask) { covered = mask; });
  return covered;
}

std::vector<std::pair<PropertySet, Cost>> SortedCostEntries(
    const ClassifierStore& store) {
  std::vector<std::pair<PropertySet, Cost>> entries;
  entries.reserve(store.size());
  for (ClassifierId id : store.SortedIds()) {
    entries.emplace_back(store.Classifier(id), store.cost(id));
  }
  return entries;
}

}  // namespace mc3
