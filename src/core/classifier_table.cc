#include "core/classifier_table.h"

#include <algorithm>
#include <array>
#include <bit>

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

uint64_t HashOf(const PropertySet& set) {
  uint64_t sum = 0;
  for (PropertyId p : set) sum += Term(p);
  return Mix(sum);
}

/// True iff `key` is the subset of the sorted `ids` selected by `mask`.
bool IsSubsetAt(const PropertySet& key, const std::vector<PropertyId>& ids,
                uint32_t mask) {
  if (key.size() != static_cast<size_t>(std::popcount(mask))) return false;
  const PropertyId* k = key.ids().data();
  for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
    if (*k++ != ids[std::countr_zero(rest)]) return false;
  }
  return true;
}

}  // namespace

ClassifierTable::ClassifierTable(const std::vector<PropertySet>& queries,
                                 const CostMap& costs) {
  std::vector<Candidate> candidates;
  candidates.reserve(costs.size());
  // mc3-lint: unordered-ok(index inserts; ids are assigned in query order)
  for (const auto& [classifier, cost] : costs) {
    candidates.push_back({&classifier, cost, HashOf(classifier)});
  }
  Build(queries, candidates);
}

ClassifierTable::ClassifierTable(
    const Instance& instance, const std::vector<PropertySet>& classifiers) {
  std::vector<Candidate> candidates;
  candidates.reserve(classifiers.size());
  for (const PropertySet& classifier : classifiers) {
    candidates.push_back(
        {&classifier, instance.CostOf(classifier), HashOf(classifier)});
  }
  Build(instance.queries(), candidates);
}

template <typename Same>
uint32_t ClassifierTable::Probe(uint64_t hash, const Same& same) const {
  const size_t mask = slots_.size() - 1;
  const auto tag = static_cast<uint32_t>(hash >> 32);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.ref == 0) return 0;
    if (slot.tag == tag && slot.ref != kTombstone && same(slot.ref)) {
      return slot.ref;
    }
  }
}

void ClassifierTable::Build(const std::vector<PropertySet>& queries,
                            const std::vector<Candidate>& candidates) {
  // Index the candidates at load factor <= 1/2 (ref = candidate + 1 while
  // building).
  size_t capacity = 16;
  while (capacity < 2 * candidates.size()) capacity *= 2;
  slots_.assign(capacity, Slot{});
  for (size_t c = 0; c < candidates.size(); ++c) {
    const uint64_t hash = candidates[c].hash;
    size_t i = hash & (capacity - 1);
    while (slots_[i].ref != 0) i = (i + 1) & (capacity - 1);
    slots_[i] = Slot{static_cast<uint32_t>(hash >> 32),
                     static_cast<uint32_t>(c + 1)};
  }

  // Walk every query's lattice in ascending mask order; a candidate gets
  // its id on first hit. Slots are prefetched a batch of masks ahead of
  // their probes, so the cache misses of a batch overlap.
  constexpr uint32_t kBatch = 16;
  std::array<uint64_t, kBatch> hashes;
  std::array<uint64_t, kMaxQueryLength> terms;
  std::vector<ClassifierId> id_of(candidates.size(), kNotFound);
  offsets_.assign(queries.size() + 1, 0);
  covers_.assign(queries.size(), false);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<PropertyId>& ids = queries[qi].ids();
    if (ids.size() <= kMaxQueryLength) {
      for (size_t i = 0; i < ids.size(); ++i) terms[i] = Term(ids[i]);
      const uint32_t limit = uint32_t{1} << ids.size();
      uint32_t covered = 0;
      uint64_t sum = 0;  // of the terms of mask's positions
      for (uint32_t first = 1; first < limit; first += kBatch) {
        const uint32_t last = std::min(limit, first + kBatch);
        for (uint32_t mask = first; mask < last; ++mask) {
          // mask - 1 -> mask clears the trailing ones and sets the bit
          // above them.
          const int low = std::countr_zero(mask);
          for (int i = 0; i < low; ++i) sum -= terms[i];
          sum += terms[low];
          const uint64_t hash = Mix(sum);
          hashes[mask - first] = hash;
          __builtin_prefetch(&slots_[hash & (capacity - 1)]);
        }
        for (uint32_t mask = first; mask < last; ++mask) {
          const uint32_t ref = Probe(hashes[mask - first], [&](uint32_t r) {
            return IsSubsetAt(*candidates[r - 1].key, ids, mask);
          });
          if (ref == 0) continue;
          ClassifierId& id = id_of[ref - 1];
          if (id == kNotFound) {
            id = static_cast<ClassifierId>(keys_.size());
            keys_.push_back(candidates[ref - 1].key);
            costs_.push_back(candidates[ref - 1].cost);
          }
          entries_.push_back(QuerySubset{mask, id});
          covered |= mask;
        }
      }
      covers_[qi] = covered == FullMask(ids.size());
    }
    offsets_[qi + 1] = entries_.size();
  }

  // Re-point the index from candidates to ids.
  for (Slot& slot : slots_) {
    if (slot.ref == 0) continue;
    const ClassifierId id = id_of[slot.ref - 1];
    slot.ref = id == kNotFound ? kTombstone : id + 1;
  }
}

bool ClassifierTable::CoversAll() const {
  return std::find(covers_.begin(), covers_.end(), false) == covers_.end();
}

ClassifierId ClassifierTable::FindSubset(size_t query, uint32_t mask) const {
  const std::span<const QuerySubset> row = subsets(query);
  const auto it = std::lower_bound(
      row.begin(), row.end(), mask,
      [](const QuerySubset& s, uint32_t m) { return s.mask < m; });
  return it != row.end() && it->mask == mask ? it->id : kNotFound;
}

ClassifierId ClassifierTable::Find(const PropertySet& classifier) const {
  const uint32_t ref = Probe(HashOf(classifier), [&](uint32_t r) {
    return *keys_[r - 1] == classifier;
  });
  return ref == 0 ? kNotFound : ref - 1;
}

}  // namespace mc3
