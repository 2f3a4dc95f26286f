#include "core/classifier_table.h"

#include <algorithm>

#include "util/float_cmp.h"

namespace mc3 {
namespace {

/// The slot a dense-id map of `mask + 1` slots probes first for `from`.
inline size_t HomeSlot(ClassifierId from, size_t mask) {
  return static_cast<size_t>((uint64_t{from} * 0x9E3779B97F4A7C15ULL) >> 32) &
         mask;
}

}  // namespace

ClassifierTable::DenseIds::DenseIds(size_t bound, size_t max_lookups) {
  if (bound <= 4 * max_lookups) {
    direct_.assign(bound, kNotFound);
  } else {
    slots_.assign(64, {0, 0});
  }
}

ClassifierId ClassifierTable::DenseIds::Intern(ClassifierId from) {
  if (slots_.empty()) {
    ClassifierId& id = direct_[from];
    if (id == kNotFound) id = next_++;
    return id;
  }
  if (2 * (size_t{next_} + 1) > slots_.size()) {
    // Double, and re-insert every key (ids stay).
    std::vector<std::pair<ClassifierId, ClassifierId>> old(
        2 * slots_.size(), {0, 0});
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const auto& [key, id] : old) {
      if (key == 0) continue;
      size_t i = HomeSlot(key - 1, mask);
      while (slots_[i].first != 0) i = (i + 1) & mask;
      slots_[i] = {key, id};
    }
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(from, mask);; i = (i + 1) & mask) {
    auto& [key, id] = slots_[i];
    if (key == from + 1) return id;
    if (key == 0) {
      key = from + 1;
      id = next_++;
      return id;
    }
  }
}

ClassifierId ClassifierTable::DenseIds::Find(ClassifierId from) const {
  if (slots_.empty()) {
    return from < direct_.size() ? direct_[from] : kNotFound;
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(from, mask);; i = (i + 1) & mask) {
    const auto& [key, id] = slots_[i];
    if (key == from + 1) return id;
    if (key == 0) return kNotFound;
  }
}

ClassifierTable::ClassifierTable(const std::vector<PropertySet>& queries,
                                 const ClassifierStore& store) {
  Build(queries, store, nullptr);
}

ClassifierTable::ClassifierTable(
    const Instance& instance, const std::vector<PropertySet>& classifiers) {
  // Every classifier of the solution is interned, priced or not, so the
  // small store holds them at a placeholder price and the instance's
  // prices ride beside it.
  owned_ = std::make_unique<ClassifierStore>();
  std::vector<Cost> prices;
  prices.reserve(classifiers.size());
  for (const PropertySet& classifier : classifiers) {
    owned_->Set(classifier.ids(), 0);
    if (owned_->id_bound() > prices.size()) {
      prices.push_back(instance.CostOf(classifier));
    }
  }
  Build(instance.queries(), *owned_, &prices);
}

ClassifierTable::ClassifierTable(const ClassifierTable& parent,
                                 std::span<const uint32_t> queries,
                                 std::span<const Cost> prices)
    : store_(parent.store_) {
  size_t lookups = 0;
  for (uint32_t qi : queries) lookups += parent.subsets(qi).size();
  DenseIds local(parent.size(), lookups);
  queries_.reserve(queries.size());
  offsets_.reserve(queries.size() + 1);
  offsets_.push_back(0);
  entries_.reserve(lookups);
  covers_.reserve(queries.size());
  for (uint32_t qi : queries) {
    queries_.push_back(parent.queries_[qi]);
    uint32_t covered = 0;
    for (const QuerySubset& s : parent.subsets(qi)) {
      const Cost price = prices[s.id];
      if (IsInfiniteCost(price)) continue;
      const ClassifierId id = local.Intern(s.id);
      if (id == store_ids_.size()) {
        store_ids_.push_back(parent.store_ids_[s.id]);
        parent_ids_.push_back(s.id);
        costs_.push_back(price);
      }
      entries_.push_back(QuerySubset{s.mask, id});
      covered |= s.mask;
    }
    const size_t length = parent.query(qi).size();
    covers_.push_back(length <= kMaxQueryLength &&
                      covered == FullMask(length));
    offsets_.push_back(entries_.size());
  }
}

void ClassifierTable::Build(const std::vector<PropertySet>& queries,
                            const ClassifierStore& store,
                            const std::vector<Cost>* prices) {
  store_ = &store;
  queries_.reserve(queries.size());
  for (const PropertySet& q : queries) queries_.push_back(&q);
  offsets_.reserve(queries.size() + 1);
  offsets_.push_back(0);
  covers_.reserve(queries.size());
  store.AppendSubsets(queries, &entries_, &offsets_, &covers_);
  // A classifier gets its id on first hit, over the rows in order.
  id_of_ = DenseIds(store.id_bound(), entries_.size());
  for (QuerySubset& s : entries_) {
    const ClassifierId id = id_of_.Intern(s.id);
    if (id == store_ids_.size()) {
      store_ids_.push_back(s.id);
      costs_.push_back(prices == nullptr ? store.cost(s.id) : (*prices)[s.id]);
    }
    s.id = id;
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
  const ClassifierId store_id = store_->Find(classifier.ids());
  return store_id == kNotFound ? kNotFound : id_of_.Find(store_id);
}

}  // namespace mc3
