#include "core/classifier_table.h"

#include <algorithm>

namespace mc3 {

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

void ClassifierTable::Build(const std::vector<PropertySet>& queries,
                            const ClassifierStore& store,
                            const std::vector<Cost>* prices) {
  store_ = &store;
  id_of_.assign(store.id_bound(), kNotFound);
  offsets_.assign(queries.size() + 1, 0);
  covers_.assign(queries.size(), false);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<PropertyId>& ids = queries[qi].ids();
    const size_t begin = entries_.size();
    const uint32_t covered = store.AppendSubsets(ids, &entries_);
    covers_[qi] = ids.size() <= kMaxQueryLength &&
                  covered == FullMask(ids.size());
    // A classifier gets its id on first hit.
    for (size_t e = begin; e < entries_.size(); ++e) {
      const ClassifierId store_id = entries_[e].id;
      ClassifierId& id = id_of_[store_id];
      if (id == kNotFound) {
        id = static_cast<ClassifierId>(store_ids_.size());
        store_ids_.push_back(store_id);
        costs_.push_back(prices == nullptr ? store.cost(store_id)
                                           : (*prices)[store_id]);
      }
      entries_[e].id = id;
    }
    offsets_[qi + 1] = entries_.size();
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
  return store_id == kNotFound ? kNotFound : id_of_[store_id];
}

}  // namespace mc3
