#include "core/instance.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "core/classifier_table.h"
#include "util/float_cmp.h"

namespace mc3 {

size_t Instance::MaxQueryLength() const {
  size_t k = 0;
  for (const auto& q : queries_) k = std::max(k, q.size());
  return k;
}

size_t Instance::NumProperties() const {
  std::unordered_set<PropertyId> props;
  for (const auto& q : queries_) props.insert(q.begin(), q.end());
  return props.size();
}

size_t Instance::Incidence() const {
  // I(S) = |{q : S subseteq q}| for finite-weight S; I = max I(S).
  std::vector<QuerySubset> subsets;
  costs_.AppendSubsets(queries_, &subsets);
  std::vector<size_t> counts(costs_.id_bound(), 0);
  for (const QuerySubset& s : subsets) ++counts[s.id];
  return counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
}

Status Instance::Validate() const {
  {
    std::unordered_set<PropertySet, PropertySetHash> seen;
    for (const auto& q : queries_) {
      if (q.empty()) return Status::InvalidArgument("empty query");
      MC3_RETURN_IF_ERROR(CheckQueryLength(q, property_names()));
      if (!seen.insert(q).second) {
        return Status::InvalidArgument("duplicate query " + q.ToString());
      }
    }
  }
  // A classifier is relevant iff some query's lattice walk meets it.
  const ClassifierTable relevant(queries_, costs_);
  for (ClassifierId id : costs_.ids()) {
    if (costs_.key(id).empty()) {
      return Status::InvalidArgument("priced empty classifier");
    }
    const Cost cost = costs_.cost(id);
    if (cost < 0 || std::isnan(cost)) {
      return Status::InvalidArgument("invalid cost for classifier " +
                                     costs_.Classifier(id).ToString());
    }
    if (relevant.FromStore(id) == ClassifierTable::kNotFound) {
      return Status::InvalidArgument(
          "classifier " + costs_.Classifier(id).ToString() +
          " is not a subset of any query (not in C_Q)");
    }
  }
  return Status::OK();
}

bool Instance::IsFeasible() const {
  std::vector<QuerySubset> subsets;
  std::vector<bool> covers;
  costs_.AppendSubsets(queries_, &subsets, nullptr, &covers);
  return std::find(covers.begin(), covers.end(), false) == covers.end();
}

Status CheckQueryLength(const PropertySet& query,
                        const std::vector<std::string>& names) {
  if (query.size() <= kMaxQueryLength) return Status::OK();
  return Status::InvalidArgument(
      "query " + (names.empty() ? query.ToString() : query.ToString(names)) +
      " has " + std::to_string(query.size()) + " properties; at most " +
      std::to_string(kMaxQueryLength) + " are supported");
}

void ForEachNonEmptySubset(
    const PropertySet& set,
    const std::function<void(const PropertySet&)>& fn) {
  const auto& ids = set.ids();
  assert(ids.size() <= kMaxQueryLength && "subset enumeration would explode");
  const uint32_t limit = 1u << ids.size();
  std::vector<PropertyId> scratch;
  for (uint32_t mask = 1; mask < limit; ++mask) {
    scratch.clear();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (mask & (1u << i)) scratch.push_back(ids[i]);
    }
    fn(PropertySet::FromSorted(scratch));
  }
}

InstanceBuilder& InstanceBuilder::AddQuery(
    const std::vector<std::string>& names) {
  std::vector<PropertyId> ids;
  ids.reserve(names.size());
  for (const auto& n : names) ids.push_back(Intern(n));
  instance_.AddQuery(PropertySet::FromUnsorted(std::move(ids)));
  return *this;
}

InstanceBuilder& InstanceBuilder::SetCost(
    const std::vector<std::string>& names, Cost cost) {
  std::vector<PropertyId> ids;
  ids.reserve(names.size());
  for (const auto& n : names) ids.push_back(Intern(n));
  instance_.SetCost(PropertySet::FromUnsorted(std::move(ids)), cost);
  return *this;
}

void PriceUnpricedSubsets(
    Instance* instance,
    const std::function<Cost(const PropertySet& classifier,
                             const PropertySet& query)>& cost_fn) {
  std::vector<QuerySubset> priced;
  std::vector<PropertyId> scratch;
  for (const PropertySet& q : instance->queries()) {
    const std::vector<PropertyId>& ids = q.ids();
    if (ids.size() > kMaxQueryLength) continue;
    // The query's distinct subsets do not price each other, so one walk
    // before pricing any of them lists the priced ones.
    priced.clear();
    instance->costs().AppendSubsets(ids, &priced);
    auto next = priced.begin();
    for (uint32_t mask = 1; mask <= FullMask(ids.size()); ++mask) {
      if (next != priced.end() && next->mask == mask) {
        ++next;
        continue;
      }
      scratch.clear();
      for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
        scratch.push_back(ids[std::countr_zero(rest)]);
      }
      const PropertySet classifier = PropertySet::FromSorted(scratch);
      instance->SetCost(classifier, cost_fn(classifier, q));
    }
  }
}

InstanceBuilder& InstanceBuilder::PriceAllClassifiers(
    const std::function<Cost(const PropertySet&)>& cost_fn) {
  PriceUnpricedSubsets(&instance_,
                       [&](const PropertySet& classifier, const PropertySet&) {
                         return cost_fn(classifier);
                       });
  return *this;
}

Instance InstanceBuilder::Build() && {
  instance_.share_property_names(names_.names());
  return std::move(instance_);
}

}  // namespace mc3
