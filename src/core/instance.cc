#include "core/instance.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "core/classifier_table.h"
#include "util/float_cmp.h"

namespace mc3 {

std::vector<std::pair<PropertySet, Cost>> SortedCostEntries(
    const CostMap& costs) {
  std::vector<std::pair<PropertySet, Cost>> entries(costs.begin(),
                                                    costs.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

void Instance::SetCost(const PropertySet& classifier, Cost cost) {
  if (IsInfiniteCost(cost)) {
    costs_.erase(classifier);
  } else {
    costs_[classifier] = cost;
  }
}

Cost Instance::CostOf(const PropertySet& classifier) const {
  const auto it = costs_.find(classifier);
  return it == costs_.end() ? kInfiniteCost : it->second;
}

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
  std::unordered_map<PropertySet, size_t, PropertySetHash> counts;
  for (const auto& q : queries_) {
    ForEachNonEmptySubset(q, [&](const PropertySet& sub) {
      if (costs_.count(sub) > 0) ++counts[sub];
    });
  }
  size_t incidence = 0;
  // mc3-lint: unordered-ok(max over all entries is visit-order independent)
  for (const auto& [classifier, count] : counts) {
    incidence = std::max(incidence, count);
  }
  return incidence;
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
  // property -> query ids containing it, for relevance checks.
  std::unordered_map<PropertyId, std::vector<size_t>> prop_queries;
  for (size_t i = 0; i < queries_.size(); ++i) {
    for (PropertyId p : queries_[i]) prop_queries[p].push_back(i);
  }
  // Sorted so the first reported validation error is deterministic.
  for (const auto& [classifier, cost] : SortedCostEntries(costs_)) {
    if (classifier.empty()) {
      return Status::InvalidArgument("priced empty classifier");
    }
    if (cost < 0 || std::isnan(cost)) {
      return Status::InvalidArgument("invalid cost for classifier " +
                                     classifier.ToString());
    }
    const auto it = prop_queries.find(*classifier.begin());
    bool relevant = false;
    if (it != prop_queries.end()) {
      for (size_t qi : it->second) {
        if (classifier.IsSubsetOf(queries_[qi])) {
          relevant = true;
          break;
        }
      }
    }
    if (!relevant) {
      return Status::InvalidArgument(
          "classifier " + classifier.ToString() +
          " is not a subset of any query (not in C_Q)");
    }
  }
  return Status::OK();
}

bool Instance::IsFeasible() const {
  return ClassifierTable(queries_, costs_).CoversAll();
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

InstanceBuilder& InstanceBuilder::PriceAllClassifiers(
    const std::function<Cost(const PropertySet&)>& cost_fn) {
  for (const auto& q : instance_.queries()) {
    ForEachNonEmptySubset(q, [&](const PropertySet& sub) {
      if (IsInfiniteCost(instance_.CostOf(sub))) {
        instance_.SetCost(sub, cost_fn(sub));
      }
    });
  }
  return *this;
}

Instance InstanceBuilder::Build() && {
  instance_.share_property_names(names_.names());
  return std::move(instance_);
}

}  // namespace mc3
