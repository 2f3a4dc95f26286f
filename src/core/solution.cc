#include "core/solution.h"

#include <algorithm>
#include <span>

#include "core/classifier_table.h"
#include "core/cover_dp.h"
#include "util/float_cmp.h"

namespace mc3 {

bool Solution::Add(const PropertySet& classifier) {
  if (!lookup_.insert(classifier).second) return false;
  classifiers_.push_back(classifier);
  return true;
}

void Solution::Merge(const Solution& other) {
  for (const auto& c : other.classifiers_) Add(c);
}

Cost Solution::TotalCost(const Instance& instance) const {
  Cost total = 0;
  for (const auto& c : classifiers_) total += instance.CostOf(c);
  return total;
}

std::vector<PropertySet> Solution::Sorted() const {
  std::vector<PropertySet> sorted = classifiers_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::string Solution::ToString(const Instance& instance) const {
  std::string out = "[";
  bool first = true;
  for (const auto& c : Sorted()) {
    if (!first) out += ", ";
    first = false;
    out += c.ToString(instance.property_names());
  }
  out += "]";
  return out;
}

CoverageReport VerifyCoverage(const Instance& instance,
                              const Solution& solution) {
  const ClassifierTable table(instance, solution.classifiers());
  CoverageReport report;
  report.covers_all = true;
  report.witnesses.resize(instance.NumQueries());
  for (size_t i = 0; i < instance.NumQueries(); ++i) {
    for (const QuerySubset& s : table.subsets(i)) {
      report.witnesses[i].push_back(
          PropertySet::FromSorted(table.classifier(s.id)));
    }
    if (!table.Covers(i)) {
      report.covers_all = false;
      report.uncovered_queries.push_back(i);
    }
  }
  return report;
}

bool Covers(const Instance& instance, const Solution& solution) {
  return ClassifierTable(instance, solution.classifiers()).CoversAll();
}

Solution PruneUnusedClassifiers(const Instance& instance,
                                const Solution& solution) {
  return PruneUnusedClassifiers(
      instance, ClassifierTable(instance, solution.classifiers()), solution);
}

Solution PruneUnusedClassifiers(const Instance& instance,
                                const ClassifierTable& table,
                                const Solution& solution) {
  // For each query, a cheapest witness cover among the selected classifiers
  // that are subsets of it.
  std::vector<bool> used(table.size(), false);
  std::vector<uint32_t> masks;
  std::vector<Cost> costs;
  std::vector<size_t> picks;
  MaskCoverScratch scratch;
  for (size_t i = 0; i < instance.NumQueries(); ++i) {
    const size_t k = instance.queries()[i].size();
    const std::span<const QuerySubset> subsets = table.subsets(i);
    masks.clear();
    costs.clear();
    for (const QuerySubset& s : subsets) {
      masks.push_back(s.mask);
      costs.push_back(table.cost(s.id));
    }
    if (k > kMaxQueryLength ||
        IsInfiniteCost(MinCostMaskCover(k, masks, costs, &picks, &scratch))) {
      // Solution does not cover the query (or only via unpriced
      // classifiers); pruning is not safe — return the input untouched.
      return solution;
    }
    for (size_t pick : picks) used[subsets[pick].id] = true;
  }
  Solution pruned;
  for (const PropertySet& c : solution.classifiers()) {
    const ClassifierId id = table.Find(c);
    if (id != ClassifierTable::kNotFound && used[id]) pruned.Add(c);
  }
  return pruned;
}

}  // namespace mc3
