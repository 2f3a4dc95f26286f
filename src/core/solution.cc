#include "core/solution.h"

#include <algorithm>

#include "core/classifier_table.h"
#include "core/cover_dp.h"
#include "util/float_cmp.h"

namespace mc3 {
namespace {

/// For each query, a cheapest witness cover among the classifiers of
/// `table` that are subsets of it and `bought` holds (every one when null);
/// marks each classifier a witness uses in `used`. Returns false when some
/// query has no finite witness (it is not covered, or only through unpriced
/// classifiers), so pruning is not safe.
bool MarkWitnesses(const ClassifierTable& table,
                   const std::vector<bool>* bought, std::vector<bool>* used) {
  std::vector<uint32_t> masks;
  std::vector<Cost> costs;
  std::vector<ClassifierId> ids;
  std::vector<size_t> picks;
  MaskCoverScratch scratch;
  for (size_t i = 0; i < table.num_queries(); ++i) {
    const size_t k = table.query(i).size();
    masks.clear();
    costs.clear();
    ids.clear();
    for (const QuerySubset& s : table.subsets(i)) {
      if (bought != nullptr && !(*bought)[s.id]) continue;
      masks.push_back(s.mask);
      costs.push_back(table.cost(s.id));
      ids.push_back(s.id);
    }
    if (k > kMaxQueryLength ||
        IsInfiniteCost(MinCostMaskCover(k, masks, costs, &picks, &scratch))) {
      return false;
    }
    for (size_t pick : picks) (*used)[ids[pick]] = true;
  }
  return true;
}

}  // namespace

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
      ClassifierTable(instance, solution.classifiers()), solution);
}

Solution PruneUnusedClassifiers(const ClassifierTable& table,
                                const Solution& solution) {
  std::vector<bool> used(table.size(), false);
  if (!MarkWitnesses(table, nullptr, &used)) return solution;
  Solution pruned;
  for (const PropertySet& c : solution.classifiers()) {
    const ClassifierId id = table.Find(c);
    if (id != ClassifierTable::kNotFound && used[id]) pruned.Add(c);
  }
  return pruned;
}

std::vector<ClassifierId> PruneUnusedClassifiers(
    const ClassifierTable& table, std::vector<ClassifierId> plan) {
  std::vector<bool> bought(table.size(), false);
  for (ClassifierId id : plan) bought[id] = true;
  std::vector<bool> used(table.size(), false);
  if (!MarkWitnesses(table, &bought, &used)) return plan;
  std::erase_if(plan, [&](ClassifierId id) { return !used[id]; });
  return plan;
}

}  // namespace mc3
