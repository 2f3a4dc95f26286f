#include "core/partial_cover.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "core/cover_dp.h"
#include "util/float_cmp.h"

namespace mc3 {
namespace {

Status ValidateBudgeted(const BudgetedInstance& input) {
  if (input.query_weights.size() != input.instance.NumQueries()) {
    return Status::InvalidArgument(
        "query_weights size must match the number of queries");
  }
  for (double w : input.query_weights) {
    if (!(w > 0) || !std::isfinite(w)) {
      return Status::InvalidArgument("query weights must be positive finite");
    }
  }
  if (input.budget < 0 || std::isnan(input.budget)) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  return Status::OK();
}

/// Marks queries covered by `selected`, returning (weight, indices).
void EvaluateCoverage(const BudgetedInstance& input,
                      const Solution& selected, BudgetedResult* result) {
  result->covered_weight = 0;
  result->covered_queries.clear();
  const CoverageReport report = VerifyCoverage(input.instance, selected);
  for (size_t qi = 0; qi < input.instance.NumQueries(); ++qi) {
    bool covered = true;
    PropertySet unioned;
    for (const PropertySet& c : report.witnesses[qi]) {
      unioned = unioned.UnionWith(c);
    }
    covered = unioned == input.instance.queries()[qi];
    if (covered) {
      result->covered_weight += input.query_weights[qi];
      result->covered_queries.push_back(qi);
    }
  }
}

}  // namespace

Result<BudgetedResult> SolveBudgetedGreedy(const BudgetedInstance& input) {
  MC3_RETURN_IF_ERROR(ValidateBudgeted(input));
  const Instance& instance = input.instance;
  const size_t n = instance.NumQueries();

  std::unordered_set<PropertySet, PropertySetHash> selected;
  const auto effective = [&](const PropertySet& c) -> Cost {
    return selected.count(c) > 0 ? 0 : instance.CostOf(c);
  };

  std::unordered_map<PropertyId, std::vector<size_t>> by_prop;
  for (size_t i = 0; i < n; ++i) {
    for (PropertyId p : instance.queries()[i]) by_prop[p].push_back(i);
  }

  // Cached residual covers (nullopt = uncoverable at finite cost).
  std::vector<std::optional<QueryCover>> covers(n);
  std::vector<bool> covered(n, false);
  for (size_t i = 0; i < n; ++i) {
    covers[i] = MinCostQueryCover(instance.queries()[i], effective);
  }

  BudgetedResult result;
  while (true) {
    // Commit every query whose residual cover is free.
    bool progressed = false;
    for (size_t i = 0; i < n; ++i) {
      if (!covered[i] && covers[i].has_value() && IsZeroCost(covers[i]->cost)) {
        covered[i] = true;
        progressed = true;
      }
    }
    // Pick the best-density affordable query.
    size_t best = n;
    double best_ratio = -1;
    const Cost remaining = input.budget - result.spent;
    for (size_t i = 0; i < n; ++i) {
      if (covered[i] || !covers[i].has_value()) continue;
      const Cost cost = covers[i]->cost;
      if (cost > remaining) continue;
      const double ratio = input.query_weights[i] / cost;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = i;
      }
    }
    if (best == n) {
      if (!progressed) break;
      continue;
    }
    // Commit `best`'s residual cover.
    std::unordered_set<PropertyId> touched;
    for (const PropertySet& c : covers[best]->classifiers) {
      if (selected.insert(c).second) {
        result.solution.Add(c);
        result.spent += instance.CostOf(c);
        for (PropertyId p : c) touched.insert(p);
      }
    }
    covered[best] = true;
    // Refresh the residual covers of affected queries.
    std::unordered_set<size_t> affected;
    // mc3-lint: unordered-ok(keyed inserts into a set; order-independent)
    for (PropertyId p : touched) {
      for (size_t qi : by_prop[p]) {
        if (!covered[qi]) affected.insert(qi);
      }
    }
    // mc3-lint: unordered-ok(per-query recompute is keyed and idempotent)
    for (size_t qi : affected) {
      covers[qi] = MinCostQueryCover(instance.queries()[qi], effective);
    }
  }
  EvaluateCoverage(input, result.solution, &result);
  return result;
}

namespace {

/// Exhaustive search: per query, either skip it or commit one of its
/// irredundant covers (classifiers already selected are free). Incidental
/// coverage is credited at the leaves.
class BudgetedSearch {
 public:
  BudgetedSearch(const BudgetedInstance& input, uint64_t max_nodes)
      : input_(input), max_nodes_(max_nodes) {
    for (ClassifierId id : input.instance.costs().ids()) {
      classifiers_.push_back(input.instance.costs().Classifier(id));
    }
    std::sort(classifiers_.begin(), classifiers_.end());
    suffix_weight_.resize(input.query_weights.size() + 1, 0);
    for (size_t i = input.query_weights.size(); i-- > 0;) {
      suffix_weight_[i] = suffix_weight_[i + 1] + input.query_weights[i];
    }
  }

  Result<BudgetedResult> Run() {
    RecurseQuery(0, 0);
    if (nodes_ > max_nodes_) {
      return Status::InvalidArgument(
          "budgeted exact search exceeded its node budget");
    }
    BudgetedResult result;
    for (const PropertySet& c : best_set_) result.solution.Add(c);
    result.spent = best_spent_;
    EvaluateCoverage(input_, result.solution, &result);
    return result;
  }

 private:
  void Leaf(Cost spent) {
    Solution solution;
    for (const PropertySet& c : stack_) solution.Add(c);
    BudgetedResult eval;
    EvaluateCoverage(input_, solution, &eval);
    if (eval.covered_weight > best_weight_ + 1e-12 ||
        (eval.covered_weight > best_weight_ - 1e-12 &&
         spent < best_spent_)) {
      best_weight_ = eval.covered_weight;
      best_spent_ = spent;
      best_set_ = stack_;
    }
  }

  void RecurseQuery(size_t qi, Cost spent) {
    if (++nodes_ > max_nodes_) return;
    // Bound: even covering everything remaining cannot beat the incumbent.
    // (Incidental coverage of skipped earlier queries is already possible
    // in the committed branches, so this bound is safe only as
    // total-weight cap.)
    if (best_weight_ >= suffix_weight_[0] - 1e-12) return;
    if (qi == input_.instance.NumQueries()) {
      Leaf(spent);
      return;
    }
    // Branch 1: do not commit a cover for this query.
    RecurseQuery(qi + 1, spent);
    // Branch 2: commit each irredundant cover that fits the budget.
    CoverBranches(qi, input_.instance.queries()[qi], spent);
  }

  /// Enumerates covers of query `qi` property-first, recursing into the
  /// next query whenever the query becomes covered.
  void CoverBranches(size_t qi, const PropertySet& query, Cost spent) {
    if (++nodes_ > max_nodes_) return;
    PropertySet covered;
    for (const PropertySet& c : stack_) {
      if (c.IsSubsetOf(query)) covered = covered.UnionWith(c);
    }
    const PropertySet missing = query.Minus(covered);
    if (missing.empty()) {
      RecurseQuery(qi + 1, spent);
      return;
    }
    const PropertyId p = *missing.begin();
    for (const PropertySet& c : classifiers_) {
      if (!c.Contains(p) || !c.IsSubsetOf(query)) continue;
      if (std::find(stack_.begin(), stack_.end(), c) != stack_.end()) {
        continue;
      }
      const Cost cost = input_.instance.CostOf(c);
      if (spent + cost > input_.budget + 1e-12) continue;
      stack_.push_back(c);
      CoverBranches(qi, query, spent + cost);
      stack_.pop_back();
    }
  }

  const BudgetedInstance& input_;
  const uint64_t max_nodes_;
  std::vector<PropertySet> classifiers_;
  std::vector<double> suffix_weight_;
  std::vector<PropertySet> stack_;
  std::vector<PropertySet> best_set_;
  double best_weight_ = -1;
  Cost best_spent_ = 0;
  uint64_t nodes_ = 0;
};

}  // namespace

Result<BudgetedResult> SolveBudgetedExact(const BudgetedInstance& input,
                                          const BudgetedExactLimits& limits) {
  MC3_RETURN_IF_ERROR(ValidateBudgeted(input));
  if (input.instance.NumQueries() > limits.max_queries) {
    return Status::InvalidArgument("too many queries for exact search");
  }
  if (input.instance.MaxQueryLength() > limits.max_query_length) {
    return Status::InvalidArgument("queries too long for exact search");
  }
  return BudgetedSearch(input, limits.max_nodes).Run();
}

}  // namespace mc3
