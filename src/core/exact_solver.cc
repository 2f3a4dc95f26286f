#include "core/exact_solver.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include "util/float_cmp.h"

namespace mc3 {
namespace {

class BranchAndBound {
 public:
  BranchAndBound(const Instance& instance, uint64_t max_nodes)
      : instance_(instance), max_nodes_(max_nodes) {
    // All finite-cost classifiers, cheapest first (finds good incumbents
    // early, tightening the bound).
    for (ClassifierId id : instance.costs().ids()) {
      classifiers_.push_back(instance.costs().Classifier(id));
    }
    std::sort(classifiers_.begin(), classifiers_.end(),
              [&](const PropertySet& a, const PropertySet& b) {
                const Cost ca = instance_.CostOf(a);
                const Cost cb = instance_.CostOf(b);
                if (ca != cb) return ca < cb;
                return a < b;
              });
  }

  Result<Solution> Run() {
    best_cost_ = kInfiniteCost;
    Recurse(0);
    if (nodes_ > max_nodes_) {
      return Status::InvalidArgument(
          "exact search exceeded the node budget; instance too large");
    }
    if (IsInfiniteCost(best_cost_)) {
      return Status::Infeasible("no finite-cost solution exists");
    }
    Solution solution;
    for (const PropertySet& c : best_) solution.Add(c);
    return solution;
  }

 private:
  /// Finds the first (query, property) not covered by the current selection;
  /// returns false when everything is covered.
  bool FirstUncovered(size_t* query_index, PropertyId* property) const {
    for (size_t qi = 0; qi < instance_.NumQueries(); ++qi) {
      const PropertySet& q = instance_.queries()[qi];
      PropertySet covered;
      for (const PropertySet& c : stack_) {
        if (c.IsSubsetOf(q)) covered = covered.UnionWith(c);
      }
      if (covered == q) continue;
      *query_index = qi;
      *property = *q.Minus(covered).begin();
      return true;
    }
    return false;
  }

  void Recurse(Cost cost_so_far) {
    if (++nodes_ > max_nodes_) return;
    if (cost_so_far >= best_cost_) return;
    size_t qi;
    PropertyId p;
    if (!FirstUncovered(&qi, &p)) {
      best_cost_ = cost_so_far;
      best_ = stack_;
      return;
    }
    const PropertySet& q = instance_.queries()[qi];
    for (const PropertySet& c : classifiers_) {
      if (!c.Contains(p) || !c.IsSubsetOf(q)) continue;
      if (std::find(stack_.begin(), stack_.end(), c) != stack_.end()) {
        continue;  // already selected, yet p uncovered => c can't help
      }
      stack_.push_back(c);
      Recurse(cost_so_far + instance_.CostOf(c));
      stack_.pop_back();
    }
  }

  const Instance& instance_;
  const uint64_t max_nodes_;
  std::vector<PropertySet> classifiers_;
  std::vector<PropertySet> stack_;
  std::vector<PropertySet> best_;
  Cost best_cost_ = kInfiniteCost;
  uint64_t nodes_ = 0;
};

}  // namespace

Result<SolveResult> ExactSolver::Solve(const Instance& instance) const {
  if (instance.NumQueries() > limits_.max_queries) {
    return Status::InvalidArgument("too many queries for exact search");
  }
  if (instance.MaxQueryLength() > limits_.max_query_length) {
    return Status::InvalidArgument("queries too long for exact search");
  }
  if (instance.costs().size() > limits_.max_classifiers) {
    return Status::InvalidArgument("too many classifiers for exact search");
  }
  BranchAndBound search(instance, limits_.max_nodes);
  auto solution = search.Run();
  if (!solution.ok()) return solution.status();
  return FinishSolve(instance, std::move(*solution), /*prune_unused=*/false);
}

}  // namespace mc3
