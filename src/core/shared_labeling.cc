#include "core/shared_labeling.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/cover_dp.h"
#include "util/float_cmp.h"

namespace mc3 {

Cost SharedLabelingModel::StandaloneCost(const PropertySet& classifier) const {
  Cost total = base_costs.CostOf(classifier.ids());
  if (IsInfiniteCost(total)) return kInfiniteCost;
  for (PropertyId p : classifier) {
    const auto lit = label_costs.find(p);
    if (lit != label_costs.end()) total += lit->second;
  }
  return total;
}

Cost SharedLabelingModel::SetCost(const Solution& solution) const {
  Cost total = 0;
  std::unordered_set<PropertyId> labeled;
  for (const PropertySet& c : solution.classifiers()) {
    const Cost base = base_costs.CostOf(c.ids());
    if (IsInfiniteCost(base)) return kInfiniteCost;
    total += base;
    for (PropertyId p : c) {
      if (labeled.insert(p).second) {
        const auto lit = label_costs.find(p);
        if (lit != label_costs.end()) total += lit->second;
      }
    }
  }
  return total;
}

Instance FlattenToIndependentCosts(const Instance& instance,
                                   const SharedLabelingModel& model) {
  Instance flat;
  flat.share_property_names(instance.shared_property_names());
  for (const PropertySet& q : instance.queries()) flat.AddQuery(q);
  for (ClassifierId id : model.base_costs.ids()) {
    const PropertySet classifier = model.base_costs.Classifier(id);
    flat.SetCost(classifier, model.StandaloneCost(classifier));
  }
  return flat;
}

namespace {

Status ValidateModel(const SharedLabelingModel& model) {
  for (ClassifierId id : model.base_costs.ids()) {
    const Cost base = model.base_costs.cost(id);
    if (base < 0 || std::isnan(base)) {
      return Status::InvalidArgument("negative base cost");
    }
  }
  // mc3-lint: unordered-ok(every violating entry yields the identical error)
  for (const auto& [p, cost] : model.label_costs) {
    if (cost < 0 || std::isnan(cost)) {
      return Status::InvalidArgument("negative label cost");
    }
  }
  return Status::OK();
}

}  // namespace

Result<SharedLabelingResult> SolveSharedLabelingGreedy(
    const Instance& instance, const SharedLabelingModel& model) {
  MC3_RETURN_IF_ERROR(ValidateModel(model));
  const size_t n = instance.NumQueries();
  std::unordered_set<PropertySet, PropertySetHash> selected;
  std::unordered_set<PropertyId> labeled;

  // Marginal cost: unpaid base plus unpaid labels.
  const auto marginal = [&](const PropertySet& c) -> Cost {
    if (selected.count(c) > 0) return 0;
    Cost cost = model.base_costs.CostOf(c.ids());
    if (IsInfiniteCost(cost)) return kInfiniteCost;
    for (PropertyId p : c) {
      if (labeled.count(p) > 0) continue;
      const auto lit = model.label_costs.find(p);
      if (lit != model.label_costs.end()) cost += lit->second;
    }
    return cost;
  };

  SharedLabelingResult result;
  std::vector<bool> covered(n, false);
  size_t remaining = n;
  while (remaining > 0) {
    // Cheapest residual cover over all uncovered queries. Covers are
    // recomputed each round: marginal costs change with every labeling, so
    // cached values would be stale in both directions.
    size_t best = n;
    std::optional<QueryCover> best_cover;
    for (size_t i = 0; i < n; ++i) {
      if (covered[i]) continue;
      auto cover = MinCostQueryCover(instance.queries()[i], marginal);
      if (!cover.has_value()) {
        return Status::Infeasible(
            "query " +
            instance.queries()[i].ToString(instance.property_names()) +
            " has no cover under the shared-labeling model");
      }
      if (best == n || cover->cost < best_cover->cost) {
        best = i;
        best_cover = std::move(cover);
      }
    }
    for (const PropertySet& c : best_cover->classifiers) {
      if (selected.insert(c).second) {
        result.solution.Add(c);
        for (PropertyId p : c) labeled.insert(p);
      }
    }
    covered[best] = true;
    --remaining;
    // Queries incidentally covered by the new selections cost nothing.
    for (size_t i = 0; i < n; ++i) {
      if (covered[i]) continue;
      auto cover = MinCostQueryCover(instance.queries()[i], marginal);
      if (cover.has_value() && IsZeroCost(cover->cost)) {
        for (const PropertySet& c : cover->classifiers) {
          if (selected.insert(c).second) result.solution.Add(c);
        }
        covered[i] = true;
        --remaining;
      }
    }
  }
  result.cost = model.SetCost(result.solution);
  if (!Covers(instance, result.solution)) {
    return Status::Internal("shared-labeling greedy left queries uncovered");
  }
  return result;
}

namespace {

/// Branch-and-bound mirroring ExactSolver, with set-cost accounting.
class SharedSearch {
 public:
  SharedSearch(const Instance& instance, const SharedLabelingModel& model,
               uint64_t max_nodes)
      : instance_(instance), model_(model), max_nodes_(max_nodes) {
    for (ClassifierId id : model.base_costs.ids()) {
      classifiers_.push_back(model.base_costs.Classifier(id));
    }
    std::sort(classifiers_.begin(), classifiers_.end(),
              [&](const PropertySet& a, const PropertySet& b) {
                const Cost ca = model_.StandaloneCost(a);
                const Cost cb = model_.StandaloneCost(b);
                if (ca != cb) return ca < cb;
                return a < b;
              });
  }

  Result<SharedLabelingResult> Run() {
    Recurse(0);
    if (nodes_ > max_nodes_) {
      return Status::InvalidArgument(
          "shared-labeling exact search exceeded its node budget");
    }
    if (IsInfiniteCost(best_cost_)) {
      return Status::Infeasible(
          "no cover exists under the shared-labeling model");
    }
    SharedLabelingResult result;
    for (const PropertySet& c : best_) result.solution.Add(c);
    result.cost = best_cost_;
    return result;
  }

 private:
  Cost CurrentCost() const {
    Solution solution;
    for (const PropertySet& c : stack_) solution.Add(c);
    return model_.SetCost(solution);
  }

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

  void Recurse(int depth) {
    if (++nodes_ > max_nodes_) return;
    const Cost cost = CurrentCost();
    if (cost >= best_cost_) return;
    size_t qi;
    PropertyId p;
    if (!FirstUncovered(&qi, &p)) {
      best_cost_ = cost;
      best_ = stack_;
      return;
    }
    const PropertySet& q = instance_.queries()[qi];
    for (const PropertySet& c : classifiers_) {
      if (!c.Contains(p) || !c.IsSubsetOf(q)) continue;
      if (std::find(stack_.begin(), stack_.end(), c) != stack_.end()) {
        continue;
      }
      stack_.push_back(c);
      Recurse(depth + 1);
      stack_.pop_back();
    }
  }

  const Instance& instance_;
  const SharedLabelingModel& model_;
  const uint64_t max_nodes_;
  std::vector<PropertySet> classifiers_;
  std::vector<PropertySet> stack_;
  std::vector<PropertySet> best_;
  Cost best_cost_ = kInfiniteCost;
  uint64_t nodes_ = 0;
};

}  // namespace

Result<SharedLabelingResult> SolveSharedLabelingExact(
    const Instance& instance, const SharedLabelingModel& model,
    uint64_t max_nodes) {
  MC3_RETURN_IF_ERROR(ValidateModel(model));
  if (instance.NumQueries() > 16 || instance.MaxQueryLength() > 6 ||
      model.base_costs.size() > 512) {
    return Status::InvalidArgument(
        "instance too large for the shared-labeling exact search");
  }
  return SharedSearch(instance, model, max_nodes).Run();
}

}  // namespace mc3
