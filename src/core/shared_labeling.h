// Overlapping construction costs — the other future-work direction of
// Section 8: "a more general model, where there may be some overlap in the
// work required for construction of different classifiers", making the cost
// of a *set* of classifiers lower than the sum of its members.
//
// Model implemented here (the natural first-order overlap): training data
// is labeled per property. A classifier's cost splits into
//     W(C) = base(C) + sum over p in C of label(p),
// where label(p) is the cost of annotating the training pool for property p
// (paid once, shared by every selected classifier containing p), and
// base(C) covers the classifier-specific work (model fitting, conjunction-
// specific curation). The cost of a set S is therefore
//     W(S) = sum base(C) + sum over p in P(S) of label(p),
// which is subadditive exactly when classifiers share properties.
//
// The plain MC3 reduction no longer applies (costs are not modular), so
// this module provides a marginal-cost greedy in the spirit of Local-Greedy
// plus an exact oracle for small instances.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/instance.h"
#include "core/solution.h"
#include "util/status.h"

namespace mc3 {

/// The decomposed cost model.
struct SharedLabelingModel {
  /// Classifier-specific cost; classifiers absent here are unavailable.
  ClassifierStore base_costs;
  /// Per-property labeling cost, paid once across the whole solution.
  std::unordered_map<PropertyId, Cost> label_costs;

  /// Cost of `classifier` alone (base + its labels); infinite if absent.
  Cost StandaloneCost(const PropertySet& classifier) const;
  /// Total cost of a set under the shared model.
  Cost SetCost(const Solution& solution) const;
};

/// Result of a shared-labeling solve.
struct SharedLabelingResult {
  Solution solution;
  Cost cost = 0;
};

/// Marginal-cost greedy: per iteration commits the uncovered query with the
/// cheapest residual cover, where a classifier's marginal cost counts only
/// not-yet-paid base and label components.
Result<SharedLabelingResult> SolveSharedLabelingGreedy(
    const Instance& instance, const SharedLabelingModel& model);

/// Exact branch-and-bound under the shared model (small instances; the
/// limits mirror ExactSolver's).
Result<SharedLabelingResult> SolveSharedLabelingExact(
    const Instance& instance, const SharedLabelingModel& model,
    uint64_t max_nodes = 20'000'000);

/// Flattens the model into a plain MC3 instance by pricing every classifier
/// at its standalone cost — the paper's independent-cost approximation of
/// this richer model. Useful for comparing the two regimes.
Instance FlattenToIndependentCosts(const Instance& instance,
                                   const SharedLabelingModel& model);

}  // namespace mc3

