// Multi-valued classifier support (paper Section 5.3).
//
// Two regimes are covered:
//  1. Only multi-valued classifiers: properties belonging to the same
//     attribute (e.g. "color=red", "color=blue") are merged into a single
//     attribute-property, producing another MC3 instance over attributes —
//     MergeToAttributes below.
//  2. Multi-valued classifiers alongside binary ones: the WSC reduction is
//     extended with one extra set per multi-valued classifier covering every
//     occurrence of its value-properties, in any query — SolveWithMultiValued
//     below.
#pragma once

#include <string>
#include <vector>

#include "core/instance.h"
#include "core/solution.h"
#include "core/solver.h"
#include "util/status.h"

namespace mc3 {

/// Attribute ids (dense, like property ids).
using AttributeId = uint32_t;

/// Regime 1: builds the attribute-level MC3 instance. `property_attribute`
/// maps every property id to its attribute id; queries are rewritten over
/// attributes and deduplicated. `attribute_costs` prices the attribute-level
/// classifiers (externally estimated, as in the paper); it becomes the new
/// instance's cost table. Fails when a property id in some query has no
/// attribute mapping (property_attribute too short).
Result<Instance> MergeToAttributes(
    const Instance& instance,
    const std::vector<AttributeId>& property_attribute,
    const ClassifierStore& attribute_costs);

/// A multi-valued classifier: resolves, for every item, which of
/// `value_properties` hold (e.g. a "team" classifier resolves the
/// "team=Juventus" and "team=Chelsea" properties at once).
struct MultiValuedClassifier {
  std::string name;
  PropertySet value_properties;
  Cost cost = 0;
};

/// Regime 2 result: the binary classifiers plus the multi-valued classifiers
/// chosen (indices into the input vector).
struct HybridSolveResult {
  Solution binary;
  std::vector<size_t> multi_valued;
  Cost cost = 0;
};

/// Section 5.3's pruning rule: a multi-valued classifier "makes sense only
/// when its cost is less than the sum of costs of the corresponding binary
/// classifiers". Returns the indices of classifiers that survive (cost
/// strictly below the summed singleton costs of their value-properties that
/// occur in some query; properties with unpriced singletons keep the
/// multi-valued option alive).
std::vector<size_t> PruneMultiValued(
    const Instance& instance,
    const std::vector<MultiValuedClassifier>& multi_valued);

/// Solves `instance` with binary classifiers and the given multi-valued
/// classifiers available, via the extended WSC reduction (each multi-valued
/// classifier covers every occurrence of its value-properties). Prunable
/// multi-valued classifiers (see PruneMultiValued) are skipped up front.
/// Uses greedy plus primal-dual, keeping the cheaper cover, as in
/// Algorithm 3.
Result<HybridSolveResult> SolveWithMultiValued(
    const Instance& instance,
    const std::vector<MultiValuedClassifier>& multi_valued);

}  // namespace mc3

