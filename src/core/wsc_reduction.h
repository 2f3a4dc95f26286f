// The Section 5 reduction from MC3 to Weighted Set Cover.
//
// For every query q and property p in q an element p_q is created (a
// distinct element per occurrence). Every finite-cost classifier S becomes a
// set containing exactly the elements p_q with p in S and S subseteq q,
// priced at W(S). Covers of the WSC instance correspond one-to-one,
// cost-preservingly, to MC3 solutions (Figure 2 of the paper).
#pragma once

#include <vector>

#include "core/instance.h"
#include "core/solution.h"
#include "setcover/instance.h"

namespace mc3 {

class ClassifierTable;

/// The reduced instance plus the back-mapping from sets to classifiers.
struct WscReduction {
  setcover::WscInstance wsc;
  /// set_to_id[i] is the table id of the classifier wsc.sets[i] represents.
  std::vector<ClassifierId> set_to_id;
  /// set_to_classifier[i] is that classifier (filled by the Instance
  /// overload only).
  std::vector<PropertySet> set_to_classifier;
  /// element_offset[qi] is the element id of the first property of query qi
  /// (elements of a query are contiguous, in the query's sorted id order).
  std::vector<setcover::ElementId> element_offset;
};

/// Builds the reduction of `table`'s queries at its prices: every
/// classifier of the table becomes a set; sets are ordered canonically (by
/// length, then lexicographically) for deterministic downstream behavior.
WscReduction ReduceToWsc(const ClassifierTable& table);

/// Builds the reduction of `instance` through one table of its queries.
/// Only finite-cost classifiers become sets.
WscReduction ReduceToWsc(const Instance& instance);

/// Maps a WSC solution back to the corresponding MC3 classifier selection.
Solution WscSolutionToMc3(const WscReduction& reduction,
                          const setcover::WscSolution& wsc_solution);

}  // namespace mc3

