// A solution to an MC3 instance: the set of classifiers to train.
//
// Coverage semantics (paper Section 2.1): query q is covered by classifier
// set S iff there is T subseteq S with union(T) = q. Every member of such a
// T is necessarily a subset of q, so the check reduces to: the union of all
// selected classifiers that are subsets of q equals q. CoverageReport below
// is the single source of truth for this check across solvers, tests and
// benches.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "core/instance.h"

namespace mc3 {

class ClassifierTable;

/// Set of distinct classifiers forming a solution.
class Solution {
 public:
  /// Adds `classifier` if not already present; returns true if inserted.
  bool Add(const PropertySet& classifier);

  /// Adds every classifier of `other` not already present.
  void Merge(const Solution& other);

  bool Contains(const PropertySet& classifier) const {
    return lookup_.count(classifier) > 0;
  }
  const std::vector<PropertySet>& classifiers() const { return classifiers_; }
  size_t size() const { return classifiers_.size(); }
  bool empty() const { return classifiers_.empty(); }

  /// Total construction cost under `instance`'s weight function. Infinite if
  /// any selected classifier is unpriced.
  Cost TotalCost(const Instance& instance) const;

  /// Classifiers sorted canonically (for deterministic output).
  std::vector<PropertySet> Sorted() const;

  /// Renders classifiers like "[A&B, C]" using the instance's name table.
  std::string ToString(const Instance& instance) const;

 private:
  std::vector<PropertySet> classifiers_;
  std::unordered_set<PropertySet, PropertySetHash> lookup_;
};

/// Result of verifying a solution against an instance.
struct CoverageReport {
  bool covers_all = false;
  /// Indices of queries not covered.
  std::vector<size_t> uncovered_queries;
  /// For each query, the selected classifiers that are subsets of it (its
  /// cover witness when covered). Parallel to instance.queries().
  std::vector<std::vector<PropertySet>> witnesses;
};

/// Verifies coverage of every query and produces per-query witnesses.
CoverageReport VerifyCoverage(const Instance& instance,
                              const Solution& solution);

/// True iff `solution` covers every query of `instance`.
bool Covers(const Instance& instance, const Solution& solution);

/// Drops classifiers that appear in no query's (greedy) cover witness:
/// recomputes, per query, a minimal-cost witness among the selected
/// classifiers and keeps only classifiers used by some query. Never breaks
/// coverage and never increases cost (it can only remove classifiers).
Solution PruneUnusedClassifiers(const Instance& instance,
                                const Solution& solution);

/// PruneUnusedClassifiers over `table`, the solution's classifiers already
/// interned against the instance (ClassifierTable(instance,
/// solution.classifiers())), so the table that verified a solution can
/// also prune it.
Solution PruneUnusedClassifiers(const ClassifierTable& table,
                                const Solution& solution);

/// PruneUnusedClassifiers over a solve's own table: `plan` holds distinct
/// ids of `table`, and the witnesses are chosen among them. Returns the
/// used ids in plan order, or `plan` itself when some query has no finite
/// witness among them.
std::vector<ClassifierId> PruneUnusedClassifiers(
    const ClassifierTable& table, std::vector<ClassifierId> plan);

}  // namespace mc3

