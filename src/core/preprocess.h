// Preprocessing pruning procedure (paper Section 3, Algorithm 1). This is
// the initial step of every solver; it preserves at least one optimal
// solution while (in practice) significantly shrinking the instance.
//
// Step 1 (Obs. 3.1): singleton queries force their singleton classifier;
//         all zero-weight classifiers are selected for free.
// Step 2 (Obs. 3.2): the property co-occurrence graph decomposes the
//         instance into independent components, solvable separately.
// Step 3 (Obs. 3.3): a classifier whose cheapest 2-part decomposition does
//         not cost more than the classifier itself is removed (parts before
//         wholes; removed parts are substituted by their own recorded
//         decompositions). Queries left with a forced cover get it selected,
//         and the step repeats on classifiers touching the new selections.
// Step 4 (Obs. 3.4, only when all remaining queries have length <= 2): a
//         singleton classifier X whose intersecting classifiers jointly cost
//         at most W(X) is removed and those classifiers are selected; the
//         check chains to the other endpoints of the selected pairs.
//
// Implementation notes.
//  * We run steps in the order 1, 3, 4 and materialize the component
//    partition (step 2) last: steps 3/4 never merge components, and step 3's
//    forced selections can cover whole queries, only refining the partition.
//    Each sub-instance is thus final when emitted.
//  * Step 3 decides each present classifier once per pass, through the
//    first alive worked query holding it: that query's subsets are walked
//    once, in ascending mask order, into a lattice of effective costs, and
//    MinTwoPartCover (core/cover_dp.h) prices each undecided one's cheapest
//    two-part decomposition from the lattice. A decision reads only proper
//    sub-masks, which are smaller and so already decided: the same result
//    as deciding by increasing length.
//  * The "only one cover possibility" test of line 10 is implemented as the
//    sound per-property rule: if an uncovered property p of query q has
//    exactly one available classifier C (p in C, C subseteq q), then C is in
//    every optimal solution restricted to available classifiers, so C is
//    selected. (This strictly generalizes the line-10 condition.)
//  * Selected classifiers remain available to the residual instance at cost
//    zero, exactly as the paper models selection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/solution.h"
#include "util/status.h"

namespace mc3 {

class ClassifierTable;

/// Per-step switches (all on by default); the ablation bench toggles them.
struct PreprocessOptions {
  bool step1_forced_singletons = true;
  bool step3_decompositions = true;
  bool step4_k2_singleton_prune = true;
  bool step2_partition = true;  ///< off = emit one residual instance
  /// Safety bound on step-3 fixpoint passes (each pass removes or selects at
  /// least one classifier, so the bound is never hit in practice).
  int max_step3_passes = 64;
};

/// Counters describing what the procedure did.
struct PreprocessStats {
  size_t singleton_queries_selected = 0;
  size_t zero_weight_selected = 0;
  size_t classifiers_removed_step3 = 0;
  size_t forced_selections_step3 = 0;
  int step3_passes = 0;
  size_t singletons_removed_step4 = 0;
  size_t selections_step4 = 0;
  size_t queries_covered = 0;    ///< queries fully covered by preprocessing
  size_t num_components = 0;
  size_t remaining_queries = 0;
  /// Available classifiers in the residual: the distinct present or
  /// selected ones of the residual queries.
  size_t remaining_classifiers = 0;
};

/// Algorithm 1 over a solve's ClassifierTable, as the solvers run it.
struct Residual {
  /// Table ids of the classifiers selected, in selection order; part of
  /// every solution assembled from this result.
  std::vector<ClassifierId> forced;
  /// Total original cost of the forced classifiers.
  Cost forced_cost = 0;
  /// Each table id's residual price: its cost while present, 0 once
  /// selected, kInfiniteCost once removed.
  std::vector<Cost> prices;
  /// The independent residual components (step 2), each as ascending
  /// indices into the table's queries; ClassifierTable(table, component,
  /// prices) is a component's table. Every query is either covered by
  /// `forced` or in exactly one component.
  std::vector<std::vector<uint32_t>> components;
  PreprocessStats stats;
};

/// Output of Algorithm 1.
struct PreprocessResult {
  /// Classifiers selected during preprocessing; part of every solution
  /// assembled from this result.
  Solution forced;
  /// Total original cost of the forced classifiers.
  Cost forced_cost = 0;
  /// Residual independent sub-instances (step 2). Forced classifiers appear
  /// in them with cost zero; pruned classifiers are omitted. Every query of
  /// the original instance is either covered by `forced` or present in
  /// exactly one component.
  std::vector<Instance> components;
  PreprocessStats stats;
};

/// Runs Algorithm 1 on `table`'s queries at its prices; `names` names
/// properties in errors. Returns kInfeasible when some query cannot be
/// covered by finite-weight classifiers.
Result<Residual> Preprocess(const ClassifierTable& table,
                            const std::vector<std::string>& names,
                            const PreprocessOptions& options);

/// The instance of a component's table: its queries, and each classifier
/// at the table's price, priced in id order (so the instance's store
/// numbers them as the table does). Shares `names`.
Instance ComponentInstance(const ClassifierTable& component,
                           const PropertyNames& names);

/// Runs Algorithm 1 on `instance` through one table of its queries, and
/// materializes the forced classifiers and each residual component.
Result<PreprocessResult> Preprocess(const Instance& instance,
                                    const PreprocessOptions& options = {});

}  // namespace mc3

