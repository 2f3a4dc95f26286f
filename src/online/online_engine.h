// Incremental serving engine: component-scoped re-solve over an evolving
// query log.
//
// The paper's setting is an e-commerce query log that changes continuously
// (Section 6), yet the batch solvers recompute everything on any change.
// Observation 3.2 (Algorithm 1 step 2) says the instance decomposes into
// independent connected components of the shared-property graph — so a
// single update can only invalidate the components whose property sets it
// touches. The engine exploits this:
//
//   * it owns a classifier cost table and the live queries, each held by its
//     component in ascending order — nothing of a retired query is kept;
//   * a property -> component index (components partition the properties of
//     live queries) locates the components an update touches;
//   * adds can merge components, removes can split them; instead of
//     maintaining a decremental connectivity structure, the partition is
//     recomputed lazily for the dirty region only (a fresh union-find over
//     the touched components' queries);
//   * each dirty component is re-solved from scratch through the existing
//     batch machinery (GeneralSolver / K2ExactSolver / ShortFirstSolver),
//     dirty components in parallel via SolverOptions::num_threads, over its
//     queries in content order, so the plan depends on the live set and the
//     prices, never on the order of past updates; the solver reads the
//     engine's store through one classifier table of the component's
//     queries, so no sub-instance is built;
//   * each component stores its solution as one immutable piece (its
//     classifiers, sorted, with their prices), built when the component is
//     solved; untouched components keep their piece verbatim, and read
//     views (online/read_view.h) share the pieces instead of copying them.
//
// The re-solve work of an update is proportional to the dirty region, not
// the universe — the same observation sub-linear Set Cover algorithms build
// on (Indyk et al., arXiv:1902.03534): the repartition and the solves read
// only the dirty components' queries and their classifiers' prices, and
// the solves name properties through the engine's immutable name table
// instead of copying it. Two per-batch steps
// stay O(components), one pointer per component: SolutionPieces() and the
// read-view build on top of it (online/read_view.h). See docs/online.md
// for the full model.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/solution.h"
#include "core/solver.h"
#include "util/status.h"

namespace mc3::online {

/// One component's solution as the engine stores and publishes it: the
/// classifiers the component bought, sorted by classifier and without
/// duplicates, each with its table price when the piece was built (a
/// re-price through OnlineEngine::SetCost builds a fresh piece). Never
/// mutated once built, so engine copies and read views share it.
using SolutionPiece = std::vector<std::pair<PropertySet, Cost>>;

/// Engine configuration.
struct EngineOptions {
  /// Which batch solver re-solves a dirty component. kAuto picks
  /// K2ExactSolver when the component's queries all have length <= 2 (the
  /// exact PTIME regime) and GeneralSolver otherwise.
  enum class SolverKind { kAuto, kGeneral, kK2Exact, kShortFirst };
  SolverKind solver = SolverKind::kAuto;

  /// Options forwarded to the per-component solver. `num_threads` is used
  /// by the engine itself to re-solve dirty components concurrently; the
  /// inner solvers always run single-threaded (their instances are single
  /// components already).
  SolverOptions solver_options;
};

/// Diagnostics of one update batch.
struct UpdateStats {
  size_t queries_added = 0;
  size_t queries_removed = 0;
  size_t duplicate_adds = 0;    ///< adds ignored: query already live
  size_t missing_removes = 0;   ///< removes ignored: query not live
  /// Pre-existing components invalidated by the batch (merged, split,
  /// shrunk or grown).
  size_t components_dirtied = 0;
  /// Components solved by this update (the dirty region's new partition).
  size_t components_resolved = 0;
  /// Live queries in the dirty region (re-solved queries).
  size_t queries_touched = 0;
  /// Wall time of the update: repartition + solves.
  double resolve_seconds = 0;
};

/// Cumulative counters over the engine's lifetime.
struct EngineCounters {
  size_t updates = 0;
  size_t queries_added = 0;
  size_t queries_removed = 0;
  size_t components_resolved = 0;
  size_t queries_touched = 0;
  double resolve_seconds = 0;
};

/// Serializable point-in-time engine state: the payload of a durability
/// snapshot (src/durability/snapshot.h, docs/durability.md). Canonical
/// form — costs sorted by classifier, components ordered by creation id,
/// queries and solutions sorted — so exporting, importing and re-exporting
/// yields an identical value.
struct EngineState {
  std::vector<std::string> property_names;
  /// The full classifier price table, sorted by classifier.
  std::vector<std::pair<PropertySet, Cost>> costs;
  struct Component {
    std::vector<PropertySet> queries;   ///< live queries, sorted
    std::vector<PropertySet> solution;  ///< stored solution, sorted
    Cost cost = 0;                      ///< stored solve cost
  };
  std::vector<Component> components;

  size_t NumQueries() const;
};

/// The incremental engine. Not thread-safe: callers serialize updates (the
/// engine parallelizes internally across dirty components).
class OnlineEngine {
 public:
  explicit OnlineEngine(EngineOptions options = {});

  /// Merges `instance`'s cost table into the engine's and adds all its
  /// queries as one batch. Property names are adopted.
  Result<UpdateStats> Initialize(const Instance& instance);

  /// Prices `classifier` (overwriting any previous price). Costs can be
  /// added or re-priced but never removed: `cost` must be finite and
  /// non-negative, and re-pricing does not re-solve components that already
  /// bought the classifier (their stored cost keeps the old price until
  /// something else dirties them). Such a component's piece is replaced by
  /// a re-priced copy, so a view built afterwards shows the new price.
  Status SetCost(const PropertySet& classifier, Cost cost);

  /// Price of `classifier` in the engine's table; +infinity when absent.
  Cost CostOf(const PropertySet& classifier) const;

  /// Applies one update batch: removes first, then adds. Only the touched
  /// components are repartitioned and re-solved. Fails without mutating
  /// anything when an added query is empty, or is not coverable by
  /// finite-cost classifiers of the engine's table (price its subsets
  /// first).
  Result<UpdateStats> ApplyUpdate(const std::vector<PropertySet>& add,
                                  const std::vector<PropertySet>& remove);

  /// Convenience wrappers over ApplyUpdate.
  Result<UpdateStats> AddQueries(const std::vector<PropertySet>& queries);
  Result<UpdateStats> RemoveQueries(const std::vector<PropertySet>& queries);

  /// Aggregate construction cost of the maintained cover: the
  /// per-component solve costs summed in component-id order.
  Cost TotalCost() const;

  /// Union of the per-component solutions: the classifiers to keep trained,
  /// component by component in id order, each component's sorted.
  Solution CurrentSolution() const;

  /// The per-component pieces in component-id order (shared, not copied).
  /// Their sizes sum to CurrentSolution().size(): components share no
  /// property, so no classifier is in two pieces.
  std::vector<std::shared_ptr<const SolutionPiece>> SolutionPieces() const;

  /// Materializes the current instance: live queries plus the relevant
  /// finite-cost classifiers.
  Instance LiveInstance() const;

  size_t NumQueries() const { return num_live_; }
  size_t NumComponents() const { return components_.size(); }
  const EngineCounters& counters() const { return counters_; }

  /// True iff every property of `query` is covered by some finite-cost
  /// classifier of the table that is a subset of `query`.
  bool Coverable(const PropertySet& query) const;

  /// The name table (index = PropertyId). Every component solve reads it;
  /// nothing per update copies it.
  const std::vector<std::string>& property_names() const {
    return NamesOf(names_);
  }
  const PropertyNames& shared_property_names() const { return names_; }
  void set_property_names(std::vector<std::string> names) {
    names_ = std::make_shared<const std::vector<std::string>>(std::move(names));
  }
  /// Adopts an immutable table shared with its other holders (an interner,
  /// published read roots).
  void share_property_names(PropertyNames names) { names_ = std::move(names); }

  /// The classifier price table, numbered in the order prices arrived.
  const ClassifierStore& costs() const { return costs_; }

  /// Exports the full engine state (price table, live queries, stored
  /// per-component solutions) in canonical form. The inverse of
  /// ImportState: importing the export into a fresh engine reproduces the
  /// live set, the solution store, the component order and so every future
  /// update byte-identically (cumulative counters are not part of the state
  /// and restart at zero).
  EngineState ExportState() const;

  /// Restores an exported state into this engine, which must be untouched
  /// (no costs, no queries). Sorts each component's queries (snapshots
  /// from earlier builds list them in the order they were first added).
  /// Validates structural integrity — non-empty distinct queries, finite
  /// non-negative costs, components that partition their properties,
  /// solutions that buy only classifiers over their component's
  /// properties — but not coverage; run CheckInvariants afterwards for the
  /// full O(instance) audit.
  Status ImportState(const EngineState& state);

  /// Invariant checker (O(instance)): the maintained cover passes
  /// VerifyCoverage on the live instance, the component index partitions
  /// the live queries and their properties exactly, each component's
  /// queries are strictly ascending, and every piece is sorted and carries
  /// the table's current prices.
  Status CheckInvariants() const;

 private:
  struct Component {
    std::vector<PropertySet> queries;  ///< live queries, strictly ascending
    std::shared_ptr<const SolutionPiece> piece;  ///< never null
    Cost cost = 0;
  };

  /// Id of the component holding `query`, or nullopt when it is not live:
  /// a live query is held by the owner of its first property.
  std::optional<size_t> ComponentOf(const PropertySet& query) const;

  /// The add checks of ApplyUpdate, in batch order: a query must be
  /// non-empty and within the length limit; one already live or that
  /// repeats an earlier add is then skipped; the rest must fit the
  /// configured solver and be Coverable. Returns the adds not skipped, in
  /// batch order.
  Result<std::vector<PropertySet>> ValidateAdds(
      const std::vector<PropertySet>& add) const;

  /// Solves `out`'s queries at the engine's prices with the configured
  /// solver, which reads the store through one table of them. On success
  /// stores the solution's piece and cost into `out`. Reads the store and
  /// writes only `out`, so components solve in parallel.
  Status SolveComponent(Component* out) const;

  EngineOptions options_;

  size_t num_live_ = 0;
  ClassifierStore costs_;
  PropertyNames names_;

  /// Component registry, ordered by id; ids only grow and are never
  /// reused, so a new component goes at the end.
  std::map<size_t, Component> components_;
  size_t next_component_id_ = 0;
  /// Property -> owning component id. A property of a live query belongs to
  /// exactly one component.
  std::unordered_map<PropertyId, size_t> component_of_prop_;

  EngineCounters counters_;
};

}  // namespace mc3::online

