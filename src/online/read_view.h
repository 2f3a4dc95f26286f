// Immutable engine snapshot for the lock-free read path.
//
// After every applied batch the serving layer builds one EngineReadView —
// a plain value object holding everything the read verbs (`solve`,
// `snapshot`) render: the engine's total cost, live-query, component and
// classifier counts, and the current solution as the engine's
// per-component pieces (online_engine.h, SolutionPiece). A piece is
// immutable and shared by the engine and every view that names it, so a
// view costs one pointer per component plus the pieces the batch
// re-solved; nothing of an untouched component is copied, priced or freed.
// The view is published through a concurrency::VersionedPublisher and
// reclaimed through the concurrency::EpochManager, so readers dereference
// it and its pieces without locks, refcounts or copies (docs/serving.md,
// "Lock-free reads"). Reclaiming a view frees its pointer vector and any
// piece no engine component or other view still holds.
//
// The numeric fields snapshot the engine accessors verbatim (TotalCost in
// component-id order, not a canonical re-sum), so a response rendered from
// a view is byte-identical to one rendered under the engine mutex at the
// same instant — the property the batched-vs-sequential determinism suites
// pin down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/instance.h"
#include "online/online_engine.h"

namespace mc3::online {

/// Point-in-time read-only snapshot of one OnlineEngine.
struct EngineReadView {
  /// Publish count of the view's publisher (monotone, 1-based).
  uint64_t version = 0;
  /// The engine's aggregate cost (OnlineEngine::TotalCost verbatim).
  Cost total_cost = 0;
  size_t num_queries = 0;
  size_t num_components = 0;
  /// Classifiers in the engine's solution: the sum of the pieces' sizes.
  size_t num_classifiers = 0;
  /// The engine's solution, one piece per component in component-id order.
  /// Each piece is sorted and pairs every classifier with its price in the
  /// engine's cost table at publish time; merging the pieces in classifier
  /// order gives CurrentSolution().Sorted().
  std::vector<std::shared_ptr<const SolutionPiece>> pieces;
};

/// Snapshots `engine` into a view stamped with `version`. Caller holds
/// whatever lock serializes engine mutations (the server's engine_mu_).
EngineReadView BuildReadView(const OnlineEngine& engine, uint64_t version);

}  // namespace mc3::online
