// Exact minimum-cost covers of a single query by dynamic programming over
// property-subset masks. MinCostMaskCover / MinCostQueryCover are used by the
// Local-Greedy baseline (its per-query "least costly cover" step), by the
// exact branch-and-bound oracle, and by solution post-processing; their cost
// is O(4^|q|), and query lengths are <= ~10 in every workload the paper
// considers. MinTwoPartCover is Algorithm 1 step 3's decision (Observation
// 3.3): the cheapest two-part decomposition of one classifier, in
// O(|c| * 2^|c|) over the query's cost lattice.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/instance.h"

namespace mc3 {

/// A cover of one query: classifiers whose union equals the query.
struct QueryCover {
  Cost cost = 0;
  std::vector<PropertySet> classifiers;
};

/// The working arrays of MinCostMaskCover, 2^k entries each; one scratch
/// may serve any number of calls, of any k.
struct MaskCoverScratch {
  std::vector<Cost> dp;        ///< cheapest cover of each mask
  std::vector<int32_t> via;    ///< the candidate that last reached it
  std::vector<uint32_t> from;  ///< the mask it was reached from
};

/// The mask DP under MinCostQueryCover: a cheapest cover of all `k`
/// positions of a query (k <= kMaxQueryLength) by candidate position masks
/// priced by `costs`. Fills `picks` with the indices of the chosen
/// candidates, from the last pick back to the first, and returns the cover's
/// cost; returns kInfiniteCost (and no picks) when no finite-cost cover
/// exists. Among equal-cost covers the candidate met first, in candidate
/// order, wins. `scratch` is resized to 2^k and may be reused across calls.
Cost MinCostMaskCover(size_t k, std::span<const uint32_t> masks,
                      std::span<const Cost> costs, std::vector<size_t>* picks,
                      MaskCoverScratch* scratch);

/// The cheapest cover of `mask` by two proper sub-masks A and B of it with
/// A | B == mask, each priced by `costs`, an array indexed by query-lattice
/// mask (kInfiniteCost = unavailable; the entries at 0 and at `mask` itself
/// are ignored). Returns kInfiniteCost when no such pair has a finite cost,
/// and for a mask of fewer than two bits. O(L * 2^L) for L = popcount(mask);
/// `scratch` is resized to 2^L and may be reused across calls.
Cost MinTwoPartCover(uint32_t mask, std::span<const Cost> costs,
                     std::vector<Cost>* scratch);

/// Returns a cheapest cover of `query` using classifiers priced by
/// `cost_fn` (kInfiniteCost = unavailable), or nullopt when no finite-cost
/// cover exists. `cost_fn` is consulted once per non-empty subset of the
/// query.
std::optional<QueryCover> MinCostQueryCover(
    const PropertySet& query,
    const std::function<Cost(const PropertySet&)>& cost_fn);

}  // namespace mc3

