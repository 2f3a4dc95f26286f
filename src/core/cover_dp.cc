#include "core/cover_dp.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "util/float_cmp.h"

namespace mc3 {

// Only `dp` is reset: a traced-back mask was reached in this call, so its
// `via` and `from` were written by it.
Cost MinCostMaskCover(size_t k, std::span<const uint32_t> masks,
                      std::span<const Cost> costs, std::vector<size_t>* picks,
                      MaskCoverScratch* scratch) {
  assert(k <= kMaxQueryLength);
  picks->clear();
  const uint32_t full = (uint32_t{1} << k) - 1;
  std::vector<Cost>& dp = scratch->dp;
  std::vector<int32_t>& via = scratch->via;
  std::vector<uint32_t>& from = scratch->from;
  dp.assign(full + 1, kInfiniteCost);
  via.resize(full + 1);
  from.resize(full + 1);
  dp[0] = 0;
  for (uint32_t mask = 0; mask <= full; ++mask) {
    if (IsInfiniteCost(dp[mask])) continue;
    for (size_t c = 0; c < masks.size(); ++c) {
      const uint32_t next = mask | masks[c];
      if (next == mask) continue;
      const Cost cost = dp[mask] + costs[c];
      if (cost < dp[next]) {
        dp[next] = cost;
        via[next] = static_cast<int32_t>(c);
        from[next] = mask;
      }
    }
  }
  if (IsInfiniteCost(dp[full])) return kInfiniteCost;
  for (uint32_t mask = full; mask != 0; mask = from[mask]) {
    picks->push_back(static_cast<size_t>(via[mask]));
  }
  return dp[full];
}

// The sub-masks of `mask` are walked in ascending order, so the i-th one is
// local mask i and the mask's lowest bit is local bit 0. One part of every
// pair holds that bit (IEEE addition is commutative, so which one is named A
// does not change a sum), so the superset-min DP runs over the 2^(L-1) local
// masks without it and the pair loop over the 2^(L-1) with it.
Cost MinTwoPartCover(uint32_t mask, std::span<const Cost> costs,
                     std::vector<Cost>* scratch) {
  const int len = std::popcount(mask);
  assert(static_cast<size_t>(len) <= kMaxQueryLength);
  if (len < 2) return kInfiniteCost;
  const uint32_t low = mask & (~mask + 1);
  const uint32_t rest = mask ^ low;
  const uint32_t half = uint32_t{1} << (len - 1);
  scratch->resize(size_t{2} * half);
  // with_low[j]: the cost of local mask 2j+1. min_superset[j]: first the
  // cheaper of local masks 2j and 2j+1; after the DP, the least cost of a
  // proper sub-mask of `mask` whose local mask contains 2j.
  Cost* const with_low = scratch->data();
  Cost* const min_superset = with_low + half;
  uint32_t sub = 0;  // local mask 2j: the j-th sub-mask of `rest`
  for (uint32_t j = 0; j < half; ++j) {
    with_low[j] = costs[sub | low];
    min_superset[j] = std::min(costs[sub], with_low[j]);
    sub = (sub - rest) & rest;
  }
  min_superset[half - 1] = costs[rest];  // B = `mask` itself is not proper
  for (uint32_t bit = 1; bit < half; bit <<= 1) {
    for (uint32_t base = 0; base < half; base += 2 * bit) {
      for (uint32_t j = base; j < base + bit; ++j) {
        min_superset[j] = std::min(min_superset[j], min_superset[j + bit]);
      }
    }
  }
  // A = local 2j+1 ranges over the proper sub-masks holding the lowest bit;
  // B must contain the rest of `mask`, local 2((half-1) ^ j).
  Cost best = kInfiniteCost;
  for (uint32_t j = 0; j + 1 < half; ++j) {
    best = std::min(best, with_low[j] + min_superset[(half - 1) ^ j]);
  }
  return best;
}

std::optional<QueryCover> MinCostQueryCover(
    const PropertySet& query,
    const std::function<Cost(const PropertySet&)>& cost_fn) {
  const auto& ids = query.ids();
  const size_t k = ids.size();
  assert(k >= 1 && k <= 20);
  const uint32_t full = (1u << k) - 1;

  // Candidate classifiers as masks over the query's properties.
  std::vector<uint32_t> cand_masks;
  std::vector<Cost> cand_costs;
  std::vector<PropertyId> scratch;
  auto classifier_at = [&](uint32_t mask) {
    scratch.clear();
    for (size_t i = 0; i < k; ++i) {
      if (mask & (1u << i)) scratch.push_back(ids[i]);
    }
    return PropertySet::FromSorted(scratch);
  };
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const Cost cost = cost_fn(classifier_at(mask));
    if (!IsInfiniteCost(cost)) {
      cand_masks.push_back(mask);
      cand_costs.push_back(cost);
    }
  }

  std::vector<size_t> picks;
  MaskCoverScratch dp_scratch;
  const Cost cost =
      MinCostMaskCover(k, cand_masks, cand_costs, &picks, &dp_scratch);
  if (IsInfiniteCost(cost)) return std::nullopt;
  QueryCover cover;
  cover.cost = cost;
  for (size_t pick : picks) {
    cover.classifiers.push_back(classifier_at(cand_masks[pick]));
  }
  return cover;
}

}  // namespace mc3
