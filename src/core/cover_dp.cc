#include "core/cover_dp.h"

#include <cassert>
#include "util/float_cmp.h"

namespace mc3 {

Cost MinCostMaskCover(size_t k, std::span<const uint32_t> masks,
                      std::span<const Cost> costs,
                      std::vector<size_t>* picks) {
  assert(k <= kMaxQueryLength);
  picks->clear();
  const uint32_t full = (uint32_t{1} << k) - 1;
  std::vector<Cost> dp(full + 1, kInfiniteCost);
  std::vector<int32_t> via(full + 1, -1);
  std::vector<uint32_t> from(full + 1, 0);
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
  const Cost cost = MinCostMaskCover(k, cand_masks, cand_costs, &picks);
  if (IsInfiniteCost(cost)) return std::nullopt;
  QueryCover cover;
  cover.cost = cost;
  for (size_t pick : picks) {
    cover.classifiers.push_back(classifier_at(cand_masks[pick]));
  }
  return cover;
}

}  // namespace mc3
