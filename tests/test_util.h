// Shared helpers for the MC3 test suite.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/property_set.h"
#include "core/solution.h"
#include "online/churn.h"
#include "util/rng.h"
#include "util/float_cmp.h"

namespace mc3::testing {

/// Shorthand: PS({1, 2, 3}).
inline PropertySet PS(std::initializer_list<PropertyId> ids) {
  return PropertySet::Of(ids);
}

/// "%.17g" rendering — bitwise cost comparison across engines.
inline std::string CostBytes(Cost cost) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", cost);
  return buffer;
}

/// Configuration for random instances used in property-based sweeps.
struct RandomInstanceConfig {
  size_t num_queries = 6;
  size_t pool = 8;             ///< property universe size
  size_t max_query_length = 3;
  int64_t cost_min = 1;
  int64_t cost_max = 20;
  /// Probability that a non-singleton classifier is priced at all;
  /// singletons are always priced (keeps instances feasible).
  double priced_probability = 0.8;
  /// Probability that a priced classifier gets weight zero.
  double zero_probability = 0.05;
};

/// Generates a random feasible instance (singleton classifiers always
/// priced). Deterministic per seed.
inline Instance RandomInstance(const RandomInstanceConfig& config,
                               uint64_t seed) {
  Rng rng(seed);
  Instance instance;
  std::unordered_set<PropertySet, PropertySetHash> seen;
  size_t guard = 0;
  while (instance.NumQueries() < config.num_queries &&
         ++guard < config.num_queries * 100) {
    const size_t len = static_cast<size_t>(
        rng.UniformInt(1, std::min(config.max_query_length, config.pool)));
    std::vector<PropertyId> props;
    std::unordered_set<PropertyId> used;
    while (props.size() < len) {
      const auto p = static_cast<PropertyId>(rng.UniformInt(0, config.pool - 1));
      if (used.insert(p).second) props.push_back(p);
    }
    PropertySet q = PropertySet::FromUnsorted(std::move(props));
    if (seen.insert(q).second) instance.AddQuery(std::move(q));
  }
  for (const PropertySet& q : instance.queries()) {
    ForEachNonEmptySubset(q, [&](const PropertySet& c) {
      if (!IsInfiniteCost(instance.CostOf(c))) return;
      if (c.size() > 1 && !rng.Bernoulli(config.priced_probability)) return;
      Cost cost = static_cast<Cost>(
          rng.UniformInt(config.cost_min, config.cost_max));
      if (rng.Bernoulli(config.zero_probability)) cost = 0;
      instance.SetCost(c, cost);
    });
  }
  return instance;
}

/// Exact optimum by exhaustive branching, independent of the library's
/// solvers — the oracle of the differential test suite. Branches on the
/// first (query, property) pair not yet covered, trying every priced
/// classifier that covers it (a subset of the query containing the
/// property); each level selects a new classifier, so the recursion depth
/// is bounded by the number of priced classifiers. Exponential: keep
/// instances tiny (n <= 8, pool <= 8).
///
/// Returns kInfiniteCost when no finite-cost cover exists.
inline Cost BruteForceOptimum(const Instance& instance) {
  // Priced classifiers, deduplicated (selected ones are reused for free).
  std::vector<PropertySet> classifiers;
  std::vector<Cost> costs;
  for (ClassifierId id : instance.costs().ids()) {
    classifiers.push_back(instance.costs().Classifier(id));
    costs.push_back(instance.costs().cost(id));
  }
  std::vector<bool> selected(classifiers.size(), false);
  Cost best = kInfiniteCost;

  // First query with an uncovered property under the current selection,
  // and that property.
  struct Uncovered {
    size_t query = 0;
    PropertyId property = 0;
    bool found = false;
  };
  auto first_uncovered = [&]() {
    Uncovered result;
    for (size_t qi = 0; qi < instance.NumQueries() && !result.found; ++qi) {
      const PropertySet& q = instance.queries()[qi];
      for (PropertyId p : q) {
        bool covered = false;
        for (size_t ci = 0; ci < classifiers.size() && !covered; ++ci) {
          covered = selected[ci] && classifiers[ci].Contains(p) &&
                    classifiers[ci].IsSubsetOf(q);
        }
        if (!covered) {
          result = {qi, p, true};
          break;
        }
      }
    }
    return result;
  };

  auto search = [&](auto&& self, Cost spent) -> void {
    if (spent >= best) return;  // cost-bound pruning
    const Uncovered gap = first_uncovered();
    if (!gap.found) {
      best = spent;
      return;
    }
    const PropertySet& q = instance.queries()[gap.query];
    for (size_t ci = 0; ci < classifiers.size(); ++ci) {
      if (selected[ci] || !classifiers[ci].Contains(gap.property) ||
          !classifiers[ci].IsSubsetOf(q) || IsInfiniteCost(costs[ci])) {
        continue;
      }
      selected[ci] = true;
      self(self, spent + costs[ci]);
      selected[ci] = false;
    }
  };
  search(search, 0);
  return best;
}

// The per-subset definition of the store's lattice walk, which every
// caller of ClassifierStore::AppendSubsets replaced: enumerate each subset
// of a query with ForEachNonEmptySubset and look its price up. The lookup
// goes through a sorted map of the store's entries, not the store's index.

/// The priced entries of `store`, by classifier.
inline std::map<PropertySet, Cost> ReferencePrices(
    const ClassifierStore& store) {
  std::map<PropertySet, Cost> prices;
  for (ClassifierId id : store.ids()) {
    prices.emplace(store.Classifier(id), store.cost(id));
  }
  return prices;
}

/// One priced subset of a query: its mask over the query's positions, the
/// classifier and its price.
struct PricedSubset {
  uint32_t mask;
  PropertySet classifier;
  Cost cost;
  bool operator==(const PricedSubset&) const = default;
};

/// The priced subsets of `query` in ForEachNonEmptySubset order (ascending
/// mask); none for a query longer than kMaxQueryLength.
inline std::vector<PricedSubset> ReferencePricedSubsets(
    const std::map<PropertySet, Cost>& prices, const PropertySet& query) {
  std::vector<PricedSubset> out;
  if (query.size() > kMaxQueryLength) return out;
  uint32_t mask = 0;
  ForEachNonEmptySubset(query, [&](const PropertySet& sub) {
    ++mask;  // the walk visits masks 1, 2, 3, ... in order
    const auto it = prices.find(sub);
    if (it != prices.end()) out.push_back({mask, sub, it->second});
  });
  return out;
}

/// A query list and a store to walk it over.
struct WalkList {
  std::vector<PropertySet> queries;
  ClassifierStore store;
};

/// Seeded: `num_queries` queries over a pool of 12 properties, each of 1,
/// 2, 4 or 6 properties, so a walk's batches straddle query boundaries,
/// with an empty query and an over-long one (26 properties) every 13
/// queries. About half of their subsets are priced (some at zero), then
/// about a tenth hidden and some of those revived, so the index holds
/// hidden entries; two classifiers no query contains are priced too.
/// Queries may repeat.
inline WalkList RandomWalkList(uint64_t seed, size_t num_queries = 40) {
  Rng rng(seed);
  WalkList list;
  constexpr size_t kLengths[] = {1, 2, 4, 6};
  for (size_t i = 0; i < num_queries; ++i) {
    std::vector<PropertyId> props;
    if (i % 13 == 9) {
      for (PropertyId p = 0; p <= kMaxQueryLength; ++p) props.push_back(p);
    } else if (i % 13 != 5) {
      const size_t length = kLengths[rng.UniformInt(0, 3)];
      while (props.size() < length) {
        const auto p = static_cast<PropertyId>(rng.UniformInt(0, 11));
        if (std::find(props.begin(), props.end(), p) == props.end()) {
          props.push_back(p);
        }
      }
    }
    list.queries.push_back(PropertySet::FromUnsorted(std::move(props)));
  }
  std::vector<PropertySet> priced;
  for (const PropertySet& q : list.queries) {
    if (q.size() > kMaxQueryLength) continue;
    ForEachNonEmptySubset(q, [&](const PropertySet& c) {
      if (list.store.Find(c.ids()) != ClassifierStore::kNotFound ||
          !rng.Bernoulli(0.5)) {
        return;
      }
      const Cost cost =
          rng.Bernoulli(0.1) ? 0 : static_cast<Cost>(rng.UniformInt(1, 9));
      list.store.Set(c.ids(), cost);
      priced.push_back(c);
    });
  }
  list.store.Set(PropertySet::Of({40, 41}).ids(), 1);
  list.store.Set(PropertySet::Of({42}).ids(), 2);
  for (const PropertySet& c : priced) {
    if (rng.Bernoulli(0.1)) list.store.Set(c.ids(), kInfiniteCost);
  }
  for (const PropertySet& c : priced) {
    if (list.store.Find(c.ids()) == ClassifierStore::kNotFound &&
        rng.Bernoulli(0.3)) {
      list.store.Set(c.ids(), static_cast<Cost>(rng.UniformInt(0, 5)));
    }
  }
  return list;
}

/// The entries of `store` in id order (hidden ones left out).
inline std::vector<std::pair<PropertySet, Cost>> EntriesInIdOrder(
    const ClassifierStore& store) {
  std::vector<std::pair<PropertySet, Cost>> entries;
  for (ClassifierId id : store.ids()) {
    entries.emplace_back(store.Classifier(id), store.cost(id));
  }
  return entries;
}

// Reference oracles for the coverage checks: the direct definitions over
// ForEachNonEmptySubset and Solution::Contains that Covers, VerifyCoverage
// and PruneUnusedClassifiers implemented before they moved onto
// ClassifierTable. Tests compare the library against these.

/// Reference Covers: the union of the solution's subsets of each query is
/// the query.
inline bool ReferenceCovers(const Instance& instance,
                            const Solution& solution) {
  for (const PropertySet& q : instance.queries()) {
    if (q.size() > kMaxQueryLength) return false;
    PropertySet covered;
    ForEachNonEmptySubset(q, [&](const PropertySet& sub) {
      if (solution.Contains(sub)) covered = covered.UnionWith(sub);
    });
    if (!(covered == q)) return false;
  }
  return true;
}

/// Reference VerifyCoverage.
inline CoverageReport ReferenceVerifyCoverage(const Instance& instance,
                                              const Solution& solution) {
  CoverageReport report;
  report.covers_all = true;
  report.witnesses.resize(instance.NumQueries());
  for (size_t i = 0; i < instance.NumQueries(); ++i) {
    const PropertySet& q = instance.queries()[i];
    PropertySet covered;
    ForEachNonEmptySubset(q, [&](const PropertySet& sub) {
      if (solution.Contains(sub)) {
        report.witnesses[i].push_back(sub);
        covered = covered.UnionWith(sub);
      }
    });
    if (!(covered == q)) {
      report.covers_all = false;
      report.uncovered_queries.push_back(i);
    }
  }
  return report;
}

/// Reference PruneUnusedClassifiers: per query, a cheapest cover by the
/// selected subsets of the query (mask DP, candidates in enumeration
/// order); keeps the classifiers some query's cover uses, in solution
/// order, or returns the solution untouched when a query has no
/// finite-cost cover.
inline Solution ReferencePrune(const Instance& instance,
                               const Solution& solution) {
  std::unordered_set<PropertySet, PropertySetHash> used;
  for (const PropertySet& q : instance.queries()) {
    const auto& ids = q.ids();
    const size_t k = ids.size();
    std::vector<uint32_t> cand_masks;
    std::vector<PropertySet> cand_sets;
    std::vector<Cost> cand_costs;
    ForEachNonEmptySubset(q, [&](const PropertySet& sub) {
      if (!solution.Contains(sub)) return;
      uint32_t mask = 0;
      for (size_t i = 0; i < k; ++i) {
        if (sub.Contains(ids[i])) mask |= 1u << i;
      }
      cand_masks.push_back(mask);
      cand_sets.push_back(sub);
      cand_costs.push_back(instance.CostOf(sub));
    });
    const uint32_t full = (1u << k) - 1;
    std::vector<Cost> dp(full + 1, kInfiniteCost);
    std::vector<int32_t> parent(full + 1, -1);
    std::vector<uint32_t> parent_mask(full + 1, 0);
    dp[0] = 0;
    for (uint32_t mask = 0; mask <= full; ++mask) {
      if (IsInfiniteCost(dp[mask])) continue;
      for (size_t c = 0; c < cand_masks.size(); ++c) {
        const uint32_t next = mask | cand_masks[c];
        if (next == mask) continue;
        const Cost cost = dp[mask] + cand_costs[c];
        if (cost < dp[next]) {
          dp[next] = cost;
          parent[next] = static_cast<int32_t>(c);
          parent_mask[next] = mask;
        }
      }
    }
    if (IsInfiniteCost(dp[full])) return solution;
    for (uint32_t mask = full; mask != 0;) {
      used.insert(cand_sets[parent[mask]]);
      mask = parent_mask[mask];
    }
  }
  Solution pruned;
  for (const PropertySet& c : solution.classifiers()) {
    if (used.count(c) > 0) pruned.Add(c);
  }
  return pruned;
}

/// The running example of the paper (Example 1.1): two soccer-shirt queries
/// with costs C:5, A:5, J:5, W:1, AC:3, AW:5, AJ:3, JW:4, JAW:5. The optimal
/// solution is {AC, AJ, W} at cost 7.
inline Instance PaperExample() {
  InstanceBuilder b;
  b.AddQuery({"juventus", "white", "adidas"});
  b.AddQuery({"chelsea", "adidas"});
  b.SetCost({"chelsea"}, 5);
  b.SetCost({"adidas"}, 5);
  b.SetCost({"juventus"}, 5);
  b.SetCost({"white"}, 1);
  b.SetCost({"adidas", "chelsea"}, 3);
  b.SetCost({"adidas", "white"}, 5);
  b.SetCost({"adidas", "juventus"}, 3);
  b.SetCost({"juventus", "white"}, 4);
  b.SetCost({"juventus", "adidas", "white"}, 5);
  return std::move(b).Build();
}

/// Four synthetic domains of `per_domain` queries (k <= 4) with their
/// properties named "p<id>", so snapshot documents and protocol requests
/// can carry them.
inline Instance NamedShardedSynthetic(uint64_t seed, size_t per_domain) {
  online::ShardedSyntheticConfig config;
  config.num_domains = 4;
  config.domain.num_queries = per_domain;
  config.domain.max_query_length = 4;
  config.domain.seed = seed;
  Instance base = online::GenerateShardedSynthetic(config);
  PropertyId max_id = 0;
  for (const PropertySet& q : base.queries()) {
    max_id = std::max(max_id, q.ids().back());
  }
  std::vector<std::string> names(max_id + 1, "p");
  for (PropertyId p = 0; p <= max_id; ++p) names[p] += std::to_string(p);
  base.set_property_names(std::move(names));
  return base;
}

}  // namespace mc3::testing

