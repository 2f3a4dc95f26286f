#include "data/private_dataset.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/rng.h"

namespace mc3::data {
namespace {

struct CategorySpec {
  const char* name;
  size_t num_queries;
  size_t pool_size;
  /// Cumulative probability of each query length 1..6.
  double length_cdf[6];
};

/// Draws a query length from the category's distribution.
size_t DrawLength(const CategorySpec& spec, Rng* rng) {
  const double u = rng->UniformDouble();
  for (size_t l = 0; l < 6; ++l) {
    if (u < spec.length_cdf[l]) return l + 1;
  }
  return 6;
}

/// Skewed property pick: popular (low-id) properties recur much more often.
PropertyId PickProperty(size_t pool, Rng* rng) {
  const double u = rng->UniformDouble();
  auto idx = static_cast<size_t>(u * u * pool);
  if (idx >= pool) idx = pool - 1;
  return static_cast<PropertyId>(idx);
}

}  // namespace

std::vector<size_t> PrivateDataset::CategoryQueryIndices(
    const std::string& name) const {
  std::vector<size_t> indices;
  for (const auto& c : categories) {
    if (c.name == name) {
      for (size_t i = 0; i < c.num_queries; ++i) {
        indices.push_back(c.first_query + i);
      }
    }
  }
  return indices;
}

PrivateDataset GeneratePrivate(const PrivateConfig& config) {
  Rng rng(config.seed);
  PrivateDataset dataset;
  Instance& instance = dataset.instance;

  const CategorySpec specs[] = {
      // Electronics and Home & Garden: lengths 1-6, longer tail.
      {"electronics", config.electronics_queries, 3000,
       {0.24, 0.76, 0.88, 0.95, 0.99, 1.0}},
      {"home_garden", config.home_garden_queries, 2000,
       {0.26, 0.78, 0.90, 0.96, 0.99, 1.0}},
      // Fashion: 96% of queries of length <= 2 (paper Section 6.1).
      {"fashion", config.fashion_queries, 800,
       {0.34, 0.96, 0.99, 1.0, 1.0, 1.0}},
  };

  // Property ids are globally dense: each category owns a contiguous block,
  // so categories are property-disjoint (they model separate catalogs).
  std::vector<std::string> names;
  PropertyId next_property = 0;
  std::unordered_set<PropertySet, PropertySetHash> seen;
  for (const CategorySpec& spec : specs) {
    const PropertyId base = next_property;
    for (size_t i = 0; i < spec.pool_size; ++i) {
      names.push_back(std::string(spec.name) + ":p" + std::to_string(i));
    }
    next_property += static_cast<PropertyId>(spec.pool_size);

    PrivateDataset::Category category{spec.name, instance.NumQueries(), 0};
    while (category.num_queries < spec.num_queries) {
      const size_t length = DrawLength(spec, &rng);
      std::vector<PropertyId> props;
      std::unordered_set<PropertyId> used;
      while (props.size() < length) {
        const PropertyId p = base + PickProperty(spec.pool_size, &rng);
        if (used.insert(p).second) props.push_back(p);
      }
      PropertySet query = PropertySet::FromUnsorted(std::move(props));
      if (!seen.insert(query).second) continue;
      instance.AddQuery(std::move(query));
      ++category.num_queries;
    }
    dataset.categories.push_back(category);
  }
  instance.set_property_names(names);

  // Cost model. Singleton costs are skewed toward the cheap end of
  // [cost_min, cost_max]; conjunctions are usually sub-additive (cheaper
  // than the sum of their parts) and occasionally "easy" (cheaper than the
  // cheapest part) — the phenomenon motivating the whole problem.
  // Singleton costs are bimodal: "easy" properties (derivable from
  // structured data) are cheap, "hard" ones (picture/description-only, like
  // brand detection in Example 1.1) are expensive. Conjunctions involving a
  // hard property are often easy ("Adidas Juventus" has few variants),
  // which is exactly the paper's motivating phenomenon.
  const double lo = static_cast<double>(config.cost_min);
  const double hi = static_cast<double>(config.cost_max);
  std::unordered_map<PropertyId, Cost> singleton_cost;
  auto singleton = [&](PropertyId p) {
    const auto it = singleton_cost.find(p);
    if (it != singleton_cost.end()) return it->second;
    const double u = rng.UniformDouble();
    Cost c;
    if (rng.Bernoulli(0.45)) {
      c = lo + std::floor(u * u * std::min(hi - lo, 7.0) + 0.5);  // easy
    } else {
      const double hard_lo = std::min(hi, lo + 14);
      c = hard_lo + std::floor(u * u * (hi - hard_lo) + 0.5);  // hard
    }
    singleton_cost.emplace(p, c);
    return c;
  };
  auto clamp_cost = [&](double c) {
    return std::min<Cost>(static_cast<Cost>(config.cost_max),
                          std::max<Cost>(static_cast<Cost>(config.cost_min),
                                         std::floor(c + 0.5)));
  };
  PriceUnpricedSubsets(&instance, [&](const PropertySet& classifier,
                                      const PropertySet& q) -> Cost {
    if (classifier.size() == 1) return singleton(*classifier.begin());
    // Only small building blocks (length <= 3) and the dedicated
    // full-query classifier are priced; other long conjunctions are
    // omitted (not enough training data to cost them in advance — the
    // "bounded classifiers" practice of Section 5.3).
    const bool is_full_query = classifier.size() == q.size();
    if (classifier.size() > 3 && !is_full_query) return kInfiniteCost;

    Cost sum = 0;
    Cost min_part = kInfiniteCost;
    Cost max_part = 0;
    for (PropertyId p : classifier) {
      const Cost c = singleton(p);
      sum += c;
      min_part = std::min(min_part, c);
      max_part = std::max(max_part, c);
    }
    // Conjunctions containing a hard property are easy more often (few
    // product variants satisfy the whole conjunction), and the effect
    // strengthens with length (more specific conjunctions).
    const bool contains_hard = max_part >= std::min(hi, lo + 14);
    const double boost =
        (contains_hard ? 2.6 : 0.3) * (classifier.size() >= 3 ? 1.4 : 1.0);
    const double easy_probability =
        std::min(boost * config.easy_conjunction_probability, 0.95);
    Cost cost;
    if (rng.Bernoulli(easy_probability)) {
      cost = clamp_cost(1 + 4 * rng.UniformDouble() +
                        0.1 * min_part * rng.UniformDouble());
    } else if (!contains_hard && classifier.size() == 2) {
      // All-easy pairs are barely sub-additive: both properties are
      // simple, so conjoining them saves little labeling work.
      cost = clamp_cost(sum * (0.78 + 0.18 * rng.UniformDouble()));
    } else {
      cost = clamp_cost(sum * (0.55 + 0.4 * rng.UniformDouble()));
    }
    return cost;
  });
  return dataset;
}

}  // namespace mc3::data
