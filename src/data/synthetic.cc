#include "data/synthetic.h"

#include <cmath>
#include <unordered_set>

#include "util/rng.h"

namespace mc3::data {

Instance GenerateSynthetic(const SyntheticConfig& config) {
  Rng rng(config.seed);
  const size_t n = config.num_queries;
  // t uniform in [2, sqrt(n)]; pool of n/t properties.
  const auto sqrt_n =
      std::max<uint64_t>(2, static_cast<uint64_t>(std::sqrt(double(n))));
  const uint64_t t = rng.UniformInt(2, sqrt_n);
  const size_t pool = std::max<size_t>(2, n / t);

  Instance instance;
  std::unordered_set<PropertySet, PropertySetHash> seen;
  // Safety valve: give up on the (practically unreachable) pathological
  // case where the query space is exhausted, rather than spin forever.
  size_t rounds = 0;
  const size_t max_rounds = 64 * n + 4096;
  while (seen.size() < n && ++rounds <= max_rounds) {
    // P(length = l) = 1/2^(l-1) for l >= 2; redraw lengths beyond the cap.
    size_t length = 2;
    while (rng.Bernoulli(0.5)) ++length;
    if (length > config.max_query_length) continue;
    length = std::min(length, pool);

    PropertySet query;
    bool inserted = false;
    for (int attempt = 0; attempt < 64 && !inserted; ++attempt) {
      std::vector<PropertyId> props;
      std::unordered_set<PropertyId> used;
      while (props.size() < length) {
        const auto p = static_cast<PropertyId>(rng.UniformInt(0, pool - 1));
        if (used.insert(p).second) props.push_back(p);
      }
      query = PropertySet::FromUnsorted(std::move(props));
      inserted = seen.insert(query).second;
      // Saturated at this length: widen the query rather than loop forever.
      if (!inserted && attempt == 63 && length < config.max_query_length &&
          length < pool) {
        ++length;
        attempt = 0;
      }
    }
    if (inserted) instance.AddQuery(std::move(query));
  }

  // Price every classifier in C_Q uniformly from [cost_min, cost_max].
  PriceUnpricedSubsets(&instance, [&](const PropertySet&, const PropertySet&) {
    return static_cast<Cost>(rng.UniformInt(config.cost_min, config.cost_max));
  });
  return instance;
}

}  // namespace mc3::data
