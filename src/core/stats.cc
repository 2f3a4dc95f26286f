#include "core/stats.h"

#include <algorithm>
#include <cmath>

#include "util/table.h"

namespace mc3 {

InstanceStats ComputeStats(const Instance& instance) {
  InstanceStats stats;
  stats.num_queries = instance.NumQueries();
  stats.num_properties = instance.NumProperties();
  stats.max_query_length = instance.MaxQueryLength();
  stats.length_histogram.assign(stats.max_query_length + 1, 0);
  size_t short_queries = 0;
  for (const PropertySet& q : instance.queries()) {
    ++stats.length_histogram[q.size()];
    if (q.size() <= 2) ++short_queries;
  }
  stats.fraction_short =
      stats.num_queries == 0
          ? 0
          : static_cast<double>(short_queries) / stats.num_queries;

  bool first = true;
  for (ClassifierId id : instance.costs().ids()) {
    const Cost cost = instance.costs().cost(id);
    if (!std::isfinite(cost)) continue;
    ++stats.num_classifiers;
    if (first) {
      stats.min_cost = stats.max_cost = cost;
      first = false;
    } else {
      stats.min_cost = std::min(stats.min_cost, cost);
      stats.max_cost = std::max(stats.max_cost, cost);
    }
  }
  stats.incidence = instance.Incidence();
  stats.feasible = instance.IsFeasible();
  return stats;
}

std::string StatsRow(const std::string& name, const InstanceStats& stats) {
  return name + ", " + std::to_string(stats.num_queries) + " queries, max cost " +
         TablePrinter::Num(stats.max_cost, 0) + ", max length " +
         std::to_string(stats.max_query_length);
}

}  // namespace mc3
