#include "data/query_log.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

namespace mc3::data {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char raw : line) {
    const auto c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current += static_cast<char>(std::tolower(c));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

}  // namespace

QueryLog ParseQueryLog(const std::vector<std::string>& lines,
                       const QueryLogOptions& options) {
  const std::unordered_set<std::string> stopwords(options.stopwords.begin(),
                                                  options.stopwords.end());
  QueryLog log;
  log.total_lines = lines.size();

  InstanceBuilder builder;
  // property-set -> (query index in builder order) for aggregation.
  std::unordered_map<PropertySet, size_t, PropertySetHash> index;
  std::vector<std::vector<std::string>> query_names;
  std::vector<size_t> counts;

  for (const std::string& line : lines) {
    std::vector<std::string> tokens = Tokenize(line);
    std::vector<std::string> kept;
    std::unordered_set<std::string> seen;
    for (auto& token : tokens) {
      if (stopwords.count(token) > 0) continue;
      if (seen.insert(token).second) kept.push_back(std::move(token));
    }
    if (kept.empty() || kept.size() > options.max_query_length) {
      ++log.dropped_lines;
      continue;
    }
    std::vector<PropertyId> ids;
    ids.reserve(kept.size());
    for (const auto& name : kept) ids.push_back(builder.Intern(name));
    const PropertySet query = PropertySet::FromUnsorted(std::move(ids));
    const auto [it, inserted] = index.emplace(query, counts.size());
    if (inserted) {
      query_names.push_back(std::move(kept));
      counts.push_back(1);
    } else {
      ++counts[it->second];
    }
  }

  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] < options.min_frequency) {
      log.dropped_lines += counts[i];
      continue;
    }
    builder.AddQuery(query_names[i]);
    log.frequency.push_back(counts[i]);
  }
  log.instance = std::move(builder).Build();
  return log;
}

Status EstimateCosts(Instance* instance,
                     const CostEstimatorOptions& options) {
  if (options.subadditivity <= 0 || options.floor_factor < 0 ||
      options.default_difficulty < 0) {
    return Status::InvalidArgument("cost estimator parameters must be >= 0");
  }
  const auto& names = instance->property_names();
  auto difficulty = [&](PropertyId p) -> Cost {
    if (p < names.size()) {
      const auto it = options.property_difficulty.find(names[p]);
      if (it != options.property_difficulty.end()) return it->second;
    }
    return options.default_difficulty;
  };
  PriceUnpricedSubsets(instance, [&](const PropertySet& classifier,
                                     const PropertySet&) {
    Cost sum = 0;
    Cost min_part = kInfiniteCost;
    for (PropertyId p : classifier) {
      const Cost d = difficulty(p);
      sum += d;
      min_part = std::min(min_part, d);
    }
    const Cost cost =
        classifier.size() == 1 ? sum : options.subadditivity * sum;
    return std::max(cost, options.floor_factor * min_part);
  });
  return Status::OK();
}

}  // namespace mc3::data
