#include "data/io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

#include "util/csv.h"

namespace mc3::data {
namespace {

std::string PropertyName(const Instance& instance, PropertyId p) {
  const auto& names = instance.property_names();
  if (p < names.size() && !names[p].empty()) return names[p];
  return std::to_string(p);
}

}  // namespace

std::string InstanceToCsv(const Instance& instance) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"# MC3 instance: Q,<props...> / C,<cost>,<props...>"});
  for (const PropertySet& q : instance.queries()) {
    std::vector<std::string> row{"Q"};
    for (PropertyId p : q) row.push_back(PropertyName(instance, p));
    rows.push_back(std::move(row));
  }
  // Canonical classifier order, so loading the file numbers the price
  // table in that order.
  const ClassifierStore& costs = instance.costs();
  for (ClassifierId id : costs.SortedIds()) {
    std::vector<std::string> row{"C"};
    std::ostringstream cost;
    cost << costs.cost(id);
    row.push_back(cost.str());
    for (PropertyId p : costs.key(id)) {
      row.push_back(PropertyName(instance, p));
    }
    rows.push_back(std::move(row));
  }
  return FormatCsv(rows);
}

namespace {

// Feeds each instance row (`Q,<props...>` or `C,<cost>,<props...>`) to
// `builder`. An error names the row by its index among the kept rows.
CsvRowHandler InstanceRows(InstanceBuilder* builder) {
  return [builder, r = size_t{0}](
             const std::vector<std::string>& row) mutable -> Status {
    const size_t at = r++;
    const std::string& kind = row[0];
    if (kind == "Q") {
      if (row.size() < 2) {
        return Status::IOError("row " + std::to_string(at) +
                               ": query with no properties");
      }
      builder->AddQuery({row.begin() + 1, row.end()});
    } else if (kind == "C") {
      if (row.size() < 3) {
        return Status::IOError("row " + std::to_string(at) +
                               ": classifier needs a cost and a property");
      }
      double cost = 0;
      const auto& s = row[1];
      const auto [ptr, ec] =
          std::from_chars(s.data(), s.data() + s.size(), cost);
      if (ec != std::errc() || ptr != s.data() + s.size() || cost < 0) {
        return Status::IOError("row " + std::to_string(at) + ": bad cost '" +
                               s + "'");
      }
      builder->SetCost({row.begin() + 2, row.end()}, cost);
    } else {
      return Status::IOError("row " + std::to_string(at) +
                             ": unknown row kind '" + kind + "'");
    }
    return Status::OK();
  };
}

Result<Instance> BuildValid(InstanceBuilder builder) {
  Instance instance = std::move(builder).Build();
  MC3_RETURN_IF_ERROR(instance.Validate());
  return instance;
}

}  // namespace

Result<Instance> InstanceFromCsv(const std::string& text) {
  InstanceBuilder builder;
  MC3_RETURN_IF_ERROR(ParseCsv(text, InstanceRows(&builder)));
  return BuildValid(std::move(builder));
}

std::string SolutionToCsv(const Instance& instance,
                          const Solution& solution) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"# MC3 plan: C,<cost>,<props...>"});
  for (const PropertySet& c : solution.Sorted()) {
    std::vector<std::string> row{"C"};
    std::ostringstream cost;
    cost << instance.CostOf(c);
    row.push_back(cost.str());
    for (PropertyId p : c) row.push_back(PropertyName(instance, p));
    rows.push_back(std::move(row));
  }
  return FormatCsv(rows);
}

Status SaveSolution(const Instance& instance, const Solution& solution,
                    const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << SolutionToCsv(instance, solution);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status SaveInstance(const Instance& instance, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << InstanceToCsv(instance);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Instance> LoadInstance(const std::string& path) {
  InstanceBuilder builder;
  MC3_RETURN_IF_ERROR(ReadCsvFile(path, InstanceRows(&builder)));
  return BuildValid(std::move(builder));
}

}  // namespace mc3::data
