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

Result<Instance> InstanceFromCsv(const std::string& text) {
  auto doc = ParseCsv(text);
  if (!doc.ok()) return doc.status();
  InstanceBuilder builder;
  for (size_t r = 0; r < doc->rows.size(); ++r) {
    const auto& row = doc->rows[r];
    if (row.empty()) continue;
    const std::string& kind = row[0];
    if (kind == "Q") {
      if (row.size() < 2) {
        return Status::IOError("row " + std::to_string(r) +
                               ": query with no properties");
      }
      builder.AddQuery({row.begin() + 1, row.end()});
    } else if (kind == "C") {
      if (row.size() < 3) {
        return Status::IOError("row " + std::to_string(r) +
                               ": classifier needs a cost and a property");
      }
      double cost = 0;
      const auto& s = row[1];
      const auto [ptr, ec] =
          std::from_chars(s.data(), s.data() + s.size(), cost);
      if (ec != std::errc() || ptr != s.data() + s.size() || cost < 0) {
        return Status::IOError("row " + std::to_string(r) +
                               ": bad cost '" + s + "'");
      }
      builder.SetCost({row.begin() + 2, row.end()}, cost);
    } else {
      return Status::IOError("row " + std::to_string(r) +
                             ": unknown row kind '" + kind + "'");
    }
  }
  Instance instance = std::move(builder).Build();
  MC3_RETURN_IF_ERROR(instance.Validate());
  return instance;
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
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return InstanceFromCsv(buf.str());
}

}  // namespace mc3::data
