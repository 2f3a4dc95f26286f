#include "serve_gen.h"

#include <algorithm>
#include <sstream>

#include "common.h"
#include "data/io.h"
#include "obs/json.h"
#include "online/churn.h"

namespace perfbench {
namespace {

/// Catalog shape: 1,000 domains of 15 synthetic queries with disjoint
/// property pools (online::GenerateShardedSynthetic).
constexpr size_t kServeDomains = 1000;
constexpr size_t kServeQueriesPerDomain = 15;

void WriteQueries(const std::vector<mc3::PropertySet>& queries,
                  mc3::obs::JsonWriter* writer) {
  writer->BeginArray();
  for (const mc3::PropertySet& query : queries) {
    writer->BeginArray();
    // The catalog carries no names, so the CSV names each property by its
    // id; requests use the same spelling.
    for (mc3::PropertyId id : query) writer->String(std::to_string(id));
    writer->EndArray();
  }
  writer->EndArray();
}

std::string RenderUpdate(uint64_t id, const mc3::online::ChurnGenerator::Batch& batch) {
  mc3::obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("op").String("update");
  writer.Key("id").Int(id);
  writer.Key("add");
  WriteQueries(batch.add, &writer);
  writer.Key("remove");
  WriteQueries(batch.remove, &writer);
  writer.EndObject();
  return writer.Take();
}

}  // namespace

ServeWorkload GenerateServeWorkload(uint64_t seed, size_t requests_per_writer) {
  mc3::online::ShardedSyntheticConfig config;
  config.num_domains = kServeDomains;
  config.domain.num_queries = kServeQueriesPerDomain;
  // Domain d is generated with seed base + d: spacing the bases by the
  // domain count keeps neighbouring benchmark seeds from sharing domains.
  config.domain.seed = (seed + 1) * kServeDomains;
  const mc3::Instance catalog = mc3::online::GenerateShardedSynthetic(config);

  ServeWorkload out;
  out.catalog_csv = mc3::data::InstanceToCsv(catalog);

  // Domains occupy ascending, disjoint property ranges in query order, so
  // the first query past the middle whose smallest property exceeds every
  // property before it starts the second writer's half.
  const std::vector<mc3::PropertySet>& queries = catalog.queries();
  size_t split = queries.size() / 2;
  mc3::PropertyId max_before = 0;
  for (size_t i = 0; i < split; ++i) {
    max_before = std::max(max_before, *(queries[i].end() - 1));
  }
  while (split < queries.size() && *queries[split].begin() <= max_before) {
    max_before = std::max(max_before, *(queries[split].end() - 1));
    ++split;
  }

  for (int w = 0; w < 2; ++w) {
    mc3::Instance half;
    const size_t begin = w == 0 ? 0 : split;
    const size_t end = w == 0 ? split : queries.size();
    for (size_t i = begin; i < end; ++i) half.AddQuery(queries[i]);
    mc3::online::ChurnGenerator churn(half, seed * 4 + static_cast<uint64_t>(w) + 1);
    const uint64_t id_base = static_cast<uint64_t>(w + 1) * kIdStride;
    uint64_t next_id = id_base;
    // Warm-up: retire 10% of the writer's queries, 50 per request.
    size_t to_retire = (end - begin) / 10;
    while (to_retire > 0) {
      const size_t now = std::min<size_t>(to_retire, 50);
      out.warmup[w].push_back(RenderUpdate(next_id++, churn.Next(0, now)));
      to_retire -= now;
    }
    for (size_t r = 0; r < requests_per_writer; ++r) {
      out.measured[w].push_back(RenderUpdate(
          next_id++, churn.Next(kServeOpsPerSide, kServeOpsPerSide)));
    }
  }
  return out;
}

mc3::Status WriteServeWorkload(const ServeWorkload& workload,
                               const std::string& dir) {
  MC3_RETURN_IF_ERROR(WriteFile(dir + "/catalog.csv", workload.catalog_csv));
  const auto join = [](const std::vector<std::string>& lines) {
    std::string text;
    for (const std::string& line : lines) text += line + "\n";
    return text;
  };
  for (int w = 0; w < 2; ++w) {
    const std::string prefix = dir + "/writer-" + std::to_string(w);
    MC3_RETURN_IF_ERROR(WriteFile(prefix + "-warmup.jsonl", join(workload.warmup[w])));
    MC3_RETURN_IF_ERROR(WriteFile(prefix + ".jsonl", join(workload.measured[w])));
  }
  return mc3::Status::OK();
}

mc3::Result<std::vector<std::string>> ReadLines(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  std::vector<std::string> lines;
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

}  // namespace perfbench
