// Inputs of the serve_churn workload: the catalog CSV and the fixed, seeded
// update request lines of its two writers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Each measured update request removes this many live queries and revives
/// as many retired ones.
inline constexpr size_t kServeOpsPerSide = 4;

struct ServeWorkload {
  std::string catalog_csv;
  /// Per writer: unmeasured warm-up requests that retire 10% of the
  /// writer's queries, then the measured update requests. Writer 0 owns the
  /// first half of the domains, writer 1 the second; their queries share no
  /// property.
  std::vector<std::string> warmup[2];
  std::vector<std::string> measured[2];
};

/// Deterministic in (`seed`, `requests_per_writer`).
ServeWorkload GenerateServeWorkload(uint64_t seed, size_t requests_per_writer);

/// Writes catalog.csv and writer-<w>-warmup.jsonl / writer-<w>.jsonl
/// (one request per line) into `dir`.
mc3::Status WriteServeWorkload(const ServeWorkload& workload,
                               const std::string& dir);

/// Reads the request lines of one file (no trailing newlines).
mc3::Result<std::vector<std::string>> ReadLines(const std::string& path);

/// Request-id ranges: writer w's requests are (w + 1) * kIdStride + i, the
/// reader's 3 * kIdStride + i, control requests 4 * kIdStride + i.
inline constexpr uint64_t kIdStride = 1000000;

}  // namespace perfbench
