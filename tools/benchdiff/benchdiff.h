// mc3_benchdiff — deterministic perf-regression gating over bench reports.
//
// Compares two mc3.bench_report/{1,2} (or mc3.bench_baseline/1) documents:
//   * work counters are compared EXACTLY per case (any relative drift above
//     --counter-tolerance, default 0%, is a finding) — they are
//     byte-deterministic operation counts, so drift means the algorithms did
//     different work, never measurement noise;
//   * wall times are compared robustly: median over the per-case repeats
//     with a noise floor derived from the median absolute deviation (MAD),
//     and only when both documents carry wall times from the same machine.
//
// The differ is a library so tests/benchdiff_test.cc can drive it on fixture
// documents; tools/benchdiff/mc3_benchdiff_main.cc is the thin CLI
// (exit 0 = no regression, 1 = regression, 2 = usage/load error).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace mc3::benchdiff {

inline constexpr const char kBenchDiffSchema[] = "mc3.bench_diff/1";
inline constexpr const char kBenchBaselineSchema[] = "mc3.bench_baseline/1";

/// One bench case as the differ sees it.
struct CaseData {
  std::map<std::string, uint64_t> counters;
  /// Wall time of every measured repeat; empty for counter-only baselines.
  std::vector<double> wall_seconds;
};

/// A loaded bench document (report or baseline), reduced to what the differ
/// needs.
struct BenchData {
  std::string schema;        ///< declared schema of the source document
  bool obs_enabled = false;  ///< counters are meaningful only when true
  /// "os/arch compiler (N threads)" for /2 reports; empty otherwise. Wall
  /// times are only comparable when both sides report the same machine.
  std::string machine;
  std::vector<std::pair<std::string, CaseData>> cases;  ///< document order

  const CaseData* FindCase(const std::string& name) const;
};

/// Parses a mc3.bench_report/2 or mc3.bench_baseline/1 document; any other
/// schema, mc3.bench_report/1 included, is an InvalidArgument.
Result<BenchData> LoadBenchData(const std::string& json);

struct DiffOptions {
  bool counters_only = false;      ///< skip the wall-time comparison
  double counter_tolerance = 0.0;  ///< allowed relative drift per counter
  double wall_tolerance = 0.25;    ///< relative slow-down floor
  double min_wall_seconds = 5e-3;  ///< medians below this are never gated
};

/// One comparison outcome. `regression == true` findings drive the nonzero
/// exit code; the rest are informational notes (improvements, skipped
/// comparisons).
struct Finding {
  std::string kind;  ///< counter_drift | counter_missing | counter_new |
                     ///< case_missing | case_new | wall_regression |
                     ///< wall_improvement | wall_skipped | obs_disabled
  std::string case_name;
  std::string metric;  ///< counter name, or "wall_seconds"
  double baseline = 0;
  double current = 0;
  double change = 0;  ///< relative: (current - baseline) / max(baseline, 1)
  bool regression = true;
  std::string detail;
};

struct DiffReport {
  std::vector<Finding> findings;
  size_t cases_compared = 0;
  size_t counters_compared = 0;
  bool wall_compared = false;

  size_t NumRegressions() const;
};

/// Compares `current` against `baseline` under `options`.
DiffReport DiffBenchData(const BenchData& baseline, const BenchData& current,
                         const DiffOptions& options);

/// Median of `values` (average of the middle two for even sizes; 0 when
/// empty). Takes a copy because it sorts.
double Median(std::vector<double> values);

/// Median absolute deviation of `values` around `median`.
double MedianAbsDeviation(const std::vector<double>& values, double median);

/// Renders the diff as a mc3.bench_diff/1 document.
std::string RenderDiffJson(const DiffReport& report,
                           const DiffOptions& options);

/// Validates a mc3.bench_diff/1 document (used on every emitted diff).
Status ValidateBenchDiffJson(const std::string& json);

/// Renders the findings as a human-readable table (util/table.h).
std::string RenderDiffTable(const DiffReport& report);

/// Renders `data` as a counters-only, machine-independent
/// mc3.bench_baseline/1 document (the committed-baseline format).
std::string RenderBaselineJson(const BenchData& data);

}  // namespace mc3::benchdiff
