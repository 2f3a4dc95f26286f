// JSON solve/bench reports: the machine-readable export of the
// observability layer, written by `mc3 solve --report`, `mc3 serve
// --report` and the unified `mc3 bench` runner (which emits
// BENCH_*.json files tracking the perf trajectory across PRs).
//
// Two schemas, both versioned and validated by this module (the schemas are
// documented in docs/observability.md):
//   * mc3.solve_report/1 — one solve (or serve replay): header, instance
//     shape, result, span tree, metrics snapshot;
//   * mc3.bench_report/2 — a list of named bench cases, each a solve report
//     body with work counters and per-repeat wall times, plus run
//     parameters, machine metadata and the merged metrics snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace mc3::obs {

inline constexpr const char kSolveReportSchema[] = "mc3.solve_report/1";
/// Bench-report schema: /2 added per-case deterministic work counters,
/// per-repeat wall times, run parameters and machine metadata to /1, which
/// is no longer accepted.
inline constexpr const char kBenchReportSchema[] = "mc3.bench_report/2";

/// Header + scalar sections of one solve report.
struct SolveReportMeta {
  std::string tool;    ///< "solve", "serve", "bench"
  std::string solver;  ///< solver Name() or engine description
  std::string workload;

  // Instance shape.
  size_t num_queries = 0;
  size_t num_classifiers = 0;
  size_t num_properties = 0;
  size_t max_query_length = 0;

  // Result.
  double cost = 0;
  size_t solution_size = 0;
  size_t num_components = 0;
  double total_seconds = 0;
};

/// One case of a bench report: a meta block plus its solve's span tree.
struct BenchCase {
  SolveReportMeta meta;
  const Trace* trace = nullptr;  ///< borrowed; must outlive rendering
  /// Deterministic work counters recorded by this case alone (the runner
  /// resets the registry between cases). Byte-stable across repeats and
  /// machines; mc3_benchdiff gates on exact equality.
  std::map<std::string, uint64_t> counters;
  /// Wall time of every measured repeat, in order; meta.total_seconds holds
  /// the median. Singleton when --repeat was not given.
  std::vector<double> wall_seconds;
};

/// Run-level parameters of a bench invocation (schema /2 header fields).
struct BenchRunInfo {
  bool quick = false;
  double scale = 1.0;
  uint64_t seed = 1;
  size_t repeat = 1;   ///< measured runs per case
  size_t warmup = 0;   ///< discarded runs per case before measuring
  std::string filter;  ///< substring case filter; empty = all cases
};

/// Hardware/toolchain identification stored alongside wall times so a
/// trajectory of BENCH_*.json files stays interpretable. Work counters are
/// machine-independent; wall times are only comparable within one machine.
struct MachineInfo {
  std::string os;
  std::string arch;
  std::string compiler;
  size_t hardware_threads = 0;
};

/// Describes the build host/toolchain of the running binary.
MachineInfo DescribeMachine();

/// Renders a complete solve report document: meta + `trace`'s span tree +
/// `metrics`. Always writes `"obs_enabled": true`; the flag stays in the
/// schema because files written by older builds may carry false.
std::string RenderSolveReport(const SolveReportMeta& meta, const Trace& trace,
                              const MetricsSnapshot& metrics);

/// Renders a mc3.bench_report/2 document over `cases` (each with its own
/// trace, counters and repeat timings).
std::string RenderBenchReport(const std::vector<BenchCase>& cases,
                              const MetricsSnapshot& metrics,
                              const BenchRunInfo& run);

/// Validates a solve-report document against mc3.solve_report/1: parses the
/// JSON and checks the presence and types of every required field
/// (recursively for the span tree). Returns kInvalidArgument with the first
/// violation found.
Status ValidateSolveReportJson(const std::string& json);

/// Validates a bench-report document against mc3.bench_report/2: run
/// parameters, the machine block, per-case counters and per-repeat wall
/// times. In addition, when the document declares obs_enabled and no case
/// filter, it requires the per-phase timings the perf trajectory is
/// tracked on: the four preprocessing steps, the k2 max-flow solve, the
/// greedy and f-approximation WSC phases, and the online update path.
Status ValidateBenchReportJson(const std::string& json);

/// Renders `metrics` as a JSON object into `writer` (value position).
/// Exposed for the CLI's report assembly.
void RenderMetrics(const MetricsSnapshot& metrics, JsonWriter* writer);

}  // namespace mc3::obs

