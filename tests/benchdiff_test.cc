// Tests of the mc3_benchdiff differ library: loading bench documents,
// exact counter gating, MAD-based wall-time comparison, and the
// mc3.bench_diff/1 / mc3.bench_baseline/1 render+validate round trips.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchdiff/benchdiff.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace mc3 {
namespace {

using benchdiff::BenchData;
using benchdiff::CaseData;
using benchdiff::DiffBenchData;
using benchdiff::DiffOptions;
using benchdiff::DiffReport;
using benchdiff::Finding;

BenchData MakeData() {
  BenchData data;
  data.schema = obs::kBenchReportSchema;
  data.obs_enabled = true;
  data.machine = "linux/x86_64 test (4 threads)";
  CaseData general;
  general.counters = {{"setcover.greedy.heap_pops", 1000},
                      {"preprocess.runs", 1}};
  general.wall_seconds = {0.100, 0.101, 0.099};
  data.cases.emplace_back("general", general);
  CaseData k2;
  k2.counters = {{"flow.dinic.augmenting_paths", 34}};
  k2.wall_seconds = {0.010, 0.010, 0.011};
  data.cases.emplace_back("k2", k2);
  return data;
}

size_t CountKind(const DiffReport& report, const std::string& kind) {
  size_t n = 0;
  for (const Finding& f : report.findings) {
    if (f.kind == kind) ++n;
  }
  return n;
}

TEST(BenchDiffTest, IdenticalDataReportsNoFindings) {
  const BenchData data = MakeData();
  const DiffReport report = DiffBenchData(data, data, DiffOptions{});
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.NumRegressions(), 0u);
  EXPECT_EQ(report.cases_compared, 2u);
  EXPECT_EQ(report.counters_compared, 3u);
}

TEST(BenchDiffTest, CounterDriftIsARegressionAtZeroTolerance) {
  const BenchData baseline = MakeData();
  BenchData current = MakeData();
  current.cases[0].second.counters["setcover.greedy.heap_pops"] = 1001;
  const DiffReport report = DiffBenchData(baseline, current, DiffOptions{});
  EXPECT_EQ(CountKind(report, "counter_drift"), 1u);
  EXPECT_EQ(report.NumRegressions(), 1u);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.case_name, "general");
  EXPECT_EQ(f.metric, "setcover.greedy.heap_pops");
  EXPECT_EQ(f.baseline, 1000);
  EXPECT_EQ(f.current, 1001);
  EXPECT_TRUE(f.regression);
}

TEST(BenchDiffTest, ToleranceSuppressesSmallDrift) {
  const BenchData baseline = MakeData();
  BenchData current = MakeData();
  current.cases[0].second.counters["setcover.greedy.heap_pops"] = 1040;
  DiffOptions options;
  options.counter_tolerance = 0.05;  // 5% allowed; 4% drift passes
  EXPECT_EQ(DiffBenchData(baseline, current, options).NumRegressions(), 0u);
  options.counter_tolerance = 0.03;  // 3% allowed; 4% drift fails
  EXPECT_EQ(DiffBenchData(baseline, current, options).NumRegressions(), 1u);
}

TEST(BenchDiffTest, MissingAndNewCountersAreRegressions) {
  const BenchData baseline = MakeData();
  BenchData current = MakeData();
  current.cases[0].second.counters.erase("preprocess.runs");
  current.cases[1].second.counters["flow.dinic.phases"] = 2;
  const DiffReport report = DiffBenchData(baseline, current, DiffOptions{});
  EXPECT_EQ(CountKind(report, "counter_missing"), 1u);
  EXPECT_EQ(CountKind(report, "counter_new"), 1u);
  EXPECT_EQ(report.NumRegressions(), 2u);
}

TEST(BenchDiffTest, MissingCaseIsARegressionNewCaseIsANote) {
  const BenchData baseline = MakeData();
  BenchData current = MakeData();
  current.cases.erase(current.cases.begin());  // drop "general"
  CaseData fresh;
  fresh.counters = {{"online.updates", 11}};
  current.cases.emplace_back("online", fresh);
  const DiffReport report = DiffBenchData(baseline, current, DiffOptions{});
  EXPECT_EQ(CountKind(report, "case_missing"), 1u);
  EXPECT_EQ(CountKind(report, "case_new"), 1u);
  EXPECT_EQ(report.NumRegressions(), 1u);  // only the missing case gates
}

TEST(BenchDiffTest, ObsDisabledCurrentFailsLoudly) {
  const BenchData baseline = MakeData();
  BenchData current = MakeData();
  current.obs_enabled = false;
  const DiffReport report = DiffBenchData(baseline, current, DiffOptions{});
  EXPECT_EQ(CountKind(report, "obs_disabled"), 1u);
  EXPECT_EQ(report.NumRegressions(), 1u);
}

TEST(BenchDiffTest, WallRegressionBeyondNoiseFloorGates) {
  const BenchData baseline = MakeData();
  BenchData current = MakeData();
  // 3x slow-down on "general": far beyond the 25% tolerance and the MAD of
  // the ~1ms jitter in the fixtures.
  current.cases[0].second.wall_seconds = {0.300, 0.301, 0.299};
  const DiffReport report = DiffBenchData(baseline, current, DiffOptions{});
  EXPECT_EQ(CountKind(report, "wall_regression"), 1u);
  EXPECT_TRUE(report.wall_compared);
}

TEST(BenchDiffTest, WallImprovementIsANote) {
  const BenchData baseline = MakeData();
  BenchData current = MakeData();
  current.cases[0].second.wall_seconds = {0.030, 0.031, 0.029};
  const DiffReport report = DiffBenchData(baseline, current, DiffOptions{});
  EXPECT_EQ(CountKind(report, "wall_improvement"), 1u);
  EXPECT_EQ(report.NumRegressions(), 0u);
}

TEST(BenchDiffTest, SmallJitterWithinNoiseFloorPasses) {
  const BenchData baseline = MakeData();
  BenchData current = MakeData();
  current.cases[0].second.wall_seconds = {0.105, 0.104, 0.106};  // 4% jitter
  const DiffReport report = DiffBenchData(baseline, current, DiffOptions{});
  EXPECT_EQ(CountKind(report, "wall_regression"), 0u);
  EXPECT_EQ(report.NumRegressions(), 0u);
}

TEST(BenchDiffTest, CountersOnlySkipsWallComparison) {
  const BenchData baseline = MakeData();
  BenchData current = MakeData();
  current.cases[0].second.wall_seconds = {9.0};
  DiffOptions options;
  options.counters_only = true;
  const DiffReport report = DiffBenchData(baseline, current, options);
  EXPECT_FALSE(report.wall_compared);
  EXPECT_EQ(report.NumRegressions(), 0u);
}

TEST(BenchDiffTest, DifferentMachinesSkipWallComparison) {
  const BenchData baseline = MakeData();
  BenchData current = MakeData();
  current.machine = "darwin/aarch64 other (8 threads)";
  current.cases[0].second.wall_seconds = {9.0};  // would gate if compared
  const DiffReport report = DiffBenchData(baseline, current, DiffOptions{});
  EXPECT_FALSE(report.wall_compared);
  EXPECT_EQ(CountKind(report, "wall_skipped"), 2u);
  EXPECT_EQ(report.NumRegressions(), 0u);
}

TEST(BenchDiffTest, MedianAndMad) {
  EXPECT_EQ(benchdiff::Median({}), 0.0);
  EXPECT_EQ(benchdiff::Median({3.0}), 3.0);
  EXPECT_EQ(benchdiff::Median({3.0, 1.0}), 2.0);
  EXPECT_EQ(benchdiff::Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(benchdiff::MedianAbsDeviation({1.0, 2.0, 9.0}, 2.0), 1.0);
}

TEST(BenchDiffTest, DiffJsonRoundTripValidates) {
  const BenchData baseline = MakeData();
  BenchData current = MakeData();
  current.cases[0].second.counters["preprocess.runs"] = 2;
  const DiffOptions options;
  const DiffReport report = DiffBenchData(baseline, current, options);
  const std::string json = benchdiff::RenderDiffJson(report, options);
  EXPECT_TRUE(benchdiff::ValidateBenchDiffJson(json).ok());
  EXPECT_NE(json.find("mc3.bench_diff/1"), std::string::npos);
  EXPECT_FALSE(benchdiff::ValidateBenchDiffJson("{}").ok());
  EXPECT_FALSE(benchdiff::ValidateBenchDiffJson("not json").ok());
}

TEST(BenchDiffTest, BaselineRoundTrip) {
  const BenchData data = MakeData();
  const std::string json = benchdiff::RenderBaselineJson(data);
  auto loaded = benchdiff::LoadBenchData(json);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->schema, benchdiff::kBenchBaselineSchema);
  EXPECT_TRUE(loaded->obs_enabled);
  ASSERT_EQ(loaded->cases.size(), 2u);
  EXPECT_EQ(loaded->cases[0].first, "general");
  EXPECT_EQ(loaded->cases[0].second.counters, data.cases[0].second.counters);
  // Baselines are counters-only: wall times do not survive the round trip.
  EXPECT_TRUE(loaded->cases[0].second.wall_seconds.empty());
  // Diffing a report against its own baseline is clean (counters only).
  DiffOptions options;
  options.counters_only = true;
  EXPECT_EQ(DiffBenchData(*loaded, data, options).NumRegressions(), 0u);
}

TEST(BenchDiffTest, LoadsRenderedBenchReport) {
  obs::Trace trace("bench");
  std::vector<obs::BenchCase> cases;
  obs::BenchCase bench_case;
  bench_case.meta.tool = "bench";
  bench_case.meta.solver = "general";
  bench_case.meta.workload = "general";
  bench_case.meta.total_seconds = 0.125;
  bench_case.trace = &trace;
  bench_case.counters = {{"preprocess.runs", 1}};
  bench_case.wall_seconds = {0.125, 0.127};
  cases.push_back(std::move(bench_case));
  obs::BenchRunInfo run;
  run.repeat = 2;
  const std::string json =
      obs::RenderBenchReport(cases, obs::MetricsSnapshot{}, run);
  auto loaded = benchdiff::LoadBenchData(json);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->schema, obs::kBenchReportSchema);
  ASSERT_EQ(loaded->cases.size(), 1u);
  EXPECT_EQ(loaded->cases[0].first, "general");
  EXPECT_EQ(loaded->cases[0].second.counters.at("preprocess.runs"), 1u);
  EXPECT_EQ(loaded->cases[0].second.wall_seconds.size(), 2u);
  EXPECT_FALSE(loaded->machine.empty());
}

TEST(BenchDiffTest, RejectsUnknownSchema) {
  EXPECT_FALSE(
      benchdiff::LoadBenchData(R"({"schema": "mc3.other/9"})").ok());
  EXPECT_FALSE(benchdiff::LoadBenchData(
                   R"({"schema": "mc3.bench_report/1", "cases": []})")
                   .ok());
  EXPECT_FALSE(benchdiff::LoadBenchData(R"({"no": "schema"})").ok());
  EXPECT_FALSE(benchdiff::LoadBenchData("garbage").ok());
}

}  // namespace
}  // namespace mc3
