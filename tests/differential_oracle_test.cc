// Differential testing of the solvers against an independent brute-force
// oracle (tests/test_util.h) on random tiny instances:
//   * ExactSolver must match the oracle exactly;
//   * GeneralSolver (every configuration) must cover all queries and never
//     beat the optimum;
//   * on k <= 2 instances, K2ExactSolver must equal the optimum (Theorem
//     4.1: the problem is polynomial there and Algorithm 2 is exact).
#include <gtest/gtest.h>

#include "core/mc3.h"
#include "tests/test_util.h"

namespace mc3 {
namespace {

using mc3::testing::BruteForceOptimum;
using mc3::testing::RandomInstance;
using mc3::testing::RandomInstanceConfig;

TEST(DifferentialOracleTest, OracleMatchesPaperExample) {
  EXPECT_EQ(BruteForceOptimum(mc3::testing::PaperExample()), 7);
}

TEST(DifferentialOracleTest, OracleReportsInfeasible) {
  Instance instance;
  instance.AddQuery(PropertySet::Of({0, 1}));
  instance.SetCost(PropertySet::Of({0}), 1);  // property 1 uncoverable
  EXPECT_EQ(BruteForceOptimum(instance), kInfiniteCost);
}

TEST(DifferentialOracleTest, ExactSolverMatchesOracle) {
  RandomInstanceConfig config;
  config.num_queries = 5;
  config.pool = 6;
  config.max_query_length = 4;
  for (uint64_t seed = 0; seed < 120; ++seed) {
    const Instance instance = RandomInstance(config, seed);
    const Cost optimum = BruteForceOptimum(instance);
    ASSERT_NE(optimum, kInfiniteCost) << "seed " << seed;
    auto exact = ExactSolver().Solve(instance);
    ASSERT_TRUE(exact.ok()) << "seed " << seed << ": "
                            << exact.status().ToString();
    EXPECT_NEAR(exact->cost, optimum, 1e-9) << "seed " << seed;
  }
}

TEST(DifferentialOracleTest, GeneralSolverNeverBeatsOracleAndCovers) {
  RandomInstanceConfig config;
  config.num_queries = 8;
  config.pool = 8;
  config.max_query_length = 4;
  SolverOptions plain;
  SolverOptions no_preprocess;
  no_preprocess.preprocess = false;
  SolverOptions greedy_only;
  greedy_only.f_method = SolverOptions::FMethod::kNone;
  SolverOptions f_only;
  f_only.run_greedy = false;
  SolverOptions with_exact;
  with_exact.exact_component_max_queries = 4;
  const SolverOptions configs[] = {plain, no_preprocess, greedy_only, f_only,
                                   with_exact};

  for (uint64_t seed = 0; seed < 60; ++seed) {
    const Instance instance = RandomInstance(config, seed);
    const Cost optimum = BruteForceOptimum(instance);
    ASSERT_NE(optimum, kInfiniteCost) << "seed " << seed;
    for (size_t ci = 0; ci < std::size(configs); ++ci) {
      auto result = GeneralSolver(configs[ci]).Solve(instance);
      ASSERT_TRUE(result.ok()) << "seed " << seed << " config " << ci << ": "
                               << result.status().ToString();
      // verify_solution is on by default, so coverage is already enforced;
      // re-check explicitly so this test does not depend on that default.
      const CoverageReport report =
          VerifyCoverage(instance, result->solution);
      EXPECT_TRUE(report.covers_all) << "seed " << seed << " config " << ci;
      EXPECT_GE(result->cost, optimum - 1e-9)
          << "seed " << seed << " config " << ci
          << ": heuristic beat the exact optimum — oracle or solver bug";
    }
  }
}

TEST(DifferentialOracleTest, K2SolverIsExact) {
  RandomInstanceConfig config;
  config.num_queries = 8;
  config.pool = 7;
  config.max_query_length = 2;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const Instance instance = RandomInstance(config, seed);
    ASSERT_LE(instance.MaxQueryLength(), 2u);
    const Cost optimum = BruteForceOptimum(instance);
    ASSERT_NE(optimum, kInfiniteCost) << "seed " << seed;
    auto result = K2ExactSolver(SolverOptions{}).Solve(instance);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString();
    EXPECT_NEAR(result->cost, optimum, 1e-9) << "seed " << seed;
    const CoverageReport report = VerifyCoverage(instance, result->solution);
    EXPECT_TRUE(report.covers_all) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mc3
