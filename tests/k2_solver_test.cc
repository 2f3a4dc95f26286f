#include "core/k2_solver.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "core/exact_solver.h"
#include "tests/test_util.h"

namespace mc3 {
namespace {

using testing::PS;
using testing::RandomInstance;
using testing::RandomInstanceConfig;

TEST(K2SolverTest, RejectsLongQueries) {
  Instance inst;
  inst.AddQuery(PS({0, 1, 2}));
  const K2ExactSolver solver;
  auto result = solver.Solve(inst);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(K2SolverTest, SingleQueryPicksCheaperOption) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 2);
  inst.SetCost(PS({1}), 2);
  inst.SetCost(PS({0, 1}), 3);
  const K2ExactSolver solver;
  auto result = solver.Solve(inst);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cost, 3);
  EXPECT_TRUE(result->solution.Contains(PS({0, 1})));
}

TEST(K2SolverTest, SharedSingletonAmortizes) {
  // Queries xy, xz: X (cost 2) shared; pairs cost 3 each; Y, Z cost 1.
  // Best: X + Y + Z = 4 < XY + XZ = 6.
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.AddQuery(PS({0, 2}));
  inst.SetCost(PS({0}), 2);
  inst.SetCost(PS({1}), 1);
  inst.SetCost(PS({2}), 1);
  inst.SetCost(PS({0, 1}), 3);
  inst.SetCost(PS({0, 2}), 3);
  const K2ExactSolver solver;
  auto result = solver.Solve(inst);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cost, 4);
}

TEST(K2SolverTest, SingletonQueriesHandled) {
  Instance inst;
  inst.AddQuery(PS({0}));
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 1);
  inst.SetCost(PS({1}), 5);
  inst.SetCost(PS({0, 1}), 2);
  const K2ExactSolver solver;
  auto result = solver.Solve(inst);
  ASSERT_TRUE(result.ok());
  // X forced (cost 1); then xy best covered by XY (2) vs Y (5).
  EXPECT_EQ(result->cost, 3);
}

TEST(K2SolverTest, MissingPairClassifierFallsBackToSingletons) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 2);
  inst.SetCost(PS({1}), 3);
  const K2ExactSolver solver;
  auto result = solver.Solve(inst);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cost, 5);
}

TEST(K2SolverTest, MissingSingletonsFallsBackToPair) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0, 1}), 9);
  const K2ExactSolver solver;
  auto result = solver.Solve(inst);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cost, 9);
}

TEST(K2SolverTest, InfeasibleInstance) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 1);
  const K2ExactSolver solver;
  auto result = solver.Solve(inst);
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(K2SolverTest, InfeasibleWithoutPreprocessing) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 1);
  SolverOptions options;
  options.preprocess = false;
  const K2ExactSolver solver(options);
  auto result = solver.Solve(inst);
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(K2SolverTest, ZeroCostClassifiers) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 0);
  inst.SetCost(PS({1}), 0);
  inst.SetCost(PS({0, 1}), 1);
  const K2ExactSolver solver;
  auto result = solver.Solve(inst);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cost, 0);
}

TEST(K2SolverTest, DisconnectedComponentsSolvedIndependently) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.AddQuery(PS({2, 3}));
  inst.SetCost(PS({0}), 1);
  inst.SetCost(PS({1}), 1);
  inst.SetCost(PS({2, 3}), 1);
  inst.SetCost(PS({2}), 4);
  inst.SetCost(PS({3}), 4);
  const K2ExactSolver solver;
  auto result = solver.Solve(inst);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cost, 3);
}

// The cross-check battery: exact optimality on random k <= 2 instances, for
// every max-flow engine, with and without preprocessing.
// gtest names each case by the parameter's raw bytes, so the struct has no
// padding: an int flag instead of a bool keeps every byte initialized and
// the test names stable across runs.
struct K2Sweep {
  int seed;
  int preprocess;  ///< 0 or 1
  flow::MaxFlowAlgorithm algorithm;
};
static_assert(std::has_unique_object_representations_v<K2Sweep>,
              "K2Sweep must have no padding bytes");

class K2OptimalityTest : public ::testing::TestWithParam<K2Sweep> {};

std::vector<K2Sweep> MakeSweeps() {
  std::vector<K2Sweep> sweeps;
  for (int seed = 0; seed < 15; ++seed) {
    for (int preprocess : {1, 0}) {
      for (auto algorithm :
           {flow::MaxFlowAlgorithm::kDinic, flow::MaxFlowAlgorithm::kPushRelabel,
            flow::MaxFlowAlgorithm::kEdmondsKarp}) {
        sweeps.push_back({seed, preprocess, algorithm});
      }
    }
  }
  return sweeps;
}

INSTANTIATE_TEST_SUITE_P(Sweeps, K2OptimalityTest,
                         ::testing::ValuesIn(MakeSweeps()));

TEST_P(K2OptimalityTest, MatchesExactSolver) {
  const K2Sweep& sweep = GetParam();
  RandomInstanceConfig config;
  config.num_queries = 7;
  config.pool = 7;
  config.max_query_length = 2;
  const Instance inst = RandomInstance(config, sweep.seed * 997 + 11);

  SolverOptions options;
  options.preprocess = sweep.preprocess != 0;
  options.max_flow = sweep.algorithm;
  const K2ExactSolver solver(options);
  auto result = solver.Solve(inst);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(Covers(inst, result->solution));

  auto exact = ExactSolver().Solve(inst);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_DOUBLE_EQ(result->cost, exact->cost)
      << "k=2 solver must be exact (Theorem 4.1)";
}

}  // namespace
}  // namespace mc3
