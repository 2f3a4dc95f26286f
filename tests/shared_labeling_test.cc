#include "core/shared_labeling.h"

#include <gtest/gtest.h>

#include "core/exact_solver.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace mc3 {
namespace {

using testing::PS;
using testing::RandomInstance;
using testing::RandomInstanceConfig;

SharedLabelingModel SmallModel() {
  SharedLabelingModel model;
  model.base_costs.Set(PS({0}).ids(), 1);
  model.base_costs.Set(PS({1}).ids(), 1);
  model.base_costs.Set(PS({0, 1}).ids(), 1);
  model.base_costs.Set(PS({1, 2}).ids(), 1);
  model.base_costs.Set(PS({2}).ids(), 1);
  model.label_costs[0] = 4;
  model.label_costs[1] = 4;
  model.label_costs[2] = 4;
  return model;
}

TEST(SharedLabelingModelTest, StandaloneCostAddsLabels) {
  const SharedLabelingModel model = SmallModel();
  EXPECT_EQ(model.StandaloneCost(PS({0})), 5);       // 1 + 4
  EXPECT_EQ(model.StandaloneCost(PS({0, 1})), 9);    // 1 + 4 + 4
  EXPECT_EQ(model.StandaloneCost(PS({0, 2})), kInfiniteCost);  // no base
}

TEST(SharedLabelingModelTest, SetCostSharesLabels) {
  const SharedLabelingModel model = SmallModel();
  Solution solution;
  solution.Add(PS({0, 1}));
  solution.Add(PS({1, 2}));
  // Bases 1 + 1; labels 0, 1, 2 paid once: 4 * 3. Total 14, not 18.
  EXPECT_EQ(model.SetCost(solution), 14);
}

TEST(SharedLabelingModelTest, SetCostInfiniteForUnpricedBase) {
  const SharedLabelingModel model = SmallModel();
  Solution solution;
  solution.Add(PS({0, 2}));
  EXPECT_EQ(model.SetCost(solution), kInfiniteCost);
}

TEST(FlattenTest, FlatInstanceUsesStandaloneCosts) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.AddQuery(PS({1, 2}));
  const SharedLabelingModel model = SmallModel();
  const Instance flat = FlattenToIndependentCosts(inst, model);
  EXPECT_EQ(flat.CostOf(PS({0, 1})), 9);
  EXPECT_EQ(flat.CostOf(PS({1})), 5);
  EXPECT_EQ(flat.NumQueries(), 2u);
}

TEST(SharedLabelingGreedyTest, ExploitsSharedLabels) {
  // Queries xy and yz. Flat costs: XY=9, YZ=9 -> flat total 18 via pairs,
  // or singletons X+Y+Z = 15. Shared: XY+YZ = 14; X,Y,Z = 15.
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.AddQuery(PS({1, 2}));
  auto result = SolveSharedLabelingGreedy(inst, SmallModel());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(Covers(inst, result->solution));
  EXPECT_LE(result->cost, 15);
}

TEST(SharedLabelingGreedyTest, InfeasibleReported) {
  Instance inst;
  inst.AddQuery(PS({0, 3}));  // property 3 has no classifier
  auto result = SolveSharedLabelingGreedy(inst, SmallModel());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(SharedLabelingGreedyTest, RejectsNegativeCosts) {
  Instance inst;
  inst.AddQuery(PS({0}));
  SharedLabelingModel model = SmallModel();
  model.label_costs[0] = -1;
  EXPECT_FALSE(SolveSharedLabelingGreedy(inst, model).ok());
}

TEST(SharedLabelingExactTest, FindsSharingOptimum) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.AddQuery(PS({1, 2}));
  auto result = SolveSharedLabelingExact(inst, SmallModel());
  ASSERT_TRUE(result.ok());
  // Optimum: {XY, YZ} = 14 (bases 2 + labels 12) beats singletons (15).
  EXPECT_EQ(result->cost, 14);
}

TEST(SharedLabelingExactTest, GuardsReject) {
  RandomInstanceConfig config;
  config.num_queries = 20;
  const Instance inst = RandomInstance(config, 5);
  SharedLabelingModel model;
  auto result = SolveSharedLabelingExact(inst, model);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

class SharedLabelingSweepTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SharedLabelingSweepTest,
                         ::testing::Range(0, 15));

TEST_P(SharedLabelingSweepTest, GreedyCoversAndExactIsNoWorse) {
  RandomInstanceConfig config;
  config.num_queries = 4;
  config.pool = 5;
  config.max_query_length = 3;
  const Instance inst = RandomInstance(config, GetParam() * 61 + 13);
  SharedLabelingModel model;
  Rng rng(GetParam() + 500);
  // Sorted: random draws consumed in iteration order must be stable.
  for (const auto& [classifier, cost] : SortedCostEntries(inst.costs())) {
    model.base_costs.Set(classifier.ids(), double(rng.UniformInt(0, 5)));
  }
  for (const PropertySet& q : inst.queries()) {
    for (PropertyId p : q) {
      if (model.label_costs.count(p) == 0) {
        model.label_costs[p] = double(rng.UniformInt(0, 8));
      }
    }
  }
  auto greedy = SolveSharedLabelingGreedy(inst, model);
  auto exact = SolveSharedLabelingExact(inst, model);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_TRUE(Covers(inst, greedy->solution));
  EXPECT_TRUE(Covers(inst, exact->solution));
  EXPECT_LE(exact->cost, greedy->cost + 1e-9);
  EXPECT_DOUBLE_EQ(greedy->cost, model.SetCost(greedy->solution));
}

TEST_P(SharedLabelingSweepTest, SharedNeverCostsMoreThanFlatOptimum) {
  // The shared model's optimum is <= the flat (independent-cost) optimum:
  // any flat solution costs at least as much under sharing.
  RandomInstanceConfig config;
  config.num_queries = 4;
  config.pool = 5;
  config.max_query_length = 3;
  const Instance inst = RandomInstance(config, GetParam() * 73 + 29);
  SharedLabelingModel model;
  Rng rng(GetParam() + 900);
  // Sorted: random draws consumed in iteration order must be stable.
  for (const auto& [classifier, cost] : SortedCostEntries(inst.costs())) {
    model.base_costs.Set(classifier.ids(), double(rng.UniformInt(0, 5)));
  }
  for (const PropertySet& q : inst.queries()) {
    for (PropertyId p : q) {
      if (model.label_costs.count(p) == 0) {
        model.label_costs[p] = double(rng.UniformInt(0, 8));
      }
    }
  }
  const Instance flat = FlattenToIndependentCosts(inst, model);
  auto flat_opt = ExactSolver().Solve(flat);
  auto shared_opt = SolveSharedLabelingExact(inst, model);
  ASSERT_TRUE(flat_opt.ok());
  ASSERT_TRUE(shared_opt.ok());
  EXPECT_LE(shared_opt->cost, flat_opt->cost + 1e-9);
}

}  // namespace
}  // namespace mc3
