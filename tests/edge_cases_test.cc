// Degenerate-input behavior across the public API: empty instances, single
// properties, large ids, and zero-cost-everything workloads.
#include <gtest/gtest.h>

#include "core/mc3.h"
#include "tests/test_util.h"

namespace mc3 {
namespace {

using testing::PS;

TEST(EmptyInstanceTest, AllSolversReturnEmptySolutions) {
  const Instance empty;
  auto k2 = K2ExactSolver().Solve(empty);
  auto general = GeneralSolver().Solve(empty);
  auto sf = ShortFirstSolver().Solve(empty);
  auto po = PropertyOrientedSolver().Solve(empty);
  auto qo = QueryOrientedSolver().Solve(empty);
  auto lg = LocalGreedySolver().Solve(empty);
  auto exact = ExactSolver().Solve(empty);
  for (const auto* r : {&k2, &general, &sf, &po, &qo, &lg, &exact}) {
    ASSERT_TRUE(r->ok());
    EXPECT_EQ((*r)->cost, 0);
    EXPECT_TRUE((*r)->solution.empty());
  }
}

TEST(EmptyInstanceTest, PreprocessIsTrivial) {
  auto pre = Preprocess(Instance{});
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->forced_cost, 0);
  EXPECT_TRUE(pre->components.empty());
}

TEST(EdgeCaseTest, SinglePropertyUniverse) {
  Instance inst;
  inst.AddQuery(PS({0}));
  inst.SetCost(PS({0}), 3);
  for (auto solve : {+[](const Instance& i) { return K2ExactSolver().Solve(i); },
                     +[](const Instance& i) { return GeneralSolver().Solve(i); },
                     +[](const Instance& i) { return ShortFirstSolver().Solve(i); }}) {
    auto result = solve(inst);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->cost, 3);
  }
}

TEST(EdgeCaseTest, LargePropertyIds) {
  Instance inst;
  const PropertyId big = 4'000'000'000u;
  inst.AddQuery(PS({big, big - 7}));
  inst.SetCost(PS({big}), 1);
  inst.SetCost(PS({big - 7}), 2);
  auto result = GeneralSolver().Solve(inst);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cost, 3);
  auto k2 = K2ExactSolver().Solve(inst);
  ASSERT_TRUE(k2.ok());
  EXPECT_EQ(k2->cost, 3);

  // A k = 2 instance preprocessing cannot finish, so the residual reaches
  // the component partition and the solvers.
  Instance residual;
  residual.AddQuery(PS({big, big - 7}));
  residual.AddQuery(PS({big - 7, big - 9}));
  for (PropertyId p : {big, big - 7, big - 9}) residual.SetCost(PS({p}), 2);
  residual.SetCost(PS({big, big - 7}), 3);
  residual.SetCost(PS({big - 7, big - 9}), 3);
  ASSERT_TRUE(residual.Validate().ok());
  auto pre = Preprocess(residual);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  EXPECT_EQ(pre->stats.remaining_queries, 2u);
  for (auto solve :
       {+[](const Instance& i) { return K2ExactSolver().Solve(i); },
        +[](const Instance& i) { return GeneralSolver().Solve(i); }}) {
    auto solved = solve(residual);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    EXPECT_EQ(solved->cost, 6);
    EXPECT_TRUE(Covers(residual, solved->solution));
  }

  // A k = 3 query, on Algorithm 1's general steps.
  Instance triple;
  triple.AddQuery(PS({big, big - 7, big - 9}));
  triple.SetCost(PS({big}), 1);
  triple.SetCost(PS({big - 7}), 2);
  triple.SetCost(PS({big - 9}), 3);
  auto general = GeneralSolver().Solve(triple);
  ASSERT_TRUE(general.ok()) << general.status().ToString();
  EXPECT_EQ(general->cost, 6);
  EXPECT_TRUE(Covers(triple, general->solution));
}

TEST(EdgeCaseTest, AllZeroCosts) {
  Instance inst;
  inst.AddQuery(PS({0, 1, 2}));
  inst.AddQuery(PS({1, 3}));
  for (const PropertySet& q : inst.queries()) {
    ForEachNonEmptySubset(q, [&](const PropertySet& c) {
      inst.SetCost(c, 0);
    });
  }
  auto result = GeneralSolver().Solve(inst);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cost, 0);
  EXPECT_TRUE(Covers(inst, result->solution));
}

TEST(EdgeCaseTest, IdenticalCostsEverywhereAreDeterministic) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.AddQuery(PS({1, 2}));
  for (const PropertySet& q : inst.queries()) {
    ForEachNonEmptySubset(q, [&](const PropertySet& c) {
      inst.SetCost(c, 2);
    });
  }
  auto a = GeneralSolver().Solve(inst);
  auto b = GeneralSolver().Solve(inst);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->solution.Sorted(), b->solution.Sorted());
}

TEST(EdgeCaseTest, ManyDuplicatePropertiesInOneQuery) {
  // FromUnsorted collapses duplicates; the query is really {5}.
  Instance inst;
  inst.AddQuery(PropertySet::FromUnsorted({5, 5, 5, 5}));
  inst.SetCost(PS({5}), 1);
  auto result = K2ExactSolver().Solve(inst);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cost, 1);
}

TEST(EdgeCaseTest, FractionalCosts) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 0.25);
  inst.SetCost(PS({1}), 0.5);
  inst.SetCost(PS({0, 1}), 0.7);
  auto result = K2ExactSolver().Solve(inst);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->cost, 0.7);
}

TEST(EdgeCaseTest, BudgetedOnEmptyInstance) {
  BudgetedInstance input;
  input.budget = 10;
  auto result = SolveBudgetedGreedy(input);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->covered_weight, 0);
}

TEST(EdgeCaseTest, SharedLabelingOnEmptyInstance) {
  auto result = SolveSharedLabelingGreedy(Instance{}, SharedLabelingModel{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cost, 0);
}

}  // namespace
}  // namespace mc3
