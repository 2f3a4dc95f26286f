#include "core/multi_valued.h"

#include <gtest/gtest.h>

#include "core/exact_solver.h"
#include "tests/test_util.h"

namespace mc3 {
namespace {

using testing::PS;

// The Section 5.3 running example: queries q1 = {juventus, white, adidas},
// q2 = {chelsea, adidas}; attributes team (juventus, chelsea), color
// (white), brand (adidas). Merged queries: q1 = {team, color, brand},
// q2 = {team, brand}.
constexpr PropertyId kJuventus = 0, kWhite = 1, kAdidas = 2, kChelsea = 3;
constexpr AttributeId kTeam = 0, kColor = 1, kBrand = 2;

Instance BinaryInstance() {
  Instance inst;
  inst.AddQuery(PS({kJuventus, kWhite, kAdidas}));
  inst.AddQuery(PS({kChelsea, kAdidas}));
  for (PropertyId p = 0; p <= 3; ++p) inst.SetCost(PS({p}), 5);
  return inst;
}

TEST(MergeToAttributesTest, MergesQueries) {
  const std::vector<AttributeId> mapping = {kTeam, kColor, kBrand, kTeam};
  ClassifierStore costs;
  costs.Set(PS({kTeam}).ids(), 4);
  costs.Set(PS({kColor}).ids(), 2);
  costs.Set(PS({kBrand}).ids(), 3);
  auto merged = MergeToAttributes(BinaryInstance(), mapping, costs);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->NumQueries(), 2u);
  EXPECT_EQ(merged->queries()[0], PS({kTeam, kColor, kBrand}));
  EXPECT_EQ(merged->queries()[1], PS({kTeam, kBrand}));
  EXPECT_TRUE(merged->Validate().ok());
}

TEST(MergeToAttributesTest, DeduplicatesCollapsedQueries) {
  Instance inst;
  inst.AddQuery(PS({0}));  // color=red
  inst.AddQuery(PS({1}));  // color=blue
  const std::vector<AttributeId> mapping = {0, 0};
  ClassifierStore costs;
  costs.Set(PS({0}).ids(), 1);
  auto merged = MergeToAttributes(inst, mapping, costs);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->NumQueries(), 1u);
}

TEST(MergeToAttributesTest, RejectsUnmappedProperty) {
  const std::vector<AttributeId> mapping = {kTeam};  // too short
  auto merged = MergeToAttributes(BinaryInstance(), mapping, ClassifierStore{});
  EXPECT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST(MergeToAttributesTest, MergedInstanceSolvable) {
  const std::vector<AttributeId> mapping = {kTeam, kColor, kBrand, kTeam};
  ClassifierStore costs;
  costs.Set(PS({kTeam}).ids(), 4);
  costs.Set(PS({kColor}).ids(), 2);
  costs.Set(PS({kBrand}).ids(), 3);
  costs.Set(PS({kTeam, kBrand}).ids(), 5);
  auto merged = MergeToAttributes(BinaryInstance(), mapping, costs);
  ASSERT_TRUE(merged.ok());
  auto exact = ExactSolver().Solve(*merged);
  ASSERT_TRUE(exact.ok());
  // Options: T+C+B = 9, TB+C... TB covers q2, q1 needs exact {t,c,b}: TB+C
  // covers t,b,c of q1 -> 5+2 = 7.
  EXPECT_DOUBLE_EQ(exact->cost, 7);
}

TEST(SolveWithMultiValuedTest, MvClassifierServesMultipleValues) {
  // Queries: {juventus, adidas}, {chelsea, adidas}. A single "team"
  // multi-valued classifier (cost 4) resolves both team properties; cheaper
  // than the two singletons (5 + 5).
  Instance inst;
  inst.AddQuery(PS({kJuventus, kAdidas}));
  inst.AddQuery(PS({kChelsea, kAdidas}));
  inst.SetCost(PS({kJuventus}), 5);
  inst.SetCost(PS({kChelsea}), 5);
  inst.SetCost(PS({kAdidas}), 2);
  std::vector<MultiValuedClassifier> mv;
  mv.push_back({"team", PS({kJuventus, kChelsea}), 4});
  auto result = SolveWithMultiValued(inst, mv);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->multi_valued.size(), 1u);
  EXPECT_EQ(result->multi_valued[0], 0u);
  EXPECT_TRUE(result->binary.Contains(PS({kAdidas})));
  EXPECT_DOUBLE_EQ(result->cost, 6);  // team (4) + adidas (2)
}

TEST(SolveWithMultiValuedTest, ExpensiveMvClassifierIgnored) {
  Instance inst;
  inst.AddQuery(PS({kJuventus, kAdidas}));
  inst.SetCost(PS({kJuventus}), 1);
  inst.SetCost(PS({kAdidas}), 1);
  std::vector<MultiValuedClassifier> mv;
  mv.push_back({"team", PS({kJuventus, kChelsea}), 100});
  auto result = SolveWithMultiValued(inst, mv);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->multi_valued.empty());
  EXPECT_DOUBLE_EQ(result->cost, 2);
}

TEST(SolveWithMultiValuedTest, MvOnlyInstanceStillInfeasibleWithoutCover) {
  Instance inst;
  inst.AddQuery(PS({kJuventus, kAdidas}));
  inst.SetCost(PS({kJuventus}), 1);
  // Nothing covers adidas, not even the MV classifier.
  std::vector<MultiValuedClassifier> mv;
  mv.push_back({"team", PS({kJuventus, kChelsea}), 1});
  auto result = SolveWithMultiValued(inst, mv);
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(SolveWithMultiValuedTest, MvClassifierCanCarryWholeInstance) {
  Instance inst;
  inst.AddQuery(PS({0}));
  inst.AddQuery(PS({1}));
  std::vector<MultiValuedClassifier> mv;
  mv.push_back({"color", PS({0, 1}), 3});
  auto result = SolveWithMultiValued(inst, mv);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->multi_valued.size(), 1u);
  EXPECT_DOUBLE_EQ(result->cost, 3);
  EXPECT_TRUE(result->binary.empty());
}

TEST(PruneMultiValuedTest, KeepsCheapDropsExpensive) {
  Instance inst;
  inst.AddQuery(PS({kJuventus, kAdidas}));
  inst.AddQuery(PS({kChelsea, kAdidas}));
  inst.SetCost(PS({kJuventus}), 5);
  inst.SetCost(PS({kChelsea}), 5);
  inst.SetCost(PS({kAdidas}), 2);
  std::vector<MultiValuedClassifier> mv;
  mv.push_back({"team_cheap", PS({kJuventus, kChelsea}), 9});   // < 10
  mv.push_back({"team_costly", PS({kJuventus, kChelsea}), 10});  // == 10
  const auto kept = PruneMultiValued(inst, mv);
  EXPECT_EQ(kept, (std::vector<size_t>{0}));
}

TEST(PruneMultiValuedTest, UnusedValuePropertiesIgnored) {
  Instance inst;
  inst.AddQuery(PS({kJuventus}));
  inst.SetCost(PS({kJuventus}), 3);
  std::vector<MultiValuedClassifier> mv;
  // chelsea never occurs in a query; only juventus counts toward the sum.
  mv.push_back({"team", PS({kJuventus, kChelsea}), 3});
  EXPECT_TRUE(PruneMultiValued(inst, mv).empty());
  mv[0].cost = 2;
  EXPECT_EQ(PruneMultiValued(inst, mv).size(), 1u);
}

TEST(PruneMultiValuedTest, UnpricedSingletonKeepsMv) {
  Instance inst;
  inst.AddQuery(PS({kJuventus}));
  // Singleton unpriced: the multi-valued classifier is the only option.
  std::vector<MultiValuedClassifier> mv;
  mv.push_back({"team", PS({kJuventus, kChelsea}), 100});
  EXPECT_EQ(PruneMultiValued(inst, mv).size(), 1u);
}

TEST(PruneMultiValuedTest, IndicesSurviveIntoHybridResult) {
  // The first MV classifier is prunable; the second must still be reported
  // under its original index.
  Instance inst;
  inst.AddQuery(PS({kJuventus, kAdidas}));
  inst.AddQuery(PS({kChelsea, kAdidas}));
  inst.SetCost(PS({kJuventus}), 5);
  inst.SetCost(PS({kChelsea}), 5);
  inst.SetCost(PS({kAdidas}), 2);
  std::vector<MultiValuedClassifier> mv;
  mv.push_back({"useless", PS({kJuventus}), 50});
  mv.push_back({"team", PS({kJuventus, kChelsea}), 4});
  auto result = SolveWithMultiValued(inst, mv);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->multi_valued.size(), 1u);
  EXPECT_EQ(result->multi_valued[0], 1u);
}

}  // namespace
}  // namespace mc3
