#include "core/instance_util.h"

#include <gtest/gtest.h>

#include "core/exact_solver.h"
#include "core/general_solver.h"
#include "tests/test_util.h"

namespace mc3 {
namespace {

using testing::PS;

TEST(SubInstanceTest, KeepsSelectedQueriesAndRelevantCosts) {
  const Instance inst = testing::PaperExample();
  const Instance sub = SubInstance(inst, {1});  // the chelsea-adidas query
  EXPECT_EQ(sub.NumQueries(), 1u);
  EXPECT_EQ(sub.queries()[0], inst.queries()[1]);
  // Only classifiers within {chelsea, adidas} survive: C, A, AC.
  EXPECT_EQ(sub.costs().size(), 3u);
  EXPECT_TRUE(sub.Validate().ok());
}

TEST(SubInstanceTest, EmptySelection) {
  const Instance sub = SubInstance(testing::PaperExample(), {});
  EXPECT_EQ(sub.NumQueries(), 0u);
  EXPECT_TRUE(sub.costs().empty());
}

TEST(SubInstanceTest, CarriesPropertyNames) {
  const Instance inst = testing::PaperExample();
  const Instance sub = SubInstance(inst, {0});
  EXPECT_EQ(sub.property_names(), inst.property_names());
  // The same storage, not an equal copy: a component costs no name copy.
  EXPECT_EQ(sub.property_names().data(), inst.property_names().data());
  EXPECT_EQ(BoundClassifierLength(inst, 1).property_names().data(),
            inst.property_names().data());
}

TEST(DecomposeComponentsTest, InfeasibleComponentErrorNamesItsProperties) {
  InstanceBuilder builder;
  builder.AddQuery({"white", "adidas"});
  builder.AddQuery({"sony", "tv"});
  builder.SetCost({"white"}, 1);
  builder.SetCost({"adidas"}, 1);
  builder.SetCost({"sony"}, 2);  // "tv" is never priced
  const Instance inst = std::move(builder).Build();
  const std::vector<Instance> components = DecomposeComponents(inst);
  ASSERT_EQ(components.size(), 2u);
  auto solved = GeneralSolver(SolverOptions{}).Solve(components[1]);
  ASSERT_EQ(solved.status().code(), StatusCode::kInfeasible);
  EXPECT_NE(solved.status().message().find("sony&tv"), std::string::npos)
      << solved.status().message();
}

TEST(RandomSubInstanceTest, DeterministicPerSeed) {
  const Instance inst = testing::PaperExample();
  const Instance a = RandomSubInstance(inst, 1, 5);
  const Instance b = RandomSubInstance(inst, 1, 5);
  ASSERT_EQ(a.NumQueries(), 1u);
  EXPECT_EQ(a.queries()[0], b.queries()[0]);
}

TEST(RandomSubInstanceTest, CountClamped) {
  const Instance inst = testing::PaperExample();
  const Instance sub = RandomSubInstance(inst, 99, 1);
  EXPECT_EQ(sub.NumQueries(), 2u);
}

TEST(RandomSubInstanceTest, SampledInstancesSolvable) {
  testing::RandomInstanceConfig config;
  config.num_queries = 10;
  const Instance inst = testing::RandomInstance(config, 3);
  for (size_t count : {2u, 5u, 8u}) {
    const Instance sub = RandomSubInstance(inst, count, count * 17);
    EXPECT_EQ(sub.NumQueries(), count);
    EXPECT_TRUE(sub.Validate().ok());
    auto result = ExactSolver().Solve(sub);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
}

TEST(PartitionQueriesTest, SplitsOnSharedProperties) {
  const PropertyId big = 4'000'000'000u;  // ids near 2^32 partition alike
  for (const std::vector<PropertySet>& queries :
       {std::vector<PropertySet>{PS({0, 1}), PS({2, 3}), PS({1, 4}), PS({5})},
        std::vector<PropertySet>{PS({big, big - 7}), PS({5}),
                                 PS({big - 7, big - 9}), PS({big - 100})}}) {
    const ComponentPartition partition = PartitionQueries(queries);
    EXPECT_EQ(partition.num_components, 3u);
    // Ids in first-appearance order.
    EXPECT_EQ(partition.component_of, (std::vector<size_t>{0, 1, 0, 2}));
  }
}

TEST(PartitionQueriesTest, SubsetOfQueries) {
  const std::vector<PropertySet> queries = {PS({0, 1}), PS({1, 2}),
                                            PS({3})};
  // Without the middle query, {0,1} and {3} are separate components.
  const ComponentPartition partition = PartitionQueries(queries, {0, 2});
  EXPECT_EQ(partition.num_components, 2u);
  EXPECT_EQ(partition.component_of, (std::vector<size_t>{0, 1}));

  const ComponentPartition empty = PartitionQueries(queries, {});
  EXPECT_EQ(empty.num_components, 0u);
}

TEST(PropertyIndexTest, DenseInAscendingIdOrder) {
  // A compact id range (a direct table) and a sparse one (binary search)
  // index alike.
  const PropertyId big = 4'000'000'000u;
  for (const std::vector<PropertyId>& ids :
       {std::vector<PropertyId>{0, 5, 9, 12},
        std::vector<PropertyId>{3, 70'000, big - 7, big}}) {
    const std::vector<PropertySet> queries = {
        PS({ids[2], ids[3]}), PS({ids[1]}), PS({ids[0], ids[2]})};
    const PropertyIndex index(queries);
    ASSERT_EQ(index.size(), 4u);
    for (uint32_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(index.id(i), ids[i]);
      EXPECT_EQ(index(ids[i]), i);
    }
    const PropertyIndex some(std::vector<PropertySet>{queries[0], queries[1]});
    ASSERT_EQ(some.size(), 3u);
    EXPECT_EQ(some(ids[1]), 0u);
    EXPECT_EQ(some(ids[3]), 2u);
  }
  EXPECT_EQ(PropertyIndex(std::vector<PropertySet>{}).size(), 0u);
}

TEST(DecomposeComponentsTest, ComponentsSolveIndependently) {
  InstanceBuilder b;
  b.AddQuery({"a", "b"});
  b.AddQuery({"c", "d"});
  b.SetCost({"a"}, 1);
  b.SetCost({"b"}, 2);
  b.SetCost({"a", "b"}, 2);
  b.SetCost({"c"}, 3);
  b.SetCost({"d"}, 4);
  const Instance inst = std::move(b).Build();

  const std::vector<Instance> components = DecomposeComponents(inst);
  ASSERT_EQ(components.size(), 2u);
  Cost total = 0;
  size_t queries = 0;
  for (const Instance& component : components) {
    EXPECT_TRUE(component.Validate().ok());
    auto solved = ExactSolver().Solve(component);
    ASSERT_TRUE(solved.ok());
    total += solved->cost;
    queries += component.NumQueries();
  }
  EXPECT_EQ(queries, inst.NumQueries());
  auto whole = ExactSolver().Solve(inst);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(total, whole->cost);
}

TEST(DecomposeComponentsTest, SingleComponentAndEmpty) {
  EXPECT_TRUE(DecomposeComponents(Instance{}).empty());
  const std::vector<Instance> one =
      DecomposeComponents(testing::PaperExample());
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].NumQueries(), 2u);
}

TEST(BoundClassifierLengthTest, DropsLongClassifiers) {
  const Instance inst = testing::PaperExample();
  const Instance bounded = BoundClassifierLength(inst, 2);
  EXPECT_EQ(bounded.CostOf(PS({0, 1, 2})), kInfiniteCost);  // JAW gone
  EXPECT_EQ(bounded.NumQueries(), inst.NumQueries());
  // All length-<=2 classifiers survive: 9 - 1 = 8.
  EXPECT_EQ(bounded.costs().size(), 8u);
  EXPECT_TRUE(bounded.IsFeasible());
}

TEST(BoundClassifierLengthTest, BoundedStillSolvableAndNoCheaper) {
  const Instance inst = testing::PaperExample();
  const Instance bounded = BoundClassifierLength(inst, 1);
  auto bounded_result = ExactSolver().Solve(bounded);
  auto full_result = ExactSolver().Solve(inst);
  ASSERT_TRUE(bounded_result.ok());
  ASSERT_TRUE(full_result.ok());
  // Restricting the classifier menu can only increase the optimum.
  EXPECT_GE(bounded_result->cost, full_result->cost);
  EXPECT_EQ(bounded_result->cost, 16);  // all singletons
}

}  // namespace
}  // namespace mc3
