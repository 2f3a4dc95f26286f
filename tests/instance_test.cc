#include "core/instance.h"

#include <gtest/gtest.h>

#include <set>

#include "tests/test_util.h"
#include "util/float_cmp.h"

namespace mc3 {
namespace {

using testing::PS;

TEST(InstanceTest, CostDefaultsToInfinity) {
  Instance inst;
  EXPECT_EQ(inst.CostOf(PS({1})), kInfiniteCost);
}

TEST(InstanceTest, SetAndGetCost) {
  Instance inst;
  inst.SetCost(PS({1, 2}), 3.5);
  EXPECT_EQ(inst.CostOf(PS({2, 1})), 3.5);
}

TEST(InstanceTest, SettingInfiniteErases) {
  Instance inst;
  inst.SetCost(PS({1}), 4);
  inst.SetCost(PS({1}), kInfiniteCost);
  EXPECT_EQ(inst.costs().size(), 0u);
  EXPECT_EQ(inst.CostOf(PS({1})), kInfiniteCost);
}

TEST(InstanceTest, MaxQueryLength) {
  Instance inst;
  EXPECT_EQ(inst.MaxQueryLength(), 0u);
  inst.AddQuery(PS({1}));
  inst.AddQuery(PS({1, 2, 3}));
  EXPECT_EQ(inst.MaxQueryLength(), 3u);
}

TEST(InstanceTest, NumProperties) {
  Instance inst;
  inst.AddQuery(PS({1, 2}));
  inst.AddQuery(PS({2, 3}));
  EXPECT_EQ(inst.NumProperties(), 3u);
}

TEST(InstanceTest, IncidenceMatchesPaperExample) {
  // Q = {xy, yz}: I(y) = 2, all others 1 (Section 5 example).
  Instance inst;
  inst.AddQuery(PS({0, 1}));  // xy
  inst.AddQuery(PS({1, 2}));  // yz
  for (const PropertySet& c :
       {PS({0}), PS({1}), PS({2}), PS({0, 1}), PS({1, 2})}) {
    inst.SetCost(c, 1);
  }
  EXPECT_EQ(inst.Incidence(), 2u);
}

TEST(InstanceTest, IncidenceIgnoresUnpricedClassifiers) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.AddQuery(PS({1, 2}));
  inst.SetCost(PS({0}), 1);  // only X is priced; I(X) = 1
  EXPECT_EQ(inst.Incidence(), 1u);
}

TEST(InstanceTest, ValidateAcceptsWellFormed) {
  Instance inst;
  inst.AddQuery(PS({1, 2}));
  inst.SetCost(PS({1}), 1);
  inst.SetCost(PS({1, 2}), 2);
  EXPECT_TRUE(inst.Validate().ok());
}

TEST(InstanceTest, ValidateRejectsEmptyQuery) {
  Instance inst;
  inst.AddQuery(PropertySet());
  EXPECT_EQ(inst.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, ValidateRejectsDuplicateQueries) {
  Instance inst;
  inst.AddQuery(PS({1, 2}));
  inst.AddQuery(PS({2, 1}));
  EXPECT_EQ(inst.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, ValidateRejectsIrrelevantClassifier) {
  // XZ is not a subset of any query, so it is not in C_Q (Section 2.1).
  Instance inst;
  inst.AddQuery(PS({0, 1}));  // xy
  inst.AddQuery(PS({2, 3}));  // zu
  inst.SetCost(PS({0, 2}), 1);
  EXPECT_EQ(inst.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, ValidateRejectsNegativeCost) {
  Instance inst;
  inst.AddQuery(PS({1}));
  inst.SetCost(PS({1}), -1);
  EXPECT_EQ(inst.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, FeasibleWithSingletons) {
  Instance inst;
  inst.AddQuery(PS({1, 2}));
  inst.SetCost(PS({1}), 1);
  inst.SetCost(PS({2}), 1);
  EXPECT_TRUE(inst.IsFeasible());
}

TEST(InstanceTest, FeasibleWithPairOnly) {
  Instance inst;
  inst.AddQuery(PS({1, 2}));
  inst.SetCost(PS({1, 2}), 1);
  EXPECT_TRUE(inst.IsFeasible());
}

TEST(InstanceTest, InfeasibleWhenPropertyUncoverable) {
  Instance inst;
  inst.AddQuery(PS({1, 2}));
  inst.SetCost(PS({1}), 1);  // nothing covers property 2
  EXPECT_FALSE(inst.IsFeasible());
}

TEST(ForEachNonEmptySubsetTest, EnumeratesAll) {
  std::set<std::vector<PropertyId>> seen;
  ForEachNonEmptySubset(PS({1, 2, 3}), [&](const PropertySet& s) {
    seen.insert(s.ids());
  });
  EXPECT_EQ(seen.size(), 7u);  // 2^3 - 1
  EXPECT_TRUE(seen.count({1}));
  EXPECT_TRUE(seen.count({1, 3}));
  EXPECT_TRUE(seen.count({1, 2, 3}));
}

TEST(ForEachNonEmptySubsetTest, SingletonHasOneSubset) {
  int count = 0;
  ForEachNonEmptySubset(PS({5}), [&](const PropertySet& s) {
    ++count;
    EXPECT_EQ(s, PS({5}));
  });
  EXPECT_EQ(count, 1);
}

TEST(InstanceBuilderTest, InternsNames) {
  InstanceBuilder b;
  const PropertyId a1 = b.Intern("adidas");
  const PropertyId a2 = b.Intern("adidas");
  const PropertyId j = b.Intern("juventus");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, j);
}

TEST(InstanceBuilderTest, BuildsExampleInstance) {
  InstanceBuilder b;
  b.AddQuery({"juventus", "white", "adidas"});
  b.AddQuery({"chelsea", "adidas"});
  b.SetCost({"adidas"}, 5);
  b.SetCost({"adidas", "chelsea"}, 3);
  const Instance inst = std::move(b).Build();
  EXPECT_EQ(inst.NumQueries(), 2u);
  EXPECT_EQ(inst.MaxQueryLength(), 3u);
  EXPECT_EQ(inst.NumProperties(), 4u);
  EXPECT_TRUE(inst.Validate().ok());
  EXPECT_EQ(inst.property_names().size(), 4u);
}

TEST(InstanceBuilderTest, PriceAllClassifiersPricesCq) {
  InstanceBuilder b;
  b.AddQuery({"x", "y"});
  b.AddQuery({"y", "z"});
  b.PriceAllClassifiers([](const PropertySet& c) {
    return static_cast<Cost>(c.size());
  });
  const Instance priced = std::move(b).Build();
  // C_Q = {X, Y, Z, XY, YZ} — five classifiers.
  EXPECT_EQ(priced.costs().size(), 5u);
  EXPECT_TRUE(priced.Validate().ok());
  EXPECT_TRUE(priced.IsFeasible());
}

TEST(InstanceBuilderTest, PriceAllKeepsExistingPrices) {
  InstanceBuilder b;
  b.AddQuery({"x", "y"});
  b.SetCost({"x"}, 100);
  b.PriceAllClassifiers([](const PropertySet&) { return Cost{1}; });
  const Instance inst = std::move(b).Build();
  // The explicit price survives; everything else got the default.
  Cost x_cost = kInfiniteCost;
  for (const auto& [c, cost] : SortedCostEntries(inst.costs())) {
    if (c.size() == 1 && ApproxEq(cost, 100)) x_cost = cost;
  }
  EXPECT_EQ(x_cost, 100);
}

TEST(PropertyInternerTest, AssignsDenseIdsInFirstSeenOrder) {
  PropertyInterner interner;
  EXPECT_EQ(interner.names(), nullptr);
  EXPECT_EQ(interner.Intern("white"), 0u);
  EXPECT_EQ(interner.Intern("adidas"), 1u);
  EXPECT_EQ(interner.Intern("white"), 0u);
  EXPECT_EQ(interner.size(), 2u);
  ASSERT_NE(interner.names(), nullptr);
  EXPECT_EQ(*interner.names(), (std::vector<std::string>{"white", "adidas"}));
}

TEST(PropertyInternerTest, SnapshotIsRemadeOnlyWhenANameIsAdded) {
  const PropertyNames table = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"red", "shirt"});
  PropertyInterner interner;
  ASSERT_TRUE(interner.Load(table).ok());
  // Loading shares the table; known names leave it in place.
  EXPECT_EQ(interner.names(), table);
  EXPECT_EQ(interner.Intern("shirt"), 1u);
  EXPECT_EQ(interner.names(), table);
  // A new name re-makes the snapshot once; the old table is untouched.
  EXPECT_EQ(interner.Intern("tv"), 2u);
  EXPECT_EQ(interner.Intern("sofa"), 3u);
  const PropertyNames grown = interner.names();
  EXPECT_NE(grown, table);
  EXPECT_EQ(*grown,
            (std::vector<std::string>{"red", "shirt", "tv", "sofa"}));
  EXPECT_EQ(table->size(), 2u);
  EXPECT_EQ(interner.names(), grown);
}

TEST(PropertyInternerTest, LoadRefusesRepeatedNames) {
  PropertyInterner interner;
  const Status loaded =
      interner.Load(std::make_shared<const std::vector<std::string>>(
          std::vector<std::string>{"a", "b", "a"}));
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.message().find("ids 0 and 2"), std::string::npos)
      << loaded.message();
  // Left empty, so a clean table still loads.
  EXPECT_EQ(interner.size(), 0u);
  ASSERT_TRUE(interner.Load(std::make_shared<const std::vector<std::string>>(
                                std::vector<std::string>{"a", "b"}))
                  .ok());
  EXPECT_EQ(interner.Intern("b"), 1u);
}

TEST(InstanceTest, CopiesShareTheNameTable) {
  const Instance inst = testing::PaperExample();
  const Instance copy = inst;
  EXPECT_EQ(copy.property_names().data(), inst.property_names().data());
  Instance nameless;
  EXPECT_TRUE(nameless.property_names().empty());
  EXPECT_EQ(nameless.shared_property_names(), nullptr);
}

}  // namespace
}  // namespace mc3
