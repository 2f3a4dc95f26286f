#include <gtest/gtest.h>

#include <cmath>

#include "core/stats.h"
#include "data/bestbuy.h"
#include "data/io.h"
#include "data/private_dataset.h"
#include "data/synthetic.h"
#include "util/csv.h"
#include "tests/test_util.h"

namespace mc3::data {
namespace {

TEST(SyntheticTest, MatchesRequestedSize) {
  SyntheticConfig config;
  config.num_queries = 500;
  const Instance inst = GenerateSynthetic(config);
  EXPECT_EQ(inst.NumQueries(), 500u);
  EXPECT_TRUE(inst.Validate().ok());
  EXPECT_TRUE(inst.IsFeasible());
}

TEST(SyntheticTest, LengthsInBounds) {
  SyntheticConfig config;
  config.num_queries = 2000;
  const Instance inst = GenerateSynthetic(config);
  size_t length_two = 0;
  for (const PropertySet& q : inst.queries()) {
    EXPECT_GE(q.size(), 2u);
    EXPECT_LE(q.size(), 10u);
    if (q.size() == 2) ++length_two;
  }
  // P(length = 2) = 1/2; allow generous slack.
  const double fraction = double(length_two) / inst.NumQueries();
  EXPECT_GT(fraction, 0.40);
  EXPECT_LT(fraction, 0.60);
}

TEST(SyntheticTest, CostsInRange) {
  SyntheticConfig config;
  config.num_queries = 300;
  const Instance inst = GenerateSynthetic(config);
  const InstanceStats stats = ComputeStats(inst);
  EXPECT_GE(stats.min_cost, 1);
  EXPECT_LE(stats.max_cost, 50);
}

TEST(SyntheticTest, DeterministicPerSeed) {
  SyntheticConfig config;
  config.num_queries = 100;
  const Instance a = GenerateSynthetic(config);
  const Instance b = GenerateSynthetic(config);
  ASSERT_EQ(a.NumQueries(), b.NumQueries());
  for (size_t i = 0; i < a.NumQueries(); ++i) {
    EXPECT_EQ(a.queries()[i], b.queries()[i]);
  }
  EXPECT_EQ(a.costs().size(), b.costs().size());
}

TEST(SyntheticTest, SeedsChangeWorkload) {
  SyntheticConfig a_config;
  a_config.num_queries = 100;
  SyntheticConfig b_config = a_config;
  b_config.seed = 2;
  const Instance a = GenerateSynthetic(a_config);
  const Instance b = GenerateSynthetic(b_config);
  bool any_difference = a.costs().size() != b.costs().size();
  for (size_t i = 0; !any_difference && i < a.NumQueries(); ++i) {
    any_difference = !(a.queries()[i] == b.queries()[i]);
  }
  EXPECT_TRUE(any_difference);
}

TEST(BestBuyTest, MatchesTableOneMarginals) {
  const Instance inst = GenerateBestBuy({});
  const InstanceStats stats = ComputeStats(inst);
  EXPECT_EQ(stats.num_queries, 1000u);       // Table 1: 1000 queries
  EXPECT_EQ(stats.max_cost, 1);              // uniform weights
  EXPECT_EQ(stats.min_cost, 1);
  EXPECT_LE(stats.max_query_length, 4u);     // Table 1: max length 4
  EXPECT_GE(stats.fraction_short, 0.93);     // "95% up to 2 properties"
  EXPECT_TRUE(stats.feasible);
}

TEST(BestBuyTest, HasNamedProperties) {
  const Instance inst = GenerateBestBuy({});
  EXPECT_FALSE(inst.property_names().empty());
  EXPECT_TRUE(inst.Validate().ok());
}

TEST(BestBuyTest, Deterministic) {
  const Instance a = GenerateBestBuy({});
  const Instance b = GenerateBestBuy({});
  ASSERT_EQ(a.NumQueries(), b.NumQueries());
  for (size_t i = 0; i < a.NumQueries(); ++i) {
    EXPECT_EQ(a.queries()[i], b.queries()[i]);
  }
}

TEST(PrivateTest, MatchesTableOneMarginals) {
  const PrivateDataset dataset = GeneratePrivate({});
  const InstanceStats stats = ComputeStats(dataset.instance);
  EXPECT_EQ(stats.num_queries, 10000u);   // Table 1: 10,000 queries
  EXPECT_GE(stats.max_cost, 40);          // costs up to 63
  EXPECT_LE(stats.max_cost, 63);
  EXPECT_GE(stats.min_cost, 1);
  EXPECT_GE(stats.max_query_length, 5u);  // lengths 1..6
  EXPECT_LE(stats.max_query_length, 6u);
  EXPECT_TRUE(stats.feasible);
}

TEST(PrivateTest, FashionCategoryIsShortHeavy) {
  const PrivateDataset dataset = GeneratePrivate({});
  const auto fashion = dataset.CategoryQueryIndices("fashion");
  ASSERT_EQ(fashion.size(), 1000u);
  size_t short_queries = 0;
  for (size_t i : fashion) {
    if (dataset.instance.queries()[i].size() <= 2) ++short_queries;
  }
  // Paper: ~96% of fashion queries have at most 2 properties.
  EXPECT_GE(double(short_queries) / fashion.size(), 0.93);
}

TEST(PrivateTest, CategoriesPartitionTheQueries) {
  const PrivateDataset dataset = GeneratePrivate({});
  size_t total = 0;
  for (const auto& c : dataset.categories) total += c.num_queries;
  EXPECT_EQ(total, dataset.instance.NumQueries());
}

TEST(PrivateTest, ConjunctionSometimesCheaperThanParts) {
  // The paper's motivating phenomenon must be present in the cost model.
  const PrivateDataset dataset = GeneratePrivate({});
  const Instance& inst = dataset.instance;
  size_t cheaper_than_min_part = 0;
  size_t examined = 0;
  for (const auto& [classifier, cost] : SortedCostEntries(inst.costs())) {
    if (classifier.size() < 2) continue;
    Cost min_part = kInfiniteCost;
    for (PropertyId p : classifier) {
      min_part = std::min(min_part, inst.CostOf(PropertySet::Of({p})));
    }
    ++examined;
    if (cost < min_part) ++cheaper_than_min_part;
  }
  ASSERT_GT(examined, 0u);
  EXPECT_GT(double(cheaper_than_min_part) / examined, 0.05);
}

TEST(PrivateTest, ValidInstance) {
  const PrivateDataset dataset = GeneratePrivate({});
  EXPECT_TRUE(dataset.instance.Validate().ok());
}

TEST(IoTest, RoundTripsPaperExample) {
  const Instance inst = mc3::testing::PaperExample();
  const std::string csv = InstanceToCsv(inst);
  auto loaded = InstanceFromCsv(csv);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumQueries(), inst.NumQueries());
  EXPECT_EQ(loaded->costs().size(), inst.costs().size());
  // Costs survive the round trip (match by classifier name rendering).
  EXPECT_EQ(InstanceToCsv(*loaded), csv);
}

TEST(IoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mc3_io_test.csv";
  const Instance inst = mc3::testing::PaperExample();
  ASSERT_TRUE(SaveInstance(inst, path).ok());
  auto loaded = LoadInstance(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumQueries(), 2u);
}

TEST(IoTest, SolutionExportRendersClassifiers) {
  const Instance inst = mc3::testing::PaperExample();
  Solution solution;
  solution.Add(PropertySet::Of({0, 2}));  // juventus & adidas
  solution.Add(PropertySet::Of({1}));     // white
  const std::string csv = SolutionToCsv(inst, solution);
  EXPECT_NE(csv.find("C,3,juventus,adidas"), std::string::npos);
  EXPECT_NE(csv.find("C,1,white"), std::string::npos);
}

TEST(IoTest, SolutionFileRoundTripAsCostTable) {
  // The exported plan is a valid cost-table fragment: appending the
  // queries reloads into a consistent instance.
  const Instance inst = mc3::testing::PaperExample();
  Solution solution;
  solution.Add(PropertySet::Of({1}));
  const std::string path = ::testing::TempDir() + "/mc3_plan_test.csv";
  ASSERT_TRUE(SaveSolution(inst, solution, path).ok());
  std::vector<std::vector<std::string>> rows;
  ASSERT_TRUE(mc3::ReadCsvFile(path,
                               [&rows](const std::vector<std::string>& row) {
                                 rows.push_back(row);
                                 return Status::OK();
                               })
                  .ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "C");
}

TEST(IoTest, RejectsBadCost) {
  auto loaded = InstanceFromCsv("Q,a,b\nC,notanumber,a\n");
  EXPECT_FALSE(loaded.ok());
}

TEST(IoTest, RejectsUnknownRowKind) {
  auto loaded = InstanceFromCsv("X,a,b\n");
  EXPECT_FALSE(loaded.ok());
}

TEST(IoTest, RejectsQueryWithoutProperties) {
  auto loaded = InstanceFromCsv("Q\n");
  EXPECT_FALSE(loaded.ok());
}

TEST(IoTest, RejectsInvalidInstance) {
  // Duplicate queries fail Validate on load.
  auto loaded = InstanceFromCsv("Q,a,b\nQ,b,a\nC,1,a\nC,1,b\n");
  EXPECT_FALSE(loaded.ok());
}

TEST(IoTest, ValidationNamesTheFirstBadClassifierInFileOrder) {
  // a=0, b=1, c=2, d=3. Two classifiers no query contains and one NaN
  // price; in classifier order the NaN one ({0}) would come first.
  const std::string queries = "Q,a,b\nQ,c,d\n";
  auto loaded = InstanceFromCsv(queries + "C,1,b,c\nC,nan,a\nC,1,a,d\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.status().message(),
            "classifier {1,2} is not a subset of any query (not in C_Q)");

  loaded = InstanceFromCsv(queries + "C,nan,a\nC,1,b,c\nC,1,a,d\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(), "invalid cost for classifier {0}");

  loaded = InstanceFromCsv(queries + "C,1,a,d\nC,1,b,c\nC,nan,a\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "classifier {0,3} is not a subset of any query (not in C_Q)");

  // A negative price never reaches validation: the parser names its row.
  loaded = InstanceFromCsv(queries + "C,1,b,c\nC,-1,a\nC,1,a,d\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_EQ(loaded.status().message(), "row 3: bad cost '-1'");

  // Built in code, a negative price is validated in price-table order too.
  InstanceBuilder builder;
  builder.AddQuery({"a", "b"});
  builder.AddQuery({"c", "d"});
  builder.SetCost({"b", "c"}, 1);
  builder.SetCost({"a"}, -1);
  const Instance built = std::move(builder).Build();
  EXPECT_EQ(built.Validate().message(),
            "classifier {1,2} is not a subset of any query (not in C_Q)");
}

TEST(IoTest, SavedInstancesLoadInClassifierOrder) {
  auto loaded = InstanceFromCsv("Q,a,b,c\nC,2,b,c\nC,1,c\nC,3,a\nC,1,b\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // File order numbers the table...
  EXPECT_EQ(loaded->costs().Classifier(0), PropertySet::Of({1, 2}));
  // ...and a saved file lists it canonically, so a reload numbers it in
  // classifier order.
  auto reloaded = InstanceFromCsv(InstanceToCsv(*loaded));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->costs().SortedIds(),
            (std::vector<ClassifierId>{0, 1, 2, 3}));
  EXPECT_EQ(InstanceToCsv(*reloaded), InstanceToCsv(*loaded));
}

TEST(IoTest, RejectsQueriesLongerThanTheLimit) {
  // Every singleton is priced, so each query is coverable; only its length
  // is out of range (33 once shifted a 32-bit mask out of range, 26 once
  // enumerated 2^26 subsets).
  for (const size_t length : {size_t{26}, size_t{33}}) {
    std::string csv = "Q";
    for (size_t p = 0; p < length; ++p) csv += ",p" + std::to_string(p);
    csv += "\n";
    for (size_t p = 0; p < length; ++p) {
      csv += "C,1,p" + std::to_string(p) + "\n";
    }
    auto loaded = InstanceFromCsv(csv);
    ASSERT_FALSE(loaded.ok()) << length;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(
                  "has " + std::to_string(length) +
                  " properties; at most 25 are supported"),
              std::string::npos)
        << loaded.status().message();
  }
}

TEST(IoTest, MissingFileIsNotFound) {
  auto loaded = LoadInstance("/nonexistent/instance.csv");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mc3::data
