// ClassifierTable tests: the interned table against the direct definitions
// (Instance::CostOf over ForEachNonEmptySubset), and the coverage checks
// built on it against the reference oracles in tests/test_util.h.
#include "core/classifier_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/solution.h"
#include "tests/test_util.h"

namespace mc3 {
namespace {

using testing::PS;
using testing::RandomInstanceConfig;

/// The subset of the sorted `ids` selected by `mask`.
PropertySet SubsetAt(const std::vector<PropertyId>& ids, uint32_t mask) {
  std::vector<PropertyId> sub;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (mask & (1u << i)) sub.push_back(ids[i]);
  }
  return PropertySet::FromSorted(std::move(sub));
}

/// Seeded random instances: up to 10 properties per query over a small
/// universe, so queries share subsets; some subsets unpriced, some priced
/// zero. With `long_query`, one more query of 20 properties contains every
/// other query, so all their classifiers are shared with it too.
Instance TableInstance(uint64_t seed, bool long_query) {
  RandomInstanceConfig config;
  config.num_queries = 20;
  config.pool = 12;
  config.max_query_length = 10;
  config.priced_probability = 0.4;
  config.zero_probability = 0.1;
  Instance instance = testing::RandomInstance(config, seed);
  if (long_query) {
    std::vector<PropertyId> ids(20);
    for (PropertyId p = 0; p < 20; ++p) ids[p] = p;
    const PropertySet q = PropertySet::FromSorted(ids);
    instance.AddQuery(q);
    for (PropertyId p = 12; p < 20; ++p) instance.SetCost(PS({p}), 3);
    Rng rng(seed + 1000);
    for (int i = 0; i < 300; ++i) {
      const auto mask =
          static_cast<uint32_t>(rng.UniformInt(1, (uint64_t{1} << 20) - 1));
      instance.SetCost(SubsetAt(ids, mask),
                       static_cast<Cost>(rng.UniformInt(0, 30)));
    }
  }
  return instance;
}

/// Every CSR entry is a priced subset at its CostOf price, every priced
/// subset appears exactly once in ascending mask order, and unpriced ones
/// are found neither by mask nor by key.
void ExpectCsrMatchesCostOf(const Instance& instance,
                            const ClassifierTable& table) {
  for (size_t qi = 0; qi < instance.NumQueries(); ++qi) {
    const auto& ids = instance.queries()[qi].ids();
    const std::span<const QuerySubset> row = table.subsets(qi);
    size_t next = 0;
    uint32_t covered = 0;
    for (uint32_t mask = 1; mask <= FullMask(ids.size()); ++mask) {
      const PropertySet sub = SubsetAt(ids, mask);
      const Cost cost = instance.CostOf(sub);
      if (IsInfiniteCost(cost)) {
        EXPECT_EQ(table.FindSubset(qi, mask), ClassifierTable::kNotFound);
        EXPECT_EQ(table.Find(sub), ClassifierTable::kNotFound);
        continue;
      }
      ASSERT_LT(next, row.size()) << "query " << qi << " mask " << mask;
      const QuerySubset entry = row[next++];
      EXPECT_EQ(entry.mask, mask);
      EXPECT_EQ(PropertySet::FromSorted(table.classifier(entry.id)), sub);
      EXPECT_EQ(table.cost(entry.id), cost);
      EXPECT_EQ(table.FindSubset(qi, mask), entry.id);
      EXPECT_EQ(table.Find(sub), entry.id);
      covered |= mask;
    }
    EXPECT_EQ(next, row.size()) << "query " << qi;
    EXPECT_EQ(table.Covers(qi), covered == FullMask(ids.size()));
  }
}

/// Ids are 0..size()-1, one per distinct interned classifier, numbered in
/// order of first appearance over the CSR rows.
void ExpectDenseFirstAppearanceIds(const Instance& instance,
                                   const ClassifierTable& table) {
  ClassifierId next = 0;
  for (size_t qi = 0; qi < instance.NumQueries(); ++qi) {
    for (const QuerySubset& s : table.subsets(qi)) {
      ASSERT_LE(s.id, next);
      if (s.id == next) ++next;
    }
  }
  EXPECT_EQ(next, table.size());
  std::set<PropertySet> distinct;
  for (ClassifierId id = 0; id < table.size(); ++id) {
    const PropertySet classifier =
        PropertySet::FromSorted(table.classifier(id));
    distinct.insert(classifier);
    EXPECT_EQ(table.Find(classifier), id);
  }
  EXPECT_EQ(distinct.size(), table.size());
}

TEST(ClassifierTableTest, CsrMatchesCostOfOnRandomInstances) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(seed);
    const Instance instance = TableInstance(seed, /*long_query=*/seed == 0);
    ASSERT_TRUE(instance.Validate().ok());
    const ClassifierTable table(instance.queries(), instance.costs());
    // A valid instance prices only classifiers of C_Q: all are interned.
    EXPECT_EQ(table.size(), instance.costs().size());
    ExpectCsrMatchesCostOf(instance, table);
    ExpectDenseFirstAppearanceIds(instance, table);
  }
}

TEST(ClassifierTableTest, LeavesOutClassifiersNoQueryContains) {
  Instance instance = testing::PaperExample();
  const size_t relevant = instance.costs().size();
  instance.SetCost(PS({40, 41}), 1);  // in no query
  instance.SetCost(PS({42}), 0);
  const ClassifierTable table(instance.queries(), instance.costs());
  EXPECT_EQ(table.size(), relevant);
  EXPECT_EQ(table.Find(PS({40, 41})), ClassifierTable::kNotFound);
  EXPECT_EQ(table.Find(PS({42})), ClassifierTable::kNotFound);
  ExpectCsrMatchesCostOf(instance, table);
}

TEST(ClassifierTableTest, QueriesOverTheLimitGetNoSubsets) {
  Instance instance;
  std::vector<PropertyId> ids(kMaxQueryLength + 1);
  for (PropertyId p = 0; p < ids.size(); ++p) {
    ids[p] = p;
    instance.SetCost(PS({p}), 1);
  }
  instance.AddQuery(PS({0, 1}));
  instance.AddQuery(PropertySet::FromSorted(ids));
  const ClassifierTable table(instance.queries(), instance.costs());
  EXPECT_TRUE(table.Covers(0));
  EXPECT_EQ(table.subsets(0).size(), 2u);
  EXPECT_FALSE(table.Covers(1));
  EXPECT_TRUE(table.subsets(1).empty());
  EXPECT_FALSE(instance.IsFeasible());
  EXPECT_FALSE(Covers(instance, Solution()));
}

TEST(ClassifierTableTest, SolutionTablePricesByTheInstance) {
  const Instance instance = testing::PaperExample();
  Solution solution;
  for (const auto& [classifier, cost] : SortedCostEntries(instance.costs())) {
    if (classifier.size() == 2) solution.Add(classifier);
  }
  const ClassifierTable table(instance, solution.classifiers());
  EXPECT_EQ(table.size(), solution.size());
  for (ClassifierId id = 0; id < table.size(); ++id) {
    EXPECT_EQ(table.cost(id),
              instance.CostOf(PropertySet::FromSorted(table.classifier(id))));
  }
}

/// Random selections over an instance: priced classifiers each kept with
/// probability 1/2, plus (by `extras`) every singleton, an unpriced subset
/// of a query, and a classifier no query contains.
Solution RandomSolution(const Instance& instance, Rng* rng, bool extras) {
  Solution solution;
  for (const auto& [classifier, cost] : SortedCostEntries(instance.costs())) {
    if ((extras && classifier.size() == 1) || rng->Bernoulli(0.5)) {
      solution.Add(classifier);
    }
  }
  if (extras) {
    for (const PropertySet& q : instance.queries()) {
      if (q.size() < 2 || q.size() > 10) continue;
      if (IsInfiniteCost(instance.CostOf(q))) {
        solution.Add(q);
        break;
      }
    }
    solution.Add(PS({90, 91}));
  }
  return solution;
}

TEST(ClassifierTableTest, CoverageChecksMatchTheReferenceOracles) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(seed);
    const Instance instance = TableInstance(seed, /*long_query=*/seed == 0);
    Rng rng(seed * 31 + 7);
    for (const bool extras : {false, true}) {
      const Solution solution = RandomSolution(instance, &rng, extras);
      EXPECT_EQ(Covers(instance, solution),
                testing::ReferenceCovers(instance, solution));

      const CoverageReport report = VerifyCoverage(instance, solution);
      const CoverageReport reference =
          testing::ReferenceVerifyCoverage(instance, solution);
      EXPECT_EQ(report.covers_all, reference.covers_all);
      EXPECT_EQ(report.uncovered_queries, reference.uncovered_queries);
      EXPECT_EQ(report.witnesses, reference.witnesses);

      EXPECT_EQ(PruneUnusedClassifiers(instance, solution).classifiers(),
                testing::ReferencePrune(instance, solution).classifiers());
    }
    // IsFeasible is Covers by every priced classifier.
    Solution everything;
    for (const auto& [classifier, cost] : SortedCostEntries(instance.costs())) {
      everything.Add(classifier);
    }
    EXPECT_EQ(instance.IsFeasible(),
              testing::ReferenceCovers(instance, everything));
  }
}

TEST(ClassifierTableTest, TableEqualsOneAssembledFromPerQueryReferenceWalks) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(seed);
    const testing::WalkList list = testing::RandomWalkList(seed);
    const auto prices = testing::ReferencePrices(list.store);
    // The reference: each query's priced subsets in ascending mask order,
    // ids numbered on first appearance over the rows in order.
    std::map<PropertySet, ClassifierId> ids;
    std::vector<Cost> costs;
    std::vector<std::vector<std::pair<uint32_t, ClassifierId>>> rows;
    std::vector<bool> covers;
    for (const PropertySet& q : list.queries) {
      rows.emplace_back();
      uint32_t covered = 0;
      for (const testing::PricedSubset& s :
           testing::ReferencePricedSubsets(prices, q)) {
        const auto [it, fresh] = ids.emplace(
            s.classifier, static_cast<ClassifierId>(ids.size()));
        if (fresh) costs.push_back(s.cost);
        rows.back().emplace_back(s.mask, it->second);
        covered |= s.mask;
      }
      covers.push_back(q.size() <= kMaxQueryLength &&
                       covered == FullMask(q.size()));
    }

    const ClassifierTable table(list.queries, list.store);
    ASSERT_EQ(table.num_queries(), list.queries.size());
    ASSERT_EQ(table.size(), ids.size());
    size_t entries = 0;
    for (size_t qi = 0; qi < list.queries.size(); ++qi) {
      std::vector<std::pair<uint32_t, ClassifierId>> row;
      for (const QuerySubset& s : table.subsets(qi)) {
        row.emplace_back(s.mask, s.id);
      }
      EXPECT_EQ(row, rows[qi]) << "query " << qi;
      EXPECT_EQ(table.Covers(qi), covers[qi]) << "query " << qi;
      entries += row.size();
    }
    EXPECT_EQ(table.num_subsets(), entries);
    EXPECT_EQ(table.CoversAll(),
              std::find(covers.begin(), covers.end(), false) == covers.end());
    for (const auto& [classifier, id] : ids) {
      EXPECT_EQ(PropertySet::FromSorted(table.classifier(id)), classifier);
      EXPECT_EQ(table.cost(id), costs[id]);
      EXPECT_EQ(table.Find(classifier), id);
    }
  }
}

}  // namespace
}  // namespace mc3
