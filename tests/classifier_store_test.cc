// ClassifierStore tests: id assignment, hiding and reviving, index growth,
// extreme property ids, and the lattice walk, over one query and over query
// lists, against its per-subset definition (tests/test_util.h).
#include "core/classifier_store.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "tests/test_util.h"

namespace mc3 {
namespace {

using testing::PS;

std::vector<ClassifierId> IdsOf(const ClassifierStore& store) {
  std::vector<ClassifierId> ids;
  for (ClassifierId id : store.ids()) ids.push_back(id);
  return ids;
}

std::vector<QuerySubset> Walk(const ClassifierStore& store,
                              const PropertySet& query) {
  std::vector<QuerySubset> out;
  store.AppendSubsets(query.ids(), &out);
  return out;
}

TEST(ClassifierStoreTest, IdsComeInFirstPricedOrder) {
  ClassifierStore store;
  store.Set(PS({5, 9}).ids(), 3);
  store.Set(PS({1}).ids(), 1);
  store.Set(PS({2, 3, 4}).ids(), 7);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.id_bound(), 3u);
  EXPECT_EQ(store.Find(PS({5, 9}).ids()), 0u);
  EXPECT_EQ(store.Find(PS({1}).ids()), 1u);
  EXPECT_EQ(store.Find(PS({2, 3, 4}).ids()), 2u);
  EXPECT_EQ(store.Classifier(2), PS({2, 3, 4}));
  EXPECT_EQ(store.cost(0), 3);
  EXPECT_EQ(IdsOf(store), (std::vector<ClassifierId>{0, 1, 2}));
  // Classifier order, not id order.
  EXPECT_EQ(store.SortedIds(), (std::vector<ClassifierId>{1, 2, 0}));
}

TEST(ClassifierStoreTest, RepricingKeepsTheId) {
  ClassifierStore store;
  store.Set(PS({1, 2}).ids(), 4);
  store.Set(PS({3}).ids(), 2);
  store.Set(PS({1, 2}).ids(), 9);
  EXPECT_EQ(store.Find(PS({1, 2}).ids()), 0u);
  EXPECT_EQ(store.CostOf(PS({1, 2}).ids()), 9);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.id_bound(), 2u);
}

TEST(ClassifierStoreTest, InfinitePriceHidesAndAFiniteOneRevives) {
  ClassifierStore store;
  store.Set(PS({1}).ids(), 1);
  store.Set(PS({2}).ids(), 2);
  store.Set(PS({1, 2}).ids(), 0);
  store.Set(PS({1}).ids(), kInfiniteCost);
  EXPECT_EQ(store.Find(PS({1}).ids()), ClassifierStore::kNotFound);
  EXPECT_TRUE(IsInfiniteCost(store.CostOf(PS({1}).ids())));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(IdsOf(store), (std::vector<ClassifierId>{1, 2}));
  EXPECT_EQ(store.SortedIds(), (std::vector<ClassifierId>{2, 1}));
  // The walk skips the hidden entry.
  std::vector<QuerySubset> walked = Walk(store, PS({1, 2}));
  ASSERT_EQ(walked.size(), 2u);
  EXPECT_EQ(walked[0].mask, 2u);
  EXPECT_EQ(walked[1].mask, 3u);
  // Hiding twice, or hiding what was never priced, changes nothing.
  store.Set(PS({1}).ids(), kInfiniteCost);
  store.Set(PS({7}).ids(), kInfiniteCost);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.id_bound(), 3u);
  // A finite price revives the entry under its old id.
  store.Set(PS({1}).ids(), 6);
  EXPECT_EQ(store.Find(PS({1}).ids()), 0u);
  EXPECT_EQ(store.CostOf(PS({1}).ids()), 6);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.id_bound(), 3u);
  EXPECT_EQ(Walk(store, PS({1, 2})).size(), 3u);
}

TEST(ClassifierStoreTest, GrowthPastHalfLoadKeepsEveryEntryFindable) {
  ClassifierStore store;
  constexpr PropertyId kCount = 20000;
  for (PropertyId p = 0; p < kCount; ++p) {
    store.Set(PS({p, p + kCount}).ids(), p);
    // Spot-check the earliest entries through every growth step.
    ASSERT_EQ(store.Find(PS({0, kCount}).ids()), 0u) << "after " << p;
  }
  EXPECT_EQ(store.size(), size_t{kCount});
  for (PropertyId p = 0; p < kCount; ++p) {
    const ClassifierId id = store.Find(PS({p, p + kCount}).ids());
    ASSERT_EQ(id, p);
    EXPECT_EQ(store.cost(id), p);
    EXPECT_EQ(store.Classifier(id), PS({p, p + kCount}));
    EXPECT_EQ(store.Find(PS({p, p + kCount + 1}).ids()),
              ClassifierStore::kNotFound);
  }
}

TEST(ClassifierStoreTest, PropertyIdsNearTheTopOfTheRange) {
  constexpr PropertyId kTop = UINT32_MAX;
  ClassifierStore store;
  store.Set(PS({kTop}).ids(), 1);
  store.Set(PS({kTop - 1, kTop}).ids(), 2);
  store.Set(PS({0, kTop - 2}).ids(), 3);
  EXPECT_EQ(store.CostOf(PS({kTop}).ids()), 1);
  EXPECT_EQ(store.CostOf(PS({kTop - 1, kTop}).ids()), 2);
  EXPECT_TRUE(IsInfiniteCost(store.CostOf(PS({kTop - 1}).ids())));
  const std::vector<QuerySubset> walked =
      Walk(store, PS({0, kTop - 2, kTop - 1, kTop}));
  // Positions: 0 -> 0, kTop-2 -> 1, kTop-1 -> 2, kTop -> 3.
  ASSERT_EQ(walked.size(), 3u);
  EXPECT_EQ(walked[0].mask, 0b0011u);
  EXPECT_EQ(walked[1].mask, 0b1000u);
  EXPECT_EQ(walked[2].mask, 0b1100u);
}

TEST(ClassifierStoreTest, OverLongQueryWalksAsNoSubsets) {
  ClassifierStore store;
  std::vector<PropertyId> ids;
  for (PropertyId p = 0; p <= kMaxQueryLength; ++p) {
    ids.push_back(p);
    store.Set(PS({p}).ids(), 1);
  }
  std::vector<QuerySubset> out;
  EXPECT_EQ(store.AppendSubsets(ids, &out), 0u);
  EXPECT_TRUE(out.empty());
  // The same singletons are walked for a query within the limit.
  EXPECT_EQ(store.AppendSubsets(PS({3, 4}).ids(), &out), 0b11u);
  EXPECT_EQ(out.size(), 2u);
}

TEST(ClassifierStoreTest, EmptyStoreWalksAsNoSubsets) {
  const ClassifierStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.Find(PS({1}).ids()), ClassifierStore::kNotFound);
  EXPECT_TRUE(Walk(store, PS({1, 2, 3})).empty());
}

/// Seeded random instances with k <= 8, some subsets unpriced and some
/// priced zero; a few priced entries are then hidden and some of those
/// revived, so the index holds hidden entries too.
Instance WalkInstance(uint64_t seed) {
  testing::RandomInstanceConfig config;
  config.num_queries = 25;
  config.pool = 12;
  config.max_query_length = 8;
  config.priced_probability = 0.5;
  config.zero_probability = 0.1;
  Instance instance = testing::RandomInstance(config, seed);
  Rng rng(seed + 77);
  std::vector<PropertySet> priced;
  for (ClassifierId id : instance.costs().ids()) {
    priced.push_back(instance.costs().Classifier(id));
  }
  for (const PropertySet& c : priced) {
    if (rng.Bernoulli(0.1)) instance.SetCost(c, kInfiniteCost);
  }
  for (const PropertySet& c : priced) {
    if (IsInfiniteCost(instance.CostOf(c)) && rng.Bernoulli(0.3)) {
      instance.SetCost(c, static_cast<Cost>(rng.UniformInt(0, 5)));
    }
  }
  return instance;
}

std::vector<std::pair<uint32_t, ClassifierId>> Pairs(
    std::span<const QuerySubset> subsets) {
  std::vector<std::pair<uint32_t, ClassifierId>> pairs;
  for (const QuerySubset& s : subsets) pairs.emplace_back(s.mask, s.id);
  return pairs;
}

/// The list walk of `queries` over `store` against the per-subset
/// definition, query by query: each row, its end and its coverage. The
/// walk appends behind an entry already in `out`, which it must keep. Each
/// query's one-query walk must give its row and the union of its masks.
void ExpectListWalkMatchesReference(const ClassifierStore& store,
                                    const std::vector<PropertySet>& queries) {
  const auto prices = testing::ReferencePrices(store);
  const QuerySubset before{5, 7};
  std::vector<QuerySubset> out = {before};
  std::vector<size_t> row_ends;
  std::vector<bool> covers;
  store.AppendSubsets(queries, &out, &row_ends, &covers);
  ASSERT_EQ(row_ends.size(), queries.size());
  ASSERT_EQ(covers.size(), queries.size());
  EXPECT_EQ(out[0].mask, before.mask);
  EXPECT_EQ(out[0].id, before.id);
  size_t begin = 1;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE("query " + std::to_string(qi) + " " +
                 queries[qi].ToString());
    ASSERT_LE(begin, row_ends[qi]);
    ASSERT_LE(row_ends[qi], out.size());
    const std::span<const QuerySubset> row(out.data() + begin,
                                           out.data() + row_ends[qi]);
    const std::vector<testing::PricedSubset> expected =
        testing::ReferencePricedSubsets(prices, queries[qi]);
    std::vector<testing::PricedSubset> got;
    for (const QuerySubset& s : row) {
      got.push_back({s.mask, store.Classifier(s.id), store.cost(s.id)});
    }
    EXPECT_EQ(got, expected);
    uint32_t covered = 0;
    for (const testing::PricedSubset& s : expected) covered |= s.mask;
    const size_t length = queries[qi].size();
    EXPECT_EQ(covers[qi],
              length <= kMaxQueryLength && covered == FullMask(length));
    std::vector<QuerySubset> alone;
    EXPECT_EQ(store.AppendSubsets(queries[qi].ids(), &alone), covered);
    EXPECT_EQ(Pairs(alone), Pairs(row));
    begin = row_ends[qi];
  }
  EXPECT_EQ(begin, out.size());
}

TEST(ClassifierStoreTest, WalkMatchesThePerSubsetDefinition) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE(seed);
    const Instance instance = WalkInstance(seed);
    ExpectListWalkMatchesReference(instance.costs(), instance.queries());
  }
}

TEST(ClassifierStoreTest, ListWalkMatchesThePerSubsetDefinition) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE(seed);
    const testing::WalkList list = testing::RandomWalkList(seed);
    ExpectListWalkMatchesReference(list.store, list.queries);
  }
}

TEST(ClassifierStoreTest, ListWalkProbesThroughAHalfFullIndex) {
  // Eight entries fill the smallest index (16 slots) to its load limit, so
  // probes run through occupied slots; two of them are hidden, and still
  // occupy theirs.
  for (uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ClassifierStore store;
    std::vector<PropertySet> priced;
    while (store.id_bound() < 8) {
      std::vector<PropertyId> props;
      for (PropertyId p = 0; p < 6; ++p) {
        if (rng.Bernoulli(0.4)) props.push_back(p);
      }
      if (props.empty()) continue;
      const PropertySet c = PropertySet::FromSorted(std::move(props));
      if (store.Find(c.ids()) != ClassifierStore::kNotFound) continue;
      store.Set(c.ids(), static_cast<Cost>(rng.UniformInt(0, 9)));
      priced.push_back(c);
    }
    store.Set(priced[1].ids(), kInfiniteCost);
    store.Set(priced[6].ids(), kInfiniteCost);
    std::vector<PropertySet> queries;
    for (int i = 0; i < 24; ++i) {
      std::vector<PropertyId> props;
      for (PropertyId p = 0; p < 8; ++p) {
        if (rng.Bernoulli(0.5)) props.push_back(p);
      }
      queries.push_back(PropertySet::FromSorted(std::move(props)));
    }
    queries.push_back(PS({0, 1, 2, 3, 4, 5}));
    ExpectListWalkMatchesReference(store, queries);
  }
}

TEST(ClassifierStoreTest, ListWalkOverAnEmptyStoreOrAnEmptyList) {
  const testing::WalkList list = testing::RandomWalkList(3);
  const ClassifierStore empty;
  std::vector<QuerySubset> out;
  std::vector<size_t> row_ends;
  std::vector<bool> covers;
  empty.AppendSubsets(list.queries, &out, &row_ends, &covers);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(row_ends, std::vector<size_t>(list.queries.size(), 0));
  ASSERT_EQ(covers.size(), list.queries.size());
  for (size_t qi = 0; qi < list.queries.size(); ++qi) {
    // Only the empty query is covered, by nothing.
    EXPECT_EQ(covers[qi], list.queries[qi].empty()) << qi;
  }
  ExpectListWalkMatchesReference(empty, list.queries);

  list.store.AppendSubsets(std::span<const PropertySet>(), &out, &row_ends,
                           &covers);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(row_ends.size(), list.queries.size());
  EXPECT_EQ(covers.size(), list.queries.size());
  ExpectListWalkMatchesReference(list.store, {});
  ExpectListWalkMatchesReference(empty, {});
}

}  // namespace
}  // namespace mc3
