#include "core/cover_dp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "tests/test_util.h"
#include "util/rng.h"

namespace mc3 {
namespace {

using testing::PS;

std::function<Cost(const PropertySet&)> CostsFrom(const Instance& inst) {
  return [&inst](const PropertySet& c) { return inst.CostOf(c); };
}

TEST(CoverDpTest, SingletonQuery) {
  Instance inst;
  inst.SetCost(PS({0}), 3);
  auto cover = MinCostQueryCover(PS({0}), CostsFrom(inst));
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(cover->cost, 3);
  ASSERT_EQ(cover->classifiers.size(), 1u);
  EXPECT_EQ(cover->classifiers[0], PS({0}));
}

TEST(CoverDpTest, PairPicksCheaperOption) {
  Instance inst;
  inst.SetCost(PS({0}), 2);
  inst.SetCost(PS({1}), 2);
  inst.SetCost(PS({0, 1}), 3);
  auto cover = MinCostQueryCover(PS({0, 1}), CostsFrom(inst));
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(cover->cost, 3);
  EXPECT_EQ(cover->classifiers.size(), 1u);
}

TEST(CoverDpTest, MixedCover) {
  // {0,1,2}: best is {0,1} at 2 plus {2} at 1.
  Instance inst;
  inst.SetCost(PS({0}), 5);
  inst.SetCost(PS({1}), 5);
  inst.SetCost(PS({2}), 1);
  inst.SetCost(PS({0, 1}), 2);
  inst.SetCost(PS({0, 1, 2}), 4);
  auto cover = MinCostQueryCover(PS({0, 1, 2}), CostsFrom(inst));
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(cover->cost, 3);
  EXPECT_EQ(cover->classifiers.size(), 2u);
}

TEST(CoverDpTest, OverlappingClassifiersAllowed) {
  Instance inst;
  inst.SetCost(PS({0, 1}), 1);
  inst.SetCost(PS({1, 2}), 1);
  auto cover = MinCostQueryCover(PS({0, 1, 2}), CostsFrom(inst));
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(cover->cost, 2);
}

TEST(CoverDpTest, NoCoverReturnsNullopt) {
  Instance inst;
  inst.SetCost(PS({0}), 1);
  auto cover = MinCostQueryCover(PS({0, 1}), CostsFrom(inst));
  EXPECT_FALSE(cover.has_value());
}

TEST(CoverDpTest, ZeroCostClassifiersUsed) {
  Instance inst;
  inst.SetCost(PS({0}), 0);
  inst.SetCost(PS({1}), 4);
  inst.SetCost(PS({0, 1}), 3);
  auto cover = MinCostQueryCover(PS({0, 1}), CostsFrom(inst));
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(cover->cost, 3);  // XY at 3 beats X(0) + Y(4)
}

TEST(CoverDpTest, CoverUnionEqualsQuery) {
  Instance inst;
  inst.SetCost(PS({0}), 1);
  inst.SetCost(PS({1}), 1);
  inst.SetCost(PS({2}), 1);
  inst.SetCost(PS({1, 2}), 1);
  auto cover = MinCostQueryCover(PS({0, 1, 2}), CostsFrom(inst));
  ASSERT_TRUE(cover.has_value());
  PropertySet unioned;
  for (const PropertySet& c : cover->classifiers) {
    unioned = unioned.UnionWith(c);
  }
  EXPECT_EQ(unioned, PS({0, 1, 2}));
}

/// Candidates of a length-`k` query: every singleton plus random masks of
/// two or three positions, at prices from 1..6 (so covers tie), in
/// ascending mask order.
void RandomCandidates(size_t k, Rng* rng, std::vector<uint32_t>* masks,
                      std::vector<Cost>* costs) {
  masks->clear();
  costs->clear();
  for (uint32_t m = 1; m < (uint32_t{1} << k); ++m) {
    if (std::has_single_bit(m) ||
        (std::popcount(m) <= 3 && rng->UniformInt(0, 9) < 3)) {
      masks->push_back(m);
      costs->push_back(static_cast<Cost>(rng->UniformInt(1, 6)));
    }
  }
}

TEST(CoverDpTest, ReusedScratchMatchesFreshCalls) {
  // One scratch runs a long, a short and a long query: it shrinks to 2^3
  // entries and grows again, and every call matches a fresh scratch.
  Rng rng(20261019);
  MaskCoverScratch reused;
  std::vector<uint32_t> masks;
  std::vector<Cost> costs;
  std::vector<size_t> reused_picks;
  std::vector<size_t> fresh_picks;
  const auto expect_fresh = [&](size_t k) {
    MaskCoverScratch fresh;
    const Cost cost =
        MinCostMaskCover(k, masks, costs, &reused_picks, &reused);
    EXPECT_EQ(cost, MinCostMaskCover(k, masks, costs, &fresh_picks, &fresh));
    EXPECT_EQ(reused_picks, fresh_picks) << "k = " << k;
    return cost;
  };

  RandomCandidates(10, &rng, &masks, &costs);
  expect_fresh(10);

  // A length-3 query with three covers of cost 1: {0,1}+{2}, {0}+{1,2} and
  // {0,1}+{1,2}. The DP extends masks in ascending order, so {0} (mask 1)
  // plus {1,2} reaches the full mask first and the later ties do not
  // replace it; picks run from the last pick back to the first. Its parts
  // cost less than any of the long queries', so a stale entry it leaves
  // behind would undercut the next call.
  masks = {0b011, 0b100, 0b001, 0b110};
  costs = {0.5, 0.5, 0.5, 0.5};
  EXPECT_EQ(expect_fresh(3), 1);
  EXPECT_EQ(reused_picks, (std::vector<size_t>{3, 2}));

  RandomCandidates(9, &rng, &masks, &costs);
  expect_fresh(9);
}

/// Every pair of proper sub-masks A, B of `mask` with A | B == mask.
Cost BruteForceTwoPartCover(uint32_t mask, const std::vector<Cost>& lattice) {
  Cost best = kInfiniteCost;
  for (uint32_t a = (mask - 1) & mask; a != 0; a = (a - 1) & mask) {
    for (uint32_t b = (mask - 1) & mask; b != 0; b = (b - 1) & mask) {
      if ((a | b) == mask) best = std::min(best, lattice[a] + lattice[b]);
    }
  }
  return best;
}

TEST(TwoPartCoverTest, MatchesBruteForceOnRandomLattices) {
  Rng rng(20261017);
  std::vector<Cost> scratch;  // reused across calls, as step 3 does
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = rng.UniformInt(2, 16);
    const size_t len = rng.UniformInt(2, std::min<size_t>(n, 12));
    uint32_t mask = 0;
    while (static_cast<size_t>(std::popcount(mask)) < len) {
      mask |= uint32_t{1} << rng.UniformInt(0, n - 1);
    }
    // Entries from {inf, 0, 1..5}: unpriced subsets, zero costs and ties.
    std::vector<Cost> lattice(size_t{1} << n);
    for (Cost& cost : lattice) {
      const uint64_t draw = rng.UniformInt(0, 6);
      cost = draw == 0 ? kInfiniteCost : static_cast<Cost>(draw - 1);
    }
    lattice[mask] = 0;  // the classifier itself is never one of its parts
    EXPECT_EQ(MinTwoPartCover(mask, lattice, &scratch),
              BruteForceTwoPartCover(mask, lattice))
        << "trial " << trial << ", mask " << mask;
  }
}

TEST(TwoPartCoverTest, PairIsTheSumOfItsSingletons) {
  std::vector<Cost> lattice(16, kInfiniteCost);
  lattice[0b0010] = 2.5;
  lattice[0b1000] = 4;
  lattice[0b1010] = 1;
  std::vector<Cost> scratch;
  EXPECT_EQ(MinTwoPartCover(0b1010, lattice, &scratch), 6.5);
}

TEST(TwoPartCoverTest, NoPricedProperSubsetGivesInfinity) {
  std::vector<Cost> lattice(64, 1);
  const uint32_t mask = 0b110101;
  for (uint32_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
    lattice[sub] = kInfiniteCost;
  }
  std::vector<Cost> scratch;
  EXPECT_EQ(MinTwoPartCover(mask, lattice, &scratch), kInfiniteCost);
}

}  // namespace
}  // namespace mc3
