// Differential testing of PropertySet against a std::set<PropertyId>
// reference model, over randomized operation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/property_set.h"
#include "util/rng.h"

namespace mc3 {
namespace {

std::vector<PropertyId> RandomIds(Rng* rng, size_t max_size,
                                  PropertyId max_id) {
  std::vector<PropertyId> ids;
  const size_t count = rng->UniformInt(0, max_size);
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<PropertyId>(rng->UniformInt(0, max_id)));
  }
  return ids;
}

std::set<PropertyId> AsModel(const std::vector<PropertyId>& ids) {
  return {ids.begin(), ids.end()};
}

std::vector<PropertyId> AsVector(const std::set<PropertyId>& model) {
  return {model.begin(), model.end()};
}

class PropertySetFuzzTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, PropertySetFuzzTest, ::testing::Range(0, 40));

TEST_P(PropertySetFuzzTest, MatchesReferenceModel) {
  Rng rng(GetParam() * 7919 + 11);
  for (int round = 0; round < 50; ++round) {
    const auto raw_a = RandomIds(&rng, 8, 12);
    const auto raw_b = RandomIds(&rng, 8, 12);
    const PropertySet a = PropertySet::FromUnsorted(raw_a);
    const PropertySet b = PropertySet::FromUnsorted(raw_b);
    const auto model_a = AsModel(raw_a);
    const auto model_b = AsModel(raw_b);

    // Construction canonicalizes.
    EXPECT_EQ(a.ids(), AsVector(model_a));
    EXPECT_EQ(a.size(), model_a.size());
    EXPECT_EQ(a.empty(), model_a.empty());

    // Membership.
    for (PropertyId p = 0; p <= 12; ++p) {
      EXPECT_EQ(a.Contains(p), model_a.count(p) > 0) << p;
    }

    // Subset / intersection predicates.
    EXPECT_EQ(a.IsSubsetOf(b),
              std::includes(model_b.begin(), model_b.end(), model_a.begin(),
                            model_a.end()));
    bool intersects = false;
    for (PropertyId p : model_a) intersects |= model_b.count(p) > 0;
    EXPECT_EQ(a.Intersects(b), intersects);

    // Set algebra.
    std::set<PropertyId> model_union = model_a;
    model_union.insert(model_b.begin(), model_b.end());
    EXPECT_EQ(a.UnionWith(b).ids(), AsVector(model_union));

    std::set<PropertyId> model_inter;
    for (PropertyId p : model_a) {
      if (model_b.count(p)) model_inter.insert(p);
    }
    EXPECT_EQ(a.IntersectWith(b).ids(), AsVector(model_inter));

    std::set<PropertyId> model_minus = model_a;
    for (PropertyId p : model_b) model_minus.erase(p);
    EXPECT_EQ(a.Minus(b).ids(), AsVector(model_minus));

    // Plus.
    const auto extra = static_cast<PropertyId>(rng.UniformInt(0, 12));
    std::set<PropertyId> model_plus = model_a;
    model_plus.insert(extra);
    EXPECT_EQ(a.Plus(extra).ids(), AsVector(model_plus));

    // Equality and hashing consistency.
    const PropertySet a_again = PropertySet::FromUnsorted(AsVector(model_a));
    EXPECT_EQ(a, a_again);
    EXPECT_EQ(a.Hash(), a_again.Hash());
    if (model_a != model_b) {
      EXPECT_NE(a, b);
    } else {
      EXPECT_EQ(a, b);
    }
  }
}

TEST_P(PropertySetFuzzTest, AlgebraIdentities) {
  Rng rng(GetParam() * 104729 + 3);
  const PropertySet a = PropertySet::FromUnsorted(RandomIds(&rng, 6, 15));
  const PropertySet b = PropertySet::FromUnsorted(RandomIds(&rng, 6, 15));
  const PropertySet c = PropertySet::FromUnsorted(RandomIds(&rng, 6, 15));

  // Commutativity / associativity of union.
  EXPECT_EQ(a.UnionWith(b), b.UnionWith(a));
  EXPECT_EQ(a.UnionWith(b).UnionWith(c), a.UnionWith(b.UnionWith(c)));
  // Absorption and difference identities.
  EXPECT_EQ(a.UnionWith(a), a);
  EXPECT_EQ(a.IntersectWith(a), a);
  EXPECT_EQ(a.Minus(a), PropertySet());
  EXPECT_EQ(a.Minus(b).UnionWith(a.IntersectWith(b)), a);
  // Subset relations.
  EXPECT_TRUE(a.IntersectWith(b).IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a.UnionWith(b)));
  EXPECT_EQ(a.Intersects(b), !a.IntersectWith(b).empty());
}

}  // namespace
}  // namespace mc3
