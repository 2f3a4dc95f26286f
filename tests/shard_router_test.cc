// ShardRouter unit tests (src/online/shard_router.h): the routing layer
// that keeps every connected component of the shared-property graph on one
// shard, which is what makes sharded serving byte-equivalent to a single
// engine (Observation 3.2 — independent components solve independently).
//
// Pinned here: hash placement is stable across runs, cross-shard batches
// split so a query appears at most once per shard (never as both an add
// and a remove), group merges migrate the smaller side deterministically,
// and AdoptAssignment (sharded snapshot recovery) rejects placements that
// split a component across shards.
#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/property_set.h"
#include "online/shard_router.h"
#include "util/status.h"

namespace mc3::online {
namespace {

PropertySet Q(std::initializer_list<PropertyId> ids) {
  return PropertySet::Of(ids);
}

/// Finds a fresh two-property query (properties >= `start`, consumed in
/// pairs) whose hash placement on a pristine `num_shards` router is
/// `want`. Placement of a group nobody has touched depends only on the
/// query's own hash, so a probe router predicts the real one.
PropertySet FreshQueryOnShard(uint32_t num_shards, uint32_t want,
                              PropertyId start) {
  for (PropertyId p = start;; p += 2) {
    const PropertySet q = Q({p, static_cast<PropertyId>(p + 1)});
    ShardRouter probe(num_shards);
    probe.Route({q}, {});
    if (probe.ShardOf(q) == want) return q;
  }
}

/// Canonical byte rendering of a route plan, for whole-plan equality.
std::string Render(const RoutePlan& plan) {
  std::string out;
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    out += "shard" + std::to_string(s) + "{-";
    for (const PropertySet& q : plan.shards[s].remove) out += q.ToString() + ",";
    out += "|+";
    for (const PropertySet& q : plan.shards[s].add) out += q.ToString() + ",";
    out += "}";
  }
  out.append("m").append(std::to_string(plan.migrated));
  out.append("a").append(std::to_string(plan.queries_added));
  out.append("r").append(std::to_string(plan.queries_removed));
  out.append("d").append(std::to_string(plan.duplicate_adds));
  out.append("x").append(std::to_string(plan.missing_removes));
  return out;
}

TEST(ShardRouterTest, PlansAreIdenticalAcrossRuns) {
  // The same batch history must route identically in two independent
  // router instances — recovery replays depend on it.
  const std::vector<std::pair<std::vector<PropertySet>, std::vector<PropertySet>>>
      history = {
          {{Q({0, 1}), Q({4, 5}), Q({8, 9})}, {}},
          {{Q({1, 2}), Q({5, 6})}, {Q({8, 9})}},
          {{Q({8, 9}), Q({2, 4})}, {Q({0, 1})}},
      };
  ShardRouter a(4);
  ShardRouter b(4);
  for (const auto& [add, remove] : history) {
    EXPECT_EQ(Render(a.Route(add, remove)), Render(b.Route(add, remove)));
  }
  ASSERT_TRUE(a.CheckInvariants().ok());
  for (const auto& [add, remove] : history) {
    for (const PropertySet& q : add) EXPECT_EQ(a.ShardOf(q), b.ShardOf(q));
  }
}

TEST(ShardRouterTest, FreshPlacementIgnoresUnrelatedHistory) {
  // A group over untouched properties is placed by its own hash, no matter
  // what else the router has seen — the property that makes the probe in
  // FreshQueryOnShard (and loadgen's disjoint tenants) meaningful.
  const PropertySet fresh = Q({40, 41});
  ShardRouter bare(4);
  bare.Route({fresh}, {});
  ShardRouter busy(4);
  busy.Route({Q({0, 1}), Q({2, 3}), Q({4, 5})}, {});
  busy.Route({Q({6, 7})}, {Q({2, 3})});
  busy.Route({fresh}, {});
  EXPECT_EQ(busy.ShardOf(fresh), bare.ShardOf(fresh));
}

TEST(ShardRouterTest, ConnectedQueriesAllLandOnOneShard) {
  // A property chain is one component: with 7 shards, every query must sit
  // on the same shard and the other six plans stay empty.
  ShardRouter router(7);
  const std::vector<PropertySet> chain = {Q({0, 1}), Q({1, 2}), Q({2, 3}),
                                          Q({3, 4})};
  const RoutePlan plan = router.Route(chain, {});
  const uint32_t home = router.ShardOf(chain[0]);
  ASSERT_LT(home, 7u);
  size_t non_empty = 0;
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    if (!plan.shards[s].empty()) {
      ++non_empty;
      EXPECT_EQ(s, home);
      EXPECT_EQ(plan.shards[s].add.size(), chain.size());
      EXPECT_TRUE(plan.shards[s].remove.empty());
    }
  }
  EXPECT_EQ(non_empty, 1u);
  for (const PropertySet& q : chain) EXPECT_EQ(router.ShardOf(q), home);
  ASSERT_TRUE(router.CheckInvariants().ok());
}

TEST(ShardRouterTest, CrossShardBatchSplitsByOwnerWithDisjointOps) {
  // Seed queries spread over shards 0..2, then a mixed batch: each remove
  // must land on its owner's shard, each add on its hash shard, and no
  // shard may list a query as both an add and a remove (removes-before-
  // adds per shard is trivially safe when the sets are disjoint).
  ShardRouter router(4);
  const PropertySet on0 = FreshQueryOnShard(4, 0, 100);
  const PropertySet on1 = FreshQueryOnShard(4, 1, 200);
  const PropertySet on2 = FreshQueryOnShard(4, 2, 300);
  router.Route({on0, on1, on2}, {});
  ASSERT_EQ(router.ShardOf(on0), 0u);
  ASSERT_EQ(router.ShardOf(on1), 1u);
  ASSERT_EQ(router.ShardOf(on2), 2u);

  const PropertySet fresh3 = FreshQueryOnShard(4, 3, 400);
  const RoutePlan plan = router.Route({fresh3}, {on0, on2});
  EXPECT_EQ(plan.queries_added, 1u);
  EXPECT_EQ(plan.queries_removed, 2u);
  EXPECT_EQ(plan.migrated, 0u);
  ASSERT_EQ(plan.shards.size(), 4u);
  EXPECT_EQ(plan.shards[0].remove, std::vector<PropertySet>{on0});
  EXPECT_TRUE(plan.shards[0].add.empty());
  EXPECT_TRUE(plan.shards[1].empty());
  EXPECT_EQ(plan.shards[2].remove, std::vector<PropertySet>{on2});
  EXPECT_TRUE(plan.shards[2].add.empty());
  EXPECT_EQ(plan.shards[3].add, std::vector<PropertySet>{fresh3});
  EXPECT_TRUE(plan.shards[3].remove.empty());
  for (const ShardOps& ops : plan.shards) {
    for (const PropertySet& q : ops.add) {
      EXPECT_EQ(std::count(ops.remove.begin(), ops.remove.end(), q), 0)
          << "a query may not appear as both add and remove on one shard";
    }
  }
  ASSERT_TRUE(router.CheckInvariants().ok());
}

TEST(ShardRouterTest, SameBatchFlipNetsToNothing) {
  // remove+add of a live query in one batch nets out (the engine-side
  // coalescer already nets batches; the router must not resurrect the
  // pair as real per-shard ops).
  ShardRouter router(4);
  const PropertySet q = Q({0, 1});
  router.Route({q}, {});
  const uint32_t home = router.ShardOf(q);
  const RoutePlan plan = router.Route({q}, {q});
  for (const ShardOps& ops : plan.shards) EXPECT_TRUE(ops.empty());
  EXPECT_EQ(plan.queries_added, 0u);
  EXPECT_EQ(plan.queries_removed, 0u);
  EXPECT_EQ(plan.duplicate_adds, 1u);  // the add found the query still live
  EXPECT_TRUE(router.IsLive(q));
  EXPECT_EQ(router.ShardOf(q), home);
  ASSERT_TRUE(router.CheckInvariants().ok());
}

TEST(ShardRouterTest, UnknownRemovesAndDuplicateAddsAreCountedAndDropped) {
  ShardRouter router(2);
  const PropertySet live = Q({0, 1});
  router.Route({live}, {});
  const RoutePlan plan =
      router.Route({live, Q({4, 5}), Q({4, 5})}, {Q({8, 9})});
  EXPECT_EQ(plan.duplicate_adds, 2u);   // live re-add + in-batch repeat
  EXPECT_EQ(plan.missing_removes, 1u);  // {8,9} was never live
  EXPECT_EQ(plan.queries_added, 1u);    // only {4,5} takes effect
  EXPECT_EQ(plan.queries_removed, 0u);
  ASSERT_TRUE(router.CheckInvariants().ok());
}

TEST(ShardRouterTest, MergeMigratesTheSmallerGroupToTheLarger) {
  // Group A (2 live queries) and group B (1) on different shards; a
  // bridging add merges them. The winner is the shard with more live
  // queries, and B's query is emitted as a remove on its old shard plus an
  // add on the winner.
  ShardRouter router(4);
  const PropertySet a1 = FreshQueryOnShard(4, 0, 100);
  const PropertySet a2 =
      Q({a1.ids().front(), 500});  // shares a property: joins A's group
  const PropertySet b1 = FreshQueryOnShard(4, 1, 600);
  router.Route({a1, a2, b1}, {});
  ASSERT_EQ(router.ShardOf(a2), 0u);
  ASSERT_EQ(router.ShardOf(b1), 1u);

  const PropertySet bridge = Q({500, b1.ids().front()});
  const RoutePlan plan = router.Route({bridge}, {});
  EXPECT_EQ(plan.migrated, 1u);
  EXPECT_EQ(plan.queries_added, 1u);
  EXPECT_EQ(plan.shards[1].remove, std::vector<PropertySet>{b1});
  ASSERT_EQ(plan.shards[0].add.size(), 2u);  // the bridge and the migrant
  EXPECT_NE(std::find(plan.shards[0].add.begin(), plan.shards[0].add.end(), b1),
            plan.shards[0].add.end());
  for (const PropertySet& q : {a1, a2, b1, bridge}) {
    EXPECT_EQ(router.ShardOf(q), 0u);
  }
  ASSERT_TRUE(router.CheckInvariants().ok());
}

TEST(ShardRouterTest, MergeTieBreaksToTheSmallestShardIndex) {
  ShardRouter router(4);
  const PropertySet on2 = FreshQueryOnShard(4, 2, 100);
  const PropertySet on1 = FreshQueryOnShard(4, 1, 300);
  router.Route({on2, on1}, {});
  const PropertySet bridge = Q({on2.ids().front(), on1.ids().front()});
  const RoutePlan plan = router.Route({bridge}, {});
  EXPECT_EQ(router.ShardOf(bridge), 1u);  // equal sizes: lowest index wins
  EXPECT_EQ(plan.migrated, 1u);
  EXPECT_EQ(plan.shards[2].remove, std::vector<PropertySet>{on2});
  EXPECT_EQ(router.ShardOf(on2), 1u);
  ASSERT_TRUE(router.CheckInvariants().ok());
}

TEST(ShardRouterTest, ReAddedPropertiesRejoinTheirOldShard) {
  // Connectivity is monotone: removing a group's last live query must not
  // forget its placement, or a remove+re-add replay could land the same
  // component somewhere else mid-history.
  ShardRouter router(4);
  const PropertySet q = FreshQueryOnShard(4, 2, 100);
  router.Route({q}, {});
  router.Route({}, {q});
  EXPECT_FALSE(router.IsLive(q));
  // A different query over the same properties — not a re-add of q.
  const PropertySet sibling = Q({q.ids().front()});
  router.Route({sibling}, {});
  EXPECT_EQ(router.ShardOf(sibling), 2u);
  ASSERT_TRUE(router.CheckInvariants().ok());
}

TEST(ShardRouterTest, AdoptAssignmentRoundTripsPlacementAndRouting) {
  // Snapshot recovery: adopting a churned router's live placement into a
  // fresh router must reproduce ShardOf everywhere, and route the next
  // batch identically.
  ShardRouter original(4);
  original.Route({Q({0, 1}), Q({4, 5}), Q({8, 9}), Q({1, 2})}, {});
  original.Route({Q({12, 13})}, {Q({4, 5})});

  std::vector<std::vector<PropertySet>> live_by_shard(4);
  const std::vector<PropertySet> live = {Q({0, 1}), Q({8, 9}), Q({1, 2}),
                                         Q({12, 13})};
  for (const PropertySet& q : live) {
    live_by_shard[original.ShardOf(q)].push_back(q);
  }

  ShardRouter adopted(4);
  ASSERT_TRUE(adopted.AdoptAssignment(live_by_shard).ok());
  ASSERT_TRUE(adopted.CheckInvariants().ok());
  EXPECT_EQ(adopted.num_live(), original.num_live());
  for (const PropertySet& q : live) {
    EXPECT_EQ(adopted.ShardOf(q), original.ShardOf(q));
  }
  // Follow-up routing agrees for ops touching live groups or fresh
  // properties. (Dead groups are the one thing adoption cannot restore: a
  // snapshot records only live queries, so the removed {4,5} group's old
  // placement is forgotten — which is fine, because placement never leaks
  // into the canonical state bytes.)
  const std::vector<PropertySet> next_add = {Q({2, 3}), Q({9, 10})};
  const std::vector<PropertySet> next_remove = {Q({0, 1})};
  EXPECT_EQ(Render(adopted.Route(next_add, next_remove)),
            Render(original.Route(next_add, next_remove)));
}

TEST(ShardRouterTest, AdoptAssignmentRejectsSplitComponents) {
  // {0,1} and {1,2} share property 1 — placing them on different shards
  // violates the co-location invariant and must be refused (a snapshot
  // like this cannot have been written by this code).
  ShardRouter router(2);
  const Status status = router.AdoptAssignment({{Q({0, 1})}, {Q({1, 2})}});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("splits connected queries"),
            std::string::npos)
      << status.ToString();
}

TEST(ShardRouterTest, AdoptAssignmentRejectsRepeatedQueriesAndBadShape) {
  ShardRouter router(2);
  EXPECT_FALSE(router.AdoptAssignment({{Q({0, 1})}, {Q({0, 1})}}).ok());
  ShardRouter fresh(2);
  EXPECT_FALSE(fresh.AdoptAssignment({{Q({0, 1})}}).ok());  // 1 list, 2 shards
}

}  // namespace
}  // namespace mc3::online
