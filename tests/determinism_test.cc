// Determinism regression tests (lint rule R1's dynamic complement, see
// docs/static_analysis.md): the same logical instance, built with shuffled
// insertion histories, must produce byte-identical solutions. Unordered
// containers iterate in an order that depends on how their content was
// inserted, so any solver path that lets that order leak into tie-breaks or
// solution assembly fails these tests.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact_solver.h"
#include "core/general_solver.h"
#include "core/instance.h"
#include "core/instance_util.h"
#include "core/k2_solver.h"
#include "core/solution.h"
#include "durability/snapshot.h"
#include "obs/metrics.h"
#include "online/online_engine.h"
#include "server/coalescer.h"
#include "tests/test_util.h"
#include "util/float_cmp.h"
#include "util/rng.h"

namespace mc3 {
namespace {

using testing::RandomInstanceConfig;

/// The sorted (query, cost-entry) content of a seeded random instance:
/// distinct generic costs, so the optimum is unique and any ordering bug
/// shows up as a different solution, not a cost tie.
struct InstanceContent {
  std::vector<PropertySet> queries;
  std::vector<std::pair<PropertySet, Cost>> cost_entries;
};

InstanceContent SeededContent(uint64_t seed, size_t num_queries = 8) {
  RandomInstanceConfig config;
  config.num_queries = num_queries;
  config.pool = 9;
  config.max_query_length = 3;
  config.zero_probability = 0;
  const Instance base = testing::RandomInstance(config, seed);
  InstanceContent content;
  content.queries = base.queries();
  content.cost_entries = SortedCostEntries(base.costs());
  // Perturb costs to be pairwise distinct (generic costs => unique optimum)
  // while keeping them comparable in magnitude.
  Cost bump = 0;
  for (auto& [classifier, cost] : content.cost_entries) {
    bump += 1.0 / 1024;
    cost += bump;
  }
  return content;
}

/// Builds the instance inserting cost entries (and optionally queries) in
/// the order given by `perm_seed` — same logical instance, different
/// unordered_map insertion history.
Instance BuildShuffled(const InstanceContent& content, uint64_t perm_seed,
                       bool shuffle_queries) {
  std::vector<size_t> cost_order(content.cost_entries.size());
  std::iota(cost_order.begin(), cost_order.end(), size_t{0});
  std::vector<size_t> query_order(content.queries.size());
  std::iota(query_order.begin(), query_order.end(), size_t{0});
  Rng rng(perm_seed);
  for (size_t i = cost_order.size(); i > 1; --i) {
    std::swap(cost_order[i - 1],
              cost_order[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
  }
  if (shuffle_queries) {
    for (size_t i = query_order.size(); i > 1; --i) {
      std::swap(query_order[i - 1],
                query_order[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
    }
  }
  Instance instance;
  for (size_t qi : query_order) instance.AddQuery(content.queries[qi]);
  for (size_t ci : cost_order) {
    instance.SetCost(content.cost_entries[ci].first, content.cost_entries[ci].second);
  }
  return instance;
}

/// Canonical byte rendering of a solution: sorted classifiers + total cost
/// at full precision.
std::string Canonical(const Solution& solution, const Instance& instance) {
  std::vector<PropertySet> sorted = solution.classifiers();
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const PropertySet& c : sorted) out += c.ToString() + ";";
  char cost[64];
  std::snprintf(cost, sizeof(cost), "%.17g",
                solution.TotalCost(instance));
  return out + cost;
}

/// `state` with its components sorted by their (distinct) smallest query.
/// Engines that reached one live set through different histories number
/// their components differently; nothing else of the export differs.
online::EngineState Canonicalized(online::EngineState state) {
  std::sort(state.components.begin(), state.components.end(),
            [](const online::EngineState::Component& a,
               const online::EngineState::Component& b) {
              return a.queries < b.queries;
            });
  return state;
}

template <typename SolverT>
void ExpectSolverDeterministic(uint64_t seed) {
  const InstanceContent content = SeededContent(seed);
  std::string first_canonical;
  std::string first_tostring;
  for (uint64_t perm = 0; perm < 4; ++perm) {
    const Instance instance =
        BuildShuffled(content, /*perm_seed=*/perm * 71 + 5,
                      /*shuffle_queries=*/false);
    auto result = SolverT().Solve(instance);
    ASSERT_TRUE(result.ok()) << result.status().message();
    // Identical query order + shuffled cost-table history must yield a
    // byte-identical solution, including classifier insertion order.
    const std::string rendered = result->solution.ToString(instance);
    const std::string canonical = Canonical(result->solution, instance);
    if (perm == 0) {
      first_tostring = rendered;
      first_canonical = canonical;
    } else {
      EXPECT_EQ(rendered, first_tostring) << "seed " << seed;
      EXPECT_EQ(canonical, first_canonical) << "seed " << seed;
    }
  }
  // Shuffling the query list is a semantic reordering: the classifier set
  // and cost must still match (canonical compare, not insertion order).
  for (uint64_t perm = 0; perm < 2; ++perm) {
    const Instance instance =
        BuildShuffled(content, /*perm_seed=*/perm * 131 + 17,
                      /*shuffle_queries=*/true);
    auto result = SolverT().Solve(instance);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(Canonical(result->solution, instance), first_canonical)
        << "seed " << seed;
  }
}

TEST(DeterminismTest, ExactSolver) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    ExpectSolverDeterministic<ExactSolver>(seed);
  }
}

TEST(DeterminismTest, GeneralSolver) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    ExpectSolverDeterministic<GeneralSolver>(seed);
  }
}

TEST(DeterminismTest, K2Solver) {
  // K2 requires max query length 2.
  RandomInstanceConfig config;
  config.num_queries = 8;
  config.pool = 7;
  config.max_query_length = 2;
  config.zero_probability = 0;
  const Instance base = testing::RandomInstance(config, 31);
  InstanceContent content;
  content.queries = base.queries();
  content.cost_entries = SortedCostEntries(base.costs());
  Cost bump = 0;
  for (auto& [classifier, cost] : content.cost_entries) {
    bump += 1.0 / 1024;
    cost += bump;
  }
  std::string first;
  for (uint64_t perm = 0; perm < 4; ++perm) {
    const Instance instance = BuildShuffled(content, perm * 37 + 3,
                                            /*shuffle_queries=*/false);
    auto result = K2ExactSolver().Solve(instance);
    ASSERT_TRUE(result.ok()) << result.status().message();
    const std::string rendered =
        result->solution.ToString(instance) + "|" +
        Canonical(result->solution, instance);
    if (perm == 0) {
      first = rendered;
    } else {
      EXPECT_EQ(rendered, first);
    }
  }
}

TEST(DeterminismTest, OnlineEngineInitializeAndSolution) {
  const InstanceContent content = SeededContent(41);
  std::string first;
  for (uint64_t perm = 0; perm < 4; ++perm) {
    const Instance instance = BuildShuffled(content, perm * 53 + 7,
                                            /*shuffle_queries=*/false);
    online::OnlineEngine engine;
    auto stats = engine.Initialize(instance);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
    const std::string rendered =
        Canonical(engine.CurrentSolution(), instance);
    if (perm == 0) {
      first = rendered;
    } else {
      EXPECT_EQ(rendered, first);
    }
  }
}

/// One update operation as a client sends it.
struct Op {
  std::vector<PropertySet> add;
  std::vector<PropertySet> remove;
};

/// A churn run over live queries: removes, re-adds, a duplicate add and a
/// remove-then-re-add flip, spread over several components.
std::vector<Op> CoalescingRun(const std::vector<PropertySet>& qs) {
  return {
      {{}, {qs[0]}}, {{}, {qs[2]}}, {{qs[0]}, {}}, {{}, {qs[4]}},
      {{qs[2]}, {}}, {{qs[0]}, {}},  // duplicate add: idempotent
      {{qs[7]}, {qs[7]}},            // same-op flip: nets to an add
  };
}

// The serving subsystem's coalescing contract (src/server/coalescer.h):
// folding a run of updates into one net ApplyUpdate batch must produce a
// byte-identical solution to applying the run one operation at a time —
// the engine re-solves dirty components deterministically from the live
// set alone, and the fold preserves the final live set exactly.
TEST(DeterminismTest, CoalescedBatchMatchesSequentialUpdates) {
  const InstanceContent content = SeededContent(83, /*num_queries=*/10);
  const Instance base =
      BuildShuffled(content, 11, /*shuffle_queries=*/false);
  const std::vector<Op> ops = CoalescingRun(content.queries);

  online::OnlineEngine sequential;
  ASSERT_TRUE(sequential.Initialize(base).ok());
  for (const Op& op : ops) {
    auto stats = sequential.ApplyUpdate(op.add, op.remove);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
  }

  online::OnlineEngine batched;
  ASSERT_TRUE(batched.Initialize(base).ok());
  server::UpdateCoalescer coalescer;
  for (const Op& op : ops) coalescer.Fold(op.add, op.remove);
  const server::NetUpdate net = coalescer.Take();
  EXPECT_EQ(net.ops, 8u);  // 8 source query-ops folded (one op is add+remove)
  auto stats = batched.ApplyUpdate(net.add, net.remove);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_LE(stats->queries_removed + stats->queries_added, 4u);

  ASSERT_TRUE(sequential.CheckInvariants().ok());
  ASSERT_TRUE(batched.CheckInvariants().ok());
  EXPECT_EQ(sequential.NumQueries(), batched.NumQueries());
  EXPECT_EQ(Canonical(sequential.CurrentSolution(), base),
            Canonical(batched.CurrentSolution(), base));
  // The whole state too: live queries, stored solutions and costs per
  // component, as a snapshot renders them.
  EXPECT_EQ(
      durability::RenderSnapshot(Canonicalized(batched.ExportState()), 1),
      durability::RenderSnapshot(Canonicalized(sequential.ExportState()), 1));
}

/// `v1`, a RenderSnapshot document, rewritten in the sharded-layout schema
/// (mc3.snapshot/2) that earlier builds wrote: `"shards": shards` after the
/// sequence number and component i tagged with shard i % shards.
std::string AsShardedDocument(std::string v1, uint32_t shards) {
  const std::string schema = "\"mc3.snapshot/1\"";
  v1.replace(v1.find(schema), schema.size(), "\"mc3.snapshot/2\"");
  v1.insert(v1.find('\n', v1.find("\"seq\":")) + 1,
            "  \"shards\": " + std::to_string(shards) + ",\n");
  // Each component closes with its "cost" line; the price table above
  // uses the same key, so the search starts at "components".
  size_t at = v1.find("\"components\":");
  for (uint32_t i = 0;
       (at = v1.find("\n      \"cost\":", at)) != std::string::npos; ++i) {
    at = v1.find('\n', at + 1);
    const std::string tag =
        ",\n      \"shard\": " + std::to_string(i % shards);
    v1.insert(at, tag);
    at += tag.size();
  }
  return v1;
}

// The serving-path composition after an upgrade: a data directory
// checkpointed by a sharded server restores from its mc3.snapshot/2
// document into the one engine, which then serves coalesced net batches.
// It must land on the single sequential engine's bytes.
TEST(DeterminismTest, ShardedCoalescedBatchMatchesSequentialUpdates) {
  const InstanceContent content = SeededContent(83, /*num_queries=*/10);
  Instance base = BuildShuffled(content, 11, /*shuffle_queries=*/false);
  // Snapshot documents carry property names; SeededContent draws ids from a
  // pool of 9.
  std::vector<std::string> names;
  for (int p = 0; p < 9; ++p) names.push_back("p" + std::to_string(p));
  base.set_property_names(std::move(names));
  const std::vector<Op> ops = CoalescingRun(content.queries);

  online::OnlineEngine sequential;
  ASSERT_TRUE(sequential.Initialize(base).ok());
  for (const Op& op : ops) {
    ASSERT_TRUE(sequential.ApplyUpdate(op.add, op.remove).ok());
  }

  online::OnlineEngine source;
  ASSERT_TRUE(source.Initialize(base).ok());
  const std::string v1 = durability::RenderSnapshot(source.ExportState(), 1);
  auto parsed = durability::ParseSnapshot(AsShardedDocument(v1, 4));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_GT(parsed->state.components.size(), 1u);
  // The layout is dropped on load: what remains is the v1 state.
  EXPECT_EQ(durability::RenderSnapshot(parsed->state, 1), v1);

  online::OnlineEngine batched;
  ASSERT_TRUE(batched.ImportState(parsed->state).ok());
  server::UpdateCoalescer coalescer;
  for (const Op& op : ops) coalescer.Fold(op.add, op.remove);
  const server::NetUpdate net = coalescer.Take();
  ASSERT_TRUE(batched.ApplyUpdate(net.add, net.remove).ok());

  ASSERT_TRUE(batched.CheckInvariants().ok());
  EXPECT_EQ(batched.NumQueries(), sequential.NumQueries());
  EXPECT_EQ(Canonical(batched.CurrentSolution(), base),
            Canonical(sequential.CurrentSolution(), base));
  EXPECT_EQ(
      durability::RenderSnapshot(Canonicalized(batched.ExportState()), 1),
      durability::RenderSnapshot(Canonicalized(sequential.ExportState()), 1));
}

// The contract online re-solve ordering relies on: component ids are
// assigned in first-appearance order over the (sorted) query indices, i.e.
// components are numbered by their smallest member query index.
TEST(DeterminismTest, PartitionQueriesNumbersComponentsByFirstAppearance) {
  const InstanceContent content = SeededContent(71, /*num_queries=*/12);
  const Instance instance =
      BuildShuffled(content, 3, /*shuffle_queries=*/false);
  const ComponentPartition partition = PartitionQueries(instance.queries());
  size_t next_fresh_id = 0;
  for (size_t idx = 0; idx < partition.component_of.size(); ++idx) {
    const size_t cid = partition.component_of[idx];
    ASSERT_LE(cid, next_fresh_id) << "component ids must appear in order";
    if (cid == next_fresh_id) ++next_fresh_id;
  }
  EXPECT_EQ(next_fresh_id, partition.num_components);
}

TEST(DeterminismTest, SortedCostEntriesIsCanonical) {
  const InstanceContent content = SeededContent(51);
  const Instance a = BuildShuffled(content, 1, /*shuffle_queries=*/false);
  const Instance b = BuildShuffled(content, 2, /*shuffle_queries=*/false);
  const auto ea = SortedCostEntries(a.costs());
  const auto eb = SortedCostEntries(b.costs());
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_TRUE(ea[i].first == eb[i].first);
    EXPECT_TRUE(ApproxEq(ea[i].second, eb[i].second));
  }
}

// The preprocessing pipeline inside GeneralSolver covers the Preprocessor;
// exercise the zero-cost forced-selection path explicitly (its selection
// order reaches the forced Solution).
TEST(DeterminismTest, ZeroCostSelectionOrder) {
  InstanceContent content = SeededContent(61);
  // Make a third of the classifiers free: forced selections in step one.
  for (size_t i = 0; i < content.cost_entries.size(); i += 3) {
    content.cost_entries[i].second = 0;
  }
  std::string first;
  for (uint64_t perm = 0; perm < 4; ++perm) {
    const Instance instance = BuildShuffled(content, perm * 19 + 1,
                                            /*shuffle_queries=*/false);
    auto result = GeneralSolver().Solve(instance);
    ASSERT_TRUE(result.ok()) << result.status().message();
    const std::string rendered = result->solution.ToString(instance) + "|" +
                                 Canonical(result->solution, instance);
    if (perm == 0) {
      first = rendered;
    } else {
      EXPECT_EQ(rendered, first);
    }
  }
}

/// Net churn batches (coalescer-shaped: add/remove disjoint per batch)
/// over the seeded content's queries, spanning several components.
struct NetBatch {
  std::vector<PropertySet> add;
  std::vector<PropertySet> remove;
};

std::vector<NetBatch> ChurnBatches(const std::vector<PropertySet>& qs) {
  return {
      {{}, {qs[1], qs[3]}},            // shrink two components
      {{qs[1]}, {qs[5]}},              // re-add one, drop another
      {{qs[3], qs[5]}, {}},            // restore both
      {{}, {qs[0], qs[2]}},            // more shrinking
      {{qs[0]}, {qs[4]}},              // interleaved re-add + remove
  };
}

TEST(DeterminismTest, OnlineEngineChurnAcrossShuffledHistories) {
  // Shuffled cost-table insertion histories must not leak into the
  // engine's exported state after churn: same snapshot bytes for every
  // permutation, component order included.
  const InstanceContent content = SeededContent(113, /*num_queries=*/10);
  std::string first;
  for (uint64_t perm = 0; perm < 3; ++perm) {
    const Instance base = BuildShuffled(content, perm * 61 + 29,
                                        /*shuffle_queries=*/false);
    online::OnlineEngine engine;
    ASSERT_TRUE(engine.Initialize(base).ok());
    for (const NetBatch& batch : ChurnBatches(content.queries)) {
      ASSERT_TRUE(engine.ApplyUpdate(batch.add, batch.remove).ok());
    }
    ASSERT_TRUE(engine.CheckInvariants().ok());
    const std::string bytes =
        durability::RenderSnapshot(engine.ExportState(), 1);
    if (first.empty()) {
      first = bytes;
    } else {
      EXPECT_EQ(bytes, first) << "perm " << perm;
    }
  }
}

/// Canonical byte rendering of the registry's counters after one solve of
/// `instance` from a zeroed registry. Gauges and histograms are excluded on
/// purpose: they carry wall-clock readings, which are not deterministic.
template <typename SolverT>
std::string SolveCounters(const Instance& instance) {
  obs::MetricsRegistry::Global().ResetAll();
  auto result = SolverT().Solve(instance);
  EXPECT_TRUE(result.ok()) << result.status().message();
  std::string out;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().Snap().counters) {
    if (value != 0) out += name + "=" + std::to_string(value) + ";";
  }
  return out;
}

// The bench regression gate (mc3_benchdiff) compares work counters exactly,
// so they must be byte-identical run over run.
TEST(DeterminismTest, WorkCountersStableAcrossRepeatedSolves) {
  const InstanceContent content = SeededContent(81);
  const Instance instance =
      BuildShuffled(content, 5, /*shuffle_queries=*/false);
  const std::string first = SolveCounters<GeneralSolver>(instance);
  // This seed is fully solved by preprocessing, so the always-on
  // preprocess counters are the ones guaranteed to be present.
  EXPECT_NE(first.find("preprocess.runs="), std::string::npos) << first;
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(SolveCounters<GeneralSolver>(instance), first) << "rep " << rep;
  }
}

TEST(DeterminismTest, WorkCountersStableAcrossShuffledHistories) {
  const InstanceContent content = SeededContent(91);
  std::string first;
  for (uint64_t perm = 0; perm < 4; ++perm) {
    // Same logical instance and query order, shuffled cost-table insertion
    // history: the operation counts must not see the container order.
    const Instance instance = BuildShuffled(content, perm * 29 + 11,
                                            /*shuffle_queries=*/false);
    const std::string counters = SolveCounters<GeneralSolver>(instance);
    if (perm == 0) {
      first = counters;
    } else {
      EXPECT_EQ(counters, first) << "perm " << perm;
    }
  }
}

TEST(DeterminismTest, K2FlowCountersStableAcrossShuffledHistories) {
  RandomInstanceConfig config;
  config.num_queries = 10;
  config.pool = 7;
  config.max_query_length = 2;
  config.zero_probability = 0;
  const Instance base = testing::RandomInstance(config, 101);
  InstanceContent content;
  content.queries = base.queries();
  content.cost_entries = SortedCostEntries(base.costs());
  std::string first;
  for (uint64_t perm = 0; perm < 4; ++perm) {
    const Instance instance = BuildShuffled(content, perm * 43 + 9,
                                            /*shuffle_queries=*/false);
    const std::string counters = SolveCounters<K2ExactSolver>(instance);
    if (perm == 0) {
      first = counters;
    } else {
      EXPECT_EQ(counters, first) << "perm " << perm;
    }
  }
}

}  // namespace
}  // namespace mc3
