// Differential tests for every caller that walks queries over a
// ClassifierStore instead of probing each subset: each must equal the
// per-subset definition (tests/test_util.h) on seeded instances. Plus
// recorded digests of generated instances, which are the benchmark's
// inputs and must not move when the pricing loops change.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/classifier_table.h"
#include "core/general_solver.h"
#include "core/instance.h"
#include "core/instance_util.h"
#include "core/k2_solver.h"
#include "core/short_first_solver.h"
#include "data/io.h"
#include "data/private_dataset.h"
#include "data/query_log.h"
#include "data/synthetic.h"
#include "obs/trace.h"
#include "online/churn.h"
#include "online/online_engine.h"
#include "tests/test_util.h"
#include "util/crc32.h"

namespace mc3 {
namespace {

using testing::EntriesInIdOrder;
using testing::PS;
using testing::ReferencePrices;
using testing::ReferencePricedSubsets;

/// Seeded instances with k <= 8: shared, unpriced and zero-priced subsets.
Instance CallerInstance(uint64_t seed, size_t max_length = 8) {
  testing::RandomInstanceConfig config;
  config.num_queries = 30;
  config.pool = 11;
  config.max_query_length = max_length;
  config.priced_probability = 0.5;
  config.zero_probability = 0.1;
  return testing::RandomInstance(config, seed);
}

/// `queries` priced per subset from `from`, in ForEachNonEmptySubset order,
/// keeping the subsets `keep` accepts.
template <typename Keep>
Instance ReferenceRestriction(const Instance& from,
                              const std::vector<PropertySet>& queries,
                              const Keep& keep) {
  const auto prices = ReferencePrices(from.costs());
  Instance out;
  for (const PropertySet& q : queries) out.AddQuery(q);
  for (const PropertySet& q : queries) {
    for (const testing::PricedSubset& s : ReferencePricedSubsets(prices, q)) {
      if (keep(s.classifier)) out.SetCost(s.classifier, s.cost);
    }
  }
  return out;
}

TEST(StoreCallersTest, SubInstanceMatchesThePerSubsetReference) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const Instance instance = CallerInstance(seed);
    Rng rng(seed + 3);
    std::vector<size_t> picked;
    std::vector<PropertySet> queries;
    for (size_t i = 0; i < instance.NumQueries(); ++i) {
      if (rng.Bernoulli(0.5)) {
        picked.push_back(i);
        queries.push_back(instance.queries()[i]);
      }
    }
    const Instance sub = SubInstance(instance, picked);
    const Instance expected = ReferenceRestriction(
        instance, queries, [](const PropertySet&) { return true; });
    EXPECT_EQ(sub.queries(), expected.queries());
    EXPECT_EQ(EntriesInIdOrder(sub.costs()), EntriesInIdOrder(expected.costs()))
        << "seed " << seed;
  }
}

TEST(StoreCallersTest, BoundClassifierLengthMatchesThePerSubsetReference) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const Instance instance = CallerInstance(seed);
    for (size_t bound : {1u, 2u, 4u}) {
      const Instance bounded = BoundClassifierLength(instance, bound);
      const Instance expected = ReferenceRestriction(
          instance, instance.queries(),
          [&](const PropertySet& c) { return c.size() <= bound; });
      EXPECT_EQ(EntriesInIdOrder(bounded.costs()),
                EntriesInIdOrder(expected.costs()))
          << "seed " << seed << " bound " << bound;
    }
  }
}

TEST(StoreCallersTest, PriceAllClassifiersMatchesThePerSubsetReference) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const Instance base = CallerInstance(seed, 6);
    // A price that depends on the call order, and leaves every third
    // subset unpriced, so order and skipped draws both show.
    std::vector<PropertySet> calls;
    const auto cost_fn = [&](const PropertySet& c) -> Cost {
      calls.push_back(c);
      return calls.size() % 3 == 0 ? kInfiniteCost
                                   : static_cast<Cost>(calls.size());
    };
    const auto queries_only = [&] {
      InstanceBuilder builder;
      for (const PropertySet& q : base.queries()) {
        std::vector<std::string> names;
        for (PropertyId p : q) names.push_back("p" + std::to_string(p));
        builder.AddQuery(names);
      }
      return builder;
    };
    InstanceBuilder priced_builder = queries_only();
    priced_builder.PriceAllClassifiers(cost_fn);
    const Instance priced = std::move(priced_builder).Build();
    const std::vector<PropertySet> library_calls = calls;

    calls.clear();
    Instance reference = queries_only().Build();
    for (const PropertySet& q : reference.queries()) {
      ForEachNonEmptySubset(q, [&](const PropertySet& sub) {
        if (IsInfiniteCost(reference.CostOf(sub))) {
          reference.SetCost(sub, cost_fn(sub));
        }
      });
    }
    EXPECT_EQ(library_calls, calls) << "seed " << seed;
    EXPECT_EQ(EntriesInIdOrder(priced.costs()),
              EntriesInIdOrder(reference.costs()))
        << "seed " << seed;
  }
}

TEST(StoreCallersTest, IncidenceMatchesThePerSubsetReference) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const Instance instance = CallerInstance(seed);
    const auto prices = ReferencePrices(instance.costs());
    std::map<PropertySet, size_t> counts;
    for (const PropertySet& q : instance.queries()) {
      for (const testing::PricedSubset& s : ReferencePricedSubsets(prices, q)) {
        ++counts[s.classifier];
      }
    }
    size_t expected = 0;
    for (const auto& [classifier, count] : counts) {
      expected = std::max(expected, count);
    }
    EXPECT_EQ(instance.Incidence(), expected) << "seed " << seed;
  }
  EXPECT_EQ(Instance().Incidence(), 0u);
}

TEST(StoreCallersTest, EstimateCostsMatchesThePerSubsetReference) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Instance instance = CallerInstance(seed, 6);
    std::vector<std::string> names;
    for (PropertyId p = 0; p < 11; ++p) {
      names.push_back("n" + std::to_string(p));
    }
    instance.set_property_names(names);
    data::CostEstimatorOptions options;
    options.property_difficulty = {{"n1", 2}, {"n4", 11}, {"n7", 0.5}};
    options.default_difficulty = 3;
    Instance reference = instance;
    ASSERT_TRUE(data::EstimateCosts(&instance, options).ok());

    const auto difficulty = [&](PropertyId p) {
      const auto it = options.property_difficulty.find(names[p]);
      return it == options.property_difficulty.end()
                 ? options.default_difficulty
                 : it->second;
    };
    for (const PropertySet& q : reference.queries()) {
      ForEachNonEmptySubset(q, [&](const PropertySet& c) {
        if (!IsInfiniteCost(reference.CostOf(c))) return;
        Cost sum = 0;
        Cost min_part = kInfiniteCost;
        for (PropertyId p : c) {
          sum += difficulty(p);
          min_part = std::min(min_part, difficulty(p));
        }
        const Cost cost = c.size() == 1 ? sum : options.subadditivity * sum;
        reference.SetCost(c, std::max(cost, options.floor_factor * min_part));
      });
    }
    EXPECT_EQ(EntriesInIdOrder(instance.costs()),
              EntriesInIdOrder(reference.costs()))
        << "seed " << seed;
  }
}

/// ShortFirstSolver with reuse, its phase-2 re-pricing done per subset.
Result<SolveResult> ReferenceShortFirstReuse(const Instance& instance,
                                             const SolverOptions& options) {
  std::vector<size_t> short_idx;
  std::vector<size_t> long_idx;
  for (size_t i = 0; i < instance.NumQueries(); ++i) {
    (instance.queries()[i].size() <= 2 ? short_idx : long_idx).push_back(i);
  }
  auto short_result =
      K2ExactSolver(options).Solve(SubInstance(instance, short_idx));
  if (!short_result.ok()) return short_result.status();
  Instance long_part = SubInstance(instance, long_idx);
  for (const PropertySet& q : long_part.queries()) {
    ForEachNonEmptySubset(q, [&](const PropertySet& c) {
      if (short_result->solution.Contains(c)) long_part.SetCost(c, 0);
    });
  }
  auto long_result = GeneralSolver(options).Solve(long_part);
  if (!long_result.ok()) return long_result.status();
  Solution merged = std::move(short_result->solution);
  merged.Merge(long_result->solution);
  return FinishSolve(instance, std::move(merged), options.prune_unused,
                     options.verify_solution);
}

TEST(StoreCallersTest, ShortFirstReuseMatchesThePerSubsetReference) {
  SolverOptions options;
  options.short_first_reuse_selections = true;
  size_t compared = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const Instance instance = CallerInstance(seed, 4);
    bool has_short = false;
    bool has_long = false;
    for (const PropertySet& q : instance.queries()) {
      (q.size() <= 2 ? has_short : has_long) = true;
    }
    if (!has_short || !has_long) continue;
    auto solved = ShortFirstSolver(options).Solve(instance);
    auto expected = ReferenceShortFirstReuse(instance, options);
    ASSERT_EQ(solved.ok(), expected.ok()) << "seed " << seed;
    if (!solved.ok()) continue;
    ++compared;
    EXPECT_EQ(solved->solution.Sorted(), expected->solution.Sorted())
        << "seed " << seed;
    EXPECT_EQ(testing::CostBytes(solved->cost),
              testing::CostBytes(expected->cost));
  }
  EXPECT_GT(compared, 20u);
}

TEST(StoreCallersTest, CoverableMatchesThePerSubsetReference) {
  size_t coverable = 0;
  size_t uncoverable = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const Instance instance = CallerInstance(seed);
    // The engine gets about two thirds of the prices, so some properties
    // are coverable only through longer classifiers, or not at all.
    Rng rng(seed + 11);
    online::OnlineEngine engine;
    for (ClassifierId id : instance.costs().ids()) {
      if (!rng.Bernoulli(0.65)) continue;
      ASSERT_TRUE(engine
                      .SetCost(instance.costs().Classifier(id),
                               instance.costs().cost(id))
                      .ok());
    }
    const auto prices = ReferencePrices(engine.costs());
    for (int i = 0; i < 60; ++i) {
      std::vector<PropertyId> ids;
      for (PropertyId p = 0; p < 11; ++p) {
        if (rng.Bernoulli(0.3)) ids.push_back(p);
      }
      if (ids.empty()) continue;
      const PropertySet query = PropertySet::FromSorted(ids);
      PropertySet covered;
      for (const testing::PricedSubset& s :
           ReferencePricedSubsets(prices, query)) {
        covered = covered.UnionWith(s.classifier);
      }
      EXPECT_EQ(engine.Coverable(query), covered == query)
          << "seed " << seed << " query " << query.ToString();
      ++(covered == query ? coverable : uncoverable);
    }
  }
  EXPECT_GT(coverable, 100u);
  EXPECT_GT(uncoverable, 100u);
}

TEST(StoreCallersTest, LiveInstanceMatchesThePerSubsetReference) {
  online::ShardedSyntheticConfig config;
  config.num_domains = 6;
  config.domain.num_queries = 25;
  config.domain.max_query_length = 5;
  config.domain.seed = 4;
  const Instance base = online::GenerateShardedSynthetic(config);
  online::OnlineEngine engine;
  ASSERT_TRUE(engine.Initialize(base).ok());
  online::ChurnGenerator churn(base, 9);
  for (int step = 0; step < 5; ++step) {
    const online::ChurnGenerator::Batch batch = churn.Next(3, 6);
    ASSERT_TRUE(engine.ApplyUpdate(batch.add, batch.remove).ok());
    const Instance live = engine.LiveInstance();
    std::vector<PropertySet> queries = live.queries();
    const Instance expected =
        ReferenceRestriction(base, queries,
                             [](const PropertySet&) { return true; });
    EXPECT_EQ(EntriesInIdOrder(live.costs()),
              EntriesInIdOrder(expected.costs()))
        << "step " << step;
  }
}

void CollectSpans(const obs::SpanNode& node, const std::string& name,
                  std::vector<const obs::SpanNode*>* out) {
  if (node.name == name) out->push_back(&node);
  for (const auto& child : node.children) CollectSpans(*child, name, out);
}

double StatOf(const obs::SpanNode& node, const std::string& name) {
  for (const auto& [key, value] : node.stats) {
    if (key == name) return value;
  }
  return -1;
}

TEST(StoreCallersTest, ResolveTableCountsThePerSubsetReference) {
  online::ShardedSyntheticConfig config;
  config.num_domains = 8;
  config.domain.num_queries = 20;
  config.domain.max_query_length = 5;
  config.domain.seed = 6;
  const Instance base = online::GenerateShardedSynthetic(config);
  online::OnlineEngine engine;
  obs::Trace trace("serve");
  {
    obs::ScopedTraceActivation activate(&trace);
    ASSERT_TRUE(engine.Initialize(base).ok());
  }
  // One batch over the whole catalog: every component is solved once, in
  // the order ExportState lists them.
  std::vector<const obs::SpanNode*> solves;
  CollectSpans(*trace.root(), "solve_component", &solves);
  const online::EngineState state = engine.ExportState();
  ASSERT_EQ(solves.size(), state.components.size());
  const auto prices = ReferencePrices(engine.costs());
  for (size_t i = 0; i < solves.size(); ++i) {
    const online::EngineState::Component& component = state.components[i];
    std::set<PropertySet> distinct;
    size_t entries = 0;
    for (const PropertySet& q : component.queries) {
      for (const testing::PricedSubset& s : ReferencePricedSubsets(prices, q)) {
        distinct.insert(s.classifier);
        ++entries;
      }
    }
    ASSERT_EQ(StatOf(*solves[i], "queries"),
              static_cast<double>(component.queries.size()));
    // The re-solve's one table counts the component's priced subsets.
    const obs::SpanNode* build = solves[i]->FindSpan("classifier_table");
    ASSERT_NE(build, nullptr);
    EXPECT_EQ(StatOf(*build, "classifiers"),
              static_cast<double>(distinct.size()))
        << "component " << i;
    EXPECT_EQ(StatOf(*build, "subsets"), static_cast<double>(entries))
        << "component " << i;
  }
}

/// Expects each `parent` span under `root` to hold exactly one direct
/// `child`, and at least one `parent` to exist.
void ExpectOneChildEach(const obs::SpanNode& root, const std::string& parent,
                        const std::string& child) {
  std::vector<const obs::SpanNode*> spans;
  CollectSpans(root, parent, &spans);
  EXPECT_FALSE(spans.empty()) << parent;
  for (const obs::SpanNode* span : spans) {
    const auto count = std::count_if(
        span->children.begin(), span->children.end(),
        [&](const auto& node) { return node->name == child; });
    EXPECT_EQ(count, 1) << parent << " / " << child;
  }
}

TEST(StoreCallersTest, TracedSolvesTimeSetupAndMaterialization) {
  data::SyntheticConfig config;
  config.num_queries = 400;
  config.seed = 11;
  config.max_query_length = 6;
  const Instance general = data::GenerateSynthetic(config);
  std::vector<size_t> short_queries;
  for (size_t qi = 0; qi < general.NumQueries(); ++qi) {
    if (general.queries()[qi].size() <= 2) short_queries.push_back(qi);
  }
  const Instance k2 = SubInstance(general, short_queries);
  for (const Instance* instance : {&general, &k2}) {
    obs::Trace trace("solve");
    {
      obs::ScopedTraceActivation activate(&trace);
      const auto solved =
          instance == &k2 ? K2ExactSolver(SolverOptions{}).Solve(*instance)
                          : GeneralSolver(SolverOptions{}).Solve(*instance);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    }
    ExpectOneChildEach(*trace.root(), "preprocess", "setup");
    ExpectOneChildEach(*trace.root(), "finish", "materialize");
    // The solve's table counts the walk's hits: its rows' entries.
    const obs::SpanNode* build = trace.root()->FindSpan("classifier_table");
    ASSERT_NE(build, nullptr);
    const ClassifierTable table(instance->queries(), instance->costs());
    EXPECT_EQ(StatOf(*build, "classifiers"), static_cast<double>(table.size()));
    EXPECT_EQ(StatOf(*build, "subsets"),
              static_cast<double>(table.num_subsets()));
  }

  online::ShardedSyntheticConfig sharded;
  sharded.num_domains = 40;
  sharded.domain.num_queries = 15;
  sharded.domain.seed = 3;
  const Instance catalog = online::GenerateShardedSynthetic(sharded);
  online::OnlineEngine engine;
  ASSERT_TRUE(engine.Initialize(catalog).ok());
  online::ChurnGenerator churn(catalog, 5);
  const online::ChurnGenerator::Batch warmup = churn.Next(0, 60);
  ASSERT_TRUE(engine.ApplyUpdate(warmup.add, warmup.remove).ok());
  obs::Trace trace("serve");
  {
    obs::ScopedTraceActivation activate(&trace);
    for (int step = 0; step < 10; ++step) {
      const online::ChurnGenerator::Batch batch = churn.Next(4, 4);
      ASSERT_TRUE(engine.ApplyUpdate(batch.add, batch.remove).ok());
    }
  }
  std::vector<const obs::SpanNode*> solves;
  CollectSpans(*trace.root(), "solve_component", &solves);
  ASSERT_FALSE(solves.empty());
  ExpectOneChildEach(*trace.root(), "preprocess", "setup");
  ExpectOneChildEach(*trace.root(), "finish", "materialize");
}

/// CRC-32 of an instance's CSV rendering.
uint32_t CsvDigest(const Instance& instance) {
  const std::string csv = data::InstanceToCsv(instance);
  return Crc32(csv.data(), csv.size());
}

// The digests were recorded before the generators' pricing loops moved onto
// the store's walk; generated instances (the benchmark's inputs among them)
// must come out byte for byte the same.
TEST(StoreCallersTest, GeneratedInstancesMatchRecordedDigests) {
  data::SyntheticConfig a;
  a.num_queries = 300;
  a.seed = 5;
  a.max_query_length = 6;
  EXPECT_EQ(CsvDigest(data::GenerateSynthetic(a)), 0xE7ACE472u);

  data::SyntheticConfig b;
  b.num_queries = 2000;
  b.seed = 17;
  b.cost_min = 0;
  b.cost_max = 9;
  b.max_query_length = 10;
  EXPECT_EQ(CsvDigest(data::GenerateSynthetic(b)), 0x57AE919Bu);

  online::ShardedSyntheticConfig sharded;
  sharded.num_domains = 8;
  sharded.domain.num_queries = 60;
  sharded.domain.seed = 3;
  sharded.domain.max_query_length = 5;
  EXPECT_EQ(CsvDigest(online::GenerateShardedSynthetic(sharded)),
            0x3F0E39B9u);

  data::PrivateConfig p;
  p.seed = 9;
  p.electronics_queries = 300;
  p.home_garden_queries = 200;
  p.fashion_queries = 100;
  EXPECT_EQ(CsvDigest(data::GeneratePrivate(p).instance), 0x0873C30Fu);
}

}  // namespace
}  // namespace mc3
