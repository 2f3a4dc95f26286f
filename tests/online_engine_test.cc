#include "online/online_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/general_solver.h"
#include "core/instance_util.h"
#include "core/k2_solver.h"
#include "core/short_first_solver.h"
#include "data/synthetic.h"
#include "obs/trace.h"
#include "online/churn.h"
#include "online/read_view.h"
#include "online/update_trace.h"
#include "tests/test_util.h"

namespace mc3 {
namespace {

using online::ChurnGenerator;
using online::EngineOptions;
using online::OnlineEngine;
using online::UpdateStats;
using testing::PS;

EngineOptions GeneralEngineOptions(size_t threads = 1) {
  EngineOptions options;
  options.solver = EngineOptions::SolverKind::kGeneral;
  options.solver_options.num_threads = threads;
  return options;
}

/// From-scratch cost of the engine's live instance under the same pipeline.
Cost BatchCost(const OnlineEngine& engine) {
  SolverOptions options;  // defaults match GeneralEngineOptions
  auto result = GeneralSolver(options).Solve(engine.LiveInstance());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->cost : kInfiniteCost;
}

TEST(OnlineEngineTest, InitializeMatchesBatchSolve) {
  OnlineEngine engine(GeneralEngineOptions());
  const Instance inst = testing::PaperExample();
  auto stats = engine.Initialize(inst);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->queries_added, 2u);
  EXPECT_EQ(engine.NumQueries(), 2u);
  EXPECT_EQ(engine.NumComponents(), 1u);  // the queries share "adidas"
  EXPECT_EQ(engine.TotalCost(), 7);       // the paper's optimum
  EXPECT_EQ(engine.TotalCost(), BatchCost(engine));
  EXPECT_TRUE(engine.CheckInvariants().ok());
}

TEST(OnlineEngineTest, EmptyEngine) {
  OnlineEngine engine;
  EXPECT_EQ(engine.NumQueries(), 0u);
  EXPECT_EQ(engine.NumComponents(), 0u);
  EXPECT_EQ(engine.TotalCost(), 0);
  EXPECT_TRUE(engine.CurrentSolution().empty());
  EXPECT_TRUE(engine.CheckInvariants().ok());
  // Removing from an empty engine is a counted no-op.
  auto stats = engine.RemoveQueries({PS({0, 1})});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->missing_removes, 1u);
  EXPECT_EQ(stats->components_resolved, 0u);
}

TEST(OnlineEngineTest, RemoveLastQueryEmptiesTheEngine) {
  OnlineEngine engine(GeneralEngineOptions());
  ASSERT_TRUE(engine.Initialize(testing::PaperExample()).ok());
  auto stats = engine.RemoveQueries(engine.LiveInstance().queries());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->queries_removed, 2u);
  EXPECT_EQ(stats->components_resolved, 0u);
  EXPECT_EQ(engine.NumQueries(), 0u);
  EXPECT_EQ(engine.NumComponents(), 0u);
  EXPECT_EQ(engine.TotalCost(), 0);
  EXPECT_TRUE(engine.CurrentSolution().empty());
  EXPECT_TRUE(engine.CheckInvariants().ok());
  // And the engine keeps working afterwards: revive one query.
  auto revived = engine.AddQueries({testing::PaperExample().queries()[1]});
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(engine.NumQueries(), 1u);
  EXPECT_EQ(engine.TotalCost(), BatchCost(engine));
  EXPECT_TRUE(engine.CheckInvariants().ok());
}

TEST(OnlineEngineTest, ComponentMergeAndSplit) {
  InstanceBuilder b;
  b.AddQuery({"a", "b"});
  b.AddQuery({"c", "d"});
  b.SetCost({"a"}, 1);
  b.SetCost({"b"}, 1);
  b.SetCost({"c"}, 1);
  b.SetCost({"d"}, 1);
  b.SetCost({"b", "c"}, 1);
  const Instance inst = std::move(b).Build();

  OnlineEngine engine(GeneralEngineOptions());
  ASSERT_TRUE(engine.Initialize(inst).ok());
  EXPECT_EQ(engine.NumComponents(), 2u);

  // {b, c} bridges the two components: they merge into one. (Builder
  // interning is first-appearance order: a=0, b=1, c=2, d=3.)
  const PropertySet bridge = PS({1, 2});
  auto merged = engine.AddQueries({bridge});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->components_dirtied, 2u);
  EXPECT_EQ(merged->components_resolved, 1u);
  EXPECT_EQ(merged->queries_touched, 3u);
  EXPECT_EQ(engine.NumComponents(), 1u);
  EXPECT_EQ(engine.TotalCost(), BatchCost(engine));
  EXPECT_TRUE(engine.CheckInvariants().ok());

  // Removing the bridge splits the component back in two.
  auto split = engine.RemoveQueries({bridge});
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->components_dirtied, 1u);
  EXPECT_EQ(split->components_resolved, 2u);
  EXPECT_EQ(engine.NumComponents(), 2u);
  EXPECT_EQ(engine.TotalCost(), BatchCost(engine));
  EXPECT_TRUE(engine.CheckInvariants().ok());
}

TEST(OnlineEngineTest, IsolatedAddTouchesOnlyItsComponent) {
  OnlineEngine engine(GeneralEngineOptions());
  ASSERT_TRUE(engine.Initialize(testing::PaperExample()).ok());
  ASSERT_TRUE(engine.SetCost(PS({100}), 2).ok());
  ASSERT_TRUE(engine.SetCost(PS({101}), 2).ok());
  auto stats = engine.AddQueries({PS({100, 101})});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->components_dirtied, 0u);
  EXPECT_EQ(stats->components_resolved, 1u);
  EXPECT_EQ(stats->queries_touched, 1u);
  EXPECT_EQ(engine.NumComponents(), 2u);
  EXPECT_EQ(engine.TotalCost(), 7 + 4);
  EXPECT_TRUE(engine.CheckInvariants().ok());
}

TEST(OnlineEngineTest, DuplicateAddAndMissingRemoveAreNoOps) {
  OnlineEngine engine(GeneralEngineOptions());
  ASSERT_TRUE(engine.Initialize(testing::PaperExample()).ok());
  const Cost before = engine.TotalCost();

  auto dup = engine.AddQueries({testing::PaperExample().queries()[0]});
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->duplicate_adds, 1u);
  EXPECT_EQ(dup->components_resolved, 0u);
  EXPECT_EQ(engine.TotalCost(), before);

  auto missing = engine.RemoveQueries({PS({7, 8, 9})});
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->missing_removes, 1u);
  EXPECT_EQ(engine.TotalCost(), before);
  EXPECT_EQ(engine.counters().updates, 3u);  // init + the two no-ops
}

TEST(OnlineEngineTest, InfeasibleAddRejectedWithoutMutation) {
  OnlineEngine engine(GeneralEngineOptions());
  ASSERT_TRUE(engine.Initialize(testing::PaperExample()).ok());
  const Cost before = engine.TotalCost();
  const size_t components = engine.NumComponents();

  // Property 99 has no priced classifier: the add must be rejected atomically
  // (the feasible first query must not slip in either).
  auto stats = engine.ApplyUpdate(
      {testing::PaperExample().queries()[0], PS({99})}, {});
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(engine.TotalCost(), before);
  EXPECT_EQ(engine.NumComponents(), components);
  EXPECT_TRUE(engine.CheckInvariants().ok());

  auto empty = engine.AddQueries({PropertySet{}});
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // A query over the length limit is refused as such (every singleton is
  // priced, so it would be coverable), before any subset enumeration.
  std::vector<PropertyId> ids;
  for (PropertyId p = 100; p < 140; ++p) {
    ASSERT_TRUE(engine.SetCost(PS({p}), 1).ok());
    ids.push_back(p);
  }
  auto too_long = engine.ApplyUpdate({PropertySet::FromSorted(ids)}, {});
  EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.TotalCost(), before);
  EXPECT_EQ(engine.NumComponents(), components);
}

TEST(OnlineEngineTest, RepricingAppliesOnNextResolve) {
  InstanceBuilder b;
  b.AddQuery({"a", "b"});
  b.SetCost({"a"}, 5);
  b.SetCost({"b"}, 5);
  b.SetCost({"a", "b"}, 20);
  const Instance inst = std::move(b).Build();

  OnlineEngine engine(GeneralEngineOptions());
  ASSERT_TRUE(engine.Initialize(inst).ok());
  EXPECT_EQ(engine.TotalCost(), 10);  // two singletons

  // Re-pricing a bought classifier: a view built afterwards shows the new
  // table price, one built before keeps the old, and the component's
  // stored cost keeps the old price until the component is re-solved.
  const PropertySet single_a = PS({0});
  const PropertySet single_b = PS({1});
  const online::EngineReadView before = online::BuildReadView(engine, 1);
  ASSERT_TRUE(engine.SetCost(single_a, 7).ok());
  const online::EngineReadView after = online::BuildReadView(engine, 2);
  ASSERT_EQ(before.pieces.size(), 1u);
  ASSERT_EQ(after.pieces.size(), 1u);
  EXPECT_EQ(*before.pieces[0], (online::SolutionPiece{{single_a, 5}, {single_b, 5}}));
  EXPECT_EQ(*after.pieces[0], (online::SolutionPiece{{single_a, 7}, {single_b, 5}}));
  EXPECT_EQ(after.pieces[0]->front().second, engine.CostOf(single_a));
  EXPECT_EQ(engine.TotalCost(), 10);
  const online::EngineState exported = engine.ExportState();
  ASSERT_EQ(exported.components.size(), 1u);
  EXPECT_EQ(exported.components[0].cost, 10);
  EXPECT_TRUE(engine.CheckInvariants().ok());

  // The re-priced state round-trips, and the imported engine publishes the
  // same view.
  OnlineEngine imported(GeneralEngineOptions());
  ASSERT_TRUE(imported.ImportState(exported).ok());
  EXPECT_TRUE(imported.CheckInvariants().ok());
  const online::EngineState reexported = imported.ExportState();
  EXPECT_EQ(reexported.property_names, exported.property_names);
  EXPECT_EQ(reexported.costs, exported.costs);
  ASSERT_EQ(reexported.components.size(), exported.components.size());
  for (size_t i = 0; i < exported.components.size(); ++i) {
    EXPECT_EQ(reexported.components[i].queries, exported.components[i].queries);
    EXPECT_EQ(reexported.components[i].solution,
              exported.components[i].solution);
    EXPECT_EQ(reexported.components[i].cost, exported.components[i].cost);
  }
  const online::EngineReadView imported_view =
      online::BuildReadView(imported, 2);
  EXPECT_EQ(imported_view.total_cost, after.total_cost);
  EXPECT_EQ(imported_view.num_queries, after.num_queries);
  EXPECT_EQ(imported_view.num_components, after.num_components);
  EXPECT_EQ(imported_view.num_classifiers, after.num_classifiers);
  ASSERT_EQ(imported_view.pieces.size(), 1u);
  EXPECT_EQ(*imported_view.pieces[0], *after.pieces[0]);

  // Cheaper pair price takes effect when the component is next re-solved.
  ASSERT_TRUE(engine.SetCost(inst.queries()[0], 3).ok());
  EXPECT_EQ(engine.TotalCost(), 10);  // not yet re-solved
  ASSERT_TRUE(engine.RemoveQueries({inst.queries()[0]}).ok());
  ASSERT_TRUE(engine.AddQueries({inst.queries()[0]}).ok());
  EXPECT_EQ(engine.TotalCost(), 3);
  EXPECT_TRUE(engine.CheckInvariants().ok());

  // Removing a price is not allowed.
  EXPECT_FALSE(engine.SetCost(inst.queries()[0], kInfiniteCost).ok());
  EXPECT_FALSE(engine.SetCost(inst.queries()[0], -1).ok());
}

TEST(OnlineEngineTest, ImportSortsAComponentsQueriesAndRejectsARepeat) {
  InstanceBuilder b;
  b.AddQuery({"a", "b"});
  b.AddQuery({"b", "c"});
  b.AddQuery({"c"});
  b.PriceAllClassifiers([](const PropertySet& c) { return c.size() + 1.0; });
  OnlineEngine engine;
  ASSERT_TRUE(engine.Initialize(std::move(b).Build()).ok());
  const online::EngineState exported = engine.ExportState();
  ASSERT_EQ(exported.components.size(), 1u);
  ASSERT_EQ(exported.components[0].queries.size(), 3u);
  ASSERT_TRUE(std::is_sorted(exported.components[0].queries.begin(),
                             exported.components[0].queries.end()));

  // Snapshots from builds that kept a slot table list a component's
  // queries in the order they were first added, not sorted.
  online::EngineState old = exported;
  std::reverse(old.components[0].queries.begin(),
               old.components[0].queries.end());
  OnlineEngine restored;
  ASSERT_TRUE(restored.ImportState(old).ok());
  EXPECT_TRUE(restored.CheckInvariants().ok());
  EXPECT_EQ(restored.ExportState().components[0].queries,
            exported.components[0].queries);

  online::EngineState repeated = old;
  repeated.components[0].queries.push_back(
      repeated.components[0].queries.front());
  OnlineEngine rejected;
  const Status status = rejected.ImportState(repeated);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("snapshot repeats query"),
            std::string::npos)
      << status.message();
}

TEST(OnlineEngineTest, K2AutoMatchesExactSolver) {
  testing::RandomInstanceConfig config;
  config.num_queries = 30;
  config.pool = 20;
  config.max_query_length = 2;
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Instance inst = testing::RandomInstance(config, seed);
    OnlineEngine engine;  // kAuto: every component is k <= 2 -> exact
    ASSERT_TRUE(engine.Initialize(inst).ok());
    auto exact = K2ExactSolver().Solve(inst);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_DOUBLE_EQ(engine.TotalCost(), exact->cost) << "seed " << seed;
    EXPECT_TRUE(engine.CheckInvariants().ok());
  }
}

/// The ISSUE's headline equivalence: random add/remove traces on synthetic
/// instances; after every batch the engine's cover cost equals a
/// from-scratch GeneralSolver::Solve on the live instance (same options =>
/// identical cost, by the determinism of the pipeline).
TEST(OnlineEngineTest, RandomChurnMatchesBatchSolve) {
  for (uint64_t seed : {7u, 11u}) {
    data::SyntheticConfig config;
    config.num_queries = 120;
    config.seed = seed;
    const Instance base = data::GenerateSynthetic(config);

    OnlineEngine engine(GeneralEngineOptions());
    ASSERT_TRUE(engine.Initialize(base).ok());
    ASSERT_EQ(engine.NumQueries(), base.NumQueries());
    EXPECT_DOUBLE_EQ(engine.TotalCost(), BatchCost(engine));

    ChurnGenerator churn(base, /*seed=*/seed * 13);
    for (int round = 0; round < 6; ++round) {
      const ChurnGenerator::Batch batch = churn.Next(/*adds=*/6,
                                                     /*removes=*/9);
      auto stats = engine.ApplyUpdate(batch.add, batch.remove);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ASSERT_TRUE(engine.CheckInvariants().ok()) << "seed " << seed
                                                 << " round " << round;
      EXPECT_DOUBLE_EQ(engine.TotalCost(), BatchCost(engine))
          << "seed " << seed << " round " << round;
    }
    EXPECT_EQ(engine.NumQueries(), churn.NumLive());
  }
}

TEST(OnlineEngineTest, ParallelResolveMatchesSequential) {
  data::SyntheticConfig config;
  config.num_queries = 150;
  config.seed = 42;
  const Instance base = data::GenerateSynthetic(config);

  OnlineEngine sequential(GeneralEngineOptions(1));
  OnlineEngine parallel(GeneralEngineOptions(4));
  ASSERT_TRUE(sequential.Initialize(base).ok());
  ASSERT_TRUE(parallel.Initialize(base).ok());
  EXPECT_DOUBLE_EQ(sequential.TotalCost(), parallel.TotalCost());

  ChurnGenerator churn_a(base, 99);
  ChurnGenerator churn_b(base, 99);
  for (int round = 0; round < 4; ++round) {
    const auto batch_a = churn_a.Next(5, 10);
    const auto batch_b = churn_b.Next(5, 10);
    ASSERT_TRUE(sequential.ApplyUpdate(batch_a.add, batch_a.remove).ok());
    ASSERT_TRUE(parallel.ApplyUpdate(batch_b.add, batch_b.remove).ok());
    EXPECT_DOUBLE_EQ(sequential.TotalCost(), parallel.TotalCost());
  }
  EXPECT_TRUE(parallel.CheckInvariants().ok());
}

TEST(UpdateTraceTest, ParsesMarkersCsvAndComments) {
  auto trace = online::ParseUpdateTrace(
      {"# header", "", "+ white adidas", "- sony tv", "add,white,adidas",
       "remove,sony,tv", "plain query"},
      {"white"});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->ops.size(), 5u);
  EXPECT_EQ(trace->skipped_lines, 2u);
  EXPECT_EQ(trace->ops[0].kind, online::TraceOp::Kind::kAdd);
  EXPECT_EQ(trace->ops[1].kind, online::TraceOp::Kind::kRemove);
  EXPECT_EQ(trace->ops[0].query, trace->ops[2].query);
  EXPECT_EQ(trace->ops[1].query, trace->ops[3].query);
  EXPECT_EQ(trace->ops[4].kind, online::TraceOp::Kind::kAdd);
  // "white" kept its base id; new names were interned after it.
  EXPECT_EQ(trace->property_names[0], "white");
  EXPECT_TRUE(trace->ops[0].query.Contains(0));

  auto bad = online::ParseUpdateTrace({"+"}, {});
  EXPECT_FALSE(bad.ok());
}

TEST(ChurnGeneratorTest, DeterministicAndConsistent) {
  const Instance base = data::GenerateSynthetic({.num_queries = 50, .seed = 3});
  ChurnGenerator a(base, 5);
  ChurnGenerator b(base, 5);
  for (int i = 0; i < 3; ++i) {
    const auto batch_a = a.Next(4, 8);
    const auto batch_b = b.Next(4, 8);
    EXPECT_EQ(batch_a.add, batch_b.add);
    EXPECT_EQ(batch_a.remove, batch_b.remove);
  }
  EXPECT_EQ(a.NumLive() + a.NumRetired(), base.NumQueries());
}

TEST(OnlineEngineTest, ResolvesAndRestoresShareOneNameTable) {
  online::ShardedSyntheticConfig config;
  config.num_domains = 6;
  config.domain.num_queries = 10;
  config.domain.seed = 2;
  Instance inst = online::GenerateShardedSynthetic(config);
  PropertyId max_id = 0;
  for (const PropertySet& q : inst.queries()) {
    max_id = std::max(max_id, q.ids().back());
  }
  std::vector<std::string> names;
  for (PropertyId p = 0; p <= max_id; ++p) {
    names.push_back(std::to_string(p));
    names.back().insert(names.back().begin(), 'p');
  }
  inst.set_property_names(std::move(names));
  const std::string* table = inst.property_names().data();

  OnlineEngine engine;
  ASSERT_TRUE(engine.Initialize(inst).ok());
  EXPECT_EQ(engine.property_names().data(), table);
  ASSERT_TRUE(engine.RemoveQueries({inst.queries()[0]}).ok());
  EXPECT_EQ(engine.property_names().data(), table);
  // LiveInstance shares it too.
  EXPECT_EQ(engine.LiveInstance().property_names().data(), table);

  // A restored engine holds its own copy of the table, and its re-solves
  // share that one.
  OnlineEngine restored;
  ASSERT_TRUE(restored.ImportState(engine.ExportState()).ok());
  EXPECT_EQ(restored.property_names(), inst.property_names());
  ASSERT_TRUE(restored.RemoveQueries({inst.queries()[1]}).ok());
  EXPECT_EQ(restored.LiveInstance().property_names().data(),
            restored.property_names().data());
}

void CollectSpans(const obs::SpanNode& node, const std::string& name,
                  std::vector<const obs::SpanNode*>* out) {
  if (node.name == name) out->push_back(&node);
  for (const auto& child : node.children) CollectSpans(*child, name, out);
}

TEST(OnlineEngineTest, TracedUpdateBuildsOneTablePerResolve) {
  online::ShardedSyntheticConfig config;
  config.num_domains = 60;
  config.domain.num_queries = 15;
  config.domain.seed = 3;
  const Instance inst = online::GenerateShardedSynthetic(config);
  OnlineEngine engine;
  ASSERT_TRUE(engine.Initialize(inst).ok());
  ChurnGenerator churn(inst, 5);
  // Retire a pool first, so the traced batches revive what they add.
  const ChurnGenerator::Batch warmup = churn.Next(0, 90);
  ASSERT_TRUE(engine.ApplyUpdate(warmup.add, warmup.remove).ok());
  obs::Trace trace("serve");
  {
    obs::ScopedTraceActivation activate(&trace);
    for (int step = 0; step < 20; ++step) {
      const ChurnGenerator::Batch batch = churn.Next(4, 4);
      auto applied = engine.ApplyUpdate(batch.add, batch.remove);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    }
  }
  std::vector<const obs::SpanNode*> solves;
  CollectSpans(*trace.root(), "solve_component", &solves);
  ASSERT_FALSE(solves.empty());
  // Each component re-solve walks its queries' lattices once, into the one
  // table every stage reads, and its children (the solver) cover at least
  // 90% of the re-solve.
  double solve_seconds = 0;
  double child_seconds = 0;
  for (const obs::SpanNode* solve : solves) {
    EXPECT_EQ(solve->CountSpans("classifier_table"), 1u);
    EXPECT_EQ(solve->CountSpans("build_sub_instance"), 0u);
    for (const auto& child : solve->children) child_seconds += child->seconds;
    solve_seconds += solve->seconds;
  }
  EXPECT_GE(child_seconds, 0.9 * solve_seconds);
  for (const char* stage : {"finish", "wsc"}) {
    std::vector<const obs::SpanNode*> spans;
    CollectSpans(*trace.root(), stage, &spans);
    EXPECT_FALSE(spans.empty()) << stage;
    for (const obs::SpanNode* span : spans) {
      EXPECT_EQ(span->CountSpans("classifier_table"), 0u) << stage;
    }
  }
}

/// Expects every component of `engine` to hold what the batch solver of
/// `kind` buys, at the same cost, when run on SubInstance of the
/// component's queries (the path every re-solve took before the engine
/// solved straight from its store).
void ExpectPiecesMatchBatchSolves(const OnlineEngine& engine,
                                  EngineOptions::SolverKind kind,
                                  SolverOptions options) {
  options.num_threads = 1;
  const Instance live = engine.LiveInstance();
  const online::EngineState state = engine.ExportState();
  const auto pieces = engine.SolutionPieces();
  ASSERT_EQ(pieces.size(), state.components.size());
  for (size_t c = 0; c < state.components.size(); ++c) {
    const online::EngineState::Component& component = state.components[c];
    std::vector<size_t> indices;
    for (const PropertySet& q : component.queries) {
      indices.push_back(static_cast<size_t>(
          std::lower_bound(live.queries().begin(), live.queries().end(), q) -
          live.queries().begin()));
    }
    const Instance sub = SubInstance(live, indices);
    EngineOptions::SolverKind resolved = kind;
    if (resolved == EngineOptions::SolverKind::kAuto) {
      resolved = sub.MaxQueryLength() <= 2
                     ? EngineOptions::SolverKind::kK2Exact
                     : EngineOptions::SolverKind::kGeneral;
    }
    Result<SolveResult> solved = Status::Internal("unset");
    switch (resolved) {
      case EngineOptions::SolverKind::kK2Exact:
        solved = K2ExactSolver(options).Solve(sub);
        break;
      case EngineOptions::SolverKind::kShortFirst:
        solved = ShortFirstSolver(options).Solve(sub);
        break;
      case EngineOptions::SolverKind::kAuto:
      case EngineOptions::SolverKind::kGeneral:
        solved = GeneralSolver(options).Solve(sub);
        break;
    }
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    std::vector<PropertySet> bought;
    for (const auto& entry : *pieces[c]) bought.push_back(entry.first);
    EXPECT_EQ(bought, solved->solution.Sorted()) << "component " << c;
    EXPECT_EQ(component.cost, solved->cost) << "component " << c;
  }
}

/// Churns `inst` through an engine of `kind` on `threads` threads with
/// seeded batches, checking every component after every batch.
void ChurnAndCompare(const Instance& inst, uint64_t seed,
                     EngineOptions::SolverKind kind, size_t threads) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
               std::to_string(threads));
  EngineOptions options;
  options.solver = kind;
  options.solver_options.num_threads = threads;
  OnlineEngine engine(options);
  ASSERT_TRUE(engine.Initialize(inst).ok());
  ExpectPiecesMatchBatchSolves(engine, kind, options.solver_options);
  ChurnGenerator churn(inst, seed + 100);
  for (int step = 0; step < 8; ++step) {
    const ChurnGenerator::Batch batch = churn.Next(3, step == 0 ? 12 : 3);
    auto applied = engine.ApplyUpdate(batch.add, batch.remove);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ExpectPiecesMatchBatchSolves(engine, kind, options.solver_options);
  }
  EXPECT_TRUE(engine.CheckInvariants().ok());
}

/// Counts the general components whose Algorithm 1 residual was all-short
/// and went to Algorithm 2 with Algorithm 1 on again.
size_t NestedShortRuns(const obs::SpanNode& root) {
  std::vector<const obs::SpanNode*> components;
  CollectSpans(root, "general_component", &components);
  size_t nested = 0;
  for (const obs::SpanNode* component : components) {
    for (const auto& child : component->children) {
      if (child->name == "k2_solver" &&
          child->CountSpans("preprocess") > 0) {
        ++nested;
      }
    }
  }
  return nested;
}

TEST(OnlineOneTableTest, GeneralResolvesMatchBatchSolvesOfSubInstances) {
  obs::Trace trace("serve");
  {
    obs::ScopedTraceActivation activate(&trace);
    // Domains of 10 queries draw from a pool of a few properties, which
    // leaves some residuals all-short; the 15-query ones are typical.
    for (const auto& [queries, seed] :
         {std::pair<size_t, uint64_t>{10, 1}, {15, 3}}) {
      online::ShardedSyntheticConfig config;
      config.num_domains = 8;
      config.domain.num_queries = queries;
      config.domain.max_query_length = 5;
      config.domain.seed = seed;
      const Instance inst = online::GenerateShardedSynthetic(config);
      for (size_t threads : {size_t{1}, size_t{2}}) {
        ChurnAndCompare(inst, seed, EngineOptions::SolverKind::kGeneral,
                        threads);
      }
    }
  }
  // Some residuals were all-short, so the nested Algorithm 1 run over a
  // residual's prices was compared too.
  EXPECT_GT(NestedShortRuns(*trace.root()), 0u);
}

TEST(OnlineOneTableTest, K2AndShortFirstResolvesMatchBatchSolves) {
  for (uint64_t seed = 4; seed <= 5; ++seed) {
    online::ShardedSyntheticConfig config;
    config.num_domains = 8;
    config.domain.num_queries = 15;
    config.domain.seed = seed;
    config.domain.max_query_length = 2;
    const Instance short_only = online::GenerateShardedSynthetic(config);
    config.domain.max_query_length = 5;
    const Instance mixed = online::GenerateShardedSynthetic(config);
    for (size_t threads : {size_t{1}, size_t{2}}) {
      ChurnAndCompare(short_only, seed, EngineOptions::SolverKind::kK2Exact,
                      threads);
      ChurnAndCompare(mixed, seed, EngineOptions::SolverKind::kShortFirst,
                      threads);
      ChurnAndCompare(mixed, seed, EngineOptions::SolverKind::kAuto, threads);
    }
  }
}

TEST(ShardedSyntheticTest, DomainsAreDisjointComponents) {
  online::ShardedSyntheticConfig config;
  config.num_domains = 5;
  config.domain.num_queries = 20;
  config.domain.seed = 1;
  const Instance inst = online::GenerateShardedSynthetic(config);
  EXPECT_EQ(inst.NumQueries(), 100u);
  EXPECT_TRUE(inst.Validate().ok());
  const ComponentPartition partition = PartitionQueries(inst.queries());
  EXPECT_GE(partition.num_components, config.num_domains);
}

}  // namespace
}  // namespace mc3
