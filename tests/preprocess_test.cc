#include "core/preprocess.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>

#include "core/classifier_table.h"
#include "core/exact_solver.h"
#include "core/general_solver.h"
#include "core/instance_util.h"
#include "core/k2_solver.h"
#include "core/wsc_reduction.h"
#include "tests/test_util.h"

namespace mc3 {
namespace {

using testing::PS;
using testing::RandomInstance;
using testing::RandomInstanceConfig;

TEST(PreprocessTest, SingletonQueryForcesItsClassifier) {
  Instance inst;
  inst.AddQuery(PS({0}));
  inst.SetCost(PS({0}), 4);
  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  EXPECT_TRUE(pre->forced.Contains(PS({0})));
  EXPECT_EQ(pre->forced_cost, 4);
  EXPECT_EQ(pre->stats.singleton_queries_selected, 1u);
  EXPECT_TRUE(pre->components.empty());  // the only query is covered
  EXPECT_EQ(pre->stats.queries_covered, 1u);
}

TEST(PreprocessTest, ZeroWeightClassifiersSelected) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 0);
  inst.SetCost(PS({1}), 0);
  inst.SetCost(PS({0, 1}), 5);
  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->forced_cost, 0);
  EXPECT_EQ(pre->stats.zero_weight_selected, 2u);
  EXPECT_TRUE(pre->components.empty());  // X + Y covers xy for free
}

TEST(PreprocessTest, InfeasibleSingletonQuery) {
  Instance inst;
  inst.AddQuery(PS({0}));
  // Its classifier is unpriced.
  auto pre = Preprocess(inst);
  EXPECT_FALSE(pre.ok());
  EXPECT_EQ(pre.status().code(), StatusCode::kInfeasible);
}

TEST(PreprocessTest, InfeasibleLongQuery) {
  Instance inst;
  inst.AddQuery(PS({0, 1, 2}));
  inst.SetCost(PS({0}), 1);
  inst.SetCost(PS({1}), 1);
  auto pre = Preprocess(inst);
  EXPECT_EQ(pre.status().code(), StatusCode::kInfeasible);
}

TEST(PreprocessTest, PartitionSplitsDisjointQueries) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.AddQuery(PS({2, 3}));
  inst.AddQuery(PS({1, 4}));
  for (PropertyId p = 0; p <= 4; ++p) inst.SetCost(PS({p}), 5);
  // Price the pairs too, so no property has a unique candidate (otherwise
  // step 3's forced selection covers everything before partitioning).
  inst.SetCost(PS({0, 1}), 7);
  inst.SetCost(PS({2, 3}), 7);
  inst.SetCost(PS({1, 4}), 7);
  inst.set_property_names({"white", "adidas", "sony", "tv", "lamp"});
  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  // {0,1} and {1,4} share property 1 -> one component; {2,3} another.
  EXPECT_EQ(pre->stats.num_components, 2u);
  ASSERT_EQ(pre->components.size(), 2u);
  const size_t total_queries = pre->components[0].NumQueries() +
                               pre->components[1].NumQueries();
  EXPECT_EQ(total_queries, 3u);
  // Each residual component names its properties through the input's
  // table itself, not a copy.
  for (const Instance& component : pre->components) {
    EXPECT_EQ(component.property_names().data(),
              inst.property_names().data());
  }
}

TEST(PreprocessTest, PartitionDisabledEmitsSingleComponent) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.AddQuery(PS({2, 3}));
  for (PropertyId p = 0; p <= 3; ++p) inst.SetCost(PS({p}), 5);
  inst.SetCost(PS({0, 1}), 7);
  inst.SetCost(PS({2, 3}), 7);
  PreprocessOptions options;
  options.step2_partition = false;
  auto pre = Preprocess(inst, options);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->components.size(), 1u);
  EXPECT_EQ(pre->components[0].NumQueries(), 2u);
}

TEST(PreprocessTest, Step3RemovesDominatedClassifier) {
  // W(X) = W(Y) = 1, W(XY) = 3: XY is dominated (Observation 3.3).
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 1);
  inst.SetCost(PS({1}), 1);
  inst.SetCost(PS({0, 1}), 3);
  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  EXPECT_GE(pre->stats.classifiers_removed_step3, 1u);
  // After removal each property has a unique candidate -> forced selection
  // covers the query outright.
  EXPECT_TRUE(pre->forced.Contains(PS({0})));
  EXPECT_TRUE(pre->forced.Contains(PS({1})));
  EXPECT_EQ(pre->forced_cost, 2);
  EXPECT_TRUE(pre->components.empty());
}

TEST(PreprocessTest, Step3KeepsCheaperConjunction) {
  // W(XY) = 1 < W(X) + W(Y): the conjunction survives.
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 1);
  inst.SetCost(PS({1}), 1);
  inst.SetCost(PS({0, 1}), 1);
  PreprocessOptions options;
  options.step4_k2_singleton_prune = false;  // isolate step 3
  auto pre = Preprocess(inst, options);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->stats.classifiers_removed_step3, 0u);
  ASSERT_EQ(pre->components.size(), 1u);
  EXPECT_NE(pre->components[0].CostOf(PS({0, 1})), kInfiniteCost);
}

TEST(PreprocessTest, Step3UsesRecordedReplacements) {
  // XY is removed (X+Y cheaper); when examining XYZ, the decomposition
  // {XY, Z} must be priced via XY's replacement (X+Y), so XYZ at cost 4 is
  // removed too (X+Y+Z = 3 <= 4).
  Instance inst;
  inst.AddQuery(PS({0, 1, 2}));
  inst.SetCost(PS({0}), 1);
  inst.SetCost(PS({1}), 1);
  inst.SetCost(PS({2}), 1);
  inst.SetCost(PS({0, 1}), 5);
  inst.SetCost(PS({0, 1, 2}), 4);
  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  EXPECT_GE(pre->stats.classifiers_removed_step3, 2u);
  EXPECT_EQ(pre->forced_cost, 3);  // the three singletons, forced
}

TEST(PreprocessTest, Step4PrunesExpensiveSingleton) {
  // X costs 10; queries xy and xz have pair classifiers at 3 + 3 <= 10, so
  // Observation 3.4 selects both pairs and drops X.
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.AddQuery(PS({0, 2}));
  inst.SetCost(PS({0}), 10);
  inst.SetCost(PS({1}), 4);
  inst.SetCost(PS({2}), 4);
  inst.SetCost(PS({0, 1}), 3);
  inst.SetCost(PS({0, 2}), 3);
  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  // Step 4 chains: dropping one singleton makes the pair selections free,
  // which can trigger the condition for further singletons (line 13 of
  // Algorithm 1) — here both Z (or Y) and X end up removed.
  EXPECT_GE(pre->stats.singletons_removed_step4, 1u);
  EXPECT_TRUE(pre->forced.Contains(PS({0, 1})));
  EXPECT_TRUE(pre->forced.Contains(PS({0, 2})));
  EXPECT_EQ(pre->forced_cost, 6);
  EXPECT_TRUE(pre->components.empty());
}

TEST(PreprocessTest, Step4SkippedWhenLongQueriesRemain) {
  // The length-3 query must survive step 3 (two cover options for
  // properties 1 and 2), so step 4's k = 2 precondition fails.
  Instance inst;
  inst.AddQuery(PS({0, 1, 2}));
  inst.AddQuery(PS({0, 3}));
  for (PropertyId p = 0; p <= 3; ++p) inst.SetCost(PS({p}), 2);
  inst.SetCost(PS({1, 2}), 3);
  inst.SetCost(PS({0, 3}), 1);
  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->stats.singletons_removed_step4, 0u);
  // And a long query indeed remains in the residual.
  size_t max_len = 0;
  for (const Instance& comp : pre->components) {
    for (const PropertySet& q : comp.queries()) {
      max_len = std::max(max_len, q.size());
    }
  }
  EXPECT_EQ(max_len, 3u);
}

TEST(PreprocessTest, ResidualKeepsSelectedAtCostZero) {
  // Singleton query {0} forces X; the residual query {0,1} should see X at
  // cost 0.
  Instance inst;
  inst.AddQuery(PS({0}));
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 3);
  inst.SetCost(PS({1}), 7);
  inst.SetCost(PS({0, 1}), 2);
  PreprocessOptions options;
  options.step3_decompositions = false;
  options.step4_k2_singleton_prune = false;
  auto pre = Preprocess(inst, options);
  ASSERT_TRUE(pre.ok());
  ASSERT_EQ(pre->components.size(), 1u);
  EXPECT_EQ(pre->components[0].CostOf(PS({0})), 0);
  EXPECT_EQ(pre->components[0].CostOf(PS({1})), 7);
}

TEST(PreprocessTest, PaperExampleForcedSelections) {
  const Instance inst = testing::PaperExample();
  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  // Preprocessing must preserve optimality: forced cost plus an optimal
  // solve of the residual equals 7 (verified end-to-end in solver tests);
  // here we check it never overspends.
  EXPECT_LE(pre->forced_cost, 7);
}

TEST(PreprocessTest, StatsCountRemainingClassifiers) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 2);
  inst.SetCost(PS({1}), 2);
  inst.SetCost(PS({0, 1}), 1);
  PreprocessOptions options;
  options.step4_k2_singleton_prune = false;
  auto pre = Preprocess(inst, options);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->stats.remaining_queries, 1u);
  EXPECT_EQ(pre->stats.remaining_classifiers, 3u);
}

/// Observation 3.3 by definition: the cheapest pair of proper subsets of
/// `c` whose union is `c`, each priced by `price`.
template <typename Price>
Cost BruteForceDecomposition(const PropertySet& c, const Price& price) {
  const size_t len = c.size();
  const uint32_t full = (uint32_t{1} << len) - 1;
  std::vector<Cost> part_cost(full);  // by mask over c's properties
  for (uint32_t m = 1; m < full; ++m) {
    std::vector<PropertyId> ids;
    for (size_t i = 0; i < len; ++i) {
      if (m & (uint32_t{1} << i)) ids.push_back(c.ids()[i]);
    }
    part_cost[m] = price(PropertySet::FromSorted(std::move(ids)));
  }
  Cost best = kInfiniteCost;
  for (uint32_t a = 1; a < full; ++a) {
    for (uint32_t b = 1; b < full; ++b) {
      if ((a | b) == full) best = std::min(best, part_cost[a] + part_cost[b]);
    }
  }
  return best;
}

/// Seeded instances for the step-3 definition tests.
Instance Step3Instance(int seed) {
  RandomInstanceConfig config;
  config.num_queries = 12;
  config.pool = 10;
  config.max_query_length = 7;
  config.cost_min = 1;
  config.cost_max = 6;  // a narrow range, so ties occur
  config.priced_probability = 0.7;
  config.zero_probability = 0.03;
  return RandomInstance(config, seed * 131 + 17);
}

/// What step 3 ends with.
struct Step3Outcome {
  int passes = 0;
  std::map<PropertySet, Cost> removed;  // -> recorded decomposition cost
  std::set<PropertySet> forced;
  std::vector<bool> alive;  // by query index
};

/// Step 3 by definition, for at most `max_passes` passes. Each pass
/// decides, by increasing length, every present classifier of length >= 2
/// inside a worked query (Observation 3.3 over effective prices: 0 once
/// forced, the recorded decomposition once removed). Then line 10 runs per
/// worked query in order: a property with exactly one unremoved priced
/// classifier holding it inside the query forces that classifier. A query
/// every property of which a forced classifier inside it covers is done.
/// The next pass works the live queries that share a property with a
/// classifier this pass forced (line 11); the first works every query.
Step3Outcome Step3ByDefinition(const Instance& inst, int max_passes) {
  const std::vector<PropertySet>& queries = inst.queries();
  Step3Outcome out;
  out.alive.assign(queries.size(), true);
  const auto price = [&](const PropertySet& c) {
    if (out.forced.count(c) != 0) return Cost{0};
    const auto it = out.removed.find(c);
    return it != out.removed.end() ? it->second : inst.CostOf(c);
  };
  const auto present = [&](const PropertySet& c) {
    return !IsInfiniteCost(inst.CostOf(c)) && out.forced.count(c) == 0 &&
           out.removed.count(c) == 0;
  };
  std::vector<size_t> work(queries.size());
  std::iota(work.begin(), work.end(), size_t{0});
  while (!work.empty() && out.passes < max_passes) {
    ++out.passes;
    std::vector<std::set<PropertySet>> by_length(kMaxQueryLength + 1);
    for (size_t qi : work) {
      ForEachNonEmptySubset(queries[qi], [&](const PropertySet& c) {
        if (c.size() >= 2 && present(c)) by_length[c.size()].insert(c);
      });
    }
    for (const std::set<PropertySet>& level : by_length) {
      for (const PropertySet& c : level) {
        const Cost best = BruteForceDecomposition(c, price);
        if (best <= inst.CostOf(c)) out.removed.emplace(c, best);
      }
    }

    std::set<PropertyId> forced_props;
    for (size_t qi : work) {
      for (PropertyId p : queries[qi]) {
        std::vector<PropertySet> holders;
        ForEachNonEmptySubset(queries[qi], [&](const PropertySet& c) {
          if (c.Contains(p) && !IsInfiniteCost(inst.CostOf(c)) &&
              out.removed.count(c) == 0) {
            holders.push_back(c);
          }
        });
        if (holders.size() == 1 && out.forced.insert(holders[0]).second) {
          forced_props.insert(holders[0].begin(), holders[0].end());
        }
      }
    }

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      PropertySet covered;
      ForEachNonEmptySubset(queries[qi], [&](const PropertySet& c) {
        if (out.forced.count(c) != 0) covered = covered.UnionWith(c);
      });
      if (covered == queries[qi]) out.alive[qi] = false;
    }
    work.clear();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const bool touched = std::ranges::any_of(
          queries[qi], [&](PropertyId p) { return forced_props.count(p); });
      if (out.alive[qi] && touched) work.push_back(qi);
    }
  }
  return out;
}

/// Expects step 3 alone, run for at most `max_passes` passes, to end where
/// the definition does: passes, removals, forced selections, covered
/// queries, and the residual's queries and prices (each original, zero
/// when forced, absent when removed).
void ExpectStep3ByDefinition(const Instance& inst, int max_passes) {
  const Step3Outcome model = Step3ByDefinition(inst, max_passes);
  PreprocessOptions options;
  options.step1_forced_singletons = false;
  options.step4_k2_singleton_prune = false;
  options.step2_partition = false;
  options.max_step3_passes = max_passes;
  auto pre = Preprocess(inst, options);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  EXPECT_EQ(pre->stats.step3_passes, model.passes);
  EXPECT_EQ(pre->stats.classifiers_removed_step3, model.removed.size());
  EXPECT_EQ(pre->stats.forced_selections_step3, model.forced.size());
  const std::vector<PropertySet> forced = pre->forced.Sorted();
  EXPECT_EQ(std::set<PropertySet>(forced.begin(), forced.end()),
            model.forced);
  EXPECT_EQ(pre->stats.queries_covered,
            static_cast<size_t>(std::ranges::count(model.alive, false)));
  std::vector<PropertySet> live;
  for (size_t qi = 0; qi < inst.NumQueries(); ++qi) {
    if (model.alive[qi]) live.push_back(inst.queries()[qi]);
  }
  EXPECT_EQ(pre->components.empty() ? std::vector<PropertySet>{}
                                    : pre->components[0].queries(),
            live);
  for (const Instance& residual : pre->components) {
    for (const PropertySet& q : residual.queries()) {
      ForEachNonEmptySubset(q, [&](const PropertySet& c) {
        const Cost original = inst.CostOf(c);
        if (IsInfiniteCost(original)) return;
        if (model.removed.count(c) != 0) {
          EXPECT_TRUE(IsInfiniteCost(residual.CostOf(c))) << c.ToString();
        } else {
          EXPECT_EQ(residual.CostOf(c), model.forced.count(c) ? 0 : original)
              << c.ToString();
        }
      });
    }
  }
}

// Step 3 against Observation 3.3 and lines 10-11 of Algorithm 1 applied by
// definition: its first pass, and every pass to the fixpoint.
class Step3DefinitionTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, Step3DefinitionTest, ::testing::Range(0, 100));

TEST_P(Step3DefinitionTest, FirstPassRemovesExactlyTheDominatedClassifiers) {
  ExpectStep3ByDefinition(Step3Instance(GetParam()), 1);
}

TEST_P(Step3DefinitionTest, EveryPassMatchesTheDefinition) {
  ExpectStep3ByDefinition(Step3Instance(GetParam()),
                          std::numeric_limits<int>::max());
}

void ExpectSameStats(const PreprocessStats& a, const PreprocessStats& b) {
  EXPECT_EQ(a.singleton_queries_selected, b.singleton_queries_selected);
  EXPECT_EQ(a.zero_weight_selected, b.zero_weight_selected);
  EXPECT_EQ(a.classifiers_removed_step3, b.classifiers_removed_step3);
  EXPECT_EQ(a.forced_selections_step3, b.forced_selections_step3);
  EXPECT_EQ(a.step3_passes, b.step3_passes);
  EXPECT_EQ(a.singletons_removed_step4, b.singletons_removed_step4);
  EXPECT_EQ(a.selections_step4, b.selections_step4);
  EXPECT_EQ(a.queries_covered, b.queries_covered);
  EXPECT_EQ(a.num_components, b.num_components);
  EXPECT_EQ(a.remaining_queries, b.remaining_queries);
  EXPECT_EQ(a.remaining_classifiers, b.remaining_classifiers);
}

// The public Instance entry points against the core the solvers run over
// one table: Algorithm 1's forced set, stats and residual components, the
// WSC reduction of each component, and FinishSolve of the core's plans.
class OneTableWrapperTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, OneTableWrapperTest, ::testing::Range(0, 100));

TEST_P(OneTableWrapperTest, InstanceEntryPointsMatchTheTableCore) {
  const Instance inst = Step3Instance(GetParam());
  const ClassifierTable table(inst.queries(), inst.costs());
  auto residual = Preprocess(table, inst.property_names(), PreprocessOptions{});
  auto pre = Preprocess(inst);
  ASSERT_TRUE(residual.ok()) << residual.status().ToString();
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  std::vector<PropertySet> forced;
  for (ClassifierId id : residual->forced) {
    forced.push_back(PropertySet::FromSorted(table.classifier(id)));
  }
  EXPECT_EQ(pre->forced.classifiers(), forced);
  EXPECT_EQ(pre->forced_cost, residual->forced_cost);
  ExpectSameStats(pre->stats, residual->stats);

  ASSERT_EQ(pre->components.size(), residual->components.size());
  size_t remaining = 0;
  for (size_t c = 0; c < pre->components.size(); ++c) {
    SCOPED_TRACE("component " + std::to_string(c));
    const ClassifierTable component(table, residual->components[c],
                                    residual->prices);
    const Instance& wrapped = pre->components[c];
    remaining += component.size();
    ASSERT_EQ(wrapped.NumQueries(), component.num_queries());
    for (size_t qi = 0; qi < component.num_queries(); ++qi) {
      EXPECT_EQ(wrapped.queries()[qi], component.query(qi));
    }
    // The component's store numbers its classifiers as the table does.
    ASSERT_EQ(wrapped.costs().size(), component.size());
    for (ClassifierId id = 0; id < component.size(); ++id) {
      EXPECT_EQ(wrapped.costs().Classifier(id),
                PropertySet::FromSorted(component.classifier(id)));
      EXPECT_EQ(wrapped.costs().cost(id), component.cost(id));
    }
    const WscReduction a = ReduceToWsc(wrapped);
    const WscReduction b = ReduceToWsc(component);
    EXPECT_EQ(a.wsc.num_elements, b.wsc.num_elements);
    EXPECT_EQ(a.element_offset, b.element_offset);
    ASSERT_EQ(a.wsc.sets.size(), b.wsc.sets.size());
    for (size_t i = 0; i < a.wsc.sets.size(); ++i) {
      EXPECT_EQ(a.wsc.sets[i].elements, b.wsc.sets[i].elements);
      EXPECT_EQ(a.wsc.sets[i].cost, b.wsc.sets[i].cost);
      EXPECT_EQ(a.set_to_classifier[i],
                PropertySet::FromSorted(component.classifier(b.set_to_id[i])));
    }
  }
  EXPECT_EQ(residual->stats.remaining_classifiers, remaining);

  SolverOptions defaults;
  SolverOptions unpreprocessed;
  unpreprocessed.preprocess = false;
  SolverOptions exact_components;
  exact_components.exact_component_max_queries = 3;
  for (const SolverOptions& options :
       {defaults, unpreprocessed, exact_components}) {
    std::vector<ClassifierId> plan;
    SolveResult stats;
    ASSERT_TRUE(GeneralSolver(options)
                    .SolveTable(table, inst.property_names(), &plan, &stats)
                    .ok());
    Solution solution;
    for (ClassifierId id : plan) {
      solution.Add(PropertySet::FromSorted(table.classifier(id)));
    }
    auto wrapped = FinishSolve(inst, solution, /*prune_unused=*/true);
    auto core = FinishSolve(table, plan, defaults);
    ASSERT_TRUE(wrapped.ok() && core.ok());
    EXPECT_EQ(wrapped->solution.classifiers(), core->solution.classifiers());
    EXPECT_EQ(wrapped->cost, core->cost);
    auto solved = GeneralSolver(options).Solve(inst);
    ASSERT_TRUE(solved.ok());
    EXPECT_EQ(solved->solution.classifiers(), core->solution.classifiers());
  }
}

// Property-based: preprocessing preserves the optimal cost.
class PreprocessOptimalityTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, PreprocessOptimalityTest,
                         ::testing::Range(0, 40));

TEST_P(PreprocessOptimalityTest, ForcedPlusResidualOptimumEqualsOptimum) {
  RandomInstanceConfig config;
  config.num_queries = 5;
  config.pool = 6;
  config.max_query_length = 3;
  const Instance inst = RandomInstance(config, GetParam() * 101 + 13);
  const ExactSolver exact;

  auto whole = exact.Solve(inst);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();

  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  Cost preprocessed_total = pre->forced_cost;
  for (const Instance& comp : pre->components) {
    auto comp_result = exact.Solve(comp);
    ASSERT_TRUE(comp_result.ok()) << comp_result.status().ToString();
    preprocessed_total += comp_result->cost;
  }
  EXPECT_DOUBLE_EQ(preprocessed_total, whole->cost);
}

TEST_P(PreprocessOptimalityTest, EveryQueryCoveredOrInExactlyOneComponent) {
  RandomInstanceConfig config;
  config.num_queries = 7;
  config.pool = 9;
  config.max_query_length = 4;
  const Instance inst = RandomInstance(config, GetParam() * 7 + 3);
  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  size_t residual_queries = 0;
  for (const Instance& comp : pre->components) {
    residual_queries += comp.NumQueries();
    EXPECT_TRUE(comp.Validate().ok());
    EXPECT_TRUE(comp.IsFeasible());
  }
  size_t covered = 0;
  for (const PropertySet& q : inst.queries()) {
    Instance single;
    single.AddQuery(q);
    if (Covers(single, pre->forced)) ++covered;
  }
  // Queries covered by forced selections do not appear in components; the
  // rest appear exactly once.
  EXPECT_EQ(covered, pre->stats.queries_covered);
  EXPECT_EQ(residual_queries + covered, inst.NumQueries());
}

// k <= 2 instances, where step 4 applies. The FastPath suite names date from
// a separate k <= 2 worker and are kept so the test ids stay stable.
class FastPathEquivalenceTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FastPathEquivalenceTest,
                         ::testing::Range(0, 30));

TEST_P(FastPathEquivalenceTest, SameForcedCostAndResidualOptimum) {
  RandomInstanceConfig config;
  config.num_queries = 8;
  config.pool = 8;
  config.max_query_length = 2;
  config.zero_probability = 0.1;
  const Instance inst = RandomInstance(config, GetParam() * 271 + 3);

  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  // Forced cost + optimal residual cost must equal the true optimum.
  const ExactSolver exact;
  Cost total = pre->forced_cost;
  for (const Instance& comp : pre->components) {
    auto result = exact.Solve(comp);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    total += result->cost;
  }
  auto whole = exact.Solve(inst);
  ASSERT_TRUE(whole.ok());
  EXPECT_DOUBLE_EQ(total, whole->cost);
}

TEST_P(FastPathEquivalenceTest, SameCoveredQueryCount) {
  RandomInstanceConfig config;
  config.num_queries = 10;
  config.pool = 9;
  config.max_query_length = 2;
  const Instance inst = RandomInstance(config, GetParam() * 389 + 7);
  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  // The stats agree with a recount of the result: the forced set covers
  // exactly the covered queries, and the components hold the rest, each
  // connected and sharing no property with another.
  size_t covered = 0;
  for (const PropertySet& q : inst.queries()) {
    Instance single;
    single.AddQuery(q);
    if (Covers(single, pre->forced)) ++covered;
  }
  EXPECT_EQ(pre->stats.queries_covered, covered);
  size_t remaining = 0;
  std::vector<int> owner(config.pool, -1);
  for (size_t c = 0; c < pre->components.size(); ++c) {
    const Instance& comp = pre->components[c];
    remaining += comp.NumQueries();
    EXPECT_EQ(PartitionQueries(comp.queries()).num_components, 1u);
    for (const PropertySet& q : comp.queries()) {
      for (PropertyId p : q) {
        EXPECT_TRUE(owner[p] == -1 || owner[p] == static_cast<int>(c));
        owner[p] = static_cast<int>(c);
      }
    }
  }
  EXPECT_EQ(pre->stats.remaining_queries, remaining);
  EXPECT_EQ(pre->stats.num_components, pre->components.size());
  EXPECT_EQ(covered + remaining, inst.NumQueries());
}

TEST(FastPathTest, InfeasibleMatchesGeneric) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 1);
  EXPECT_EQ(Preprocess(inst).status().code(), StatusCode::kInfeasible);
}

TEST(FastPathTest, SingletonQueryForcedBothPaths) {
  Instance inst;
  inst.AddQuery(PS({3}));
  inst.SetCost(PS({3}), 2);
  auto pre = Preprocess(inst);
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ(pre->forced_cost, 2);
  EXPECT_TRUE(pre->components.empty());
}

TEST(FastPathTest, StepTogglesHonored) {
  Instance inst;
  inst.AddQuery(PS({0, 1}));
  inst.SetCost(PS({0}), 1);
  inst.SetCost(PS({1}), 1);
  inst.SetCost(PS({0, 1}), 5);
  PreprocessOptions off;
  off.step1_forced_singletons = false;
  off.step3_decompositions = false;
  off.step4_k2_singleton_prune = false;
  auto pre = Preprocess(inst, off);
  ASSERT_TRUE(pre.ok());
  // Nothing selected or removed: everything survives to the residual.
  EXPECT_EQ(pre->forced_cost, 0);
  ASSERT_EQ(pre->components.size(), 1u);
  EXPECT_EQ(pre->components[0].costs().size(), 3u);
}

TEST(SolverOptionTest, VerificationOffStillSolvesCorrectly) {
  RandomInstanceConfig config;
  config.num_queries = 8;
  config.pool = 8;
  config.max_query_length = 2;
  const Instance inst = RandomInstance(config, 77);
  SolverOptions options;
  options.verify_solution = false;
  options.prune_unused = false;
  auto result = K2ExactSolver(options).Solve(inst);
  auto verified = K2ExactSolver().Solve(inst);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(Covers(inst, result->solution));
  EXPECT_DOUBLE_EQ(result->cost, verified->cost);
}

TEST(SolverOptionTest, PruneNeverIncreasesCost) {
  for (int seed = 0; seed < 10; ++seed) {
    RandomInstanceConfig config;
    config.num_queries = 7;
    config.pool = 7;
    config.max_query_length = 3;
    const Instance inst = RandomInstance(config, seed * 37 + 5);
    SolverOptions no_prune;
    no_prune.prune_unused = false;
    auto pruned = GeneralSolver().Solve(inst);
    auto raw = GeneralSolver(no_prune).Solve(inst);
    ASSERT_TRUE(pruned.ok());
    ASSERT_TRUE(raw.ok());
    EXPECT_LE(pruned->cost, raw->cost + 1e-9);
    EXPECT_TRUE(Covers(inst, pruned->solution));
  }
}

}  // namespace
}  // namespace mc3
