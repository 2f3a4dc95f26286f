// Extension bench (paper Section 8 future work, implemented in this
// library):
//   1. Budgeted partial cover — covered query weight as a function of the
//      budget, on a P-like workload (density-greedy heuristic).
//   2. Overlapping construction costs — plan cost under the shared-labeling
//      model: the paper's independent-cost pipeline (flatten, then
//      Algorithm 3) versus the sharing-aware greedy.
#include "bench/bench_util.h"
#include "data/private_dataset.h"
#include "util/rng.h"
#include "util/float_cmp.h"

namespace {

using namespace mc3;
using namespace mc3::bench;

void BudgetedCurve() {
  PrintHeader("Extension: budgeted partial cover (weight vs budget)");
  data::PrivateConfig config;
  config.electronics_queries = Scaled(1200);
  config.home_garden_queries = Scaled(800);
  config.fashion_queries = Scaled(300);
  const data::PrivateDataset dataset = data::GeneratePrivate(config);

  BudgetedInstance input;
  input.instance = dataset.instance;
  Rng rng(11);
  double total_weight = 0;
  for (size_t i = 0; i < input.instance.NumQueries(); ++i) {
    const double w = 1 + double(rng.UniformInt(0, 9));
    input.query_weights.push_back(w);
    total_weight += w;
  }
  // Reference: cost of covering everything.
  auto full = GeneralSolver().Solve(input.instance);
  if (!full.ok()) {
    std::fprintf(stderr, "full solve failed: %s\n",
                 full.status().ToString().c_str());
    return;
  }

  TablePrinter table({"budget (% of full-cover cost)", "spent",
                      "covered weight", "% of total weight"});
  for (double fraction : {0.05, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    input.budget = fraction * full->cost;
    auto result = SolveBudgetedGreedy(input);
    if (!result.ok()) continue;
    table.AddRow({TablePrinter::Num(100 * fraction, 0) + "%",
                  TablePrinter::Num(result->spent, 0),
                  TablePrinter::Num(result->covered_weight, 0),
                  TablePrinter::Num(
                      100 * result->covered_weight / total_weight, 1) + "%"});
  }
  std::printf("full-cover cost: %.0f, total weight: %.0f\n%s\n", full->cost,
              total_weight, table.ToString().c_str());
  std::printf(
      "Expected shape: strongly concave — most of the weight is covered by\n"
      "a small fraction of the full budget (cheap high-weight queries\n"
      "first).\n");
}

void SharedLabelingComparison() {
  PrintHeader("Extension: overlapping construction costs");
  data::PrivateConfig config;
  config.electronics_queries = Scaled(400);
  config.home_garden_queries = Scaled(300);
  config.fashion_queries = Scaled(100);
  const data::PrivateDataset dataset = data::GeneratePrivate(config);
  const Instance& instance = dataset.instance;

  // Decompose the dataset's costs: ~60% of each classifier's cost is
  // labeling, split over its properties; the rest is classifier-specific.
  SharedLabelingModel model;
  Rng rng(7);
  for (const PropertySet& q : instance.queries()) {
    for (PropertyId p : q) {
      if (model.label_costs.count(p) == 0) {
        const Cost single = instance.CostOf(PropertySet::Of({p}));
        model.label_costs[p] =
            IsInfiniteCost(single) ? 3.0 : 0.6 * single;
      }
    }
  }
  for (ClassifierId id : instance.costs().ids()) {
    Cost labels = 0;
    for (PropertyId p : instance.costs().key(id)) {
      labels += model.label_costs[p];
    }
    const Cost base = std::max(0.0, instance.costs().cost(id) - 0.6 * labels);
    model.base_costs.Set(instance.costs().key(id), base);
  }

  // Pipeline A (the paper's model): flatten to independent costs, run
  // Algorithm 3, then price the chosen plan under the true shared model.
  const Instance flat = FlattenToIndependentCosts(instance, model);
  auto flat_plan = GeneralSolver().Solve(flat);
  // Pipeline B: sharing-aware greedy.
  auto shared_plan = SolveSharedLabelingGreedy(instance, model);
  if (!flat_plan.ok() || !shared_plan.ok()) {
    std::fprintf(stderr, "solve failed\n");
    return;
  }
  const Cost flat_under_shared = model.SetCost(flat_plan->solution);

  TablePrinter table({"pipeline", "plan cost under shared model"});
  table.AddRow({"independent-cost model (paper)",
                TablePrinter::Num(flat_under_shared, 0)});
  table.AddRow({"sharing-aware greedy (extension)",
                TablePrinter::Num(shared_plan->cost, 0)});
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Expected shape: the sharing-aware plan is cheaper (or equal) — it\n"
      "amortizes labeling across classifiers that share properties.\n");
}

}  // namespace

int main() {
  BudgetedCurve();
  SharedLabelingComparison();
  return 0;
}
