#include "core/short_first_solver.h"

#include "core/classifier_table.h"
#include "core/general_solver.h"
#include "core/k2_solver.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace mc3 {
namespace {

/// One phase over `table`, the phase's table derived from the solve's:
/// `solver` buys, and the purchase is verified and pruned over the phase's
/// queries as a solve of them alone would be. Returns the kept classifiers
/// as ids of the solve's table.
template <typename PhaseSolver>
Result<std::vector<ClassifierId>> SolvePhase(
    const char* span_name, const PhaseSolver& solver,
    const ClassifierTable& table, const std::vector<std::string>& names,
    const SolverOptions& options, size_t* num_components) {
  obs::ScopedSpan span(span_name);
  std::vector<ClassifierId> plan;
  SolveResult stats;
  MC3_RETURN_IF_ERROR(solver.SolveTable(table, names, &plan, &stats));
  *num_components = stats.num_components;
  obs::ScopedSpan finish("finish");
  Result<std::vector<ClassifierId>> kept = FinishPlan(
      table, std::move(plan), options.prune_unused, options.verify_solution);
  if (!kept.ok()) return kept.status();
  for (ClassifierId& id : *kept) id = table.parent_id(id);
  return kept;
}

}  // namespace

Result<SolveResult> ShortFirstSolver::Solve(const Instance& instance) const {
  return Solve(instance.queries(), instance.costs(),
               instance.property_names());
}

Result<SolveResult> ShortFirstSolver::Solve(
    const std::vector<PropertySet>& queries, const ClassifierStore& prices,
    const std::vector<std::string>& names) const {
  std::vector<uint32_t> short_idx;
  std::vector<uint32_t> long_idx;
  for (size_t i = 0; i < queries.size(); ++i) {
    (queries[i].size() <= 2 ? short_idx : long_idx)
        .push_back(static_cast<uint32_t>(i));
  }
  if (short_idx.empty()) {
    return GeneralSolver(options_).Solve(queries, prices, names);
  }
  if (long_idx.empty()) {
    return K2ExactSolver(options_).Solve(queries, prices, names);
  }

  Timer timer;
  const ClassifierTable table = BuildSolveTable(queries, prices);
  std::vector<Cost> phase_prices(table.size());
  for (ClassifierId id = 0; id < table.size(); ++id) {
    phase_prices[id] = table.cost(id);
  }
  // Phase 1: exact cover of the short queries.
  size_t short_components = 0;
  auto short_plan = SolvePhase(
      "k2_solver", K2ExactSolver(options_),
      ClassifierTable(table, short_idx, phase_prices), names, options_,
      &short_components);
  if (!short_plan.ok()) return short_plan.status();

  // Phase 2: the residual problem. Optionally (extension, see
  // SolverOptions) classifiers already selected in phase 1 are available
  // for free; the paper's SF prices the residual with original costs.
  if (options_.short_first_reuse_selections) {
    for (ClassifierId id : *short_plan) phase_prices[id] = 0;
  }
  size_t long_components = 0;
  auto long_plan = SolvePhase(
      "general_solver", GeneralSolver(options_),
      ClassifierTable(table, long_idx, phase_prices), names, options_,
      &long_components);
  if (!long_plan.ok()) return long_plan.status();

  std::vector<ClassifierId> merged = std::move(*short_plan);
  std::vector<bool> bought(table.size(), false);
  for (ClassifierId id : merged) bought[id] = true;
  for (ClassifierId id : *long_plan) {
    if (!bought[id]) {
      bought[id] = true;
      merged.push_back(id);
    }
  }
  SolveResult stats;
  stats.num_components = short_components + long_components;
  stats.solve_seconds = timer.Seconds();
  return FinishSolve(table, std::move(merged), options_, std::move(stats));
}

}  // namespace mc3
