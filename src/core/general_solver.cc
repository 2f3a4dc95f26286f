#include "core/general_solver.h"

#include <algorithm>

#include "core/classifier_table.h"
#include "core/exact_solver.h"
#include "core/k2_solver.h"
#include "core/wsc_reduction.h"
#include "obs/trace.h"
#include "setcover/greedy.h"
#include "setcover/lp_rounding.h"
#include "setcover/primal_dual.h"

namespace mc3 {
namespace {

Status SolveComponent(const ClassifierTable& component,
                      const SolverOptions& options,
                      const std::vector<std::string>& names,
                      std::vector<ClassifierId>* plan) {
  obs::ScopedSpan span("general_component");
  span.AddStat("queries", static_cast<double>(component.num_queries()));
  // Extension: tiny components can be closed exactly.
  if (options.exact_component_max_queries > 0 &&
      component.num_queries() <= options.exact_component_max_queries) {
    obs::ScopedSpan exact_span("exact_component");
    ExactSolver::Limits limits;
    limits.max_queries = options.exact_component_max_queries;
    // The instance's store numbers the classifiers as the table does.
    const Instance instance = ComponentInstance(component, {});
    auto exact = ExactSolver(limits).Solve(instance);
    if (exact.ok()) {
      for (const PropertySet& classifier : exact->solution.classifiers()) {
        plan->push_back(instance.costs().Find(classifier.ids()));
      }
      return Status::OK();
    }
    if (exact.status().code() != StatusCode::kInvalidArgument) {
      return exact.status();
    }
    // Too large for the oracle after all; fall through to approximation.
  }
  // All-short components are in the exact PTIME regime (Theorem 4.1): route
  // them through Algorithm 2 instead of the WSC approximation — the same
  // path they would take were they the whole instance. Only an upgrade of
  // the configured pipeline: with every WSC algorithm disabled the
  // misconfiguration error below still fires.
  const bool wsc_enabled =
      options.run_greedy || options.f_method != SolverOptions::FMethod::kNone;
  size_t max_length = 0;
  for (size_t qi = 0; qi < component.num_queries(); ++qi) {
    max_length = std::max(max_length, component.query(qi).size());
  }
  if (wsc_enabled && component.num_queries() > 0 && max_length <= 2) {
    SolverOptions k2_options = options;
    k2_options.num_threads = 1;  // already inside the component loop
    obs::ScopedSpan k2_span("k2_solver");
    SolveResult stats;
    return K2ExactSolver(std::move(k2_options))
        .SolveTable(component, names, plan, &stats);
  }
  obs::ScopedSpan wsc_span("wsc");
  const WscReduction reduction = [&] {
    obs::ScopedSpan reduce_span("wsc_reduce");
    WscReduction r = ReduceToWsc(component);
    reduce_span.AddStat("elements",
                        static_cast<double>(r.wsc.num_elements));
    reduce_span.AddStat("sets", static_cast<double>(r.wsc.sets.size()));
    return r;
  }();

  bool have_best = false;
  setcover::WscSolution best;
  auto consider = [&](Result<setcover::WscSolution> candidate) -> Status {
    if (!candidate.ok()) return candidate.status();
    if (!have_best || candidate->cost < best.cost) {
      best = std::move(*candidate);
      have_best = true;
    }
    return Status::OK();
  };

  if (options.run_greedy) {
    MC3_RETURN_IF_ERROR(consider(setcover::SolveGreedy(reduction.wsc)));
  }
  switch (options.f_method) {
    case SolverOptions::FMethod::kNone:
      break;
    case SolverOptions::FMethod::kPrimalDual:
      MC3_RETURN_IF_ERROR(consider(setcover::SolvePrimalDual(reduction.wsc)));
      break;
    case SolverOptions::FMethod::kLpRounding:
      MC3_RETURN_IF_ERROR(consider(setcover::SolveLpRounding(reduction.wsc)));
      break;
  }
  if (!have_best) {
    return Status::InvalidArgument(
        "GeneralSolver configured with no WSC algorithm enabled");
  }
  for (setcover::SetId set : best.selected) {
    plan->push_back(reduction.set_to_id[set]);
  }
  return Status::OK();
}

}  // namespace

Result<SolveResult> GeneralSolver::Solve(const Instance& instance) const {
  return Solve(instance.queries(), instance.costs(),
               instance.property_names());
}

Result<SolveResult> GeneralSolver::Solve(
    const std::vector<PropertySet>& queries, const ClassifierStore& prices,
    const std::vector<std::string>& names) const {
  obs::ScopedSpan span("general_solver");
  const ClassifierTable table = BuildSolveTable(queries, prices);
  std::vector<ClassifierId> plan;
  SolveResult stats;
  MC3_RETURN_IF_ERROR(SolveTable(table, names, &plan, &stats));
  return FinishSolve(table, std::move(plan), options_, std::move(stats));
}

Status GeneralSolver::SolveTable(const ClassifierTable& table,
                                 const std::vector<std::string>& names,
                                 std::vector<ClassifierId>* plan,
                                 SolveResult* stats) const {
  return SolveComponents(
      table, options_, names,
      [&](const ClassifierTable& component,
          std::vector<ClassifierId>* picks) {
        return SolveComponent(component, options_, names, picks);
      },
      plan, stats);
}

}  // namespace mc3
