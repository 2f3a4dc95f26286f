#include "core/solver.h"

#include "core/classifier_table.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace mc3 {

Result<SolveResult> FinishSolve(const Instance& instance, Solution solution,
                                bool prune_unused, bool verify) {
  obs::ScopedSpan span("finish");
  if (verify || prune_unused) {
    // One table of the solution's classifiers serves both passes.
    const ClassifierTable table = [&] {
      obs::ScopedSpan build("classifier_table");
      return ClassifierTable(instance, solution.classifiers());
    }();
    if (verify) {
      obs::ScopedSpan check("verify");
      if (!table.CoversAll()) {
        return Status::Internal("solver produced a non-covering solution");
      }
    }
    if (prune_unused) {
      obs::ScopedSpan prune("prune");
      Solution pruned = PruneUnusedClassifiers(table, solution);
      solution = std::move(pruned);
    }
  }
  obs::ScopedSpan materialize("materialize");
  SolveResult result;
  result.cost = solution.TotalCost(instance);
  result.solution = std::move(solution);
  return result;
}

Result<std::vector<ClassifierId>> FinishPlan(const ClassifierTable& table,
                                             std::vector<ClassifierId> plan,
                                             bool prune_unused, bool verify) {
  if (verify) {
    obs::ScopedSpan check("verify");
    std::vector<bool> bought(table.size(), false);
    for (ClassifierId id : plan) bought[id] = true;
    for (size_t qi = 0; qi < table.num_queries(); ++qi) {
      uint32_t covered = 0;
      for (const QuerySubset& s : table.subsets(qi)) {
        if (bought[s.id]) covered |= s.mask;
      }
      const size_t length = table.query(qi).size();
      if (length > kMaxQueryLength || covered != FullMask(length)) {
        return Status::Internal("solver produced a non-covering solution");
      }
    }
  }
  if (prune_unused) {
    obs::ScopedSpan prune("prune");
    plan = PruneUnusedClassifiers(table, std::move(plan));
  }
  return plan;
}

Result<SolveResult> FinishSolve(const ClassifierTable& table,
                                std::vector<ClassifierId> plan,
                                const SolverOptions& options,
                                SolveResult stats) {
  obs::ScopedSpan span("finish");
  Result<std::vector<ClassifierId>> kept =
      FinishPlan(table, std::move(plan), options.prune_unused,
                 options.verify_solution);
  if (!kept.ok()) return kept.status();
  obs::ScopedSpan materialize("materialize");
  for (ClassifierId id : *kept) {
    stats.cost += table.cost(id);
    stats.solution.Add(PropertySet::FromSorted(table.classifier(id)));
  }
  return stats;
}

Status SolveComponents(const ClassifierTable& table,
                       const SolverOptions& options,
                       const std::vector<std::string>& names,
                       const ComponentSolver& solve_component,
                       std::vector<ClassifierId>* plan, SolveResult* stats) {
  Timer preprocess_timer;
  std::vector<bool> bought(table.size(), false);
  const auto buy = [&](ClassifierId id) {
    if (!bought[id]) {
      bought[id] = true;
      plan->push_back(id);
    }
  };
  Residual residual;
  if (options.preprocess) {
    Result<Residual> pre =
        Preprocess(table, names, options.preprocess_options);
    if (!pre.ok()) return pre.status();
    residual = std::move(*pre);
    for (ClassifierId id : residual.forced) buy(id);
  } else if (!table.CoversAll()) {
    return Status::Infeasible("no finite-cost solution exists");
  }
  stats->preprocess_seconds = preprocess_timer.Seconds();

  Timer solve_timer;
  // Without Algorithm 1 the one component is the whole table.
  const size_t count =
      options.preprocess ? residual.components.size() : size_t{1};
  std::vector<std::vector<ClassifierId>> picks(count);
  std::vector<Status> statuses(count);
  const obs::TraceContext trace_context = obs::CurrentTraceContext();
  ParallelFor(count, options.num_threads, [&](size_t i) {
    obs::ScopedSpanAdoption adopt(trace_context);
    if (!options.preprocess) {
      statuses[i] = solve_component(table, &picks[i]);
      return;
    }
    const ClassifierTable component(table, residual.components[i],
                                    residual.prices);
    statuses[i] = solve_component(component, &picks[i]);
    for (size_t k = 0; k < picks[i].size(); ++k) {
      picks[i][k] = component.parent_id(picks[i][k]);
    }
  });
  stats->num_components = count;
  for (size_t i = 0; i < count; ++i) {
    MC3_RETURN_IF_ERROR(statuses[i]);
    for (ClassifierId id : picks[i]) buy(id);
  }
  stats->solve_seconds = solve_timer.Seconds();
  return Status::OK();
}

ClassifierTable BuildSolveTable(const std::vector<PropertySet>& queries,
                                const ClassifierStore& prices) {
  obs::ScopedSpan build("classifier_table");
  ClassifierTable table(queries, prices);
  build.AddStat("classifiers", static_cast<double>(table.size()));
  build.AddStat("subsets", static_cast<double>(table.num_subsets()));
  return table;
}

}  // namespace mc3
