#include "core/solver.h"

#include "core/classifier_table.h"
#include "obs/trace.h"

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
      Solution pruned = PruneUnusedClassifiers(instance, table, solution);
      solution = std::move(pruned);
    }
  }
  SolveResult result;
  result.cost = solution.TotalCost(instance);
  result.solution = std::move(solution);
  return result;
}

}  // namespace mc3
