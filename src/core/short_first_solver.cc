#include "core/short_first_solver.h"

#include "core/general_solver.h"
#include "core/instance_util.h"
#include "core/k2_solver.h"
#include "util/timer.h"

namespace mc3 {

Result<SolveResult> ShortFirstSolver::Solve(const Instance& instance) const {
  std::vector<size_t> short_idx;
  std::vector<size_t> long_idx;
  for (size_t i = 0; i < instance.NumQueries(); ++i) {
    (instance.queries()[i].size() <= 2 ? short_idx : long_idx).push_back(i);
  }
  if (short_idx.empty()) {
    return GeneralSolver(options_).Solve(instance);
  }
  if (long_idx.empty()) {
    return K2ExactSolver(options_).Solve(instance);
  }

  Timer timer;
  // Phase 1: exact cover of the short queries.
  const Instance short_part = SubInstance(instance, short_idx);
  auto short_result = K2ExactSolver(options_).Solve(short_part);
  if (!short_result.ok()) return short_result.status();

  // Phase 2: the residual problem. Optionally (extension, see
  // SolverOptions) classifiers already selected in phase 1 are available
  // for free; the paper's SF prices the residual with original costs.
  Instance long_part = SubInstance(instance, long_idx);
  if (options_.short_first_reuse_selections) {
    // Walk the long queries over a store of the phase-1 classifiers.
    ClassifierStore selected;
    for (const PropertySet& c : short_result->solution.classifiers()) {
      selected.Set(c.ids(), 0);
    }
    std::vector<QuerySubset> reused;
    for (const PropertySet& q : long_part.queries()) {
      reused.clear();
      selected.AppendSubsets(q.ids(), &reused);
      for (const QuerySubset& s : reused) {
        long_part.SetCost(selected.key(s.id), 0);
      }
    }
  }
  auto long_result = GeneralSolver(options_).Solve(long_part);
  if (!long_result.ok()) return long_result.status();

  Solution merged = std::move(short_result->solution);
  merged.Merge(long_result->solution);
  auto result =
      FinishSolve(instance, std::move(merged), options_.prune_unused,
                  options_.verify_solution);
  if (!result.ok()) return result.status();
  result->num_components =
      short_result->num_components + long_result->num_components;
  result->solve_seconds = timer.Seconds();
  return result;
}

}  // namespace mc3
