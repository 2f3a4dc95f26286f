// The Short-First heuristic ("SF" in the paper's experiments, introduced at
// the end of Section 4): first cover the queries of length at most two
// optimally with Algorithm 2, then run Algorithm 3 on the residual problem
// (the longer queries), with the already-selected classifiers available at
// cost zero. The paper reports this to be the best strategy on workloads
// where short queries dominate (e.g. the fashion category, 96% short).
#pragma once

#include "core/solver.h"

namespace mc3 {

/// Combined solver: exact on short queries, approximate on the rest.
class ShortFirstSolver : public Solver {
 public:
  explicit ShortFirstSolver(SolverOptions options = {})
      : options_(std::move(options)) {}

  std::string Name() const override { return "sf"; }
  Result<SolveResult> Solve(const Instance& instance) const override;

  /// Solves `queries` at `prices` through one table of them: each phase
  /// reads the table of its queries derived from it. `names` names
  /// properties in errors.
  Result<SolveResult> Solve(const std::vector<PropertySet>& queries,
                            const ClassifierStore& prices,
                            const std::vector<std::string>& names = {}) const;

 private:
  SolverOptions options_;
};

}  // namespace mc3

