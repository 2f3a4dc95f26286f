// Algorithm 2: the exact PTIME solver for MC3 restricted to queries of
// length at most two (paper Section 4, Theorem 4.1).
//
// Pipeline: preprocessing (Algorithm 1) -> per component, reduce to
// bipartite Weighted Vertex Cover (left vertices = singleton classifiers,
// right vertices = length-2 classifiers, two edges per query) -> reduce to
// Max-Flow -> min cut -> translate the cover back to classifiers.
#pragma once

#include "core/solver.h"

namespace mc3 {

/// Exact solver for k <= 2 ("MC3[S]" in the paper's experiments). Returns
/// InvalidArgument when a query longer than two properties is present and
/// kInfeasible when no finite-cost solution exists.
class K2ExactSolver : public Solver {
 public:
  explicit K2ExactSolver(SolverOptions options = {})
      : options_(std::move(options)) {}

  std::string Name() const override { return "mc3s"; }
  Result<SolveResult> Solve(const Instance& instance) const override;

  /// Solves `queries` at `prices` through one table of them, built once and
  /// read by every stage; `names` names properties in errors.
  Result<SolveResult> Solve(const std::vector<PropertySet>& queries,
                            const ClassifierStore& prices,
                            const std::vector<std::string>& names = {}) const;

  /// Algorithm 2 over `table` (queries of length <= 2) without
  /// FinishSolve: appends the table ids of the classifiers it buys to
  /// `plan` (distinct, in buying order) and fills `stats`'s component count
  /// and timings.
  Status SolveTable(const ClassifierTable& table,
                    const std::vector<std::string>& names,
                    std::vector<ClassifierId>* plan, SolveResult* stats) const;

 private:
  SolverOptions options_;
};

}  // namespace mc3

