// Algorithm 3: the approximation solver for general MC3 (paper Section 5.2).
//
// Pipeline: preprocessing (Algorithm 1) -> per component, reduce to Weighted
// Set Cover -> run the greedy (ln Delta + 1)-approximation and a factor-f
// algorithm -> keep the cheaper of the two outputs. The combined guarantee
// is min{ln I + ln(k-1) + 1, 2^(k-1)} (Theorem 5.3).
#pragma once

#include "core/solver.h"

namespace mc3 {

/// Approximation solver for arbitrary k ("MC3[G]" in the paper's
/// experiments). Returns kInfeasible when no finite-cost solution exists.
class GeneralSolver : public Solver {
 public:
  explicit GeneralSolver(SolverOptions options = {})
      : options_(std::move(options)) {}

  std::string Name() const override { return "mc3g"; }
  Result<SolveResult> Solve(const Instance& instance) const override;

  /// Solves `queries` at `prices` through one table of them, built once and
  /// read by every stage; `names` names properties in errors.
  Result<SolveResult> Solve(const std::vector<PropertySet>& queries,
                            const ClassifierStore& prices,
                            const std::vector<std::string>& names = {}) const;

  /// Algorithm 3 over `table` without FinishSolve: appends the table ids
  /// of the classifiers it buys to `plan` (distinct, in buying order) and
  /// fills `stats`'s component count and timings.
  Status SolveTable(const ClassifierTable& table,
                    const std::vector<std::string>& names,
                    std::vector<ClassifierId>* plan, SolveResult* stats) const;

 private:
  SolverOptions options_;
};

}  // namespace mc3

