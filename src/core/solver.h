// Common solver interface shared by the paper's algorithms and baselines.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/preprocess.h"
#include "core/solution.h"
#include "flow/max_flow.h"
#include "util/status.h"

namespace mc3 {

class ClassifierTable;

/// Options shared by the MC3 solvers.
struct SolverOptions {
  /// Run Algorithm 1 first (figures 3c/3e/3f contrast on/off).
  bool preprocess = true;
  PreprocessOptions preprocess_options;

  /// Max-flow engine for the k = 2 exact solver. The paper reports Dinic
  /// [10] performed best.
  flow::MaxFlowAlgorithm max_flow = flow::MaxFlowAlgorithm::kDinic;

  /// Algorithm 3 components: the greedy WSC algorithm [6] and the
  /// f-approximation. The paper runs both and keeps the cheaper output.
  bool run_greedy = true;
  enum class FMethod {
    kNone,        ///< greedy only
    kPrimalDual,  ///< factor-f via primal-dual (scalable default)
    kLpRounding,  ///< factor-f via LP relaxation + 1/f rounding (literal
                  ///< algorithm of [50]; dense simplex, small instances)
  };
  FMethod f_method = FMethod::kPrimalDual;

  /// Post-pass dropping classifiers no query's cheapest witness uses (never
  /// increases cost).
  bool prune_unused = true;

  /// Defensive re-verification that the assembled solution covers every
  /// query (linear in the instance size). On by default; the runtime
  /// benches disable it on both arms to time the algorithms alone, as the
  /// paper does.
  bool verify_solution = true;

  /// Extension: components whose query count does not exceed this threshold
  /// are solved exactly (branch-and-bound) instead of approximately; 0
  /// disables. Step 2 of the preprocessing often produces many tiny
  /// components for which the exact optimum is cheap to compute.
  size_t exact_component_max_queries = 0;

  /// Worker threads for solving independent sub-instances concurrently
  /// (the parallelism step 2 of Algorithm 1 enables; paper Section 3).
  /// 1 = sequential.
  size_t num_threads = 1;

  /// Extension (off = paper-faithful): when Short-First runs Algorithm 3 on
  /// the residual long queries, price the classifiers already selected by
  /// the exact short phase at zero so they are reused instead of repurchased.
  /// The paper's SF solves the residual with original costs.
  bool short_first_reuse_selections = false;
};

/// A solved instance: the classifiers to train and diagnostics.
struct SolveResult {
  Solution solution;
  /// Total construction cost under the instance's weight function.
  Cost cost = 0;
  /// Number of independent sub-instances processed.
  size_t num_components = 0;
  /// Algorithm 1 (or, with it off, the feasibility check).
  double preprocess_seconds = 0;
  /// The component solves.
  double solve_seconds = 0;
};

/// Abstract solver.
class Solver {
 public:
  virtual ~Solver() = default;
  /// Short identifier used in benches ("mc3s", "mc3g", "qo", ...).
  virtual std::string Name() const = 0;
  /// Solves `instance`; the instance must pass Instance::Validate().
  virtual Result<SolveResult> Solve(const Instance& instance) const = 0;
};

/// Assembles a SolveResult from a full solution: verifies coverage (when
/// `verify` is set), optionally prunes unused classifiers, and computes the
/// cost under the original instance. Returns Internal if verification finds
/// an uncovered query.
Result<SolveResult> FinishSolve(const Instance& instance, Solution solution,
                                bool prune_unused, bool verify = true);

/// The verification and pruning of FinishSolve over a solve's own table:
/// `plan` holds distinct table ids in the order they were bought, and both
/// passes read the table's rows. Returns the kept ids in plan order.
Result<std::vector<ClassifierId>> FinishPlan(const ClassifierTable& table,
                                             std::vector<ClassifierId> plan,
                                             bool prune_unused, bool verify);

/// FinishSolve over a solve's own table: FinishPlan under `options`, then
/// the cost at the table's prices and the solution, materialized last in
/// plan order under a `materialize` span, into `stats` (which carries the
/// component count and timings).
Result<SolveResult> FinishSolve(const ClassifierTable& table,
                                std::vector<ClassifierId> plan,
                                const SolverOptions& options,
                                SolveResult stats = {});

/// Solves one residual component given by its table, appending the
/// component table's ids of the classifiers it buys to `plan`.
using ComponentSolver =
    std::function<Status(const ClassifierTable& component,
                         std::vector<ClassifierId>* plan)>;

/// The frame GeneralSolver and K2ExactSolver share over a table: Algorithm
/// 1 when `options.preprocess` (else the feasibility check), then
/// `solve_component` on each residual component, in parallel over
/// `options.num_threads`. Appends the forced classifiers and then each
/// component's picks to `plan` as distinct ids of `table`, each where it
/// first appears, and fills `stats`'s component count and timings.
Status SolveComponents(const ClassifierTable& table,
                       const SolverOptions& options,
                       const std::vector<std::string>& names,
                       const ComponentSolver& solve_component,
                       std::vector<ClassifierId>* plan, SolveResult* stats);

/// Builds the one table of a solve, under a `classifier_table` span with
/// its `classifiers` and `subsets` counts.
ClassifierTable BuildSolveTable(const std::vector<PropertySet>& queries,
                                const ClassifierStore& prices);

}  // namespace mc3

