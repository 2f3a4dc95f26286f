#include "solve_bench.h"

#include <memory>
#include <vector>

#include "core/general_solver.h"
#include "core/instance_util.h"
#include "core/k2_solver.h"
#include "core/preprocess.h"
#include "core/solution.h"
#include "core/wsc_reduction.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "setcover/greedy.h"
#include "setcover/primal_dual.h"
#include "span_log.h"

namespace perfbench {
namespace {

constexpr size_t kGeneralQueries = 20000;
constexpr size_t kShortSourceQueries = 100000;
/// Loads plus layered solves per traced run; figures are their medians.
constexpr int kTracedRepeats = 3;

std::unique_ptr<mc3::Solver> MakeSolver(SolveKind kind) {
  if (kind == SolveKind::kGeneral) {
    return std::make_unique<mc3::GeneralSolver>();
  }
  return std::make_unique<mc3::K2ExactSolver>();
}

/// Recomputes a plan's cost from the instance's price table.
mc3::Cost PlanCost(const mc3::Instance& instance,
                   const mc3::Solution& solution) {
  mc3::Cost total = 0;
  for (const mc3::PropertySet& classifier : solution.classifiers()) {
    total += instance.CostOf(classifier);
  }
  return total;
}

/// Gate shared by every solve: the plan covers every query and its cost,
/// recomputed here, equals both the solver's figure and `expected_cost`
/// (the cold plan's) when given.
void CheckPlan(const mc3::Instance& instance,
               const mc3::Result<mc3::SolveResult>& result,
               const mc3::Cost* expected_cost, RunResult* out) {
  if (!result.ok()) {
    out->Fail("solve failed: " + result.status().ToString());
    return;
  }
  if (!mc3::Covers(instance, result->solution)) {
    out->Fail("plan leaves a query uncovered");
  }
  if (PlanCost(instance, result->solution) != result->cost) {
    out->Fail("plan cost does not match its classifiers");
  }
  if (expected_cost != nullptr && result->cost != *expected_cost) {
    out->Fail("plan cost differs between solves of one instance");
  }
}

/// Spans and counters of one layered solve.
struct LayeredSolve {
  mc3::Result<mc3::SolveResult> result = mc3::Status::Internal("not run");
  size_t residual_queries = 0;
  size_t components = 0;
  uint64_t augmenting_paths = 0;
  int span = -1;  ///< the "solve" span, -1 when untraced
};

/// Re-drives the solver's pipeline (Algorithm 1, then per residual
/// component Algorithm 2 or Algorithm 3, then FinishSolve) through the
/// public calls, one span per layer call. Mirrors GeneralSolver::Solve and
/// K2ExactSolver::Solve with default options; an all-short residual goes to
/// K2ExactSolver with preprocessing off.
LayeredSolve SolveLayered(SolveKind kind, const mc3::Instance& instance,
                          SpanLog& log) {
  LayeredSolve out;
  const mc3::SolverOptions options;
  mc3::obs::Counter& augmenting = mc3::obs::MetricsRegistry::Global()
                                      .GetCounter("flow.dinic.augmenting_paths");
  const uint64_t paths_before = augmenting.Value();
  ScopedSpan root(log, "solve");
  out.span = root.index();
  mc3::Result<mc3::PreprocessResult> pre = mc3::Status::Internal("not run");
  {
    ScopedSpan span(log, "core.preprocess");
    pre = mc3::Preprocess(instance, options.preprocess_options);
  }
  if (!pre.ok()) {
    out.result = pre.status();
    return out;
  }
  out.residual_queries = pre->stats.remaining_queries;
  out.components = pre->components.size();
  mc3::Solution solution;
  solution.Merge(pre->forced);
  for (const mc3::Instance& component : pre->components) {
    if (component.NumQueries() > 0 && component.MaxQueryLength() <= 2) {
      mc3::SolverOptions k2_options = options;
      k2_options.preprocess = false;
      k2_options.verify_solution = false;
      k2_options.prune_unused = false;
      mc3::Result<mc3::SolveResult> exact = mc3::Status::Internal("not run");
      {
        ScopedSpan span(log, "core.k2_component");
        exact = mc3::K2ExactSolver(k2_options).Solve(component);
      }
      if (!exact.ok()) {
        out.result = exact.status();
        return out;
      }
      solution.Merge(exact->solution);
      continue;
    }
    if (kind == SolveKind::kShort) {
      out.result = mc3::Status::Internal("k <= 2 workload left a long residual");
      return out;
    }
    mc3::WscReduction reduction;
    {
      ScopedSpan span(log, "core.wsc_reduce");
      reduction = mc3::ReduceToWsc(component);
    }
    mc3::Result<mc3::setcover::WscSolution> greedy =
        mc3::Status::Internal("not run");
    {
      ScopedSpan span(log, "setcover.greedy");
      greedy = mc3::setcover::SolveGreedy(reduction.wsc);
    }
    mc3::Result<mc3::setcover::WscSolution> primal_dual =
        mc3::Status::Internal("not run");
    {
      ScopedSpan span(log, "setcover.primal_dual");
      primal_dual = mc3::setcover::SolvePrimalDual(reduction.wsc);
    }
    if (!greedy.ok() || !primal_dual.ok()) {
      out.result = !greedy.ok() ? greedy.status() : primal_dual.status();
      return out;
    }
    // GeneralSolver keeps the greedy plan unless primal-dual is cheaper.
    const mc3::setcover::WscSolution& best =
        primal_dual->cost < greedy->cost ? *primal_dual : *greedy;
    solution.Merge(mc3::WscSolutionToMc3(reduction, best));
  }
  {
    ScopedSpan span(log, "core.finish");
    out.result = mc3::FinishSolve(instance, std::move(solution),
                                  options.prune_unused,
                                  options.verify_solution);
  }
  out.augmenting_paths = augmenting.Value() - paths_before;
  return out;
}

double SumSeconds(const SpanLog& log, const std::vector<int>& spans) {
  double total = 0;
  for (int index : spans) total += log.spans()[index].Seconds();
  return total;
}

}  // namespace

mc3::Result<SolveKind> ParseSolveKind(const std::string& name) {
  if (name == "general") return SolveKind::kGeneral;
  if (name == "short") return SolveKind::kShort;
  return mc3::Status::InvalidArgument("unknown solve kind '" + name + "'");
}

mc3::Instance GenerateSolveInstance(SolveKind kind, uint64_t bench_seed) {
  mc3::data::SyntheticConfig config;
  config.num_queries =
      kind == SolveKind::kGeneral ? kGeneralQueries : kShortSourceQueries;
  config.seed = SyntheticSeedFor(bench_seed, config.num_queries);
  mc3::Instance full = mc3::data::GenerateSynthetic(config);
  if (kind == SolveKind::kGeneral) return full;
  std::vector<size_t> short_queries;
  for (size_t i = 0; i < full.NumQueries(); ++i) {
    if (full.queries()[i].size() <= 2) short_queries.push_back(i);
  }
  return mc3::SubInstance(full, short_queries);
}

RunResult RunSolve(SolveKind kind, const std::string& csv_path,
                   double seconds) {
  RunResult out;
  const std::unique_ptr<mc3::Solver> solver = MakeSolver(kind);
  const double setup_start = Now();
  auto instance = mc3::data::LoadInstance(csv_path);
  if (!instance.ok()) {
    out.Fail("load failed: " + instance.status().ToString());
    return out;
  }
  ++out.attempted;
  const auto cold = solver->Solve(*instance);
  out.Set("setup_s", Now() - setup_start, "s");
  CheckPlan(*instance, cold, nullptr, &out);
  if (!cold.ok()) return out;
  const mc3::Cost plan_cost = cold->cost;

  std::vector<double>& wall = out.samples["solve_s"];
  std::vector<double>& cpu = out.samples["cpu_s"];
  const double warm_start = Now();
  while (wall.size() < 3 || Now() - warm_start < seconds) {
    ++out.attempted;
    const double cpu_before = ProcessCpuSeconds();
    const double started = Now();
    const auto warm = solver->Solve(*instance);
    wall.push_back(Now() - started);
    cpu.push_back(ProcessCpuSeconds() - cpu_before);
    CheckPlan(*instance, warm, &plan_cost, &out);
  }
  out.Set("plan_cost", plan_cost, "cost");
  out.Set("peak_rss_mb", PeakRssMb(), "MiB");
  out.notes["queries"] = static_cast<double>(instance->NumQueries());
  return out;
}

RunResult RunSolveTraced(SolveKind kind, const std::string& csv_path,
                         const std::string& trace_path) {
  RunResult out;
  SpanLog log;
  std::vector<double> load_ms, preprocess_ms, wsc_reduce_ms, greedy_ms,
      primal_dual_ms, k2_ms, finish_ms, unattributed_ms, traced_ms,
      untraced_ms, coverage;
  mc3::Result<mc3::Instance> instance = mc3::Status::Internal("not loaded");
  const std::unique_ptr<mc3::Solver> solver = MakeSolver(kind);
  mc3::Cost reference_cost = 0;
  LayeredSolve last;
  for (int r = 0; r < kTracedRepeats; ++r) {
    {
      const int span = log.Open("data.load");
      instance = mc3::data::LoadInstance(csv_path);
      log.Close(span);
      if (span >= 0) load_ms.push_back(1e3 * log.spans()[span].Seconds());
    }
    if (!instance.ok()) {
      out.Fail("load failed: " + instance.status().ToString());
      return out;
    }
    if (r == 0) {
      // The layered pipeline must land on the plan users get.
      ++out.attempted;
      const auto reference = solver->Solve(*instance);
      CheckPlan(*instance, reference, nullptr, &out);
      if (!reference.ok()) return out;
      reference_cost = reference->cost;
    }
    ++out.attempted;
    last = SolveLayered(kind, *instance, log);
    CheckPlan(*instance, last.result, &reference_cost, &out);
    const int root = last.span;
    const double total = log.spans()[root].Seconds();
    traced_ms.push_back(1e3 * total);
    preprocess_ms.push_back(
        1e3 * SumSeconds(log, log.ChildrenNamed(root, "core.preprocess")));
    wsc_reduce_ms.push_back(
        1e3 * SumSeconds(log, log.ChildrenNamed(root, "core.wsc_reduce")));
    greedy_ms.push_back(
        1e3 * SumSeconds(log, log.ChildrenNamed(root, "setcover.greedy")));
    primal_dual_ms.push_back(1e3 * SumSeconds(log, log.ChildrenNamed(
                                                       root, "setcover.primal_dual")));
    k2_ms.push_back(
        1e3 * SumSeconds(log, log.ChildrenNamed(root, "core.k2_component")));
    finish_ms.push_back(
        1e3 * SumSeconds(log, log.ChildrenNamed(root, "core.finish")));
    unattributed_ms.push_back(1e3 * log.SelfSeconds(root));
    coverage.push_back(log.ChildSeconds(root) / total);

    SpanLog off(/*enabled=*/false);
    const double started = Now();
    ++out.attempted;
    const LayeredSolve untraced = SolveLayered(kind, *instance, off);
    untraced_ms.push_back(1e3 * (Now() - started));
    CheckPlan(*instance, untraced.result, &reference_cost, &out);
  }
  out.Set("data.load_ms", Median(load_ms), "ms");
  out.Set("core.preprocess_ms", Median(preprocess_ms), "ms");
  out.Set("core.preprocess.residual_queries",
          static_cast<double>(last.residual_queries), "count");
  out.Set("core.preprocess.components", static_cast<double>(last.components),
          "count");
  out.Set("core.wsc_reduce_ms", Median(wsc_reduce_ms), "ms");
  out.Set("setcover.greedy_ms", Median(greedy_ms), "ms");
  out.Set("setcover.primal_dual_ms", Median(primal_dual_ms), "ms");
  out.Set("core.k2_component_ms", Median(k2_ms), "ms");
  out.Set("flow.dinic.augmenting_paths",
          static_cast<double>(last.augmenting_paths), "count");
  out.Set("core.finish_ms", Median(finish_ms), "ms");
  out.Set("core.unattributed_ms", Median(unattributed_ms), "ms");
  out.Set("trace.coverage", Median(coverage), "share");
  out.Set("trace.overhead_ms", Median(traced_ms) - Median(untraced_ms), "ms");
  out.notes["traced_solve_ms"] = Median(traced_ms);
  out.notes["untraced_solve_ms"] = Median(untraced_ms);
  if (!trace_path.empty()) {
    if (mc3::Status status = WriteFile(trace_path, log.ToChromeTrace());
        !status.ok()) {
      out.Fail(status.ToString());
    }
  }
  return out;
}

}  // namespace perfbench
