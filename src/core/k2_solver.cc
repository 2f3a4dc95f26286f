#include "core/k2_solver.h"

#include <unordered_map>

#include "core/classifier_table.h"
#include "flow/bipartite_vertex_cover.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mc3 {
namespace {

/// Solves one (preprocessed) component with queries of length <= 2 by the
/// bipartite WVC -> max-flow reduction, appending the table ids of the
/// chosen classifiers to `plan`.
///
/// Left vertices are the singleton classifiers of the component's
/// properties; right vertices are the full-query classifiers. A length-2
/// query xy contributes edges (X, XY) and (Y, XY): covering both edges means
/// either XY is chosen, or X and Y both are — exactly the two ways to cover
/// xy. A singleton query x (present only when preprocessing is disabled)
/// contributes an edge to an infinite-weight right vertex, forcing X into
/// the cover.
Status SolveComponent(const ClassifierTable& component,
                      flow::MaxFlowAlgorithm algorithm,
                      std::vector<ClassifierId>* plan) {
  obs::ScopedSpan span("k2_component");
  flow::BipartiteVcInstance vc;
  std::unordered_map<PropertyId, int32_t> left_index;
  // The classifier of each vertex; kNotFound when it is unpriced (an
  // infinite weight, which a finite cover never holds) or, on the right,
  // a singleton query's forcing vertex.
  std::vector<ClassifierId> left_id;
  std::vector<ClassifierId> right_id;
  const auto cost_of = [&](ClassifierId id) {
    return id == ClassifierTable::kNotFound ? kInfiniteCost
                                            : component.cost(id);
  };
  {
    obs::ScopedSpan build("build_vc");
    // The left vertex of the property at `position` of query `qi`.
    auto left_of = [&](size_t qi, size_t position) {
      const auto [it, inserted] = left_index.emplace(
          component.query(qi).ids()[position],
          static_cast<int32_t>(vc.left_weights.size()));
      if (inserted) {
        const ClassifierId id =
            component.FindSubset(qi, uint32_t{1} << position);
        vc.left_weights.push_back(cost_of(id));
        left_id.push_back(id);
      }
      return it->second;
    };

    for (size_t qi = 0; qi < component.num_queries(); ++qi) {
      const size_t length = component.query(qi).size();
      if (length > 2) {
        return Status::InvalidArgument("k=2 solver given query of length " +
                                       std::to_string(length));
      }
      const auto r = static_cast<int32_t>(vc.right_weights.size());
      if (length == 1) {
        // Force the singleton classifier into the cover.
        vc.right_weights.push_back(kInfiniteCost);
        right_id.push_back(ClassifierTable::kNotFound);
        vc.edges.emplace_back(left_of(qi, 0), r);
      } else {
        const ClassifierId pair = component.FindSubset(qi, FullMask(2));
        vc.right_weights.push_back(cost_of(pair));
        right_id.push_back(pair);
        vc.edges.emplace_back(left_of(qi, 0), r);
        vc.edges.emplace_back(left_of(qi, 1), r);
      }
    }
    build.AddStat("left", static_cast<double>(vc.left_weights.size()));
    build.AddStat("right", static_cast<double>(vc.right_weights.size()));
    build.AddStat("edges", static_cast<double>(vc.edges.size()));
  }
  span.AddStat("queries", static_cast<double>(component.num_queries()));

  obs::ScopedSpan flow_span("maxflow");
  auto cover = flow::SolveBipartiteVertexCover(vc, algorithm);
  if (!cover.ok()) {
    if (cover.status().code() == StatusCode::kInfeasible) {
      return Status::Infeasible(
          "a length-2 query has neither its pair classifier nor both "
          "singleton classifiers at finite cost");
    }
    return cover.status();
  }
  for (size_t l = 0; l < vc.left_weights.size(); ++l) {
    if (cover->left_in_cover[l] && left_id[l] != ClassifierTable::kNotFound) {
      plan->push_back(left_id[l]);
    }
  }
  for (size_t r = 0; r < vc.right_weights.size(); ++r) {
    if (cover->right_in_cover[r] && right_id[r] != ClassifierTable::kNotFound) {
      plan->push_back(right_id[r]);
    }
  }
  return Status::OK();
}

}  // namespace

Result<SolveResult> K2ExactSolver::Solve(const Instance& instance) const {
  return Solve(instance.queries(), instance.costs(),
               instance.property_names());
}

Result<SolveResult> K2ExactSolver::Solve(
    const std::vector<PropertySet>& queries, const ClassifierStore& prices,
    const std::vector<std::string>& names) const {
  for (const PropertySet& q : queries) {
    if (q.size() > 2) {
      return Status::InvalidArgument(
          "K2ExactSolver requires max query length <= 2; use GeneralSolver");
    }
  }
  obs::ScopedSpan span("k2_solver");
  const ClassifierTable table = BuildSolveTable(queries, prices);
  std::vector<ClassifierId> plan;
  SolveResult stats;
  MC3_RETURN_IF_ERROR(SolveTable(table, names, &plan, &stats));
  return FinishSolve(table, std::move(plan), options_, std::move(stats));
}

Status K2ExactSolver::SolveTable(const ClassifierTable& table,
                                 const std::vector<std::string>& names,
                                 std::vector<ClassifierId>* plan,
                                 SolveResult* stats) const {
  const Status status = SolveComponents(
      table, options_, names,
      [&](const ClassifierTable& component,
          std::vector<ClassifierId>* picks) {
        return SolveComponent(component, options_.max_flow, picks);
      },
      plan, stats);
  obs::MetricsRegistry::Global()
      .GetCounter("k2.components_solved")
      .Add(stats->num_components);
  return status;
}

}  // namespace mc3
