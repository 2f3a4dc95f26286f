// Recorded digests of the batch solvers' plans: CRC-32s of the classifiers
// a solve returns and of the step-3 counters of Algorithm 1 behind them.
// They were recorded before step 3 decided classifiers in ascending mask
// order, and must not move when a solver's internals change.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/general_solver.h"
#include "core/instance_util.h"
#include "core/k2_solver.h"
#include "core/preprocess.h"
#include "data/synthetic.h"
#include "util/crc32.h"

namespace mc3 {
namespace {

/// A solve's classifiers in canonical order, one line of property ids each.
std::string RenderPlan(const Solution& solution) {
  std::string text;
  for (const PropertySet& c : solution.Sorted()) {
    for (PropertyId p : c) text += std::to_string(p) + ' ';
    text += '\n';
  }
  return text;
}

/// Algorithm 1's step-3 counters, and the residual they leave.
std::string RenderStep3(const PreprocessStats& stats) {
  return "passes " + std::to_string(stats.step3_passes) + " removed " +
         std::to_string(stats.classifiers_removed_step3) + " forced " +
         std::to_string(stats.forced_selections_step3) + " residual " +
         std::to_string(stats.remaining_queries) + " queries " +
         std::to_string(stats.remaining_classifiers) + " classifiers";
}

uint32_t Digest(const std::string& text) {
  return Crc32(text.data(), text.size());
}

/// Expects the step-3 counters of `instance` and the plan `solver` returns
/// for it to match the recorded digests.
void ExpectDigests(const Instance& instance, const Solver& solver,
                   uint32_t step3_digest, uint32_t plan_digest) {
  auto pre = Preprocess(instance);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  const std::string step3 = RenderStep3(pre->stats);
  EXPECT_EQ(Digest(step3), step3_digest) << step3;

  auto solved = solver.Solve(instance);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_EQ(Digest(RenderPlan(solved->solution)), plan_digest)
      << solver.Name() << " cost " << solved->cost << ", "
      << instance.NumQueries() << " queries";
}

TEST(SolverDigestTest, GeneralSolverMatchesRecordedDigests) {
  data::SyntheticConfig config;
  config.num_queries = 2000;
  config.seed = 17;
  config.cost_min = 0;
  config.cost_max = 9;
  config.max_query_length = 10;
  // Zero prices let step 1 and step 3 cover every query.
  ExpectDigests(data::GenerateSynthetic(config), GeneralSolver(),
                0xD78C49A1u, 0x9C60EFBBu);
  // The generator's default prices leave a residual for the set-cover
  // path.
  config.cost_min = 1;
  config.cost_max = 50;
  ExpectDigests(data::GenerateSynthetic(config), GeneralSolver(),
                0x011E91F4u, 0x0280446Cu);
}

TEST(SolverDigestTest, K2ExactSolverMatchesRecordedDigests) {
  // The Figure 3c construction: the length <= 2 queries of a synthetic
  // instance, at their generated prices.
  data::SyntheticConfig config;
  config.num_queries = 6000;
  config.seed = 29;
  const Instance full = data::GenerateSynthetic(config);
  std::vector<size_t> short_queries;
  for (size_t i = 0; i < full.NumQueries(); ++i) {
    if (full.queries()[i].size() <= 2) short_queries.push_back(i);
  }
  ExpectDigests(SubInstance(full, short_queries), K2ExactSolver(),
                0x4EDB499Du, 0x0CC60D4Bu);
}

}  // namespace
}  // namespace mc3
