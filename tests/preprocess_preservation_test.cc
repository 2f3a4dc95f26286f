// Property test for Algorithm 1 (paper Section 3): preprocessing preserves
// the exact optimum. For random seeded instances, the brute-force optimum
// of the original instance must equal the forced-selection cost plus the
// sum of the optima of the residual components — with each pruning step
// enabled individually (step 4 together with its step-1 precondition), with
// all of them combined, and with all disabled (partition only).
#include <vector>

#include <gtest/gtest.h>

#include "core/mc3.h"
#include "tests/test_util.h"

namespace mc3 {
namespace {

using mc3::testing::BruteForceOptimum;
using mc3::testing::RandomInstance;
using mc3::testing::RandomInstanceConfig;

/// Named step configuration of one preservation check.
struct StepConfig {
  const char* name;
  PreprocessOptions options;
};

std::vector<StepConfig> StepConfigs() {
  PreprocessOptions none;
  none.step1_forced_singletons = false;
  none.step3_decompositions = false;
  none.step4_k2_singleton_prune = false;

  PreprocessOptions step1 = none;
  step1.step1_forced_singletons = true;
  PreprocessOptions step2 = none;  // partition alone (step 2 is always on
                                   // here; `none` isolates it)
  PreprocessOptions step3 = none;
  step3.step3_decompositions = true;
  // Step 4 (Obs. 3.4) presupposes step 1: its pair-cost sums skip singleton
  // queries because step 1 already retired them. Isolating it without that
  // precondition can remove a singleton classifier a live singleton query
  // still needs, so the minimal sound configuration is step1 + step4.
  PreprocessOptions step4 = none;
  step4.step1_forced_singletons = true;
  step4.step4_k2_singleton_prune = true;
  PreprocessOptions all;  // defaults: every step on

  return {{"none+partition", step2}, {"step1", step1}, {"step3", step3},
          {"step4", step4},          {"all", all}};
}

/// optimum(instance) must equal forced_cost + sum of component optima.
void CheckPreservation(const Instance& instance, uint64_t seed) {
  const Cost optimum = BruteForceOptimum(instance);
  ASSERT_NE(optimum, kInfiniteCost) << "seed " << seed;
  for (const StepConfig& config : StepConfigs()) {
    auto pre = Preprocess(instance, config.options);
    ASSERT_TRUE(pre.ok()) << "seed " << seed << " config " << config.name
                          << ": " << pre.status().ToString();
    Cost residual_total = pre->forced_cost;
    for (const Instance& component : pre->components) {
      const Cost component_optimum = BruteForceOptimum(component);
      ASSERT_NE(component_optimum, kInfiniteCost)
          << "seed " << seed << " config " << config.name;
      residual_total += component_optimum;
    }
    EXPECT_NEAR(residual_total, optimum, 1e-9)
        << "seed " << seed << " config " << config.name
        << ": preprocessing changed the optimum";
  }
}

TEST(PreprocessPreservationTest, MixedLengthInstances) {
  RandomInstanceConfig config;
  config.num_queries = 6;
  config.pool = 7;
  config.max_query_length = 3;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    CheckPreservation(RandomInstance(config, seed), seed);
  }
}

// k <= 2 instances, where step 4 applies. The name dates from a separate
// k <= 2 worker and is kept so the test id stays stable.
TEST(PreprocessPreservationTest, K2InstancesBothPaths) {
  RandomInstanceConfig config;
  config.num_queries = 7;
  config.pool = 7;
  config.max_query_length = 2;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    const Instance instance = RandomInstance(config, seed);
    ASSERT_LE(instance.MaxQueryLength(), 2u);
    CheckPreservation(instance, seed);
  }
}

TEST(PreprocessPreservationTest, PaperExample) {
  CheckPreservation(mc3::testing::PaperExample(), 0);
}

}  // namespace
}  // namespace mc3
