// multi_valued: the Section 5.3 extensions in action.
//
// Scenario: the soccer-shirt catalog again, but now the team can be
// resolved either by per-value binary classifiers (juventus?, chelsea?) or
// by one multi-valued "team" classifier that determines the team outright.
//
// Part 1 — multi-valued only: merge value-properties into attributes and
// solve the attribute-level MC3 instance.
// Part 2 — hybrid: binary and multi-valued classifiers compete inside the
// extended WSC reduction.
#include <cstdio>

#include "core/mc3.h"

int main() {
  using namespace mc3;

  // Properties: 0=juventus, 1=chelsea, 2=white, 3=adidas.
  const PropertyId kJuventus = 0, kChelsea = 1, kWhite = 2, kAdidas = 3;
  Instance instance;
  instance.set_property_names({"juventus", "chelsea", "white", "adidas"});
  instance.AddQuery(PropertySet::Of({kJuventus, kWhite, kAdidas}));
  instance.AddQuery(PropertySet::Of({kChelsea, kAdidas}));
  instance.SetCost(PropertySet::Of({kJuventus}), 5);
  instance.SetCost(PropertySet::Of({kChelsea}), 5);
  instance.SetCost(PropertySet::Of({kWhite}), 1);
  instance.SetCost(PropertySet::Of({kAdidas}), 5);
  instance.SetCost(PropertySet::Of({kAdidas, kChelsea}), 3);
  instance.SetCost(PropertySet::Of({kAdidas, kJuventus}), 3);

  // ---- Part 1: attributes only (Section 5.3, "multi-valued classifiers").
  // juventus and chelsea merge into the team attribute; white -> color;
  // adidas -> brand. Attribute-level classifier costs come from external
  // estimation, exactly as in the paper.
  const AttributeId kTeam = 0, kColor = 1, kBrand = 2;
  const std::vector<AttributeId> property_attribute = {kTeam, kTeam, kColor,
                                                       kBrand};
  ClassifierStore attribute_costs;
  // One team classifier.
  attribute_costs.Set(PropertySet::Of({kTeam}).ids(), 6);
  attribute_costs.Set(PropertySet::Of({kColor}).ids(), 2);
  attribute_costs.Set(PropertySet::Of({kBrand}).ids(), 5);
  attribute_costs.Set(PropertySet::Of({kTeam, kBrand}).ids(), 8);

  auto merged = MergeToAttributes(instance, property_attribute,
                                  attribute_costs);
  if (!merged.ok()) {
    std::fprintf(stderr, "%s\n", merged.status().ToString().c_str());
    return 1;
  }
  merged->set_property_names({"team", "color", "brand"});
  std::printf("attribute-level instance: %zu queries (from %zu)\n",
              merged->NumQueries(), instance.NumQueries());
  auto merged_result = GeneralSolver().Solve(*merged);
  if (!merged_result.ok()) {
    std::fprintf(stderr, "%s\n", merged_result.status().ToString().c_str());
    return 1;
  }
  std::printf("attribute plan: %s at cost %.0f\n\n",
              merged_result->solution.ToString(*merged).c_str(),
              merged_result->cost);

  // ---- Part 2: hybrid (binary and multi-valued side by side).
  std::vector<MultiValuedClassifier> mv;
  mv.push_back({"team", PropertySet::Of({kJuventus, kChelsea}), 6});
  auto hybrid = SolveWithMultiValued(instance, mv);
  if (!hybrid.ok()) {
    std::fprintf(stderr, "%s\n", hybrid.status().ToString().c_str());
    return 1;
  }
  std::printf("hybrid plan: binary %s",
              hybrid->binary.ToString(instance).c_str());
  for (size_t i : hybrid->multi_valued) {
    std::printf(" + multi-valued '%s'", mv[i].name.c_str());
  }
  std::printf("  (cost %.0f)\n", hybrid->cost);
  std::printf(
      "\nReading: the multi-valued team classifier replaces both team\n"
      "singletons when its cost undercuts the cheapest binary cover.\n");
  return 0;
}
