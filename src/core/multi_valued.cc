#include "core/multi_valued.h"

#include <algorithm>
#include <unordered_set>

#include "core/wsc_reduction.h"
#include "setcover/greedy.h"
#include "setcover/primal_dual.h"
#include "util/float_cmp.h"

namespace mc3 {

Result<Instance> MergeToAttributes(
    const Instance& instance,
    const std::vector<AttributeId>& property_attribute,
    const ClassifierStore& attribute_costs) {
  Instance merged;
  std::unordered_set<PropertySet, PropertySetHash> seen;
  for (const PropertySet& q : instance.queries()) {
    std::vector<PropertyId> attrs;
    attrs.reserve(q.size());
    for (PropertyId p : q) {
      if (p >= property_attribute.size()) {
        return Status::InvalidArgument(
            "property " + std::to_string(p) + " has no attribute mapping");
      }
      attrs.push_back(property_attribute[p]);
    }
    PropertySet attr_query = PropertySet::FromUnsorted(std::move(attrs));
    // Distinct original queries can collapse to the same attribute query.
    if (seen.insert(attr_query).second) {
      merged.AddQuery(std::move(attr_query));
    }
  }
  for (ClassifierId id : attribute_costs.ids()) {
    merged.SetCost(attribute_costs.key(id), attribute_costs.cost(id));
  }
  return merged;
}

std::vector<size_t> PruneMultiValued(
    const Instance& instance,
    const std::vector<MultiValuedClassifier>& multi_valued) {
  // Properties that occur in some query (others cannot matter).
  std::unordered_set<PropertyId> used;
  for (const PropertySet& q : instance.queries()) {
    used.insert(q.begin(), q.end());
  }
  std::vector<size_t> kept;
  for (size_t i = 0; i < multi_valued.size(); ++i) {
    Cost singleton_sum = 0;
    for (PropertyId p : multi_valued[i].value_properties) {
      if (used.count(p) == 0) continue;
      singleton_sum += instance.CostOf(PropertySet::Of({p}));
      if (IsInfiniteCost(singleton_sum)) break;
    }
    // Keep iff strictly cheaper than buying the singletons individually
    // (Section 5.3); an infinite singleton sum always keeps it.
    if (multi_valued[i].cost < singleton_sum) kept.push_back(i);
  }
  return kept;
}

Result<HybridSolveResult> SolveWithMultiValued(
    const Instance& instance,
    const std::vector<MultiValuedClassifier>& multi_valued) {
  WscReduction reduction = ReduceToWsc(instance);
  const size_t num_binary_sets = reduction.wsc.sets.size();

  // One extra set per surviving multi-valued classifier: it covers every
  // occurrence of its value-properties, in any query.
  const std::vector<size_t> kept = PruneMultiValued(instance, multi_valued);
  for (size_t mv_index : kept) {
    const MultiValuedClassifier& mv = multi_valued[mv_index];
    setcover::WscSet set;
    set.cost = mv.cost;
    for (size_t qi = 0; qi < instance.NumQueries(); ++qi) {
      const auto& ids = instance.queries()[qi].ids();
      for (size_t pos = 0; pos < ids.size(); ++pos) {
        if (mv.value_properties.Contains(ids[pos])) {
          set.elements.push_back(reduction.element_offset[qi] +
                                 static_cast<setcover::ElementId>(pos));
        }
      }
    }
    std::sort(set.elements.begin(), set.elements.end());
    reduction.wsc.sets.push_back(std::move(set));
  }

  auto greedy = setcover::SolveGreedy(reduction.wsc);
  if (!greedy.ok()) return greedy.status();
  auto primal_dual = setcover::SolvePrimalDual(reduction.wsc);
  if (!primal_dual.ok()) return primal_dual.status();
  const setcover::WscSolution& best =
      greedy->cost <= primal_dual->cost ? *greedy : *primal_dual;

  HybridSolveResult result;
  for (setcover::SetId id : best.selected) {
    if (static_cast<size_t>(id) < num_binary_sets) {
      result.binary.Add(reduction.set_to_classifier[id]);
      result.cost += instance.CostOf(reduction.set_to_classifier[id]);
    } else {
      const size_t mv_index = kept[static_cast<size_t>(id) - num_binary_sets];
      result.multi_valued.push_back(mv_index);
      result.cost += multi_valued[mv_index].cost;
    }
  }
  std::sort(result.multi_valued.begin(), result.multi_valued.end());
  return result;
}

}  // namespace mc3
