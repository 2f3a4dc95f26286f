#include "core/wsc_reduction.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "core/classifier_table.h"

namespace mc3 {

WscReduction ReduceToWsc(const ClassifierTable& table) {
  WscReduction reduction;

  // Element ids: contiguous per query, in sorted property order.
  reduction.element_offset.resize(table.num_queries());
  setcover::ElementId next = 0;
  for (size_t qi = 0; qi < table.num_queries(); ++qi) {
    reduction.element_offset[qi] = next;
    next += static_cast<setcover::ElementId>(table.query(qi).size());
  }
  reduction.wsc.num_elements = next;

  // Canonical set order for determinism.
  std::vector<ClassifierId>& order = reduction.set_to_id;
  order.resize(table.size());
  std::iota(order.begin(), order.end(), ClassifierId{0});
  std::sort(order.begin(), order.end(), [&](ClassifierId a, ClassifierId b) {
    const ClassifierKey x = table.classifier(a);
    const ClassifierKey y = table.classifier(b);
    if (x.size() != y.size()) return x.size() < y.size();
    return std::ranges::lexicographical_compare(x, y);
  });
  std::vector<setcover::SetId> set_of(table.size());
  reduction.wsc.sets.resize(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    set_of[order[i]] = static_cast<setcover::SetId>(i);
    reduction.wsc.sets[i].cost = table.cost(order[i]);
  }

  // Elements p_q of each set. Queries are walked in order and each mask's
  // positions ascending, so every element list comes out sorted.
  for (size_t qi = 0; qi < table.num_queries(); ++qi) {
    for (const QuerySubset& s : table.subsets(qi)) {
      std::vector<setcover::ElementId>& elements =
          reduction.wsc.sets[set_of[s.id]].elements;
      for (uint32_t rest = s.mask; rest != 0; rest &= rest - 1) {
        elements.push_back(reduction.element_offset[qi] +
                           static_cast<setcover::ElementId>(
                               std::countr_zero(rest)));
      }
    }
  }
  return reduction;
}

WscReduction ReduceToWsc(const Instance& instance) {
  const ClassifierTable table(instance.queries(), instance.costs());
  WscReduction reduction = ReduceToWsc(table);
  reduction.set_to_classifier.reserve(reduction.set_to_id.size());
  for (ClassifierId id : reduction.set_to_id) {
    reduction.set_to_classifier.push_back(
        PropertySet::FromSorted(table.classifier(id)));
  }
  return reduction;
}

Solution WscSolutionToMc3(const WscReduction& reduction,
                          const setcover::WscSolution& wsc_solution) {
  Solution solution;
  for (setcover::SetId id : wsc_solution.selected) {
    solution.Add(reduction.set_to_classifier[id]);
  }
  return solution;
}

}  // namespace mc3
