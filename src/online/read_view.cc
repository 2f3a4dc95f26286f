#include "online/read_view.h"

namespace mc3::online {

EngineReadView BuildReadView(const OnlineEngine& engine, uint64_t version) {
  EngineReadView view;
  view.version = version;
  view.total_cost = engine.TotalCost();
  view.num_queries = engine.NumQueries();
  view.num_components = engine.NumComponents();
  view.pieces = engine.SolutionPieces();
  for (const auto& piece : view.pieces) view.num_classifiers += piece->size();
  return view;
}

}  // namespace mc3::online
