#include "online/online_engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "core/general_solver.h"
#include "core/instance_util.h"
#include "core/k2_solver.h"
#include "core/short_first_solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace mc3::online {
namespace {

/// Sorts `entries` by classifier, drops repeated classifiers and freezes
/// the result as a piece.
std::shared_ptr<const SolutionPiece> MakePiece(SolutionPiece entries) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                entries.end());
  return std::make_shared<const SolutionPiece>(std::move(entries));
}

}  // namespace

OnlineEngine::OnlineEngine(EngineOptions options)
    : options_(std::move(options)) {}

Result<UpdateStats> OnlineEngine::Initialize(const Instance& instance) {
  if (!instance.property_names().empty()) {
    names_ = instance.shared_property_names();
  }
  // In price-table order, so a failing classifier reports the same error
  // on every run.
  const ClassifierStore& costs = instance.costs();
  for (ClassifierId id : costs.ids()) {
    MC3_RETURN_IF_ERROR(SetCost(costs.Classifier(id), costs.cost(id)));
  }
  return ApplyUpdate(instance.queries(), {});
}

Status OnlineEngine::SetCost(const PropertySet& classifier, Cost cost) {
  if (classifier.empty()) {
    return Status::InvalidArgument("cannot price the empty classifier");
  }
  if (!std::isfinite(cost) || cost < 0) {
    return Status::InvalidArgument(
        "classifier cost must be finite and non-negative (costs can be "
        "added or re-priced, never removed)");
  }
  costs_.Set(classifier.ids(), cost);

  // A component that bought `classifier` owns all of its properties, so
  // the owner of the first one is the only piece that can hold it.
  const auto owner = component_of_prop_.find(classifier.ids().front());
  if (owner == component_of_prop_.end()) return Status::OK();
  Component& component = components_.at(owner->second);
  const SolutionPiece& piece = *component.piece;
  const auto it = std::lower_bound(
      piece.begin(), piece.end(), classifier,
      [](const auto& entry, const PropertySet& key) {
        return entry.first < key;
      });
  if (it == piece.end() || it->first != classifier) return Status::OK();
  // Published views may hold the old piece: re-price a copy.
  auto repriced = std::make_shared<SolutionPiece>(piece);
  (*repriced)[static_cast<size_t>(it - piece.begin())].second = cost;
  component.piece = std::move(repriced);
  return Status::OK();
}

Cost OnlineEngine::CostOf(const PropertySet& classifier) const {
  return costs_.CostOf(classifier.ids());
}

bool OnlineEngine::Coverable(const PropertySet& query) const {
  if (query.size() > kMaxQueryLength) return false;
  std::vector<QuerySubset> subsets;
  const uint32_t covered = costs_.AppendSubsets(query.ids(), &subsets);
  return covered == FullMask(query.size());
}

std::optional<size_t> OnlineEngine::ComponentOf(
    const PropertySet& query) const {
  if (query.empty()) return std::nullopt;
  const auto owner = component_of_prop_.find(query.ids().front());
  if (owner == component_of_prop_.end()) return std::nullopt;
  const std::vector<PropertySet>& held = components_.at(owner->second).queries;
  if (!std::binary_search(held.begin(), held.end(), query)) {
    return std::nullopt;
  }
  return owner->second;
}

Status OnlineEngine::SolveComponent(Component* out) const {
  SolverOptions inner = options_.solver_options;
  // The engine parallelizes across components; a component is solved by one
  // worker.
  inner.num_threads = 1;

  EngineOptions::SolverKind kind = options_.solver;
  if (kind == EngineOptions::SolverKind::kAuto) {
    const bool all_short = std::ranges::all_of(
        out->queries, [](const PropertySet& q) { return q.size() <= 2; });
    kind = all_short ? EngineOptions::SolverKind::kK2Exact
                     : EngineOptions::SolverKind::kGeneral;
  }
  // The solver reads the engine's store through one table of the
  // component's queries; nothing is copied out of it.
  const std::vector<PropertySet>& queries = out->queries;
  const std::vector<std::string>& names = property_names();
  Result<SolveResult> solved = [&]() -> Result<SolveResult> {
    switch (kind) {
      case EngineOptions::SolverKind::kK2Exact:
        return K2ExactSolver(inner).Solve(queries, costs_, names);
      case EngineOptions::SolverKind::kShortFirst:
        return ShortFirstSolver(inner).Solve(queries, costs_, names);
      case EngineOptions::SolverKind::kAuto:
      case EngineOptions::SolverKind::kGeneral:
        break;
    }
    return GeneralSolver(inner).Solve(queries, costs_, names);
  }();
  if (!solved.ok()) return solved.status();
  SolutionPiece entries;
  entries.reserve(solved->solution.size());
  for (const PropertySet& classifier : solved->solution.classifiers()) {
    entries.emplace_back(classifier, CostOf(classifier));
  }
  out->piece = MakePiece(std::move(entries));
  out->cost = solved->cost;
  return Status::OK();
}

Result<std::vector<PropertySet>> OnlineEngine::ValidateAdds(
    const std::vector<PropertySet>& add) const {
  std::vector<PropertySet> fresh;
  std::unordered_set<PropertySet, PropertySetHash> seen;
  for (const PropertySet& q : add) {
    if (q.empty()) {
      return Status::InvalidArgument("cannot add the empty query");
    }
    MC3_RETURN_IF_ERROR(CheckQueryLength(q, property_names()));
    if (ComponentOf(q).has_value() || !seen.insert(q).second) continue;
    if (options_.solver == EngineOptions::SolverKind::kK2Exact &&
        q.size() > 2) {
      return Status::InvalidArgument(
          "query " + q.ToString(property_names()) +
          " has length > 2 but the engine is configured for K2ExactSolver");
    }
    if (!Coverable(q)) {
      return Status::Infeasible(
          "query " + q.ToString(property_names()) +
          " cannot be covered by finite-cost classifiers of the engine's "
          "table");
    }
    fresh.push_back(q);
  }
  return fresh;
}

Result<UpdateStats> OnlineEngine::ApplyUpdate(
    const std::vector<PropertySet>& add,
    const std::vector<PropertySet>& remove) {
  UpdateStats stats;

  // Resolve the batch against the live set before touching anything, so a
  // rejected batch leaves the engine untouched. Removes apply first; a
  // query both removed and (re-)added nets out to its prior state.
  Result<std::vector<PropertySet>> to_add = ValidateAdds(add);
  if (!to_add.ok()) return to_add.status();
  stats.duplicate_adds = add.size() - to_add->size();
  const std::unordered_set<PropertySet, PropertySetHash> added_set(
      add.begin(), add.end());
  std::unordered_set<PropertySet, PropertySetHash> removed;
  // The dirty components: owners of removed queries and of every
  // already-indexed property of an added query.
  std::vector<size_t> dirty;
  for (const PropertySet& q : remove) {
    if (added_set.count(q) > 0) continue;  // cancelled by the add
    const std::optional<size_t> owner = ComponentOf(q);
    if (!owner) {
      ++stats.missing_removes;
    } else if (removed.insert(q).second) {
      dirty.push_back(*owner);
    }
  }

  ++counters_.updates;
  if (to_add->empty() && removed.empty()) return stats;

  obs::ScopedSpan span("online_update");
  Timer timer;

  for (const PropertySet& q : *to_add) {
    for (PropertyId p : q) {
      const auto it = component_of_prop_.find(p);
      if (it != component_of_prop_.end()) dirty.push_back(it->second);
    }
  }
  // Determinism contract: dirty ids are collected from hash lookups, so sort
  // and dedupe before anything downstream observes the order.
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  stats.components_dirtied = dirty.size();

  // Retire the dirty components and their property-index entries (the
  // region's new partition re-registers the properties still in use). The
  // dirty region is their surviving queries plus the adds.
  std::vector<PropertySet> region;
  for (size_t cid : dirty) {
    auto retired = components_.extract(cid);
    for (PropertySet& q : retired.mapped().queries) {
      for (PropertyId p : q) component_of_prop_.erase(p);
      if (removed.count(q) == 0) region.push_back(std::move(q));
    }
  }
  stats.queries_removed = removed.size();
  stats.queries_added = to_add->size();
  for (PropertySet& q : *to_add) region.push_back(std::move(q));
  num_live_ = num_live_ - stats.queries_removed + stats.queries_added;
  stats.queries_touched = region.size();

  // Lazy repartition of the dirty region only (adds may have merged dirty
  // components; removes may have split them). Sorting the region by content
  // makes the re-solve a function of the live set: each fresh component
  // holds its queries in ascending order, and PartitionQueries numbers
  // components by first appearance, so they are solved and committed in
  // order of their smallest query.
  std::sort(region.begin(), region.end());
  std::vector<std::vector<PropertySet>> groups;
  {
    obs::ScopedSpan repartition_span("repartition");
    const ComponentPartition partition = PartitionQueries(region);
    groups.resize(partition.num_components);
    for (size_t idx = 0; idx < region.size(); ++idx) {
      groups[partition.component_of[idx]].push_back(std::move(region[idx]));
    }
    repartition_span.AddStat("region_queries",
                             static_cast<double>(region.size()));
    repartition_span.AddStat("components",
                             static_cast<double>(groups.size()));
  }

  // Re-solve the new components, in parallel across components.
  std::vector<Component> fresh(groups.size());
  std::vector<Status> statuses(groups.size());
  const obs::TraceContext trace_context = obs::CurrentTraceContext();
  ParallelFor(groups.size(), options_.solver_options.num_threads,
              [&](size_t i) {
                obs::ScopedSpanAdoption adopt(trace_context);
                obs::ScopedSpan solve_span("solve_component");
                fresh[i].queries = std::move(groups[i]);
                solve_span.AddStat(
                    "queries", static_cast<double>(fresh[i].queries.size()));
                statuses[i] = SolveComponent(&fresh[i]);
              });
  Status first_error;
  for (size_t i = 0; i < fresh.size(); ++i) {
    // A failed solve (possible only through an engine bug: adds are
    // pre-checked coverable and costs are never removed) is committed with
    // an infinite cost so the structural index stays consistent.
    if (!statuses[i].ok()) {
      if (first_error.ok()) first_error = statuses[i];
      fresh[i].piece = MakePiece({});
      fresh[i].cost = kInfiniteCost;
    }
    const size_t cid = next_component_id_++;
    for (const PropertySet& q : fresh[i].queries) {
      for (PropertyId p : q) component_of_prop_[p] = cid;
    }
    components_.emplace_hint(components_.end(), cid, std::move(fresh[i]));
  }
  stats.components_resolved = fresh.size();
  stats.resolve_seconds = timer.Seconds();

  counters_.queries_added += stats.queries_added;
  counters_.queries_removed += stats.queries_removed;
  counters_.components_resolved += stats.components_resolved;
  counters_.queries_touched += stats.queries_touched;
  counters_.resolve_seconds += stats.resolve_seconds;

  span.AddStat("queries_added", static_cast<double>(stats.queries_added));
  span.AddStat("queries_removed", static_cast<double>(stats.queries_removed));
  span.AddStat("components_dirtied",
               static_cast<double>(stats.components_dirtied));
  span.AddStat("components_resolved",
               static_cast<double>(stats.components_resolved));
  span.AddStat("queries_touched",
               static_cast<double>(stats.queries_touched));
  {
    auto& registry = obs::MetricsRegistry::Global();
    static obs::Counter& updates = registry.GetCounter("online.updates");
    static obs::Counter& touched =
        registry.GetCounter("online.queries_touched");
    static obs::Counter& repartitions =
        registry.GetCounter("online.repartitions");
    static obs::Counter& resolved =
        registry.GetCounter("online.components_resolved");
    static obs::Histogram& latency =
        registry.GetHistogram("online.resolve_seconds");
    updates.Add();
    touched.Add(stats.queries_touched);
    repartitions.Add();
    resolved.Add(stats.components_resolved);
    latency.Record(stats.resolve_seconds);
  }

  if (!first_error.ok()) return first_error;
  return stats;
}

Result<UpdateStats> OnlineEngine::AddQueries(
    const std::vector<PropertySet>& queries) {
  return ApplyUpdate(queries, {});
}

Result<UpdateStats> OnlineEngine::RemoveQueries(
    const std::vector<PropertySet>& queries) {
  return ApplyUpdate({}, queries);
}

Cost OnlineEngine::TotalCost() const {
  Cost total = 0;
  for (const auto& [cid, component] : components_) total += component.cost;
  return total;
}

Solution OnlineEngine::CurrentSolution() const {
  Solution merged;
  for (const auto& [cid, component] : components_) {
    for (const auto& entry : *component.piece) merged.Add(entry.first);
  }
  return merged;
}

std::vector<std::shared_ptr<const SolutionPiece>>
OnlineEngine::SolutionPieces() const {
  std::vector<std::shared_ptr<const SolutionPiece>> pieces;
  pieces.reserve(components_.size());
  for (const auto& [cid, component] : components_) {
    pieces.push_back(component.piece);
  }
  return pieces;
}

Instance OnlineEngine::LiveInstance() const {
  std::vector<PropertySet> queries;
  queries.reserve(num_live_);
  for (const auto& [cid, component] : components_) {
    queries.insert(queries.end(), component.queries.begin(),
                   component.queries.end());
  }
  std::sort(queries.begin(), queries.end());
  Instance live;
  live.share_property_names(names_);
  for (PropertySet& q : queries) live.AddQuery(std::move(q));
  CopySubsetPrices(costs_, &live);
  return live;
}

size_t EngineState::NumQueries() const {
  size_t n = 0;
  for (const Component& component : components) n += component.queries.size();
  return n;
}

EngineState OnlineEngine::ExportState() const {
  EngineState state;
  state.property_names = property_names();
  state.costs = SortedCostEntries(costs_);
  state.components.reserve(components_.size());
  for (const auto& [cid, component] : components_) {
    EngineState::Component out;
    out.queries = component.queries;
    out.solution.reserve(component.piece->size());
    for (const auto& entry : *component.piece) {
      out.solution.push_back(entry.first);
    }
    out.cost = component.cost;
    state.components.push_back(std::move(out));
  }
  return state;
}

Status OnlineEngine::ImportState(const EngineState& state) {
  if (!components_.empty() || !costs_.empty()) {
    return Status::Internal(
        "ImportState requires an untouched engine (it does not merge)");
  }
  set_property_names(state.property_names);
  for (const auto& [classifier, cost] : state.costs) {
    MC3_RETURN_IF_ERROR(SetCost(classifier, cost));
  }
  for (const EngineState::Component& in : state.components) {
    if (in.queries.empty()) {
      return Status::InvalidArgument("snapshot component has no queries");
    }
    if (!std::isfinite(in.cost) || in.cost < 0) {
      return Status::InvalidArgument(
          "snapshot component cost must be finite and non-negative");
    }
    const size_t cid = next_component_id_++;
    Component component;
    component.queries = in.queries;
    std::sort(component.queries.begin(), component.queries.end());
    for (size_t i = 0; i < component.queries.size(); ++i) {
      const PropertySet& query = component.queries[i];
      if (query.empty()) {
        return Status::InvalidArgument("snapshot contains an empty query");
      }
      // A query in two components would share its properties across them.
      if (i > 0 && query == component.queries[i - 1]) {
        return Status::InvalidArgument("snapshot repeats query " +
                                       query.ToString(property_names()));
      }
      for (PropertyId p : query) {
        const auto [it, inserted] = component_of_prop_.emplace(p, cid);
        if (!inserted && it->second != cid) {
          return Status::InvalidArgument(
              "snapshot shares a property across components");
        }
      }
    }
    SolutionPiece entries;
    entries.reserve(in.solution.size());
    for (const PropertySet& classifier : in.solution) {
      if (classifier.empty()) {
        return Status::InvalidArgument("snapshot buys the empty classifier");
      }
      for (PropertyId p : classifier) {
        const auto it = component_of_prop_.find(p);
        if (it == component_of_prop_.end() || it->second != cid) {
          return Status::InvalidArgument(
              "snapshot component buys a classifier outside its properties");
        }
      }
      entries.emplace_back(classifier, CostOf(classifier));
    }
    component.piece = MakePiece(std::move(entries));
    component.cost = in.cost;
    num_live_ += component.queries.size();
    components_.emplace_hint(components_.end(), cid, std::move(component));
  }
  return Status::OK();
}

Status OnlineEngine::CheckInvariants() const {
  // Components partition the live queries and their properties, and the
  // property index agrees.
  size_t partitioned = 0;
  std::unordered_map<PropertyId, size_t> expected_props;
  for (const auto& [cid, component] : components_) {
    if (component.queries.empty()) {
      return Status::Internal("empty component in the registry");
    }
    const SolutionPiece& piece = *component.piece;
    for (size_t i = 0; i < piece.size(); ++i) {
      if (i > 0 && !(piece[i - 1].first < piece[i].first)) {
        return Status::Internal("solution piece not strictly sorted");
      }
      // mc3-lint: float-eq-ok(a piece copies the table price bit for bit)
      if (piece[i].second != CostOf(piece[i].first)) {
        return Status::Internal("solution piece price differs from the table");
      }
    }
    for (size_t i = 0; i < component.queries.size(); ++i) {
      if (i > 0 && !(component.queries[i - 1] < component.queries[i])) {
        return Status::Internal("component queries not strictly ascending");
      }
      for (PropertyId p : component.queries[i]) {
        const auto [it, inserted] = expected_props.emplace(p, cid);
        if (!inserted && it->second != cid) {
          return Status::Internal("property shared across components");
        }
      }
    }
    partitioned += component.queries.size();
  }
  if (partitioned != num_live_) {
    return Status::Internal("live-query counter out of sync");
  }
  if (expected_props.size() != component_of_prop_.size()) {
    return Status::Internal("property index size mismatch");
  }
  // mc3-lint: unordered-ok(invariant scan; every failure is the same error)
  for (const auto& [p, cid] : expected_props) {
    const auto it = component_of_prop_.find(p);
    if (it == component_of_prop_.end() || it->second != cid) {
      return Status::Internal("property index entry mismatch");
    }
  }

  // The maintained cover must equal VerifyCoverage on the live instance.
  const Instance live = LiveInstance();
  const CoverageReport report = VerifyCoverage(live, CurrentSolution());
  if (!report.covers_all) {
    return Status::Internal(
        std::to_string(report.uncovered_queries.size()) +
        " live queries uncovered by the maintained solution");
  }
  return Status::OK();
}

}  // namespace mc3::online
