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
  // Sorted so a failing classifier reports the same error on every run.
  for (const auto& [classifier, cost] : SortedCostEntries(instance.costs())) {
    MC3_RETURN_IF_ERROR(SetCost(classifier, cost));
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
  costs_[classifier] = cost;

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
  const auto it = costs_.find(classifier);
  return it == costs_.end() ? kInfiniteCost : it->second;
}

bool OnlineEngine::Coverable(const PropertySet& query) const {
  std::unordered_set<PropertyId> covered;
  ForEachNonEmptySubset(query, [&](const PropertySet& sub) {
    if (costs_.count(sub) == 0) return;
    for (PropertyId p : sub) covered.insert(p);
  });
  return covered.size() == query.size();
}

Instance OnlineEngine::BuildSubInstance(
    const std::vector<size_t>& slots) const {
  Instance sub;
  sub.share_property_names(names_);
  for (size_t slot : slots) sub.AddQuery(queries_[slot]);
  for (const PropertySet& q : sub.queries()) {
    ForEachNonEmptySubset(q, [&](const PropertySet& classifier) {
      const auto it = costs_.find(classifier);
      if (it != costs_.end()) sub.SetCost(classifier, it->second);
    });
  }
  return sub;
}

Status OnlineEngine::SolveComponent(const Instance& sub,
                                    Component* out) const {
  SolverOptions inner = options_.solver_options;
  // The engine parallelizes across components; a component is solved by one
  // worker.
  inner.num_threads = 1;

  EngineOptions::SolverKind kind = options_.solver;
  if (kind == EngineOptions::SolverKind::kAuto) {
    kind = sub.MaxQueryLength() <= 2 ? EngineOptions::SolverKind::kK2Exact
                                     : EngineOptions::SolverKind::kGeneral;
  }
  Result<SolveResult> solved = [&]() -> Result<SolveResult> {
    switch (kind) {
      case EngineOptions::SolverKind::kK2Exact:
        return K2ExactSolver(inner).Solve(sub);
      case EngineOptions::SolverKind::kShortFirst:
        return ShortFirstSolver(inner).Solve(sub);
      case EngineOptions::SolverKind::kAuto:
      case EngineOptions::SolverKind::kGeneral:
        break;
    }
    return GeneralSolver(inner).Solve(sub);
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

Result<UpdateStats> OnlineEngine::ApplyUpdate(
    const std::vector<PropertySet>& add,
    const std::vector<PropertySet>& remove) {
  UpdateStats stats;

  // Resolve the batch against the live set before touching anything, so a
  // rejected batch leaves the engine untouched. Removes apply first; a
  // query both removed and (re-)added nets out to its prior state.
  std::unordered_set<PropertySet, PropertySetHash> added_set(add.begin(),
                                                             add.end());
  std::vector<size_t> remove_slots;
  std::unordered_set<size_t> remove_slot_set;
  for (const PropertySet& q : remove) {
    if (added_set.count(q) > 0) continue;  // cancelled by the add below
    const auto it = slot_of_.find(q);
    if (it == slot_of_.end() || !live_[it->second]) {
      ++stats.missing_removes;
      continue;
    }
    if (remove_slot_set.insert(it->second).second) {
      remove_slots.push_back(it->second);
    }
  }
  std::vector<PropertySet> to_add;
  std::unordered_set<PropertySet, PropertySetHash> to_add_set;
  for (const PropertySet& q : add) {
    if (q.empty()) {
      return Status::InvalidArgument("cannot add the empty query");
    }
    MC3_RETURN_IF_ERROR(CheckQueryLength(q, property_names()));
    const auto it = slot_of_.find(q);
    if ((it != slot_of_.end() && live_[it->second]) ||
        !to_add_set.insert(q).second) {
      ++stats.duplicate_adds;
      continue;
    }
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
    to_add.push_back(q);
  }

  ++counters_.updates;
  if (to_add.empty() && remove_slots.empty()) return stats;

  obs::ScopedSpan span("online_update");
  Timer timer;

  // Locate the dirty components: owners of removed queries and of every
  // already-indexed property of an added query.
  std::vector<size_t> dirty;
  for (size_t slot : remove_slots) dirty.push_back(component_of_slot_[slot]);
  for (const PropertySet& q : to_add) {
    for (PropertyId p : q) {
      const auto it = component_of_prop_.find(p);
      if (it != component_of_prop_.end()) dirty.push_back(it->second);
    }
  }
  // Determinism contract: dirty ids are collected from hash lookups, so sort
  // and dedupe before anything downstream observes the order. Every later
  // stage (region assembly, repartition, commit) iterates in this order.
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  stats.components_dirtied = dirty.size();

  // Apply removals (slots are tombstoned, never erased, so a removed query
  // can be revived in place later).
  for (size_t slot : remove_slots) {
    live_[slot] = false;
    --num_live_;
  }
  stats.queries_removed = remove_slots.size();

  // The dirty region: surviving queries of dirty components plus the adds.
  std::vector<size_t> region;
  for (size_t cid : dirty) {
    const Component& component = components_.at(cid);
    for (size_t slot : component.queries) {
      if (live_[slot]) region.push_back(slot);
    }
  }
  for (const PropertySet& q : to_add) {
    size_t slot;
    const auto it = slot_of_.find(q);
    if (it != slot_of_.end()) {
      slot = it->second;  // revive the tombstoned slot
    } else {
      slot = queries_.size();
      queries_.push_back(q);
      live_.push_back(false);
      component_of_slot_.push_back(0);
      slot_of_.emplace(q, slot);
    }
    live_[slot] = true;
    ++num_live_;
    region.push_back(slot);
  }
  stats.queries_added = to_add.size();
  stats.queries_touched = region.size();

  // Retire the dirty components and their property-index entries (the
  // region's new partition re-registers the properties still in use).
  for (size_t cid : dirty) {
    const Component& component = components_.at(cid);
    for (size_t slot : component.queries) {
      for (PropertyId p : queries_[slot]) {
        const auto it = component_of_prop_.find(p);
        if (it != component_of_prop_.end() && it->second == cid) {
          component_of_prop_.erase(it);
        }
      }
    }
    total_cost_ -= component.cost;
    components_.erase(cid);
  }

  // Lazy repartition of the dirty region only (adds may have merged dirty
  // components; removes may have split them). Sorting the region by query
  // slot makes the re-solve order canonical: PartitionQueries numbers
  // components by first appearance, so each fresh component is solved and
  // committed in order of its smallest member slot regardless of the update
  // batch's iteration history.
  std::sort(region.begin(), region.end());
  std::vector<std::vector<size_t>> groups;
  {
    obs::ScopedSpan repartition_span("repartition");
    const ComponentPartition partition = PartitionQueries(queries_, region);
    groups.resize(partition.num_components);
    for (size_t idx = 0; idx < region.size(); ++idx) {
      groups[partition.component_of[idx]].push_back(region[idx]);
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
                Instance sub;
                {
                  obs::ScopedSpan build_span("build_sub_instance");
                  sub = BuildSubInstance(fresh[i].queries);
                  build_span.AddStat(
                      "classifiers", static_cast<double>(sub.costs().size()));
                }
                statuses[i] = SolveComponent(sub, &fresh[i]);
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
    for (size_t slot : fresh[i].queries) {
      component_of_slot_[slot] = cid;
      for (PropertyId p : queries_[slot]) component_of_prop_[p] = cid;
    }
    total_cost_ += fresh[i].cost;
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
  std::vector<size_t> slots;
  for (size_t slot = 0; slot < queries_.size(); ++slot) {
    if (live_[slot]) slots.push_back(slot);
  }
  return BuildSubInstance(slots);
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
    std::vector<size_t> slots = component.queries;
    std::sort(slots.begin(), slots.end());
    out.queries.reserve(slots.size());
    for (size_t slot : slots) out.queries.push_back(queries_[slot]);
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
  if (!queries_.empty() || !components_.empty() || !costs_.empty()) {
    return Status::Internal(
        "ImportState requires an untouched engine (it does not merge)");
  }
  set_property_names(state.property_names);
  // mc3-lint: unordered-ok(EngineState.costs is a sorted vector, not a map)
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
    for (const PropertySet& query : in.queries) {
      if (query.empty()) {
        return Status::InvalidArgument("snapshot contains an empty query");
      }
      const size_t slot = queries_.size();
      if (!slot_of_.emplace(query, slot).second) {
        return Status::InvalidArgument("snapshot repeats query " +
                                       query.ToString(property_names()));
      }
      queries_.push_back(query);
      live_.push_back(true);
      component_of_slot_.push_back(cid);
      ++num_live_;
      component.queries.push_back(slot);
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
    total_cost_ += component.cost;
    components_.emplace_hint(components_.end(), cid, std::move(component));
  }
  return Status::OK();
}

Status OnlineEngine::CheckInvariants() const {
  size_t live_count = 0;
  for (size_t slot = 0; slot < queries_.size(); ++slot) {
    if (live_[slot]) ++live_count;
  }
  if (live_count != num_live_) {
    return Status::Internal("live-query counter out of sync");
  }

  // Components partition the live slots, and slot/property indexes agree.
  size_t partitioned = 0;
  std::unordered_map<PropertyId, size_t> expected_props;
  Cost component_sum = 0;
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
    for (size_t slot : component.queries) {
      if (slot >= queries_.size() || !live_[slot]) {
        return Status::Internal("component lists a dead query slot");
      }
      if (component_of_slot_[slot] != cid) {
        return Status::Internal("slot index disagrees with the registry");
      }
      ++partitioned;
      for (PropertyId p : queries_[slot]) {
        const auto [it, inserted] = expected_props.emplace(p, cid);
        if (!inserted && it->second != cid) {
          return Status::Internal("property shared across components");
        }
      }
    }
    component_sum += component.cost;
  }
  if (partitioned != num_live_) {
    return Status::Internal("components do not partition the live queries");
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
  const Cost tolerance = 1e-6 * (1 + std::abs(component_sum));
  if (std::abs(component_sum - total_cost_) > tolerance) {
    return Status::Internal("aggregate cost out of sync with components");
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
