#include "core/preprocess.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <optional>
#include <ranges>
#include <span>
#include <utility>

#include "core/classifier_table.h"
#include "core/cover_dp.h"
#include "core/instance_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"
#include "util/float_cmp.h"

namespace mc3 {
namespace {

/// Cumulative registry counters of every preprocessing run; the span stats
/// cover the per-solve view, these cover the process lifetime.
void RecordPreprocessMetrics(const PreprocessStats& stats, double seconds) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter& runs = registry.GetCounter("preprocess.runs");
  static obs::Counter& covered =
      registry.GetCounter("preprocess.queries_covered");
  static obs::Counter& removed =
      registry.GetCounter("preprocess.classifiers_removed");
  static obs::Counter& forced = registry.GetCounter("preprocess.forced");
  static obs::Histogram& latency =
      registry.GetHistogram("preprocess.seconds");
  runs.Add();
  covered.Add(stats.queries_covered);
  removed.Add(stats.classifiers_removed_step3 +
              stats.singletons_removed_step4);
  forced.Add(stats.singleton_queries_selected + stats.zero_weight_selected +
             stats.forced_selections_step3 + stats.selections_step4);
  latency.Record(seconds);
  // Per-step work counters for the perf-regression harness: each elimination
  // rule's deterministic hit count, gated exactly by mc3_benchdiff.
  static obs::Counter& step1 =
      registry.GetCounter("preprocess.step1.selected");
  static obs::Counter& step2 =
      registry.GetCounter("preprocess.step2.selected");
  static obs::Counter& step3_removed =
      registry.GetCounter("preprocess.step3.removed");
  static obs::Counter& step3_forced =
      registry.GetCounter("preprocess.step3.forced");
  static obs::Counter& step3_passes =
      registry.GetCounter("preprocess.step3.passes");
  static obs::Counter& step4_removed =
      registry.GetCounter("preprocess.step4.removed");
  static obs::Counter& step4_selected =
      registry.GetCounter("preprocess.step4.selected");
  step1.Add(stats.singleton_queries_selected);
  step2.Add(stats.zero_weight_selected);
  step3_removed.Add(stats.classifiers_removed_step3);
  step3_forced.Add(stats.forced_selections_step3);
  step3_passes.Add(stats.step3_passes);
  step4_removed.Add(stats.singletons_removed_step4);
  step4_selected.Add(stats.selections_step4);
}

enum class CState : uint8_t { kPresent, kSelected, kRemoved };

/// The queries of `table`, as a range of PropertySets.
auto QueriesOf(const ClassifierTable& table) {
  return std::views::iota(size_t{0}, table.num_queries()) |
         std::views::transform([&table](size_t qi) -> const PropertySet& {
           return table.query(qi);
         });
}

/// Algorithm 1, for every k, over an interned classifier table: per-query
/// subset lists come from the table; per-classifier and per-property state
/// lives in arrays indexed by classifier id and dense property index.
class Worker {
 public:
  Worker(const ClassifierTable& table, const std::vector<std::string>& names,
         const PreprocessOptions& options)
      : names_(names),
        table_(table),
        options_(options),
        props_(QueriesOf(table)) {
    const size_t n = table.num_queries();
    alive_.assign(n, true);
    covered_mask_.assign(n, 0);
    refreshed_.assign(n, 0);
    state_.assign(table.size(), CState::kPresent);
    replacement_.assign(table.size(), kInfiniteCost);
    stamp_.assign(table.size(), 0);
    // Count each property's queries, then place them in ascending query
    // order; each cursor ends where the next property's list begins.
    const size_t num_props = props_.size();
    prop_start_.assign(num_props + 1, 0);
    for (size_t qi = 0; qi < n; ++qi) {
      for (PropertyId p : table.query(qi)) ++prop_start_[props_(p)];
    }
    uint32_t total = 0;
    for (uint32_t& start : prop_start_) total += std::exchange(start, total);
    prop_queries_.resize(total);
    for (size_t qi = 0; qi < n; ++qi) {
      for (PropertyId p : table.query(qi)) {
        prop_queries_[prop_start_[props_(p)]++] = static_cast<uint32_t>(qi);
      }
    }
    std::shift_right(prop_start_.begin(), prop_start_.end(), 1);
    prop_start_[0] = 0;
  }

  /// Every query must be short enough for mask-based preprocessing and
  /// coverable by finite-weight classifiers.
  Status CheckFeasible() const {
    for (size_t qi = 0; qi < table_.num_queries(); ++qi) {
      const PropertySet& q = table_.query(qi);
      MC3_RETURN_IF_ERROR(CheckQueryLength(q, names_));
      if (!table_.Covers(qi)) {
        return Status::Infeasible(
            "query " + q.ToString(names_) +
            " cannot be covered by finite-weight classifiers");
      }
    }
    return Status::OK();
  }

  Result<Residual> Run() {
    if (options_.step1_forced_singletons) {
      obs::ScopedSpan step("step1");
      StepOne();
      step.AddStat("singleton_queries",
                   static_cast<double>(
                       result_.stats.singleton_queries_selected));
      step.AddStat("zero_weight",
                   static_cast<double>(result_.stats.zero_weight_selected));
    }
    if (options_.step3_decompositions) {
      obs::ScopedSpan step("step3");
      MC3_RETURN_IF_ERROR(StepThree());
      step.AddStat("passes", result_.stats.step3_passes);
      step.AddStat("removed", static_cast<double>(
                                  result_.stats.classifiers_removed_step3));
      step.AddStat("forced", static_cast<double>(
                                 result_.stats.forced_selections_step3));
    }
    if (options_.step4_k2_singleton_prune) {
      obs::ScopedSpan step("step4");
      StepFour();
      step.AddStat("singletons_removed",
                   static_cast<double>(result_.stats.singletons_removed_step4));
      step.AddStat("selections",
                   static_cast<double>(result_.stats.selections_step4));
    }
    {
      obs::ScopedSpan step("partition");
      StepTwoPartition();
      step.AddStat("components",
                   static_cast<double>(result_.stats.num_components));
      step.AddStat("remaining_queries",
                   static_cast<double>(result_.stats.remaining_queries));
    }
    return std::move(result_);
  }

 private:
  uint32_t FullMaskOf(size_t qi) const {
    return FullMask(table_.query(qi).size());
  }

  /// The queries holding dense property `x`, ascending.
  std::span<const uint32_t> QueriesWith(uint32_t x) const {
    return {prop_queries_.data() + prop_start_[x],
            prop_queries_.data() + prop_start_[x + 1]};
  }

  Cost Effective(ClassifierId id) const {
    switch (state_[id]) {
      case CState::kPresent:
        return table_.cost(id);
      case CState::kSelected:
        return 0;
      case CState::kRemoved:
        return replacement_[id];
    }
    return kInfiniteCost;
  }

  void Select(ClassifierId id) {
    assert(state_[id] == CState::kPresent);
    state_[id] = CState::kSelected;
    result_.forced.push_back(id);
    result_.forced_cost += table_.cost(id);
    for (PropertyId p : table_.classifier(id)) touched_props_.push_back(p);
  }

  /// Recomputes coverage of the queries containing any recently-touched
  /// property, each once; marks fully covered queries dead. Clears the
  /// touched list.
  void RefreshCoverage() {
    if (touched_props_.empty()) return;
    std::sort(touched_props_.begin(), touched_props_.end());
    touched_props_.erase(
        std::unique(touched_props_.begin(), touched_props_.end()),
        touched_props_.end());
    ++refresh_;
    for (PropertyId p : touched_props_) {
      for (const uint32_t qi : QueriesWith(props_(p))) {
        if (!alive_[qi] || refreshed_[qi] == refresh_) continue;
        refreshed_[qi] = refresh_;
        uint32_t covered = 0;
        for (const QuerySubset& s : table_.subsets(qi)) {
          if (state_[s.id] == CState::kSelected) covered |= s.mask;
        }
        covered_mask_[qi] = covered;
        if (covered == FullMaskOf(qi)) {
          alive_[qi] = false;
          ++result_.stats.queries_covered;
        }
      }
    }
    touched_props_.clear();
  }

  // ---- Step 1: singleton queries and zero-weight classifiers. ----
  void StepOne() {
    for (size_t qi = 0; qi < table_.num_queries(); ++qi) {
      if (table_.query(qi).size() != 1) continue;
      // CheckFeasible guarantees the singleton classifier is priced.
      for (const QuerySubset& s : table_.subsets(qi)) {
        if (state_[s.id] == CState::kPresent) {
          Select(s.id);
          ++result_.stats.singleton_queries_selected;
        }
      }
    }
    // Selection order reaches the forced Solution and the touched-property
    // list, so pick zero-cost classifiers in canonical order.
    std::vector<ClassifierId> zero_cost;
    for (ClassifierId id = 0; id < table_.size(); ++id) {
      if (state_[id] == CState::kPresent && IsZeroCost(table_.cost(id))) {
        zero_cost.push_back(id);
      }
    }
    std::sort(zero_cost.begin(), zero_cost.end(),
              [&](ClassifierId a, ClassifierId b) {
                return std::ranges::lexicographical_compare(
                    table_.classifier(a), table_.classifier(b));
              });
    for (ClassifierId id : zero_cost) {
      Select(id);  // adds exactly zero to forced_cost
      ++result_.stats.zero_weight_selected;
    }
    RefreshCoverage();
  }

  // ---- Step 3: remove classifiers with less costly decompositions. ----
  Status StepThree() {
    // First pass over every alive query; later passes only over queries
    // touched by forced selections (line 11 of Algorithm 1).
    std::vector<size_t> work;
    for (size_t qi = 0; qi < table_.num_queries(); ++qi) {
      if (alive_[qi]) work.push_back(qi);
    }
    while (!work.empty() &&
           result_.stats.step3_passes < options_.max_step3_passes) {
      ++result_.stats.step3_passes;
      ++pass_;
      Decompose(work);
      std::vector<PropertyId> selected_props;
      MC3_RETURN_IF_ERROR(ForcedSelections(work, &selected_props));
      RefreshCoverage();
      // Next pass: queries sharing a property with a new selection.
      work.clear();
      std::sort(selected_props.begin(), selected_props.end());
      selected_props.erase(
          std::unique(selected_props.begin(), selected_props.end()),
          selected_props.end());
      for (PropertyId p : selected_props) {
        for (const uint32_t qi : QueriesWith(props_(p))) {
          if (alive_[qi]) work.push_back(qi);
        }
      }
      std::sort(work.begin(), work.end());
      work.erase(std::unique(work.begin(), work.end()), work.end());
    }
    return Status::OK();
  }

  /// Decides every present classifier of the worked queries once; removes
  /// those whose cheapest two-part decomposition does not cost more
  /// (Observation 3.3). Each is decided through the first alive worked query
  /// holding it, walking that query's table row in ascending mask order
  /// while filling the query's lattice of effective costs. A decision reads
  /// only proper sub-masks, which are smaller, so their entries are already
  /// filled and final: one held by an earlier worked query was decided
  /// there, and alive flags do not change here. A removal writes its
  /// decomposition cost into the lattice before the next mask reads it.
  void Decompose(const std::vector<size_t>& work) {
    std::vector<Cost> eff;  // effective cost per mask of the worked query
    std::vector<Cost> scratch;
    for (size_t qi : work) {
      if (!alive_[qi]) continue;
      eff.assign(FullMaskOf(qi) + 1, kInfiniteCost);
      for (const QuerySubset& s : table_.subsets(qi)) {
        eff[s.mask] = Effective(s.id);
        if (std::popcount(s.mask) < 2 || state_[s.id] != CState::kPresent ||
            stamp_[s.id] == pass_) {
          continue;
        }
        stamp_[s.id] = pass_;
        const Cost best = MinTwoPartCover(s.mask, eff, &scratch);
        if (best <= table_.cost(s.id)) {
          state_[s.id] = CState::kRemoved;
          replacement_[s.id] = best;
          eff[s.mask] = best;
          ++result_.stats.classifiers_removed_step3;
        }
      }
    }
  }

  /// Line 10 (generalized per-property rule): if an uncovered property p of
  /// alive query q has exactly one present classifier containing it, that
  /// classifier is in every optimal solution over available classifiers.
  Status ForcedSelections(const std::vector<size_t>& work,
                          std::vector<PropertyId>* selected_props) {
    for (size_t qi : work) {
      if (!alive_[qi]) continue;
      uint32_t candidate_once = 0;   // positions seen in >= 1 classifier
      uint32_t candidate_multi = 0;  // positions seen in >= 2 classifiers
      std::array<ClassifierId, 32> unique_id;
      unique_id.fill(ClassifierTable::kNotFound);
      for (const QuerySubset& s : table_.subsets(qi)) {
        if (state_[s.id] == CState::kRemoved) continue;
        candidate_multi |= candidate_once & s.mask;
        candidate_once |= s.mask;
        uint32_t fresh = s.mask & ~candidate_multi;
        while (fresh != 0) {
          const int bit = std::countr_zero(fresh);
          fresh &= fresh - 1;
          unique_id[bit] = s.id;
        }
      }
      const uint32_t uncovered = FullMaskOf(qi) & ~covered_mask_[qi];
      if ((candidate_once & uncovered) != uncovered) {
        return Status::Infeasible(
            "property of query " + table_.query(qi).ToString(names_) +
            " lost all candidate classifiers");
      }
      uint32_t forced = uncovered & candidate_once & ~candidate_multi;
      while (forced != 0) {
        const int bit = std::countr_zero(forced);
        forced &= forced - 1;
        const ClassifierId id = unique_id[bit];
        if (id != ClassifierTable::kNotFound &&
            state_[id] == CState::kPresent) {
          Select(id);
          ++result_.stats.forced_selections_step3;
          for (PropertyId p : table_.classifier(id)) {
            selected_props->push_back(p);
          }
        }
      }
    }
    return Status::OK();
  }

  // ---- Step 4: k = 2 singleton pruning. ----
  void StepFour() {
    size_t max_len = 0;
    for (size_t qi = 0; qi < table_.num_queries(); ++qi) {
      if (alive_[qi]) max_len = std::max(max_len, table_.query(qi).size());
    }
    if (max_len > 2 || max_len == 0) return;

    // Dense indices ascend with the ids: the worklist pops in id order.
    std::vector<uint32_t> worklist;
    for (auto p = static_cast<uint32_t>(props_.size()); p-- > 0;) {
      for (const uint32_t qi : QueriesWith(p)) {
        if (alive_[qi]) {
          worklist.push_back(p);
          break;
        }
      }
    }

    while (!worklist.empty()) {
      const uint32_t x = worklist.back();
      worklist.pop_back();
      const ClassifierId xid = SingletonId(x);
      if (xid == ClassifierTable::kNotFound ||
          state_[xid] != CState::kPresent) {
        continue;
      }
      // Sum the effective costs of the pair classifiers of all alive
      // queries containing x (the classifiers that intersect X).
      Cost sum = 0;
      std::vector<size_t> pair_queries;
      for (const uint32_t qi : QueriesWith(x)) {
        if (!alive_[qi]) continue;
        if (table_.query(qi).size() != 2) continue;  // singletons died
        const ClassifierId pair = table_.FindSubset(qi, FullMaskOf(qi));
        sum += pair == ClassifierTable::kNotFound ? kInfiniteCost
                                                  : Effective(pair);
        pair_queries.push_back(qi);
        if (IsInfiniteCost(sum)) break;
      }
      if (pair_queries.empty() || sum > table_.cost(xid)) continue;
      // Select every pair, drop X, and recheck the other endpoints.
      for (size_t qi : pair_queries) {
        const ClassifierId pair = table_.FindSubset(qi, FullMaskOf(qi));
        if (pair != ClassifierTable::kNotFound &&
            state_[pair] == CState::kPresent) {
          Select(pair);
          ++result_.stats.selections_step4;
        }
        for (PropertyId y : table_.query(qi)) {
          if (props_(y) != x) worklist.push_back(props_(y));
        }
      }
      state_[xid] = CState::kRemoved;
      replacement_[xid] = sum;
      ++result_.stats.singletons_removed_step4;
      RefreshCoverage();
    }
  }

  /// Id of the singleton classifier of dense property x, found through a
  /// query containing it; kNotFound when it is unpriced.
  ClassifierId SingletonId(uint32_t x) const {
    const size_t qi = QueriesWith(x).front();
    const auto& ids = table_.query(qi).ids();
    const auto pos =
        std::lower_bound(ids.begin(), ids.end(), props_.id(x)) - ids.begin();
    return table_.FindSubset(qi, uint32_t{1} << pos);
  }

  // ---- Step 2: partition into independent sub-instances. ----
  void StepTwoPartition() {
    std::vector<size_t> alive_ids;
    for (size_t qi = 0; qi < table_.num_queries(); ++qi) {
      if (alive_[qi]) alive_ids.push_back(qi);
    }
    result_.stats.remaining_queries = alive_ids.size();
    // The residual prices: the original cost while present, zero once
    // selected, absent once removed. They take over the replacement
    // array, which no step reads any more, so the solve holds no second
    // per-classifier cost array.
    for (ClassifierId id = 0; id < table_.size(); ++id) {
      replacement_[id] = state_[id] == CState::kRemoved ? kInfiniteCost
                                                        : Effective(id);
    }
    result_.prices = std::move(replacement_);
    // Components share no property, so a classifier is counted once.
    ++pass_;
    for (size_t qi : alive_ids) {
      for (const QuerySubset& s : table_.subsets(qi)) {
        if (state_[s.id] == CState::kRemoved || stamp_[s.id] == pass_) {
          continue;
        }
        stamp_[s.id] = pass_;
        ++result_.stats.remaining_classifiers;
      }
    }
    if (alive_ids.empty()) {
      result_.stats.num_components = 0;
      return;
    }

    std::vector<size_t> component_of(alive_ids.size(), 0);
    size_t num_components = 1;
    if (options_.step2_partition) {
      ComponentPartition partition =
          PartitionQueries(QueriesOf(table_), alive_ids);
      num_components = partition.num_components;
      component_of = std::move(partition.component_of);
    }
    result_.stats.num_components = num_components;
    result_.components.resize(num_components);
    for (size_t idx = 0; idx < alive_ids.size(); ++idx) {
      result_.components[component_of[idx]].push_back(
          static_cast<uint32_t>(alive_ids[idx]));
    }
  }

  const std::vector<std::string>& names_;
  const ClassifierTable& table_;
  const PreprocessOptions& options_;
  const PropertyIndex props_;
  std::vector<bool> alive_;
  std::vector<uint32_t> covered_mask_;
  /// RefreshCoverage stamp, so a query holding several touched properties
  /// is recomputed once per refresh.
  std::vector<uint32_t> refreshed_;
  uint32_t refresh_ = 0;
  /// The queries of each dense property, one list after another: those of
  /// x are prop_queries_[prop_start_[x] .. prop_start_[x + 1]).
  std::vector<uint32_t> prop_start_;
  std::vector<uint32_t> prop_queries_;
  std::vector<PropertyId> touched_props_;
  // Per-classifier state, by id.
  std::vector<CState> state_;
  /// For kRemoved classifiers: the cost of the cheapest recorded
  /// decomposition, substituted whenever the classifier appears in a later
  /// decomposition.
  std::vector<Cost> replacement_;
  /// Step-3 pass stamp, so a classifier shared by several queries is
  /// examined once per pass.
  std::vector<uint32_t> stamp_;
  uint32_t pass_ = 0;
  Residual result_;
};

}  // namespace

Result<Residual> Preprocess(const ClassifierTable& table,
                            const std::vector<std::string>& names,
                            const PreprocessOptions& options) {
  Timer timer;
  obs::ScopedSpan span("preprocess");
  std::optional<Worker> worker;
  {
    obs::ScopedSpan setup("setup");
    worker.emplace(table, names, options);
    MC3_RETURN_IF_ERROR(worker->CheckFeasible());
  }
  Result<Residual> result = worker->Run();
  if (result.ok()) {
    span.AddStat("queries_covered",
                 static_cast<double>(result->stats.queries_covered));
    RecordPreprocessMetrics(result->stats, timer.Seconds());
  }
  return result;
}

Result<PreprocessResult> Preprocess(const Instance& instance,
                                    const PreprocessOptions& options) {
  const ClassifierTable table = [&] {
    obs::ScopedSpan build("classifier_table");
    return ClassifierTable(instance.queries(), instance.costs());
  }();
  Result<Residual> residual =
      Preprocess(table, instance.property_names(), options);
  if (!residual.ok()) return residual.status();
  PreprocessResult result;
  for (ClassifierId id : residual->forced) {
    result.forced.Add(PropertySet::FromSorted(table.classifier(id)));
  }
  result.forced_cost = residual->forced_cost;
  result.stats = residual->stats;
  result.components.reserve(residual->components.size());
  for (const std::vector<uint32_t>& queries : residual->components) {
    result.components.push_back(
        ComponentInstance(ClassifierTable(table, queries, residual->prices),
                          instance.shared_property_names()));
  }
  return result;
}

Instance ComponentInstance(const ClassifierTable& component,
                           const PropertyNames& names) {
  Instance instance;
  instance.share_property_names(names);
  for (size_t qi = 0; qi < component.num_queries(); ++qi) {
    instance.AddQuery(component.query(qi));
    for (const QuerySubset& s : component.subsets(qi)) {
      instance.SetCost(component.classifier(s.id), component.cost(s.id));
    }
  }
  return instance;
}

}  // namespace mc3
