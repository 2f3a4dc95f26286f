// The MC3 problem instance <Q, W> (paper Section 2.1): a set Q of distinct
// conjunctive queries and a weight function W over the classifier universe
// C_Q (every non-empty subset of every query). Classifiers absent from the
// explicit cost table have weight +infinity — the paper's convention for
// classifiers that are omitted from the input (infeasible to train, cost
// unbounded, or pruned in advance).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/property_names.h"
#include "core/property_set.h"
#include "util/status.h"

namespace mc3 {

/// Classifier construction cost. The paper's unit N may stand for dollars,
/// labeled examples, or expert hours.
using Cost = double;

/// Weight of classifiers omitted from the input.
inline constexpr Cost kInfiniteCost = std::numeric_limits<Cost>::infinity();

/// Map from classifier (property set) to its construction cost.
using CostMap = std::unordered_map<PropertySet, Cost, PropertySetHash>;

/// The entries of `costs` as a vector sorted by classifier (PropertySet's
/// lexicographic order). Iterating a CostMap directly is order-unstable
/// across platforms and insertion histories (lint rule R1); every loop whose
/// effect can depend on visit order must go through this instead.
std::vector<std::pair<PropertySet, Cost>> SortedCostEntries(
    const CostMap& costs);

/// An MC3 instance.
class Instance {
 public:
  /// Appends a query. Queries must be non-empty and pairwise distinct
  /// (checked by Validate, not here).
  void AddQuery(PropertySet query) { queries_.push_back(std::move(query)); }

  /// Sets the construction cost of `classifier` (overwriting any previous
  /// cost). Setting kInfiniteCost erases the entry.
  void SetCost(const PropertySet& classifier, Cost cost);

  /// Cost of `classifier`; +infinity when absent from the table.
  Cost CostOf(const PropertySet& classifier) const;

  const std::vector<PropertySet>& queries() const { return queries_; }
  size_t NumQueries() const { return queries_.size(); }
  const CostMap& costs() const { return costs_; }

  /// k: the maximal query length (0 for an empty instance).
  size_t MaxQueryLength() const;

  /// Number of distinct properties appearing in queries.
  size_t NumProperties() const;

  /// The incidence I (paper Section 5): the maximum, over finite-cost
  /// classifiers, of the number of queries containing the classifier.
  size_t Incidence() const;

  /// Optional human-readable property names (index = PropertyId).
  void set_property_names(std::vector<std::string> names) {
    property_names_ =
        std::make_shared<const std::vector<std::string>>(std::move(names));
  }
  /// Names the properties through an immutable table shared with other
  /// holders (a parent instance, an engine, an interner) instead of a copy.
  void share_property_names(PropertyNames names) {
    property_names_ = std::move(names);
  }
  /// The name table, empty when the instance is nameless.
  const std::vector<std::string>& property_names() const {
    return NamesOf(property_names_);
  }
  /// The shared table itself (null when nameless), for handing on.
  const PropertyNames& shared_property_names() const {
    return property_names_;
  }

  /// Structural validation: non-empty distinct queries of at most
  /// kMaxQueryLength properties, non-negative costs, every priced classifier
  /// non-empty and relevant (a subset of at least one query, i.e. a member
  /// of C_Q).
  Status Validate() const;

  /// True iff every query can be covered at finite cost (using only
  /// finite-cost classifiers).
  bool IsFeasible() const;

 private:
  std::vector<PropertySet> queries_;
  CostMap costs_;
  PropertyNames property_names_;
};

/// The longest query this library accepts. Every subset lattice walk (and
/// the 32-bit position masks over a query) is exponential in the query
/// length, so longer queries are rejected as InvalidArgument at every input
/// boundary: Instance::Validate, the protocol, the update-trace parser and
/// the online engine.
inline constexpr size_t kMaxQueryLength = 25;

/// InvalidArgument naming `query` (through `names`, when given) if it is
/// longer than kMaxQueryLength; OK otherwise.
Status CheckQueryLength(const PropertySet& query,
                        const std::vector<std::string>& names = {});

/// Calls `fn` for every non-empty subset of `set` (including `set` itself).
/// Set size must be <= kMaxQueryLength (the enumeration is 2^|set|).
void ForEachNonEmptySubset(const PropertySet& set,
                           const std::function<void(const PropertySet&)>& fn);

/// Convenience builder interning string property names to dense ids:
///   InstanceBuilder b;
///   b.AddQuery({"adidas", "juventus", "white"});
///   b.SetCost({"adidas", "juventus"}, 3);
///   Instance inst = std::move(b).Build();
class InstanceBuilder {
 public:
  /// Interns `name`, returning its id.
  PropertyId Intern(const std::string& name) { return names_.Intern(name); }

  /// Adds a query over named properties.
  InstanceBuilder& AddQuery(const std::vector<std::string>& names);

  /// Prices a classifier over named properties.
  InstanceBuilder& SetCost(const std::vector<std::string>& names, Cost cost);

  /// Prices every not-yet-priced classifier in C_Q via `cost_fn`. Useful for
  /// generators; cost_fn returning kInfiniteCost leaves the classifier
  /// unpriced (omitted).
  InstanceBuilder& PriceAllClassifiers(
      const std::function<Cost(const PropertySet&)>& cost_fn);

  /// Finalizes; the builder is left empty.
  Instance Build() &&;

 private:
  Instance instance_;
  PropertyInterner names_;
};

}  // namespace mc3

