// The MC3 problem instance <Q, W> (paper Section 2.1): a set Q of distinct
// conjunctive queries and a weight function W over the classifier universe
// C_Q (every non-empty subset of every query). Classifiers absent from the
// explicit cost table have weight +infinity — the paper's convention for
// classifiers that are omitted from the input (infeasible to train, cost
// unbounded, or pruned in advance).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/classifier_store.h"
#include "core/property_names.h"
#include "core/property_set.h"
#include "util/status.h"

namespace mc3 {

/// An MC3 instance.
class Instance {
 public:
  /// Appends a query. Queries must be non-empty and pairwise distinct
  /// (checked by Validate, not here).
  void AddQuery(PropertySet query) { queries_.push_back(std::move(query)); }

  /// Sets the construction cost of `classifier` (overwriting any previous
  /// cost). Setting kInfiniteCost unprices it.
  void SetCost(const PropertySet& classifier, Cost cost) {
    costs_.Set(classifier.ids(), cost);
  }
  /// The same for a classifier given by its sorted, distinct ids.
  void SetCost(ClassifierKey classifier, Cost cost) {
    costs_.Set(classifier, cost);
  }

  /// Cost of `classifier`; +infinity when absent from the table.
  Cost CostOf(const PropertySet& classifier) const {
    return costs_.CostOf(classifier.ids());
  }

  const std::vector<PropertySet>& queries() const { return queries_; }
  size_t NumQueries() const { return queries_.size(); }
  /// The price table: every priced classifier once, numbered in the order
  /// it was first priced (file order for a loaded CSV).
  const ClassifierStore& costs() const { return costs_; }

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
  /// of C_Q). A query error comes first; otherwise the error names the
  /// first bad classifier in price-table order.
  Status Validate() const;

  /// True iff every query can be covered at finite cost (using only
  /// finite-cost classifiers).
  bool IsFeasible() const;

 private:
  std::vector<PropertySet> queries_;
  ClassifierStore costs_;
  PropertyNames property_names_;
};

/// InvalidArgument naming `query` (through `names`, when given) if it is
/// longer than kMaxQueryLength; OK otherwise.
Status CheckQueryLength(const PropertySet& query,
                        const std::vector<std::string>& names = {});

/// Calls `fn` for every non-empty subset of `set` (including `set` itself),
/// in ascending mask order: C_Q by definition, one subset at a time. The
/// library walks only the priced subsets, through
/// ClassifierStore::AppendSubsets; the tests check that walk against this.
/// Set size must be <= kMaxQueryLength (the enumeration is 2^|set|).
void ForEachNonEmptySubset(const PropertySet& set,
                           const std::function<void(const PropertySet&)>& fn);

/// Prices every classifier of C_Q that `instance` leaves unpriced, walking
/// the queries in order and each query's subsets by ascending mask:
/// `cost_fn(classifier, query)` is called once per unpriced subset, and a
/// kInfiniteCost answer leaves the subset unpriced. Queries longer than
/// kMaxQueryLength are skipped.
void PriceUnpricedSubsets(
    Instance* instance,
    const std::function<Cost(const PropertySet& classifier,
                             const PropertySet& query)>& cost_fn);

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

