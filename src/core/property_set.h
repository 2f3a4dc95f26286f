// PropertySet: the fundamental value type of the MC3 model. Both queries
// and classifiers are sets of properties (paper Section 2.1): a query
// q = {x, y} asks for items satisfying x AND y; a classifier XY tests that
// same conjunction.
//
// Properties are dense uint32 ids. A PropertySet is a sorted-unique vector;
// query lengths never exceed ~10 in any workload the paper considers, so
// vector set-algebra beats bitsets over multi-thousand-property universes.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace mc3 {

/// Dense property identifier.
using PropertyId = uint32_t;

/// An immutable sorted set of properties. Models both queries and
/// classifiers.
class PropertySet {
 public:
  /// The empty set.
  PropertySet() = default;

  /// From a braced list, e.g. PropertySet::Of({0, 2, 5}). Sorts and dedups.
  static PropertySet Of(std::initializer_list<PropertyId> ids);

  /// From arbitrary (possibly unsorted, possibly duplicated) ids.
  static PropertySet FromUnsorted(std::vector<PropertyId> ids);

  /// From ids already sorted and unique (checked by assertion).
  static PropertySet FromSorted(std::vector<PropertyId> ids);
  static PropertySet FromSorted(std::span<const PropertyId> ids) {
    return FromSorted(std::vector<PropertyId>(ids.begin(), ids.end()));
  }

  /// Number of properties; the paper calls this the *length* of the
  /// query/classifier.
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  bool Contains(PropertyId id) const;
  bool IsSubsetOf(const PropertySet& other) const;
  bool Intersects(const PropertySet& other) const;

  PropertySet UnionWith(const PropertySet& other) const;
  PropertySet IntersectWith(const PropertySet& other) const;
  /// Set difference: properties in this but not in `other`.
  PropertySet Minus(const PropertySet& other) const;
  /// This set plus one property (which may already be present).
  PropertySet Plus(PropertyId id) const;

  /// Sorted ids, ascending.
  const std::vector<PropertyId>& ids() const { return ids_; }
  auto begin() const { return ids_.begin(); }
  auto end() const { return ids_.end(); }

  bool operator==(const PropertySet& other) const = default;
  /// Lexicographic order (total, used for canonical sorting in outputs).
  bool operator<(const PropertySet& other) const { return ids_ < other.ids_; }

  /// FNV-1a over the id bytes.
  size_t Hash() const;

  /// Renders like "{0,2,5}", or names joined by '&' when a name table is
  /// given (e.g. "adidas&juventus").
  std::string ToString() const;
  std::string ToString(const std::vector<std::string>& names) const;

 private:
  std::vector<PropertyId> ids_;
};

/// Hash functor for unordered containers keyed by PropertySet.
struct PropertySetHash {
  size_t operator()(const PropertySet& s) const { return s.Hash(); }
};

}  // namespace mc3

