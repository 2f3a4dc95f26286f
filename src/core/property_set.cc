#include "core/property_set.h"

#include <algorithm>
#include <cassert>

namespace mc3 {

PropertySet PropertySet::Of(std::initializer_list<PropertyId> ids) {
  return FromUnsorted(std::vector<PropertyId>(ids));
}

PropertySet PropertySet::FromUnsorted(std::vector<PropertyId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  PropertySet s;
  s.ids_ = std::move(ids);
  return s;
}

PropertySet PropertySet::FromSorted(std::vector<PropertyId> ids) {
#ifndef NDEBUG
  for (size_t i = 1; i < ids.size(); ++i) assert(ids[i - 1] < ids[i]);
#endif
  PropertySet s;
  s.ids_ = std::move(ids);
  return s;
}

bool PropertySet::Contains(PropertyId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

bool PropertySet::IsSubsetOf(const PropertySet& other) const {
  return std::includes(other.ids_.begin(), other.ids_.end(), ids_.begin(),
                       ids_.end());
}

bool PropertySet::Intersects(const PropertySet& other) const {
  auto a = ids_.begin();
  auto b = other.ids_.begin();
  while (a != ids_.end() && b != other.ids_.end()) {
    if (*a == *b) return true;
    if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return false;
}

PropertySet PropertySet::UnionWith(const PropertySet& other) const {
  std::vector<PropertyId> merged;
  merged.reserve(ids_.size() + other.ids_.size());
  std::set_union(ids_.begin(), ids_.end(), other.ids_.begin(),
                 other.ids_.end(), std::back_inserter(merged));
  return FromSorted(std::move(merged));
}

PropertySet PropertySet::IntersectWith(const PropertySet& other) const {
  std::vector<PropertyId> merged;
  std::set_intersection(ids_.begin(), ids_.end(), other.ids_.begin(),
                        other.ids_.end(), std::back_inserter(merged));
  return FromSorted(std::move(merged));
}

PropertySet PropertySet::Minus(const PropertySet& other) const {
  std::vector<PropertyId> diff;
  std::set_difference(ids_.begin(), ids_.end(), other.ids_.begin(),
                      other.ids_.end(), std::back_inserter(diff));
  return FromSorted(std::move(diff));
}

PropertySet PropertySet::Plus(PropertyId id) const {
  if (Contains(id)) return *this;
  std::vector<PropertyId> ids = ids_;
  ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
  return FromSorted(std::move(ids));
}

size_t PropertySet::Hash() const {
  // FNV-1a over the little-endian bytes of each id.
  size_t h = 1469598103934665603ULL;
  for (PropertyId id : ids_) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (id >> shift) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string PropertySet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids_[i]);
  }
  out += '}';
  return out;
}

std::string PropertySet::ToString(
    const std::vector<std::string>& names) const {
  std::string out;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (i > 0) out += '&';
    if (ids_[i] < names.size()) {
      out += names[ids_[i]];
    } else {
      out += std::to_string(ids_[i]);
    }
  }
  return out;
}

}  // namespace mc3
