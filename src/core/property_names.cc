#include "core/property_names.h"

#include <iterator>
#include <utility>

namespace mc3 {

const std::vector<std::string>& NamesOf(const PropertyNames& names) {
  static const std::vector<std::string> kNoNames;
  return names != nullptr ? *names : kNoNames;
}

Status PropertyInterner::Load(PropertyNames names) {
  if (!id_of_.empty()) {
    return Status::Internal("PropertyInterner::Load needs an empty interner");
  }
  if (names == nullptr) return Status::OK();
  id_of_.reserve(names->size());
  for (size_t id = 0; id < names->size(); ++id) {
    const auto [it, inserted] =
        id_of_.try_emplace((*names)[id], static_cast<PropertyId>(id));
    if (!inserted) {
      const std::string message = "property name table repeats a name (ids " +
                                  std::to_string(it->second) + " and " +
                                  std::to_string(id) + ")";
      id_of_.clear();
      return Status::InvalidArgument(message);
    }
  }
  snapshot_ = std::move(names);
  return Status::OK();
}

PropertyId PropertyInterner::Intern(const std::string& name) {
  const auto [it, inserted] =
      id_of_.try_emplace(name, static_cast<PropertyId>(id_of_.size()));
  if (inserted) added_.push_back(name);
  return it->second;
}

const PropertyNames& PropertyInterner::names() {
  if (added_.empty()) return snapshot_;
  std::vector<std::string> table;
  if (snapshot_ == nullptr) {
    table = std::move(added_);
  } else {
    table.reserve(id_of_.size());
    table.assign(snapshot_->begin(), snapshot_->end());
    std::move(added_.begin(), added_.end(), std::back_inserter(table));
  }
  added_.clear();
  snapshot_ = std::make_shared<const std::vector<std::string>>(std::move(table));
  return snapshot_;
}

}  // namespace mc3
