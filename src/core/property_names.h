// Property names: one immutable name table (index = PropertyId) shared by
// every Instance, engine and read view that names the same properties, and
// the one append-only interner that grows it.
//
// A published table is never mutated. Interning a new name re-makes the
// interner's snapshot (one copy of the table) the next time it is asked
// for; holders of the previous snapshot keep a consistent table, and work
// that interns nothing new shares the same storage instead of copying it.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/property_set.h"
#include "util/status.h"

namespace mc3 {

/// A shared, immutable property-name table (index = PropertyId). Null
/// stands for "no names".
using PropertyNames = std::shared_ptr<const std::vector<std::string>>;

/// `*names`, or an empty table when `names` is null.
const std::vector<std::string>& NamesOf(const PropertyNames& names);

/// Append-only name -> id interner over a shared table. Ids are dense and
/// assigned in first-seen order; a name keeps its id for the interner's
/// lifetime.
class PropertyInterner {
 public:
  /// Adopts `names` as the table (shared, not copied) and indexes it. The
  /// interner must be empty. Fails with InvalidArgument, leaving it empty,
  /// when a name repeats: every lookup returns the first id, so no input
  /// could ever name the second one.
  Status Load(PropertyNames names);

  /// The id of `name`, appended to the table when unseen.
  PropertyId Intern(const std::string& name);

  /// Number of names in the table.
  size_t size() const { return id_of_.size(); }

  /// The table as a shared snapshot: re-made (one copy of the table) only
  /// when a name was interned since the last call, otherwise the same
  /// pointer. Null while the table is empty and nothing was loaded.
  const PropertyNames& names();

 private:
  std::unordered_map<std::string, PropertyId> id_of_;
  PropertyNames snapshot_;
  /// Names interned since `snapshot_` was made, in id order.
  std::vector<std::string> added_;
};

}  // namespace mc3
