// Update-trace parsing for the serving engine: a textual log of query
// additions and retirements replayed against an OnlineEngine (the `mc3
// serve` subcommand).
//
// Format, one operation per line:
//
//   # comments and blank lines are skipped
//   + white adidas juventus     add the query {white, adidas, juventus}
//   - sony tv                   remove the query {sony, tv}
//   add,white,adidas            CSV spelling of the same operations
//   remove,sony,tv
//   white adidas                a line with no marker is an add
//                               (raw query-log style)
//
// Properties are separated by whitespace or commas and are matched
// case-sensitively against the base workload's property names (the same
// convention as the instance CSV dialect); unseen names are interned as new
// properties. Replaying many records (WAL recovery) parses them all through
// one PropertyInterner, so no record re-indexes the whole name table.
#pragma once

#include <string>
#include <vector>

#include "core/property_names.h"
#include "core/property_set.h"
#include "util/status.h"

namespace mc3::online {

/// One trace operation.
struct TraceOp {
  enum class Kind { kAdd, kRemove };
  Kind kind = Kind::kAdd;
  PropertySet query;
  /// 1-based source line the operation was parsed from, so replay errors
  /// can point back into the trace file.
  size_t line = 0;
};

/// A parsed trace plus the property-name table grown while parsing.
struct UpdateTrace {
  std::vector<TraceOp> ops;
  /// Filled by the one-shot forms only: the base name table extended with
  /// names first seen in the trace (index = PropertyId). Hand this to the
  /// engine via set_property_names.
  std::vector<std::string> property_names;
  size_t skipped_lines = 0;  ///< comments and blank lines
};

/// Parses `lines`, resolving property names through `interner`, which
/// keeps the names first seen here (read the grown table from it; the
/// trace's property_names stays empty). Fails — naming the 1-based line and
/// the offending token — on a line whose query is empty after removing the
/// marker, on a stray '+'/'-' marker after the first token (almost always
/// two operations joined on one line), on property names containing
/// control characters, and on queries longer than kMaxQueryLength. Names
/// of the lines before a failing one stay interned.
Result<UpdateTrace> ParseUpdateTrace(const std::vector<std::string>& lines,
                                     PropertyInterner& interner);

/// One-shot form: parses `lines` against the `base_names` id table
/// (typically the base workload's property names) and returns the grown
/// table in property_names. Fails as above, and with InvalidArgument when
/// `base_names` repeats a name.
Result<UpdateTrace> ParseUpdateTrace(const std::vector<std::string>& lines,
                                     std::vector<std::string> base_names);

/// File variant: reads `path` line by line; parse errors are prefixed with
/// the path.
Result<UpdateTrace> LoadUpdateTrace(const std::string& path,
                                    std::vector<std::string> base_names);

/// Renders one operation as a canonical trace line (no trailing newline):
/// an explicit '+' or '-' marker followed by the query's property names in
/// ascending-id order, space-separated. The exact inverse of
/// ParseUpdateTrace for that line. Fails when a property id has no entry in
/// `names` or when a name is not serializable in the line format (empty,
/// contains whitespace/comma/control bytes, or is itself a bare '+'/'-'
/// marker token).
Result<std::string> RenderTraceOp(TraceOp::Kind kind, const PropertySet& query,
                                  const std::vector<std::string>& names);

/// Renders an update batch as trace text: one operation per line, each with
/// a trailing newline, removes before adds (the order ApplyUpdate applies
/// them). This is the serializer behind WAL record payloads
/// (src/durability/wal.h), which `mc3 wal dump` concatenates into a trace
/// file; replaying the rendered text through ParseUpdateTrace + ApplyUpdate
/// reproduces the batch exactly.
Result<std::string> RenderUpdateBatch(const std::vector<PropertySet>& add,
                                      const std::vector<PropertySet>& remove,
                                      const std::vector<std::string>& names);

}  // namespace mc3::online

