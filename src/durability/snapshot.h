// Engine snapshots: full OnlineEngine state serialized as a
// schema-validated JSON document (`mc3.snapshot/1`), written atomically so
// a crash mid-checkpoint can never leave a half-written file in the way of
// recovery (docs/durability.md).
//
// Document layout:
//
//   {
//     "schema": "mc3.snapshot/1",
//     "seq": 42,                     // WAL sequence the state includes
//     "property_names": ["a", ...],  // index = PropertyId
//     "costs": [ {"classifier": [0, 2], "cost": 1.5}, ... ],
//     "components": [
//       {"queries": [[0, 1]], "solution": [[0], [1]], "cost": 2.5}, ...
//     ]
//   }
//
// Queries and classifiers are arrays of property ids into
// `property_names`, in the canonical order EngineState defines — rendering
// an imported snapshot reproduces it byte for byte (json_test and
// durability_test pin this).
//
// Earlier builds could serve one engine split into shards and snapshot it
// through the `mc3.snapshot/2` schema: v1 plus a top-level `"shards": N`
// and a per-component `"shard": s` tag naming the owning shard. Nothing
// writes /2 any more, but the loader still reads it, so a data directory
// checkpointed by a sharded server recovers after an upgrade: it validates
// the layout (N in [1, 65536], every tag below N), drops it, and restores
// the components, in document order, into the one engine.
//
// Files are named `snapshot-<20-digit seq>.json`. Writing goes through a
// `.tmp` sibling + fsync + rename + directory fsync; loading picks the
// newest file that parses and validates, skipping corrupt ones.
#pragma once

#include <cstdint>
#include <string>

#include "online/online_engine.h"
#include "util/status.h"

namespace mc3::durability {

/// Schema identifier embedded in every snapshot document written.
inline constexpr char kSnapshotSchema[] = "mc3.snapshot/1";
/// Schema identifier of the sharded-layout documents earlier builds wrote
/// (read, never written).
inline constexpr char kSnapshotSchemaV2[] = "mc3.snapshot/2";

/// File name for the snapshot at `seq` (no directory).
std::string SnapshotFileName(uint64_t seq);

/// Renders `state` as an mc3.snapshot/1 document (pretty-printed, trailing
/// newline). Deterministic: equal states render to equal bytes.
std::string RenderSnapshot(const online::EngineState& state, uint64_t seq);

/// A parsed snapshot document.
struct ParsedSnapshot {
  uint64_t seq = 0;
  online::EngineState state;
};

/// Parses and structurally validates a snapshot document of either schema:
/// schema string, integral non-negative seq, distinct `property_names`,
/// every property id in range of them, finite non-negative costs, and for
/// /2 the shard layout (then dropped). Engine-level integrity (disjoint
/// components, coverage) is checked by ImportState / CheckInvariants when
/// the state is restored.
Result<ParsedSnapshot> ParseSnapshot(const std::string& json);

/// Schema validation only (a parse whose value is discarded); the writer
/// self-checks every document through this before publishing it.
Status ValidateSnapshotJson(const std::string& json);

/// Atomically publishes the snapshot of `state` at `seq` into `dir`
/// (created if missing): render -> validate -> write `.tmp` -> fsync ->
/// rename -> fsync directory. Returns the published file's byte size.
Result<uint64_t> WriteSnapshotFile(const std::string& dir,
                                   const online::EngineState& state,
                                   uint64_t seq);

/// A snapshot loaded from disk.
struct LoadedSnapshot {
  uint64_t seq = 0;
  online::EngineState state;
  std::string path;
  /// Newer snapshot files that failed to parse/validate and were skipped
  /// (a crash mid-rename cannot produce these, but disk rot can).
  size_t skipped_invalid = 0;
};

/// Loads the newest valid snapshot of `dir`; NotFound when the directory
/// holds no (valid) snapshot.
Result<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir);

}  // namespace mc3::durability
