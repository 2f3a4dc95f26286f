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
// A sharded engine (src/online/sharded_engine.h) snapshots through the
// `mc3.snapshot/2` schema, which is v1 plus a top-level `"shards": N` and a
// per-component `"shard": s` tag recording the owning engine shard, so
// recovery restores the exact same placement. A 1-shard engine keeps
// writing plain v1 documents — its snapshots stay byte-identical to the
// pre-sharding format — and the loader accepts either schema (a v1
// document is a 1-shard layout with every component on shard 0).
//
// Files are named `snapshot-<20-digit seq>.json`. Writing goes through a
// `.tmp` sibling + fsync + rename + directory fsync; loading picks the
// newest file that parses and validates, skipping corrupt ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "online/online_engine.h"
#include "online/sharded_engine.h"
#include "util/status.h"

namespace mc3::durability {

/// Schema identifier embedded in every single-engine snapshot document.
inline constexpr char kSnapshotSchema[] = "mc3.snapshot/1";
/// Schema identifier for sharded-layout snapshots (shards > 1).
inline constexpr char kSnapshotSchemaV2[] = "mc3.snapshot/2";

/// File name for the snapshot at `seq` (no directory).
std::string SnapshotFileName(uint64_t seq);

/// Renders `state` as an mc3.snapshot/1 document (pretty-printed, trailing
/// newline). Deterministic: equal states render to equal bytes.
std::string RenderSnapshot(const online::EngineState& state, uint64_t seq);

/// Renders a sharded export: the legacy v1 document when
/// `state.num_shards == 1` (byte-identical to RenderSnapshot), an
/// mc3.snapshot/2 document with shard tags otherwise.
std::string RenderShardedSnapshot(const online::ShardedState& state,
                                  uint64_t seq);

/// A parsed snapshot document. A v1 document parses as a 1-shard layout
/// with every component on shard 0, so `num_shards`/`component_shards`
/// are meaningful for either schema.
struct ParsedSnapshot {
  uint64_t seq = 0;
  online::EngineState state;
  uint32_t num_shards = 1;
  /// Owning shard per state.components entry (parallel array).
  std::vector<uint32_t> component_shards;

  /// The parsed layout as a sharded-engine import.
  online::ShardedState ToShardedState() const {
    online::ShardedState out;
    out.num_shards = num_shards;
    out.state = state;
    out.component_shards = component_shards;
    return out;
  }
};

/// Parses and structurally validates a snapshot document: schema string,
/// integral non-negative seq, distinct `property_names`, every property id
/// in range of them, finite non-negative costs. Engine-level integrity
/// (disjoint components, coverage) is checked by ImportState /
/// CheckInvariants when the state is restored.
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
/// Same, for a sharded export (v1 document when num_shards == 1).
Result<uint64_t> WriteSnapshotFile(const std::string& dir,
                                   const online::ShardedState& state,
                                   uint64_t seq);

/// A snapshot loaded from disk.
struct LoadedSnapshot {
  uint64_t seq = 0;
  online::EngineState state;
  uint32_t num_shards = 1;
  std::vector<uint32_t> component_shards;
  std::string path;
  /// Newer snapshot files that failed to parse/validate and were skipped
  /// (a crash mid-rename cannot produce these, but disk rot can).
  size_t skipped_invalid = 0;

  /// The loaded layout as a sharded-engine import.
  online::ShardedState ToShardedState() const {
    online::ShardedState out;
    out.num_shards = num_shards;
    out.state = state;
    out.component_shards = component_shards;
    return out;
  }
};

/// Loads the newest valid snapshot of `dir`; NotFound when the directory
/// holds no (valid) snapshot.
Result<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir);

/// Shard count recorded by the newest valid snapshot of `dir` (1 for v1
/// documents); NotFound when no valid snapshot exists. `mc3 recover` uses
/// this to adopt the snapshot's layout when --shards is not forced.
Result<uint32_t> ProbeSnapshotShardCount(const std::string& dir);

}  // namespace mc3::durability
