// Write-ahead update log for the serving engine (docs/durability.md).
//
// Every admitted update batch is appended as one record whose payload is
// the textual `update_trace` rendering of the batch
// (online::RenderUpdateBatch) — the same format `mc3 serve --trace`
// replays — wrapped in a binary frame:
//
//   [u32 payload_len][u32 crc32(payload)][u64 seq]  payload bytes
//
// all little-endian. Sequence numbers are monotonic from 1 and never reused
// across segments or restarts. Records live in segment files named
// `wal-<first-seq>.log` (20-digit zero-padded), each starting with the
// 8-byte magic "MC3WAL1\n"; a rotation (size threshold or checkpoint)
// starts a fresh segment at the next sequence number.
//
// Durability model: Append() never blocks on the disk. In the default
// kGrouped mode a dedicated committer thread drains whatever accumulated
// while the previous fsync was in flight and commits it with a single
// write+fsync (classic group commit); the engine hot path only pays an
// in-memory enqueue. Responses are therefore acknowledged *before* the
// record is durable — a crash can lose the last group (bounded by the
// group window), never reorder or corrupt. A torn final record (crash mid
// write) is detected by length/CRC on the next open and truncated away;
// recovery replays the surviving prefix.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace mc3::durability {

/// Magic bytes opening every segment file.
inline constexpr char kWalMagic[8] = {'M', 'C', '3', 'W', 'A', 'L', '1', '\n'};
/// Frame header bytes in front of every payload (len + crc + seq).
inline constexpr size_t kWalHeaderBytes = 4 + 4 + 8;
/// Sanity cap on a single record payload; larger lengths in a frame header
/// are treated as corruption.
inline constexpr uint32_t kWalMaxPayloadBytes = 64u << 20;

struct WalOptions {
  /// How appended records reach the disk.
  enum class SyncPolicy {
    kGrouped,    ///< background committer thread, group-commit fsync batches
    kImmediate,  ///< write + fsync inline in Append (deterministic; tests)
    kNone,       ///< write inline, never fsync (throwaway/bench data)
  };
  SyncPolicy sync = SyncPolicy::kGrouped;

  /// kGrouped: after waking for a non-empty queue the committer waits up to
  /// this long for more records before fsyncing the batch. 0 commits
  /// whatever is pending immediately — batches still form naturally while
  /// an fsync is in flight.
  double group_window_ms = 0;

  /// Rotate to a fresh segment once the current one exceeds this many
  /// bytes. 0 = never rotate on size (checkpoints rotate explicitly).
  uint64_t segment_bytes = 64ull << 20;

  /// Optional durability hook: invoked with the new durable sequence number
  /// every time `durable_seq` advances (after the fsync — on the committer
  /// thread under kGrouped, inline in Append under kImmediate, never under
  /// kNone). Runs outside the writer lock, so it may take subscriber locks;
  /// it must not call back into the writer. The serving telemetry layer uses
  /// it to timestamp the wal_durable stage of traced requests.
  std::function<void(uint64_t durable_seq)> on_durable;
};

/// Point-in-time writer statistics (also served by the `wal_stats` protocol
/// verb and mirrored into the obs metrics registry).
struct WalWriterStats {
  uint64_t last_seq = 0;          ///< last appended sequence number
  uint64_t durable_seq = 0;       ///< last fsynced sequence number
  uint64_t records_appended = 0;  ///< records appended by this writer
  uint64_t bytes_appended = 0;    ///< frame + payload bytes appended
  uint64_t bytes_fsynced = 0;     ///< bytes covered by completed fsyncs
  uint64_t syncs = 0;             ///< fsync calls issued
  uint64_t group_commit_max = 0;  ///< largest records-per-fsync batch
  uint64_t segments = 0;          ///< live segment files
  /// Torn final record found (and truncated) when the writer opened.
  bool torn_tail_on_open = false;
};

/// One decoded record.
struct WalRecord {
  uint64_t seq = 0;
  std::string payload;
};

/// Result of scanning a WAL directory.
struct WalScan {
  std::vector<WalRecord> records;  ///< valid records, ascending seq
  uint64_t last_seq = 0;           ///< 0 when empty
  /// The final record was torn (truncated frame, short payload or CRC
  /// mismatch) and was dropped; `torn_detail` names the segment and offset.
  bool torn_tail = false;
  std::string torn_detail;
};

/// Reads every record with seq > `after_seq` from the segments of `dir`,
/// in sequence order. Tolerates a torn final record (reported via the scan,
/// not an error); fails on structural corruption anywhere else — bad magic,
/// a non-contiguous sequence jump, or garbage between valid records.
Result<WalScan> ReadWal(const std::string& dir, uint64_t after_seq);

/// Segment file names of `dir` (no path), sorted by first sequence number.
Result<std::vector<std::string>> ListWalSegments(const std::string& dir);

/// Appender. Thread-safe; one writer per directory (the serving process).
class WalWriter {
 public:
  /// Opens `dir` for appending (creating it if missing), scans existing
  /// segments for the last sequence number and truncates a torn final
  /// record so new appends extend the valid prefix.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& dir,
                                                 const WalOptions& options);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record, assigning the next sequence number (returned).
  /// kGrouped: enqueues for the committer and returns without touching the
  /// disk; otherwise writes (and per policy fsyncs) inline.
  Result<uint64_t> Append(std::string payload);

  /// Blocks until every record appended so far is durable (no-op under
  /// kNone, where durability is explicitly waived).
  Status Sync();

  /// Checkpoint hook: makes everything durable, starts a fresh segment at
  /// the next sequence number and — unless `keep_segments` — deletes the
  /// segments whose records are all <= `snapshot_seq` (their effects are
  /// captured by the snapshot).
  Status Rotate(uint64_t snapshot_seq, bool keep_segments);

  /// Fast-forwards the sequence counter to at least `floor` (no-op when
  /// already past it), rotating so the next append lands in a segment named
  /// `floor + 1`. Recovery calls this when the latest snapshot is newer
  /// than the whole WAL (its covering segments were rotated away or lost) —
  /// sequences below the snapshot must never be reassigned.
  Status EnsureSeqFloor(uint64_t floor);

  WalWriterStats Stats() const;

  /// Stops the committer and closes the segment (idempotent; the
  /// destructor calls it). Pending records are committed first.
  Status Close();

 private:
  WalWriter(std::string dir, WalOptions options);

  /// Opens (creating) the segment whose first record is `first_seq`.
  Status OpenSegment(uint64_t first_seq) MC3_REQUIRES(mu_);
  /// Appends `frames` to the segment and optionally fsyncs. Touches the
  /// mu_-guarded fd_ under a protocol the static analysis cannot express:
  /// the inline policies call it with mu_ held, while the group committer
  /// deliberately drops the lock around the slow disk write (it is the only
  /// thread touching the fd in that mode, and bookkeeping re-locks).
  Status WriteAndMaybeSync(const std::string& frames, bool sync)
      MC3_NO_THREAD_SAFETY_ANALYSIS;
  void CommitterLoop();

  // mc3-lint: guard-ok(fixed at construction, immutable afterwards)
  std::string dir_;
  // mc3-lint: guard-ok(fixed at construction, immutable afterwards)
  WalOptions options_;

  mutable util::Mutex mu_;
  util::CondVar work_cv_;     ///< committer: pending or stopping
  util::CondVar durable_cv_;  ///< Sync waiters: durable_seq_ moved
  /// Encoded frames awaiting commit.
  std::string pending_ MC3_GUARDED_BY(mu_);
  uint64_t pending_records_ MC3_GUARDED_BY(mu_) = 0;
  uint64_t pending_last_seq_ MC3_GUARDED_BY(mu_) = 0;
  bool stopping_ MC3_GUARDED_BY(mu_) = false;
  bool closed_ MC3_GUARDED_BY(mu_) = false;
  /// Sticky first disk failure.
  Status committer_error_ MC3_GUARDED_BY(mu_);

  int fd_ MC3_GUARDED_BY(mu_) = -1;
  uint64_t segment_first_seq_ MC3_GUARDED_BY(mu_) = 1;
  uint64_t segment_bytes_written_ MC3_GUARDED_BY(mu_) = 0;

  uint64_t last_seq_ MC3_GUARDED_BY(mu_) = 0;
  uint64_t durable_seq_ MC3_GUARDED_BY(mu_) = 0;
  WalWriterStats stats_ MC3_GUARDED_BY(mu_);

  // Started once by Open, joined only by Close.
  std::thread committer_;
};

}  // namespace mc3::durability
