// Durability subsystem tests (docs/durability.md): WAL framing and
// recovery semantics — append/scan round trips, torn-tail truncation, CRC
// rejection, group commit, rotation and the sequence-number contract — and
// snapshot render/parse/publish plus full DurabilityManager recovery
// equivalence (snapshot + WAL tail reproduces the live engine exactly).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/instance.h"
#include "durability/durability.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "online/online_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace mc3::durability {
namespace {

namespace fs = std::filesystem;
using mc3::testing::CostBytes;
using mc3::testing::PaperExample;
using online::OnlineEngine;

/// Fresh per-test scratch directory, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const char* tag)
      : path(::testing::TempDir() + "/mc3_durability_" + tag + "_" +
             std::to_string(reinterpret_cast<uintptr_t>(this))) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

WalOptions ImmediateSync() {
  WalOptions options;
  options.sync = WalOptions::SyncPolicy::kImmediate;
  return options;
}

Result<std::unique_ptr<WalWriter>> OpenImmediate(const std::string& dir) {
  return WalWriter::Open(dir, ImmediateSync());
}

/// Appends `payloads` in order, expecting sequence numbers to continue
/// from the writer's current tail.
void AppendAll(WalWriter* writer, const std::vector<std::string>& payloads) {
  uint64_t expected = writer->Stats().last_seq;
  for (const std::string& payload : payloads) {
    auto seq = writer->Append(payload);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(*seq, ++expected);
  }
}

/// Truncates the file by `bytes` (crash-mid-write simulation).
void Chop(const std::string& path, uint64_t bytes) {
  const uint64_t size = fs::file_size(path);
  ASSERT_GT(size, bytes);
  fs::resize_file(path, size - bytes);
}

std::string LastSegmentPath(const std::string& dir) {
  auto segments = ListWalSegments(dir);
  EXPECT_TRUE(segments.ok()) << segments.status().ToString();
  EXPECT_FALSE(segments->empty());
  return dir + "/" + segments->back();
}

TEST(WalTest, AppendReadRoundTrip) {
  ScratchDir dir("roundtrip");
  auto writer = OpenImmediate(dir.path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  AppendAll(writer->get(), {"+ a b\n", "- a b\n+ c\n", "+ d\n"});
  ASSERT_TRUE((*writer)->Close().ok());

  auto scan = ReadWal(dir.path, /*after_seq=*/0);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->last_seq, 3u);
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->records[0].seq, 1u);
  EXPECT_EQ(scan->records[0].payload, "+ a b\n");
  EXPECT_EQ(scan->records[1].payload, "- a b\n+ c\n");
  EXPECT_EQ(scan->records[2].payload, "+ d\n");

  // after_seq filters strictly: only records newer than the snapshot.
  auto tail = ReadWal(dir.path, /*after_seq=*/2);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_EQ(tail->records.size(), 1u);
  EXPECT_EQ(tail->records[0].seq, 3u);
  EXPECT_EQ(tail->last_seq, 3u);
}

TEST(WalTest, ReopenContinuesSequence) {
  ScratchDir dir("reopen");
  {
    auto writer = OpenImmediate(dir.path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    AppendAll(writer->get(), {"one\n", "two\n"});
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto writer = OpenImmediate(dir.path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_EQ((*writer)->Stats().last_seq, 2u);
  EXPECT_FALSE((*writer)->Stats().torn_tail_on_open);
  auto seq = (*writer)->Append("three\n");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 3u);
  ASSERT_TRUE((*writer)->Close().ok());

  auto scan = ReadWal(dir.path, 0);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 3u);
}

TEST(WalTest, TornFinalRecordIsDetectedAndTruncatedOnOpen) {
  ScratchDir dir("torn");
  {
    auto writer = OpenImmediate(dir.path);
    ASSERT_TRUE(writer.ok());
    AppendAll(writer->get(), {"first\n", "second\n", "third-longer\n"});
    ASSERT_TRUE((*writer)->Close().ok());
  }
  // Chop into the middle of record 3's payload: a crash mid-write.
  Chop(LastSegmentPath(dir.path), 4);

  auto scan = ReadWal(dir.path, 0);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_FALSE(scan->torn_detail.empty());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->last_seq, 2u);

  // Reopening truncates the torn record; new appends extend the valid
  // prefix and reuse the torn record's sequence number (it never became
  // durable, so it was never acknowledged as assigned).
  auto writer = OpenImmediate(dir.path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_TRUE((*writer)->Stats().torn_tail_on_open);
  EXPECT_EQ((*writer)->Stats().last_seq, 2u);
  auto seq = (*writer)->Append("third-take-two\n");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 3u);
  ASSERT_TRUE((*writer)->Close().ok());

  auto rescan = ReadWal(dir.path, 0);
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan->torn_tail);
  ASSERT_EQ(rescan->records.size(), 3u);
  EXPECT_EQ(rescan->records[2].payload, "third-take-two\n");
}

TEST(WalTest, CorruptedCrcTerminatesTheValidPrefix) {
  ScratchDir dir("crc");
  {
    auto writer = OpenImmediate(dir.path);
    ASSERT_TRUE(writer.ok());
    AppendAll(writer->get(), {"aaaa\n", "bbbb\n", "cccc\n"});
    ASSERT_TRUE((*writer)->Close().ok());
  }
  // Flip one byte inside record 2's payload. Everything from the damaged
  // record on is dropped: a CRC mismatch is indistinguishable from a torn
  // write at scan time.
  const std::string path = LastSegmentPath(dir.path);
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  const uint64_t record2_payload =
      sizeof(kWalMagic) + (kWalHeaderBytes + 5) + kWalHeaderBytes + 1;
  file.seekp(static_cast<std::streamoff>(record2_payload));
  file.put('X');
  file.close();

  auto scan = ReadWal(dir.path, 0);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].payload, "aaaa\n");
  EXPECT_NE(scan->torn_detail.find("CRC"), std::string::npos)
      << scan->torn_detail;
}

TEST(WalTest, CorruptionInNonFinalSegmentIsAnError) {
  ScratchDir dir("midcorrupt");
  {
    auto writer = OpenImmediate(dir.path);
    ASSERT_TRUE(writer.ok());
    AppendAll(writer->get(), {"aaaa\n", "bbbb\n"});
    // Checkpoint-style rotation, keeping the old segment on disk.
    ASSERT_TRUE((*writer)->Rotate(/*snapshot_seq=*/0, /*keep_segments=*/true)
                    .ok());
    AppendAll(writer->get(), {"cccc\n"});
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto segments = ListWalSegments(dir.path);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 2u);
  Chop(dir.path + "/" + segments->front(), 3);

  // A torn tail is only survivable in the FINAL segment; a hole in the
  // middle of the history means records are missing and recovery must not
  // silently skip them.
  auto scan = ReadWal(dir.path, 0);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kIOError);
}

TEST(WalTest, GroupCommitSyncBarrier) {
  ScratchDir dir("grouped");
  WalOptions options;  // kGrouped default
  options.group_window_ms = 1;
  auto writer = WalWriter::Open(dir.path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (int i = 0; i < 64; ++i) {
    auto seq = (*writer)->Append("record " + std::to_string(i) + "\n");
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  }
  ASSERT_TRUE((*writer)->Sync().ok());
  const WalWriterStats stats = (*writer)->Stats();
  EXPECT_EQ(stats.last_seq, 64u);
  EXPECT_EQ(stats.durable_seq, 64u);
  EXPECT_EQ(stats.records_appended, 64u);
  // Group commit: strictly fewer fsyncs than records (the committer drains
  // whatever accumulated while the previous fsync was in flight).
  EXPECT_LE(stats.syncs, stats.records_appended);
  EXPECT_GE(stats.group_commit_max, 1u);
  ASSERT_TRUE((*writer)->Close().ok());

  auto scan = ReadWal(dir.path, 0);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 64u);
  EXPECT_FALSE(scan->torn_tail);
}

TEST(WalTest, RotateDeletesSegmentsCoveredByTheSnapshot) {
  ScratchDir dir("rotate");
  auto writer = OpenImmediate(dir.path);
  ASSERT_TRUE(writer.ok());
  AppendAll(writer->get(), {"a\n", "b\n", "c\n"});
  // Snapshot at seq 3 covers everything: the old segment goes away and an
  // empty successor pins the sequence floor.
  ASSERT_TRUE((*writer)->Rotate(/*snapshot_seq=*/3, /*keep_segments=*/false)
                  .ok());
  auto segments = ListWalSegments(dir.path);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ(segments->front(), "wal-00000000000000000004.log");

  auto scan = ReadWal(dir.path, 0);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->records.empty());
  // The empty segment's name still pins the sequence contract.
  EXPECT_EQ(scan->last_seq, 3u);

  auto seq = (*writer)->Append("d\n");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 4u);
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(WalTest, RotateKeepsSegmentsWithNewerRecords) {
  ScratchDir dir("rotatekeep");
  auto writer = OpenImmediate(dir.path);
  ASSERT_TRUE(writer.ok());
  AppendAll(writer->get(), {"a\n", "b\n", "c\n"});
  // Snapshot at seq 1 does NOT cover records 2 and 3: their segment must
  // survive the rotation.
  ASSERT_TRUE((*writer)->Rotate(/*snapshot_seq=*/1, /*keep_segments=*/false)
                  .ok());
  auto scan = ReadWal(dir.path, /*after_seq=*/1);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0].seq, 2u);
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(WalTest, EnsureSeqFloorNeverReassignsCoveredSequences) {
  ScratchDir dir("floor");
  auto writer = OpenImmediate(dir.path);
  ASSERT_TRUE(writer.ok());
  // A snapshot at seq 10 exists but the WAL is empty (segments rotated
  // away or lost): new appends must start past the snapshot.
  ASSERT_TRUE((*writer)->EnsureSeqFloor(10).ok());
  auto seq = (*writer)->Append("eleven\n");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 11u);
  ASSERT_TRUE((*writer)->Close().ok());

  auto reopened = OpenImmediate(dir.path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().last_seq, 11u);
  ASSERT_TRUE((*reopened)->Close().ok());
}

/// A small engine with named properties, churned a little so components
/// and stored solutions are non-trivial.
OnlineEngine MakeEngine() {
  OnlineEngine engine;
  auto init = engine.Initialize(PaperExample());
  EXPECT_TRUE(init.ok()) << init.status().ToString();
  return engine;
}

TEST(SnapshotTest, RenderParseReRenderIsByteStable) {
  OnlineEngine engine = MakeEngine();
  const online::EngineState state = engine.ExportState();
  const std::string json = RenderSnapshot(state, 42);
  ASSERT_TRUE(ValidateSnapshotJson(json).ok());

  auto parsed = ParseSnapshot(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seq, 42u);
  // The canonical EngineState form makes render o parse the identity.
  EXPECT_EQ(RenderSnapshot(parsed->state, 42), json);

  // And importing reproduces the engine.
  OnlineEngine restored;
  ASSERT_TRUE(restored.ImportState(parsed->state).ok());
  ASSERT_TRUE(restored.CheckInvariants().ok());
  EXPECT_EQ(restored.TotalCost(), engine.TotalCost());
  EXPECT_EQ(restored.NumQueries(), engine.NumQueries());
  EXPECT_EQ(RenderSnapshot(restored.ExportState(), 42), json);
}

TEST(SnapshotTest, ValidateRejectsStructuralDamage) {
  OnlineEngine engine = MakeEngine();
  const std::string json = RenderSnapshot(engine.ExportState(), 7);

  std::string wrong_schema = json;
  const size_t at = wrong_schema.find("mc3.snapshot/1");
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, 14, "mc3.snapshot/9");
  EXPECT_FALSE(ValidateSnapshotJson(wrong_schema).ok());

  EXPECT_FALSE(ValidateSnapshotJson("{}").ok());
  EXPECT_FALSE(ValidateSnapshotJson("not json").ok());
  // Truncation (a half-written file that dodged the atomic rename).
  EXPECT_FALSE(ValidateSnapshotJson(json.substr(0, json.size() / 2)).ok());
}

TEST(SnapshotTest, RepeatedPropertyNameIsRejected) {
  OnlineEngine engine = MakeEngine();
  online::EngineState state = engine.ExportState();
  ASSERT_GE(state.property_names.size(), 2u);
  // Both ids would render as the same name, and no client could name the
  // second one.
  state.property_names.push_back(state.property_names[1]);
  const std::string json = RenderSnapshot(state, 7);
  auto parsed = ParseSnapshot(json);
  ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("repeats entry 1"),
            std::string::npos)
      << parsed.status().message();
  EXPECT_FALSE(ValidateSnapshotJson(json).ok());
}

TEST(SnapshotTest, LoadLatestSkipsInvalidNewerFiles) {
  ScratchDir dir("snapload");
  OnlineEngine engine = MakeEngine();
  auto older = WriteSnapshotFile(dir.path, engine.ExportState(), 3);
  ASSERT_TRUE(older.ok()) << older.status().ToString();
  auto newer = WriteSnapshotFile(dir.path, engine.ExportState(), 9);
  ASSERT_TRUE(newer.ok());

  auto best = LoadLatestSnapshot(dir.path);
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_EQ(best->seq, 9u);
  EXPECT_EQ(best->skipped_invalid, 0u);

  // Rot the newest file: loading falls back to the older valid one.
  Chop(dir.path + "/" + SnapshotFileName(9), 20);
  auto fallback = LoadLatestSnapshot(dir.path);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->seq, 3u);
  EXPECT_EQ(fallback->skipped_invalid, 1u);
}

TEST(SnapshotTest, EmbeddedSeqMustMatchTheFileName) {
  ScratchDir dir("snapseq");
  OnlineEngine engine = MakeEngine();
  fs::create_directories(dir.path);
  // A document claiming seq 7 under the seq-9 file name is invalid: the
  // name is what rotation trusts when deleting covered segments.
  const std::string json = RenderSnapshot(engine.ExportState(), 7);
  std::ofstream(dir.path + "/" + SnapshotFileName(9), std::ios::binary)
      << json;
  auto best = LoadLatestSnapshot(dir.path);
  ASSERT_FALSE(best.ok());
  EXPECT_EQ(best.status().code(), StatusCode::kNotFound);
}

DurabilityOptions ManagerOptions(const std::string& dir) {
  DurabilityOptions options;
  options.data_dir = dir;
  options.wal.sync = WalOptions::SyncPolicy::kImmediate;
  return options;
}

/// Drives `engine` through `rounds` remove+re-add churn rounds, logging
/// every batch through `manager` the way the server does.
void Churn(OnlineEngine* engine, DurabilityManager* manager, size_t rounds) {
  const Instance live = engine->LiveInstance();
  const auto& queries = live.queries();
  ASSERT_GE(queries.size(), 1u);
  for (size_t r = 0; r < rounds; ++r) {
    const std::vector<PropertySet> chunk{queries[r % queries.size()]};
    ASSERT_TRUE(engine->RemoveQueries(chunk).ok());
    ASSERT_TRUE(manager->LogBatch({}, chunk, engine->property_names()).ok());
    ASSERT_TRUE(engine->AddQueries(chunk).ok());
    ASSERT_TRUE(manager->LogBatch(chunk, {}, engine->property_names()).ok());
  }
}

/// Sorted current-solution classifiers — the equivalence fingerprint
/// (property ids are stable across recovery, the name table is restored).
std::vector<PropertySet> Fingerprint(const OnlineEngine& engine) {
  return engine.CurrentSolution().Sorted();
}

TEST(DurabilityManagerTest, RecoverFromEmptyDirMatchesInitialize) {
  ScratchDir dir("mgr_empty");
  auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  OnlineEngine engine;
  auto recovery =
      (*manager)->Recover(PaperExample(), /*default_cost=*/-1, &engine);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_FALSE(recovery->snapshot_loaded);
  EXPECT_EQ(recovery->wal_records_replayed, 0u);
  ASSERT_TRUE((*manager)->Close().ok());

  OnlineEngine plain;
  ASSERT_TRUE(plain.Initialize(PaperExample()).ok());
  EXPECT_EQ(Fingerprint(engine), Fingerprint(plain));
  EXPECT_EQ(engine.TotalCost(), plain.TotalCost());
}

TEST(DurabilityManagerTest, SnapshotPlusWalTailReproducesTheLiveEngine) {
  ScratchDir dir("mgr_recover");
  OnlineEngine live;
  {
    auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
    ASSERT_TRUE(manager.ok());
    auto recovery = (*manager)->Recover(PaperExample(), -1, &live);
    ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
    Churn(&live, manager->get(), 3);
    // Snapshot mid-history: recovery must combine it with the WAL tail.
    auto checkpoint = (*manager)->Checkpoint(live.ExportState());
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    EXPECT_EQ(checkpoint->seq, 6u);
    Churn(&live, manager->get(), 2);
    ASSERT_TRUE((*manager)->Close().ok());
  }

  OnlineEngine recovered;
  auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
  ASSERT_TRUE(manager.ok());
  auto recovery = (*manager)->Recover(PaperExample(), -1, &recovered);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_TRUE(recovery->snapshot_loaded);
  EXPECT_EQ(recovery->snapshot_seq, 6u);
  EXPECT_EQ(recovery->wal_records_replayed, 4u);
  EXPECT_EQ(recovery->wal_last_seq, 10u);
  EXPECT_FALSE(recovery->torn_tail);
  ASSERT_TRUE((*manager)->Close().ok());

  ASSERT_TRUE(recovered.CheckInvariants().ok());
  EXPECT_EQ(Fingerprint(recovered), Fingerprint(live));
  EXPECT_EQ(recovered.TotalCost(), live.TotalCost());
  EXPECT_EQ(RenderSnapshot(recovered.ExportState(), 0),
            RenderSnapshot(live.ExportState(), 0));
}

TEST(DurabilityManagerTest, TailNamesFirstSeenMidwayRecoverInOrder) {
  ScratchDir dir("mgr_names");
  constexpr double kDefaultCost = 2;
  OnlineEngine live;
  {
    auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE((*manager)->Recover(PaperExample(), kDefaultCost, &live).ok());
    ASSERT_TRUE((*manager)->Checkpoint(live.ExportState()).ok());
    // Logs each batch the way the server admits it: intern, price, apply.
    PropertyInterner names;
    ASSERT_TRUE(names.Load(live.shared_property_names()).ok());
    const auto admit = [&](const std::vector<std::vector<std::string>>& adds,
                           const std::vector<std::vector<std::string>>&
                               removes) {
      std::vector<PropertySet> add;
      std::vector<PropertySet> remove;
      for (const auto& query : adds) {
        std::vector<PropertyId> ids;
        for (const std::string& name : query) ids.push_back(names.Intern(name));
        add.push_back(PropertySet::FromUnsorted(std::move(ids)));
      }
      for (const auto& query : removes) {
        std::vector<PropertyId> ids;
        for (const std::string& name : query) ids.push_back(names.Intern(name));
        remove.push_back(PropertySet::FromUnsorted(std::move(ids)));
      }
      live.share_property_names(names.names());
      ASSERT_TRUE(PriceUnknown(add, kDefaultCost, &live).ok());
      ASSERT_TRUE(live.ApplyUpdate(add, remove).ok());
      ASSERT_TRUE(
          (*manager)->LogBatch(add, remove, live.property_names()).ok());
    };
    admit({{"chelsea", "white"}}, {});
    admit({{"blue", "sofa"}}, {{"chelsea", "adidas"}});
    admit({{"chelsea", "adidas"}, {"sofa", "lamp"}}, {{"blue", "sofa"}});
    admit({}, {{"chelsea", "white"}});
    ASSERT_TRUE((*manager)->Close().ok());
  }
  EXPECT_EQ(live.property_names().size(), 7u);

  OnlineEngine recovered;
  auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
  ASSERT_TRUE(manager.ok());
  auto recovery = (*manager)->Recover(PaperExample(), kDefaultCost, &recovered);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->wal_records_replayed, 4u);
  ASSERT_TRUE((*manager)->Close().ok());
  ASSERT_TRUE(recovered.CheckInvariants().ok());
  EXPECT_EQ(recovered.property_names(), live.property_names());
  EXPECT_EQ(RenderSnapshot(recovered.ExportState(), 0),
            RenderSnapshot(live.ExportState(), 0));
}

TEST(DurabilityManagerTest, TornFinalRecordRecoversThePrefix) {
  ScratchDir dir("mgr_torn");
  OnlineEngine live;
  {
    auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE((*manager)->Recover(PaperExample(), -1, &live).ok());
    Churn(&live, manager->get(), 2);
    ASSERT_TRUE((*manager)->Close().ok());
  }
  Chop(LastSegmentPath(dir.path), 3);

  OnlineEngine recovered;
  auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
  ASSERT_TRUE(manager.ok());
  auto recovery = (*manager)->Recover(PaperExample(), -1, &recovered);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_TRUE(recovery->torn_tail);
  EXPECT_EQ(recovery->wal_records_replayed, 3u);
  ASSERT_TRUE((*manager)->Close().ok());

  // The recovered state equals replaying the surviving prefix: the last
  // (torn) record was a re-add, so the recovered engine is one query
  // short of the live one.
  ASSERT_TRUE(recovered.CheckInvariants().ok());
  EXPECT_EQ(recovered.NumQueries(), live.NumQueries() - 1);
}

TEST(DurabilityManagerTest, SnapshotNewerThanWholeWalStillRecovers) {
  ScratchDir dir("mgr_stale");
  OnlineEngine live;
  {
    auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE((*manager)->Recover(PaperExample(), -1, &live).ok());
    Churn(&live, manager->get(), 2);
    ASSERT_TRUE((*manager)->Checkpoint(live.ExportState()).ok());
    ASSERT_TRUE((*manager)->Close().ok());
  }
  // Lose every WAL segment; the snapshot (seq 4) is all that's left.
  auto segments = ListWalSegments(dir.path);
  ASSERT_TRUE(segments.ok());
  for (const std::string& segment : *segments) {
    fs::remove(dir.path + "/" + segment);
  }

  OnlineEngine recovered;
  auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
  ASSERT_TRUE(manager.ok());
  auto recovery = (*manager)->Recover(PaperExample(), -1, &recovered);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_TRUE(recovery->snapshot_loaded);
  EXPECT_EQ(recovery->snapshot_seq, 4u);
  EXPECT_EQ(recovery->wal_records_replayed, 0u);
  EXPECT_EQ(Fingerprint(recovered), Fingerprint(live));

  // Sequences <= snapshot_seq must never be reassigned: the next logged
  // batch continues past the snapshot.
  auto seq = (*manager)->LogBatch(
      {}, {recovered.LiveInstance().queries().front()},
      recovered.property_names());
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(*seq, 5u);
  ASSERT_TRUE((*manager)->Close().ok());
}

/// Logs `count` one-query batches through `manager` the way the server
/// does, each one removing `query` from `engine` when it is live and
/// re-adding it otherwise.
void FlipBatches(OnlineEngine* engine, DurabilityManager* manager,
                 const PropertySet& query, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const Instance live = engine->LiveInstance();
    const bool present = std::find(live.queries().begin(),
                                   live.queries().end(),
                                   query) != live.queries().end();
    if (present) {
      ASSERT_TRUE(engine->RemoveQueries({query}).ok());
      ASSERT_TRUE(
          manager->LogBatch({}, {query}, engine->property_names()).ok());
    } else {
      ASSERT_TRUE(engine->AddQueries({query}).ok());
      ASSERT_TRUE(
          manager->LogBatch({query}, {}, engine->property_names()).ok());
    }
  }
}

/// Replaces the snapshot file of `seq` with a document that fails
/// validation.
void SpoilSnapshot(const std::string& dir, uint64_t seq) {
  std::ofstream(dir + "/" + SnapshotFileName(seq),
                std::ios::binary | std::ios::trunc)
      << "{\"schema\":\"mc3.snapshot/1\"}\n";
}

/// Writes batches 1-3, a checkpoint (seq 3), batches 4-6, then spoils the
/// snapshot; returns the live engine.
OnlineEngine WriteHoleBehindSpoiledSnapshot(const DurabilityOptions& options) {
  OnlineEngine live;
  auto manager = DurabilityManager::Open(options);
  EXPECT_TRUE(manager.ok());
  if (!manager.ok()) return live;
  EXPECT_TRUE((*manager)->Recover(PaperExample(), -1, &live).ok());
  const PropertySet query = live.LiveInstance().queries().front();
  FlipBatches(&live, manager->get(), query, 3);
  auto checkpoint = (*manager)->Checkpoint(live.ExportState());
  EXPECT_TRUE(checkpoint.ok());
  if (checkpoint.ok()) {
    EXPECT_EQ(checkpoint->seq, 3u);
  }
  FlipBatches(&live, manager->get(), query, 3);
  EXPECT_TRUE((*manager)->Close().ok());
  SpoilSnapshot(options.data_dir, 3);
  return live;
}

TEST(DurabilityManagerTest, TailMissingItsHeadAfterTheBaseFails) {
  // The checkpoint rotated records 1-3 away; with its snapshot spoiled,
  // recovery starts from the base, and records 4-6 cannot follow it.
  ScratchDir dir("mgr_hole_base");
  WriteHoleBehindSpoiledSnapshot(ManagerOptions(dir.path));

  OnlineEngine recovered;
  auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
  ASSERT_TRUE(manager.ok());
  auto recovery = (*manager)->Recover(PaperExample(), -1, &recovered);
  ASSERT_FALSE(recovery.ok());
  EXPECT_EQ(recovery.status().code(), StatusCode::kIOError);
  EXPECT_NE(recovery.status().message().find("expected seq 1"),
            std::string::npos)
      << recovery.status().ToString();
  EXPECT_NE(recovery.status().message().find("found seq 4"),
            std::string::npos)
      << recovery.status().ToString();
  ASSERT_TRUE((*manager)->Close().ok());
}

TEST(DurabilityManagerTest, TailMissingItsHeadAfterAnOlderSnapshotFails) {
  // Checkpoints at 3 and 6, then batches 7-8. With snapshot 6 spoiled,
  // recovery falls back to snapshot 3, but records 4-6 were rotated away.
  ScratchDir dir("mgr_hole_older");
  {
    OnlineEngine live;
    auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE((*manager)->Recover(PaperExample(), -1, &live).ok());
    const PropertySet query = live.LiveInstance().queries().front();
    FlipBatches(&live, manager->get(), query, 3);
    ASSERT_TRUE((*manager)->Checkpoint(live.ExportState()).ok());
    FlipBatches(&live, manager->get(), query, 3);
    auto checkpoint = (*manager)->Checkpoint(live.ExportState());
    ASSERT_TRUE(checkpoint.ok());
    EXPECT_EQ(checkpoint->seq, 6u);
    FlipBatches(&live, manager->get(), query, 2);
    ASSERT_TRUE((*manager)->Close().ok());
  }
  SpoilSnapshot(dir.path, 6);

  OnlineEngine recovered;
  auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
  ASSERT_TRUE(manager.ok());
  auto recovery = (*manager)->Recover(PaperExample(), -1, &recovered);
  ASSERT_FALSE(recovery.ok());
  EXPECT_EQ(recovery.status().code(), StatusCode::kIOError);
  EXPECT_NE(recovery.status().message().find("expected seq 4 after snapshot 3"),
            std::string::npos)
      << recovery.status().ToString();
  EXPECT_NE(recovery.status().message().find("found seq 7"),
            std::string::npos)
      << recovery.status().ToString();
  ASSERT_TRUE((*manager)->Close().ok());
}

TEST(DurabilityManagerTest, KeptSegmentsRecoverPastASpoiledSnapshot) {
  // With keep_segments the checkpoint rotates nothing away: the base plus
  // records 1-6 reproduce the live engine.
  ScratchDir dir("mgr_hole_kept");
  DurabilityOptions options = ManagerOptions(dir.path);
  options.keep_segments = true;
  const OnlineEngine live = WriteHoleBehindSpoiledSnapshot(options);

  OnlineEngine recovered;
  auto manager = DurabilityManager::Open(options);
  ASSERT_TRUE(manager.ok());
  auto recovery = (*manager)->Recover(PaperExample(), -1, &recovered);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_FALSE(recovery->snapshot_loaded);
  EXPECT_EQ(recovery->wal_records_replayed, 6u);
  ASSERT_TRUE((*manager)->Close().ok());
  ASSERT_TRUE(recovered.CheckInvariants().ok());
  EXPECT_EQ(RenderSnapshot(recovered.ExportState(), 0),
            RenderSnapshot(live.ExportState(), 0));
}

TEST(DurabilityManagerTest, CheckpointPolicyByUpdateCount) {
  ScratchDir dir("mgr_policy");
  DurabilityOptions options = ManagerOptions(dir.path);
  options.checkpoint_every_updates = 3;
  auto manager = DurabilityManager::Open(options);
  ASSERT_TRUE(manager.ok());
  OnlineEngine engine;
  ASSERT_TRUE((*manager)->Recover(PaperExample(), -1, &engine).ok());

  EXPECT_FALSE((*manager)->ShouldCheckpoint());
  Churn(&engine, manager->get(), 1);  // 2 batches
  EXPECT_FALSE((*manager)->ShouldCheckpoint());
  Churn(&engine, manager->get(), 1);  // 4 batches
  EXPECT_TRUE((*manager)->ShouldCheckpoint());
  ASSERT_TRUE((*manager)->Checkpoint(engine.ExportState()).ok());
  EXPECT_FALSE((*manager)->ShouldCheckpoint());
  ASSERT_TRUE((*manager)->Close().ok());
}

// ---------------------------------------------------------------------------
// Data directories of a sharded server (mc3.snapshot/2). Earlier builds
// could split the engine into shards and tagged each snapshot component
// with its shard. The loader validates that layout, drops it and restores
// the components into the one engine, so such a directory still recovers.

/// The snapshot a 4-shard `mc3 serve --default-cost 2` wrote over the
/// workload `Q,juventus,white,adidas`, `Q,chelsea,adidas`, `Q,iphone,black`,
/// `Q,nike,running`, `Q,dell,laptop` (priced singletons, plus 3 for
/// adidas+chelsea and adidas+juventus and 3 for black+iphone) after the
/// updates `- chelsea adidas`, `+ nike black` (merging two components the
/// server had placed on different shards) and `+ chelsea adidas, sony tv`.
constexpr char kShardedSnapshot[] = R"json({
  "schema": "mc3.snapshot/2",
  "seq": 3,
  "shards": 4,
  "property_names": [
    "juventus",
    "white",
    "adidas",
    "chelsea",
    "iphone",
    "black",
    "nike",
    "running",
    "dell",
    "laptop",
    "sony",
    "tv"
  ],
  "costs": [
    {
      "classifier": [
        0
      ],
      "cost": 5
    },
    {
      "classifier": [
        0,
        2
      ],
      "cost": 3
    },
    {
      "classifier": [
        1
      ],
      "cost": 1
    },
    {
      "classifier": [
        2
      ],
      "cost": 5
    },
    {
      "classifier": [
        2,
        3
      ],
      "cost": 3
    },
    {
      "classifier": [
        3
      ],
      "cost": 5
    },
    {
      "classifier": [
        4
      ],
      "cost": 6
    },
    {
      "classifier": [
        4,
        5
      ],
      "cost": 3
    },
    {
      "classifier": [
        5
      ],
      "cost": 2
    },
    {
      "classifier": [
        5,
        6
      ],
      "cost": 3
    },
    {
      "classifier": [
        6
      ],
      "cost": 3
    },
    {
      "classifier": [
        7
      ],
      "cost": 2
    },
    {
      "classifier": [
        8
      ],
      "cost": 7
    },
    {
      "classifier": [
        9
      ],
      "cost": 2
    },
    {
      "classifier": [
        10
      ],
      "cost": 2
    },
    {
      "classifier": [
        10,
        11
      ],
      "cost": 3
    },
    {
      "classifier": [
        11
      ],
      "cost": 2
    }
  ],
  "components": [
    {
      "queries": [
        [
          8,
          9
        ]
      ],
      "solution": [
        [
          8
        ],
        [
          9
        ]
      ],
      "cost": 9,
      "shard": 0
    },
    {
      "queries": [
        [
          4,
          5
        ],
        [
          5,
          6
        ],
        [
          6,
          7
        ]
      ],
      "solution": [
        [
          4,
          5
        ],
        [
          5
        ],
        [
          6
        ],
        [
          7
        ]
      ],
      "cost": 10,
      "shard": 1
    },
    {
      "queries": [
        [
          10,
          11
        ]
      ],
      "solution": [
        [
          10,
          11
        ]
      ],
      "cost": 3,
      "shard": 1
    },
    {
      "queries": [
        [
          0,
          1,
          2
        ],
        [
          2,
          3
        ]
      ],
      "solution": [
        [
          0,
          2
        ],
        [
          1
        ],
        [
          2,
          3
        ]
      ],
      "cost": 7,
      "shard": 3
    }
  ]
}

)json";

/// The WAL segment it left after that checkpoint: `- nike black`,
/// `+ sony laptop`, and `+ lg tv` with `- iphone black`.
constexpr char kShardedWalSegment[] =
    "MC3WAL1\n"
    "\015\000\000\000\370q\344g\004\000\000\000\000\000\000\000- black nike\n"
    "\016\000\000\000\374\331\304d\005\000\000\000\000\000\000\000+ laptop sony\n"
    "\027\000\000\000\3278\016f\006\000\000\000\000\000\000\000- iphone black\n"
    "+ tv lg\n";

/// What `mc3 recover --default-cost 2 --solution-out` wrote for that
/// directory with the sharded build.
constexpr char kShardedRecoveredSolution[] =
    "adidas chelsea # 3\n"
    "adidas juventus # 3\n"
    "dell # 7\n"
    "laptop # 2\n"
    "lg # 2\n"
    "nike # 3\n"
    "running # 2\n"
    "sony # 2\n"
    "tv # 2\n"
    "white # 1\n"
    "total 27\n";

/// `engine`'s solution as `mc3 recover --solution-out` renders it: one
/// classifier per line with its names sorted, lines sorted, each with its
/// price, then the total.
std::string SolutionFile(const OnlineEngine& engine) {
  const std::vector<std::string>& names = engine.property_names();
  std::vector<std::pair<std::vector<std::string>, Cost>> rows;
  for (const PropertySet& classifier : engine.CurrentSolution().Sorted()) {
    std::vector<std::string> row;
    for (const PropertyId id : classifier) row.push_back(names.at(id));
    std::sort(row.begin(), row.end());
    rows.emplace_back(std::move(row), engine.CostOf(classifier));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  Cost total = 0;
  char buffer[64];
  for (const auto& [row, cost] : rows) {
    for (size_t i = 0; i < row.size(); ++i) out += (i > 0 ? " " : "") + row[i];
    std::snprintf(buffer, sizeof(buffer), " # %.17g\n", cost);
    out += buffer;
    total += cost;
  }
  std::snprintf(buffer, sizeof(buffer), "total %.17g\n", total);
  return out + buffer;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

TEST(SnapshotTest, ShardLayoutMismatchIsRejectedOnImport) {
  auto parsed = ParseSnapshot(kShardedSnapshot);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seq, 3u);
  EXPECT_EQ(parsed->state.components.size(), 4u);
  // A layout the document contradicts is rejected: no shards, a tag at or
  // past `shards`, a component without its tag.
  const auto edited = [](const std::string& from, const std::string& to) {
    std::string doc = kShardedSnapshot;
    const size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? doc : doc.replace(at, from.size(), to);
  };
  for (const std::string& hostile :
       {edited("\"shards\": 4", "\"shards\": 0"),
        edited("\"shard\": 3", "\"shard\": 4"),
        edited(",\n      \"shard\": 0", "")}) {
    auto rejected = ParseSnapshot(hostile);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DurabilityManagerTest, ShardedSnapshotPlusWalTailRecovers) {
  ScratchDir dir("mgr_sharded");
  fs::create_directories(dir.path);
  WriteBytes(dir.path + "/" + SnapshotFileName(3), kShardedSnapshot);
  WriteBytes(dir.path + "/wal-00000000000000000004.log",
             std::string(kShardedWalSegment, sizeof(kShardedWalSegment) - 1));

  OnlineEngine engine;
  auto manager = DurabilityManager::Open(ManagerOptions(dir.path));
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  // The base is ignored: the snapshot holds the whole state.
  auto recovery = (*manager)->Recover(PaperExample(), 2, &engine);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_TRUE(recovery->snapshot_loaded);
  EXPECT_EQ(recovery->snapshot_seq, 3u);
  EXPECT_EQ(recovery->wal_records_replayed, 3u);
  ASSERT_TRUE(engine.CheckInvariants().ok());
  EXPECT_EQ(SolutionFile(engine), kShardedRecoveredSolution);

  // The next checkpoint writes the state as mc3.snapshot/1.
  auto checkpoint = (*manager)->Checkpoint(engine.ExportState());
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  ASSERT_TRUE((*manager)->Close().ok());
  auto loaded = LoadLatestSnapshot(dir.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seq, 6u);
  std::ifstream in(loaded->path, std::ios::binary);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), RenderSnapshot(engine.ExportState(), 6));
}

// ---------------------------------------------------------------------------
// Restoring mid-history. A snapshot holds only the live queries, so an
// engine restored from it must re-solve every later batch exactly as the
// live engine does, whatever was retired before the snapshot and revived
// after it.

struct ScriptBatch {
  std::vector<PropertySet> add;
  std::vector<PropertySet> remove;
};

/// A seeded retire/revive/merge script over `base`'s queries. The first
/// half retires a quarter of them in batches of three, each batch also
/// adding a query that bridges two live queries (merging their components
/// when they differ); the second half revives the retired queries in
/// batches of three, each batch also retiring one bridge.
std::vector<ScriptBatch> RetireReviveScript(const Instance& base,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<PropertySet> live = base.queries();
  std::set<PropertySet> live_set(live.begin(), live.end());
  std::vector<PropertySet> retired;
  std::vector<PropertySet> bridges;
  std::vector<ScriptBatch> script;
  const auto draw = [&rng](std::vector<PropertySet>* pool) {
    const size_t at = rng.UniformInt(0, pool->size() - 1);
    std::swap((*pool)[at], pool->back());
    PropertySet drawn = std::move(pool->back());
    pool->pop_back();
    return drawn;
  };
  for (size_t round = 0; round < base.NumQueries() / 12; ++round) {
    ScriptBatch batch;
    for (int i = 0; i < 3; ++i) {
      batch.remove.push_back(draw(&live));
      live_set.erase(batch.remove.back());
      retired.push_back(batch.remove.back());
    }
    const PropertySet& a = live[rng.UniformInt(0, live.size() - 1)];
    const PropertySet& b = live[rng.UniformInt(0, live.size() - 1)];
    const PropertySet bridge =
        PropertySet::Of({a.ids().front(), b.ids().back()});
    if (live_set.insert(bridge).second) {
      batch.add.push_back(bridge);
      bridges.push_back(bridge);
    }
    script.push_back(std::move(batch));
  }
  while (!retired.empty()) {
    ScriptBatch batch;
    for (int i = 0; i < 3 && !retired.empty(); ++i) {
      batch.add.push_back(draw(&retired));
    }
    if (!bridges.empty()) batch.remove.push_back(draw(&bridges));
    script.push_back(std::move(batch));
  }
  return script;
}

/// Applies `script` to an engine over `base`. After every batch it renders
/// the engine's snapshot document, imports it into a fresh engine, replays
/// the rest of the script there and compares the cost bytes, the sorted
/// solution and the whole snapshot with the live engine after each batch.
/// Returns the first divergence, or "" when there is none.
std::string FirstRestoreDivergence(const Instance& base,
                                   const std::vector<ScriptBatch>& script) {
  OnlineEngine live;
  if (!live.Initialize(base).ok()) return "initialize failed";
  // Indexed by the number of batches applied.
  std::vector<std::string> snapshots, totals;
  std::vector<std::vector<PropertySet>> solutions;
  const auto record = [&] {
    snapshots.push_back(RenderSnapshot(live.ExportState(), 0));
    totals.push_back(CostBytes(live.TotalCost()));
    solutions.push_back(live.CurrentSolution().Sorted());
  };
  record();
  for (const ScriptBatch& batch : script) {
    if (!live.ApplyUpdate(batch.add, batch.remove).ok()) return "live apply";
    record();
  }
  for (size_t restored_at = 0; restored_at < script.size(); ++restored_at) {
    const std::string where =
        "restored after batch " + std::to_string(restored_at);
    auto parsed = ParseSnapshot(snapshots[restored_at]);
    if (!parsed.ok()) return where + ": " + parsed.status().ToString();
    OnlineEngine restored;
    if (Status s = restored.ImportState(parsed->state); !s.ok()) {
      return where + ": " + s.ToString();
    }
    for (size_t step = restored_at + 1; step <= script.size(); ++step) {
      const ScriptBatch& batch = script[step - 1];
      if (!restored.ApplyUpdate(batch.add, batch.remove).ok()) {
        return where + ": apply failed";
      }
      const std::string at = where + ", batch " + std::to_string(step) + ": ";
      const std::string total = CostBytes(restored.TotalCost());
      if (total != totals[step]) {
        return at + "cost " + total + " vs " + totals[step];
      }
      if (restored.CurrentSolution().Sorted() != solutions[step]) {
        return at + "solution differs";
      }
      if (RenderSnapshot(restored.ExportState(), 0) != snapshots[step]) {
        return at + "snapshot differs";
      }
    }
    if (Status s = restored.CheckInvariants(); !s.ok()) {
      return where + ": " + s.ToString();
    }
  }
  return "";
}

TEST(DurabilityManagerTest, RestoreAtEveryStepReplaysLikeTheLiveEngine) {
  for (const uint64_t seed : {44u, 68u}) {
    const Instance base = testing::NamedShardedSynthetic(seed, 15);
    EXPECT_EQ(FirstRestoreDivergence(base, RetireReviveScript(base, seed)), "")
        << "seed " << seed;
  }
}

TEST(DurabilityManagerTest, RestoredFractionalCostsSumLikeTheLiveEngine) {
  // 0.1 + 0.2 + 0.3 - 0.1 is not 0.2 + 0.3 in binary floating point: the
  // total must be a function of the live components, not of the history.
  InstanceBuilder builder;
  const std::vector<std::pair<std::string, Cost>> priced = {
      {"a", 0.1}, {"b", 0.2}, {"c", 0.3}};
  for (const auto& [name, cost] : priced) {
    builder.AddQuery({name});
    builder.SetCost({name}, cost);
  }
  const Instance base = std::move(builder).Build();
  const auto q = [&base](size_t i) { return base.queries()[i]; };
  const std::vector<ScriptBatch> script = {
      {{}, {q(0)}}, {{q(0)}, {}}, {{}, {q(1)}}, {{q(1)}, {q(2)}}, {{q(2)}, {}}};
  EXPECT_EQ(FirstRestoreDivergence(base, script), "");
}

}  // namespace
}  // namespace mc3::durability
