// Lock-free read path tests (src/concurrency/, docs/serving.md#lock-free-
// reads): unit coverage of VersionedPublisher + EpochManager (publish/
// retire ordering, grace periods, the starvation bound) including a
// TSan-targeted 8-reader/2-writer stress, plus server-level coverage of the
// serving integration — read-your-writes, the stats version-vector
// consistency contract, health/reads during drain, every read field equal
// to the engine's own accessors after each step, and the
// linearizable-prefix property: every solve observed mid-churn equals the
// state after some prefix of the acknowledged updates.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/epoch.h"
#include "concurrency/versioned_publisher.h"
#include "core/instance.h"
#include "obs/json.h"
#include "util/sync.h"

#include "server/server.h"

namespace mc3::concurrency {
namespace {

/// Heap-published test payload whose liveness and integrity are observable:
/// construction/destruction move a shared counter, and the payload carries
/// a version-derived checksum that destruction poisons.
struct TrackedView {
  uint64_t version;
  std::array<uint64_t, 8> payload;
  std::atomic<int>* alive;

  TrackedView(uint64_t v, std::atomic<int>* counter)
      : version(v), alive(counter) {
    for (size_t i = 0; i < payload.size(); ++i) payload[i] = v * (i + 1);
    alive->fetch_add(1, std::memory_order_relaxed);
  }
  ~TrackedView() {
    for (uint64_t& word : payload) word = ~uint64_t{0};
    alive->fetch_sub(1, std::memory_order_relaxed);
  }

  bool Intact() const {
    for (size_t i = 0; i < payload.size(); ++i) {
      if (payload[i] != version * (i + 1)) return false;
    }
    return true;
  }
};

/// Allocates a view for publication. The raw-pointer ownership handoff to
/// the publisher/epoch-manager pair is exactly the contract under test.
const TrackedView* NewTracked(uint64_t v, std::atomic<int>* counter) {
  // mc3-lint: new-delete-ok(ownership passes to the publisher/epoch pair)
  return new TrackedView(v, counter);
}

TEST(ConcurrencyPublisherTest, PublishReturnsDisplacedAndCountsVersions) {
  std::atomic<int> alive{0};
  VersionedPublisher<TrackedView> publisher;
  EXPECT_EQ(publisher.Acquire(), nullptr);
  EXPECT_EQ(publisher.version(), 0u);

  const auto* first = NewTracked(1, &alive);
  EXPECT_EQ(publisher.Publish(first), nullptr);
  EXPECT_EQ(publisher.version(), 1u);
  EXPECT_EQ(publisher.Acquire(), first);

  const auto* second = NewTracked(2, &alive);
  EXPECT_EQ(publisher.Publish(second), first);
  EXPECT_EQ(publisher.version(), 2u);
  EXPECT_EQ(publisher.Acquire(), second);
  delete first;  // mc3-lint: new-delete-ok(displaced before any reader existed)
  // `second` is deleted by the publisher's destructor.
}

TEST(ConcurrencyEpochTest, RetireWithoutReadersFreesOnAdvance) {
  std::atomic<int> alive{0};
  EpochManager manager;
  manager.Retire(NewTracked(1, &alive));
  manager.Retire(NewTracked(2, &alive));
  EXPECT_EQ(alive.load(), 2);
  EXPECT_EQ(manager.PendingRetired(), 2u);
  EXPECT_EQ(manager.AdvanceAndReclaim(), 2u);
  EXPECT_EQ(alive.load(), 0);
  EXPECT_EQ(manager.PendingRetired(), 0u);
  EXPECT_EQ(manager.TotalReclaimed(), 2u);
}

TEST(ConcurrencyEpochTest, AdvanceIsMonotoneAndDestructorDrains) {
  std::atomic<int> alive{0};
  {
    EpochManager manager;
    const uint64_t before = manager.CurrentEpoch();
    manager.AdvanceAndReclaim();
    manager.AdvanceAndReclaim();
    EXPECT_EQ(manager.CurrentEpoch(), before + 2);
    // Left retired on purpose: the destructor must free it.
    ReaderRegistration reader(manager);
    {
      ReadGuard guard(manager, reader);
      manager.Retire(NewTracked(7, &alive));
      manager.AdvanceAndReclaim();  // reader pinned: cannot free yet
      EXPECT_EQ(alive.load(), 1);
    }
  }
  EXPECT_EQ(alive.load(), 0);
}

TEST(ConcurrencyEpochTest, PinnedReaderBlocksReclaimUntilUnpin) {
  std::atomic<int> alive{0};
  EpochManager manager;
  VersionedPublisher<TrackedView> publisher;
  publisher.Publish(NewTracked(1, &alive));

  ReaderRegistration reader(manager);
  {
    ReadGuard guard(manager, reader);
    const TrackedView* view = publisher.Acquire();
    ASSERT_NE(view, nullptr);
    // Writer swaps and retires while we hold the pin.
    manager.Retire(publisher.Publish(NewTracked(2, &alive)));
    EXPECT_EQ(manager.AdvanceAndReclaim(), 0u);
    // The displaced view is still fully alive and intact under the pin.
    EXPECT_EQ(alive.load(), 2);
    EXPECT_EQ(view->version, 1u);
    EXPECT_TRUE(view->Intact());
  }
  // Pin dropped: the next pass reclaims the displaced view.
  EXPECT_EQ(manager.AdvanceAndReclaim(), 1u);
  EXPECT_EQ(alive.load(), 1);
}

TEST(ConcurrencyEpochTest, ReaderPinnedAcrossManyPublishesNeverSeesFreedView) {
  constexpr int kPublishes = 100;
  std::atomic<int> alive{0};
  EpochManager manager;
  VersionedPublisher<TrackedView> publisher;
  publisher.Publish(NewTracked(1, &alive));

  ReaderRegistration reader(manager);
  {
    ReadGuard guard(manager, reader);
    const TrackedView* pinned = publisher.Acquire();
    ASSERT_NE(pinned, nullptr);
    for (int i = 0; i < kPublishes; ++i) {
      manager.Retire(
          publisher.Publish(NewTracked(uint64_t(i) + 2, &alive)));
      manager.AdvanceAndReclaim();
      // Our view was retired at a tag at or above our pin: untouchable.
      ASSERT_TRUE(pinned->Intact()) << "publish " << i;
      ASSERT_EQ(pinned->version, 1u);
    }
    // Nothing reclaimed while the pin spans every retire.
    EXPECT_EQ(alive.load(), kPublishes + 1);
    EXPECT_EQ(manager.TotalReclaimed(), 0u);
  }
  EXPECT_EQ(manager.AdvanceAndReclaim(), size_t{kPublishes});
  EXPECT_EQ(alive.load(), 1);  // the currently published view
}

TEST(ConcurrencyEpochTest, StarvationBoundFreesGarbageBelowThePin) {
  // Garbage tagged strictly below a reader's pinned epoch frees even while
  // that reader stays pinned: a reader that keeps re-pinning (the server's
  // per-request pattern) never stalls reclamation; only one pinned across
  // the whole interval holds its own tail of garbage.
  std::atomic<int> alive{0};
  EpochManager manager;
  manager.Retire(NewTracked(1, &alive));  // tagged at the current epoch

  ReaderRegistration reader(manager);
  {
    ReadGuard guard(manager, reader);  // pinned at the same epoch as the tag
    EXPECT_EQ(manager.AdvanceAndReclaim(), 0u);
  }
  {
    // Re-pin: the new pin's epoch is above the old garbage's tag.
    ReadGuard guard(manager, reader);
    manager.Retire(NewTracked(2, &alive));  // tagged at the new epoch
    EXPECT_EQ(manager.AdvanceAndReclaim(), 1u);  // old garbage frees NOW
    EXPECT_EQ(alive.load(), 1);
  }
  EXPECT_EQ(manager.AdvanceAndReclaim(), 1u);
  EXPECT_EQ(alive.load(), 0);
}

// The TSan target (ci: Concurrency suites run under -fsanitize=thread):
// 8 registered readers continuously pin/acquire/validate while 2 writers
// (serialized, as the server serializes under engine_mu_) publish, retire
// and reclaim. Readers assert they only ever dereference intact payloads.
TEST(ConcurrencyStressTest, EightReadersTwoWritersNeverObserveFreedViews) {
  constexpr int kReaders = 8;
  constexpr int kWriters = 2;
  constexpr int kPublishesPerWriter = 400;

  std::atomic<int> alive{0};
  EpochManager manager;
  VersionedPublisher<TrackedView> publisher;
  publisher.Publish(NewTracked(1, &alive));

  util::Mutex writer_mu;
  std::atomic<uint64_t> next_version{2};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      ReaderRegistration reg(manager);
      while (!stop.load(std::memory_order_acquire)) {
        ReadGuard guard(manager, reg);
        const TrackedView* view = publisher.Acquire();
        ASSERT_NE(view, nullptr);
        ASSERT_TRUE(view->Intact());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPublishesPerWriter; ++i) {
        util::MutexLock lock(writer_mu);
        const uint64_t version =
            next_version.fetch_add(1, std::memory_order_relaxed);
        manager.Retire(publisher.Publish(NewTracked(version, &alive)));
        manager.AdvanceAndReclaim();
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  // Quiescent: everything retired but the live view reclaims.
  manager.AdvanceAndReclaim();
  manager.AdvanceAndReclaim();
  EXPECT_EQ(alive.load(), 1);
  EXPECT_EQ(manager.TotalReclaimed(),
            uint64_t{kWriters} * kPublishesPerWriter);
}

}  // namespace
}  // namespace mc3::concurrency

// ---------------------------------------------------------------------------
// Serving integration: the lock-free read path end to end.

namespace mc3::server {
namespace {

class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  /// Reads the next response line ("" on EOF).
  std::string ReadLine() {
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return line;
  }

  /// Send + read one raw response line.
  std::string CallRaw(const std::string& line) {
    Send(line);
    return ReadLine();
  }

  /// Send + read one response, parsed.
  obs::JsonValue Call(const std::string& line) {
    const std::string response = CallRaw(line);
    auto parsed = obs::ParseJson(response);
    EXPECT_TRUE(parsed.ok()) << response;
    return parsed.ok() ? *parsed : obs::JsonValue{};
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

int CodeOf(const obs::JsonValue& response) {
  const obs::JsonValue* code = response.Find("code");
  return code != nullptr && code->is_number() ? static_cast<int>(code->number)
                                              : -1;
}

Instance BaseInstance() {
  InstanceBuilder builder;
  builder.AddQuery({"red", "shirt"});
  builder.AddQuery({"tv"});
  builder.SetCost({"red"}, 1);
  builder.SetCost({"shirt"}, 2);
  builder.SetCost({"red", "shirt"}, 2.5);
  builder.SetCost({"tv"}, 1.5);
  return std::move(builder).Build();
}

ServerOptions TestOptions() {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.default_cost = 2;
  options.connection_workers = 8;
  return options;
}

TEST(ConcurrencyLockFreeReadTest, ReadYourWritesAfterEveryAck) {
  // Views publish before the update's ack renders, so a client that saw
  // its 200 must see its write on the very next solve — the contract the
  // docs promise for a single connection.
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 8; ++i) {
    const std::string name = "rw_" + std::to_string(i);
    const obs::JsonValue ack = client.Call(
        R"({"op":"update","id":1,"add":[[")" + name + R"("]]})");
    ASSERT_EQ(CodeOf(ack), 200);
    const obs::JsonValue solve = client.Call(R"({"op":"solve","id":2})");
    ASSERT_EQ(CodeOf(solve), 200);
    EXPECT_EQ(solve.Find("queries")->number, 3 + i);
  }
  server.RequestDrain();
  server.Join();
}

/// The property names of one rendered classifier (a JSON string array).
std::vector<std::string> RenderedNames(const obs::JsonValue& properties) {
  std::vector<std::string> names;
  for (const obs::JsonValue& name : properties.array) {
    names.push_back(name.string);
  }
  return names;
}

/// Checks one `solve` or `snapshot` response field by field against the
/// engine at this quiescent point. Equality is exact: the JSON writer emits
/// round-trippable doubles, and the view copies the engine's own total.
void ExpectReadMatchesEngine(Server& server, const obs::JsonValue& response) {
  ASSERT_EQ(CodeOf(response), 200);
  const std::string op = response.Find("op")->string;
  server.WithEngine([&](const online::OnlineEngine& engine) {
    const std::vector<std::string>& names = engine.property_names();
    const auto engine_names = [&names](const PropertySet& classifier) {
      std::vector<std::string> out;
      for (const PropertyId id : classifier) out.push_back(names.at(id));
      return out;
    };
    EXPECT_EQ(response.Find("cost")->number, engine.TotalCost()) << op;
    EXPECT_EQ(response.Find("queries")->number,
              static_cast<double>(engine.NumQueries()))
        << op;
    EXPECT_EQ(response.Find("components")->number,
              static_cast<double>(engine.NumComponents()))
        << op;
    const std::vector<PropertySet> solution =
        engine.CurrentSolution().Sorted();
    const obs::JsonValue* classifiers = response.Find("classifiers");
    ASSERT_NE(classifiers, nullptr);
    if (op == "solve") {
      EXPECT_EQ(classifiers->number, static_cast<double>(solution.size()));
      const obs::JsonValue* rendered = response.Find("solution");
      if (rendered == nullptr) return;
      ASSERT_EQ(rendered->array.size(), solution.size());
      for (size_t i = 0; i < solution.size(); ++i) {
        EXPECT_EQ(RenderedNames(rendered->array[i]),
                  engine_names(solution[i]))
            << "solution[" << i << "]";
      }
      return;
    }
    ASSERT_EQ(op, "snapshot");
    ASSERT_EQ(classifiers->array.size(), solution.size());
    for (size_t i = 0; i < solution.size(); ++i) {
      const obs::JsonValue& entry = classifiers->array[i];
      EXPECT_EQ(RenderedNames(*entry.Find("properties")),
                engine_names(solution[i]))
          << "classifiers[" << i << "]";
      EXPECT_EQ(entry.Find("cost")->number, engine.CostOf(solution[i]))
          << "classifiers[" << i << "]";
    }
    const online::EngineCounters counters = engine.counters();
    const obs::JsonValue* rendered = response.Find("counters");
    ASSERT_NE(rendered, nullptr);
    EXPECT_EQ(rendered->Find("updates")->number,
              static_cast<double>(counters.updates));
    EXPECT_EQ(rendered->Find("queries_added")->number,
              static_cast<double>(counters.queries_added));
    EXPECT_EQ(rendered->Find("queries_removed")->number,
              static_cast<double>(counters.queries_removed));
    EXPECT_EQ(rendered->Find("components_resolved")->number,
              static_cast<double>(counters.components_resolved));
    EXPECT_EQ(rendered->Find("queries_touched")->number,
              static_cast<double>(counters.queries_touched));
  });
}

TEST(ConcurrencyLockFreeReadTest, ReadsMatchEngineAfterEveryStep) {
  // Reads render from the published root, never from the engine itself,
  // so after every step of a mixed script each solve and snapshot must
  // equal what the engine's accessors report at that point.
  const std::string solve_line = R"({"op":"solve","id":8,"solution":true})";
  const std::string snapshot_line = R"({"op":"snapshot","id":9})";
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const std::vector<std::string> script = {
      R"({"op":"solve","id":1,"solution":true})",
      R"({"op":"update","id":2,"add":[["blue","sofa"],["green"]]})",
      R"({"op":"solve","id":3,"solution":true})",
      R"({"op":"snapshot","id":4})",
      R"({"op":"update","id":5,"remove":[["blue","sofa"]],"add":[["lamp"]]})",
      R"({"op":"snapshot","id":6})",
      R"({"op":"solve","id":7})",
  };
  for (const std::string& line : script) {
    SCOPED_TRACE(line);
    const obs::JsonValue response = client.Call(line);
    ASSERT_EQ(CodeOf(response), 200);
    if (response.Find("op")->string != "update") {
      ExpectReadMatchesEngine(server, response);
    }
    const obs::JsonValue solve = client.Call(solve_line);
    ASSERT_NE(solve.Find("solution"), nullptr);
    ExpectReadMatchesEngine(server, solve);
    ExpectReadMatchesEngine(server, client.Call(snapshot_line));
  }
  server.RequestDrain();
  server.Join();
}

TEST(ConcurrencyLockFreeReadTest, HealthNeverQueuesAndReadsRefuseDuringDrain) {
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const obs::JsonValue healthy = client.Call(R"({"op":"health","id":1})");
  ASSERT_EQ(CodeOf(healthy), 200);
  EXPECT_EQ(healthy.Find("status")->string, "ok");
  EXPECT_EQ(healthy.Find("retry_after_ms"), nullptr);

  server.RequestDrain();
  // Health still answers inline while draining — but honestly: 503 with a
  // retry hint, never a hang and never a queue entry.
  const obs::JsonValue draining = client.Call(R"({"op":"health","id":2})");
  EXPECT_EQ(CodeOf(draining), 503);
  EXPECT_EQ(draining.Find("status")->string, "draining");
  ASSERT_NE(draining.Find("retry_after_ms"), nullptr);
  EXPECT_GT(draining.Find("retry_after_ms")->number, 0);
  // Lock-free reads also refuse during drain (they come after the drain
  // check, before admission).
  EXPECT_EQ(CodeOf(client.Call(R"({"op":"solve","id":3})")), 503);
  server.Join();
}

TEST(ConcurrencyLockFreeReadTest, StatsViewSeqIsMonotoneUnderChurn) {
  // Stats read `view_seq` through one pinned load of the published root
  // (docs/serving.md#lock-free-reads), so under concurrent write churn it
  // is monotone per observer and ends at one publish per applied batch.
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());

  std::atomic<bool> done{false};
  std::thread churn([&server, &done] {
    TestClient writer(server.port());
    ASSERT_TRUE(writer.connected());
    for (int i = 0; i < 48; ++i) {
      const obs::JsonValue ack = writer.Call(
          R"({"op":"update","id":1,"add":[["churn_)" + std::to_string(i) +
          R"("]]})");
      ASSERT_EQ(CodeOf(ack), 200);
    }
    done.store(true, std::memory_order_release);
  });

  TestClient reader(server.port());
  ASSERT_TRUE(reader.connected());
  uint64_t last_seq = 0;
  uint64_t observations = 0;
  while (!done.load(std::memory_order_acquire)) {
    const obs::JsonValue stats = reader.Call(R"({"op":"stats","id":2})");
    ASSERT_EQ(CodeOf(stats), 200);
    const obs::JsonValue* seq = stats.Find("view_seq");
    ASSERT_NE(seq, nullptr);
    const auto observed = static_cast<uint64_t>(seq->number);
    ASSERT_GE(observed, last_seq);
    ASSERT_GE(observed, 1u);  // Start() published the initial root
    last_seq = observed;
    ++observations;
  }
  churn.join();
  EXPECT_GT(observations, 0u);

  // Quiescent cross-check: the initial publish plus one per applied batch.
  const obs::JsonValue final_stats = reader.Call(R"({"op":"stats","id":3})");
  ASSERT_EQ(CodeOf(final_stats), 200);
  EXPECT_EQ(final_stats.Find("view_seq")->number,
            1 + final_stats.Find("batches")->number);
  EXPECT_GE(final_stats.Find("view_seq")->number, last_seq);
  server.RequestDrain();
  server.Join();
}

TEST(ConcurrencyLockFreeReadTest, MidChurnSolvesEqualSomePrefixOfAckedUpdates) {
  // Linearizable-prefix determinism: while one connection applies K
  // add-only updates (each acknowledged before the next is sent), solves
  // racing on another connection must each equal the offline state after
  // SOME prefix of those updates — never a blend. The reference responses
  // come from replaying the same updates against an identical server and
  // solving after every prefix, so the comparison is whole-line bytes.
  constexpr int kUpdates = 16;
  const auto update_line = [](int i) {
    return R"({"op":"update","id":1,"add":[["lin_a_)" + std::to_string(i) +
           R"(","lin_b_)" + std::to_string(i % 3) + R"("]]})";
  };
  const std::string solve_line = R"({"op":"solve","id":9,"solution":true})";

  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());

  std::atomic<bool> done{false};
  // Set once the reader has its first answer, so the updates cannot all be
  // acknowledged before the reader sends anything.
  std::atomic<bool> reading{false};
  std::vector<std::string> observed;
  std::thread reader_thread(
      [&server, &done, &reading, &observed, &solve_line] {
        TestClient reader(server.port());
        if (reader.connected()) observed.push_back(reader.CallRaw(solve_line));
        reading.store(true, std::memory_order_release);
        ASSERT_TRUE(reader.connected());
        while (!done.load(std::memory_order_acquire)) {
          observed.push_back(reader.CallRaw(solve_line));
        }
      });
  while (!reading.load(std::memory_order_acquire)) std::this_thread::yield();
  {
    TestClient writer(server.port());
    ASSERT_TRUE(writer.connected());
    for (int i = 0; i < kUpdates; ++i) {
      ASSERT_EQ(CodeOf(writer.Call(update_line(i))), 200);
    }
  }
  done.store(true, std::memory_order_release);
  reader_thread.join();
  server.RequestDrain();
  server.Join();

  // Reference prefixes 0..K from a pristine replica of the same server.
  std::set<std::string> prefixes;
  {
    Server replica(TestOptions());
    ASSERT_TRUE(replica.Start(BaseInstance()).ok());
    TestClient replayer(replica.port());
    ASSERT_TRUE(replayer.connected());
    prefixes.insert(replayer.CallRaw(solve_line));
    for (int i = 0; i < kUpdates; ++i) {
      ASSERT_EQ(CodeOf(replayer.Call(update_line(i))), 200);
      prefixes.insert(replayer.CallRaw(solve_line));
    }
    replica.RequestDrain();
    replica.Join();
  }

  ASSERT_GT(observed.size(), 0u);
  for (const std::string& response : observed) {
    EXPECT_EQ(prefixes.count(response), 1u)
        << "mid-churn solve matches no prefix state: " << response;
  }
}

}  // namespace
}  // namespace mc3::server
