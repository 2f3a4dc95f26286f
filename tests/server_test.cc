// Serving subsystem tests (src/server/, docs/serving.md): unit coverage of
// the bounded queue, worker pool, update coalescer, admission control and
// wire protocol, plus end-to-end socket tests of the acceptance criteria —
// N concurrent clients produce the same final state as the equivalent
// offline batch, with zero dropped (non-rejected) requests, 429s above the
// admission watermark, and 503s plus a clean join on graceful drain.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/instance.h"
#include "data/query_log.h"
#include "durability/durability.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/float_cmp.h"
#include "online/online_engine.h"
#include "server/bounded_queue.h"
#include "server/coalescer.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/worker_pool.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace mc3::server {
namespace {

// ---------------------------------------------------------------------------
// Admission control.

TEST(AdmissionTest, AcceptsBelowWatermarkRejectsAtOrAbove) {
  EXPECT_TRUE(AdmitAt(0, 4, 25).accept);
  EXPECT_TRUE(AdmitAt(3, 4, 25).accept);
  EXPECT_FALSE(AdmitAt(4, 4, 25).accept);
  EXPECT_FALSE(AdmitAt(100, 4, 25).accept);
}

TEST(AdmissionTest, RetryHintGrowsWithOverload) {
  const Admission shallow = AdmitAt(4, 4, 25);
  const Admission deep = AdmitAt(40, 4, 25);
  ASSERT_FALSE(shallow.accept);
  ASSERT_FALSE(deep.accept);
  EXPECT_GT(shallow.retry_after_ms, 0);
  EXPECT_GT(deep.retry_after_ms, shallow.retry_after_ms);
}

TEST(AdmissionTest, ZeroWatermarkNeverRejects) {
  EXPECT_TRUE(AdmitAt(1000000, 0, 25).accept);
}

// ---------------------------------------------------------------------------
// BoundedQueue.

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.Depth(), 2u);
}

TEST(BoundedQueueTest, PopReturnsInFifoOrder) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  auto first = queue.Pop();
  auto second = queue.Pop();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, 1);
  EXPECT_EQ(*second, 2);
}

TEST(BoundedQueueTest, TryPopIfOnlyTakesMatchingHead) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(10));
  auto even = queue.TryPopIf([](const int& v) { return v % 2 == 0; });
  EXPECT_FALSE(even.has_value());  // head is 1 (odd): not popped
  auto odd = queue.TryPopIf([](const int& v) { return v % 2 == 1; });
  ASSERT_TRUE(odd.has_value());
  EXPECT_EQ(*odd, 1);
}

TEST(BoundedQueueTest, CloseDeliversQueuedItemsThenNullopt) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(7));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(8));  // no pushes after close
  auto item = queue.Pop();
  ASSERT_TRUE(item.has_value());  // graceful: queued item still delivered
  EXPECT_EQ(*item, 7);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(BoundedQueueTest, CloseUnblocksWaitingConsumer) {
  BoundedQueue<int> queue(4);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    EXPECT_FALSE(queue.Pop().has_value());
    done.store(true);
  });
  queue.Close();
  consumer.join();
  EXPECT_TRUE(done.load());
}

// ---------------------------------------------------------------------------
// WorkerPool.

TEST(WorkerPoolTest, RunsPostedTasks) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(3);
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(pool.Post([&ran] { ran.fetch_add(1); }));
    }
    pool.Shutdown();  // finishes everything queued
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(WorkerPoolTest, PostAfterShutdownIsRefused) {
  WorkerPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Post([] {}));
}

// ---------------------------------------------------------------------------
// UpdateCoalescer.

PropertySet Q(std::initializer_list<PropertyId> ids) {
  return PropertySet::Of(ids);
}

TEST(CoalescerTest, LastOpWinsPerQuery) {
  UpdateCoalescer coalescer;
  coalescer.Add(Q({1}));
  coalescer.Remove(Q({1}));
  coalescer.Add(Q({2}));
  const NetUpdate net = coalescer.Take();
  ASSERT_EQ(net.remove.size(), 1u);
  EXPECT_EQ(net.remove[0], Q({1}));
  ASSERT_EQ(net.add.size(), 1u);
  EXPECT_EQ(net.add[0], Q({2}));
  EXPECT_EQ(net.ops, 3u);
}

TEST(CoalescerTest, EmissionOrderIsFirstTouch) {
  UpdateCoalescer coalescer;
  coalescer.Add(Q({3}));
  coalescer.Add(Q({1}));
  coalescer.Remove(Q({3}));
  coalescer.Add(Q({3}));  // flips back; keeps first-touch position
  coalescer.Add(Q({2}));
  const NetUpdate net = coalescer.Take();
  ASSERT_EQ(net.add.size(), 3u);
  EXPECT_EQ(net.add[0], Q({3}));
  EXPECT_EQ(net.add[1], Q({1}));
  EXPECT_EQ(net.add[2], Q({2}));
  EXPECT_TRUE(net.remove.empty());
}

TEST(CoalescerTest, FoldAppliesRemovesBeforeAdds) {
  // A single request that removes and re-adds the same query must net to
  // an add (ApplyUpdate order: removes first, then adds).
  UpdateCoalescer coalescer;
  coalescer.Fold(/*add=*/{Q({5})}, /*remove=*/{Q({5})});
  const NetUpdate net = coalescer.Take();
  ASSERT_EQ(net.add.size(), 1u);
  EXPECT_TRUE(net.remove.empty());
}

TEST(CoalescerTest, TakeResets) {
  UpdateCoalescer coalescer;
  coalescer.Add(Q({1}));
  (void)coalescer.Take();
  EXPECT_TRUE(coalescer.empty());
  EXPECT_EQ(coalescer.ops(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol.

TEST(ProtocolTest, ParsesEveryOp) {
  for (const char* op :
       {"health", "stats", "solve", "update", "snapshot", "shutdown"}) {
    std::string line = std::string("{\"op\":\"") + op + "\",\"id\":3";
    if (std::string(op) == "update") line += ",\"add\":[[\"a\"]]";
    line += "}";
    auto request = ParseRequest(line);
    ASSERT_TRUE(request.ok()) << op << ": " << request.status().ToString();
    EXPECT_STREQ(OpName(request->op), op);
    EXPECT_EQ(request->id, 3u);
  }
}

TEST(ProtocolTest, ParsesUpdateQueryLists) {
  auto request = ParseRequest(
      R"({"op":"update","id":1,"add":[["a","b"],["c"]],"remove":[["d"]]})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  ASSERT_EQ(request->add.size(), 2u);
  EXPECT_EQ(request->add[0], (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(request->remove.size(), 1u);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("[]").ok());                       // not an object
  EXPECT_FALSE(ParseRequest(R"({"id":1})").ok());              // no op
  EXPECT_FALSE(ParseRequest(R"({"op":"frobnicate"})").ok());   // unknown op
  EXPECT_FALSE(ParseRequest(R"({"op":"solve","id":-2})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"solve","id":1.5})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"update","id":1})").ok());  // empty
  EXPECT_FALSE(ParseRequest(R"({"op":"update","add":[[]]})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"update","add":[[""]]})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"solve","solution":1})").ok());
}

/// An update request adding one query over `names` distinct properties,
/// the last `repeats` of them named twice.
std::string UpdateAddingQuery(size_t names, size_t repeats) {
  std::string line = R"({"op":"update","id":1,"add":[[)";
  for (size_t p = 0; p < names + repeats; ++p) {
    if (p > 0) line += ',';
    line += "\"p" + std::to_string(p < names ? p : p - repeats) + "\"";
  }
  line += "]]}";
  return line;
}

TEST(ProtocolTest, RejectsQueriesLongerThanTheLimit) {
  auto over = ParseRequest(UpdateAddingQuery(26, 0));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.status().message().find("26 properties; at most 25"),
            std::string::npos)
      << over.status().message();
  // Length counts distinct properties: 27 names, 25 distinct, is accepted.
  EXPECT_TRUE(ParseRequest(UpdateAddingQuery(25, 2)).ok());
}

TEST(ProtocolTest, ErrorResponseCarriesCodeAndRetryHint) {
  const std::string line =
      RenderErrorResponse(9, Request::Op::kUpdate, 429, "busy", 50);
  auto parsed = obs::ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("code")->number, 429);
  EXPECT_EQ(parsed->Find("id")->number, 9);
  EXPECT_EQ(parsed->Find("op")->string, "update");
  EXPECT_EQ(parsed->Find("error")->string, "busy");
  EXPECT_EQ(parsed->Find("retry_after_ms")->number, 50);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single-line framing
}

// ---------------------------------------------------------------------------
// End-to-end over real sockets.

/// Blocking line-oriented client for the wire protocol.
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

  /// Send + read one response, parsed.
  obs::JsonValue Call(const std::string& line) {
    Send(line);
    const std::string response = ReadLine();
    auto parsed = obs::ParseJson(response);
    EXPECT_TRUE(parsed.ok()) << response;
    return parsed.ok() ? *parsed : obs::JsonValue{};
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// Renders a solution as a sorted list of "&"-joined sorted name strings:
/// id-table-independent, so solutions of engines that interned the same
/// property names in different orders still compare equal.
std::vector<std::string> CanonicalClassifiers(
    const Solution& solution, const std::vector<std::string>& names) {
  std::vector<std::string> rendered;
  rendered.reserve(solution.size());
  for (const PropertySet& classifier : solution.classifiers()) {
    std::vector<std::string> parts;
    for (const PropertyId id : classifier) parts.push_back(names.at(id));
    std::sort(parts.begin(), parts.end());
    std::string joined;
    for (const std::string& part : parts) {
      if (!joined.empty()) joined += "&";
      joined += part;
    }
    rendered.push_back(std::move(joined));
  }
  std::sort(rendered.begin(), rendered.end());
  return rendered;
}

int CodeOf(const obs::JsonValue& response) {
  const obs::JsonValue* code = response.Find("code");
  return code != nullptr && code->is_number() ? static_cast<int>(code->number)
                                              : -1;
}

/// A small base workload whose property universe the tests extend.
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

/// "<tag><client>_<slot>": a property owned by one test client. Built by
/// appends because GCC 12 misreports `"c" + std::string&&` under
/// -Wrestrict in Release builds.
std::string ClientProperty(char tag, size_t client, size_t slot) {
  std::string name(1, tag);
  name += std::to_string(client);
  name += '_';
  name += std::to_string(slot);
  return name;
}

TEST(ServerTest, HealthStatsAndSolveEndpoints) {
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const obs::JsonValue health = client.Call(R"({"op":"health","id":1})");
  EXPECT_EQ(CodeOf(health), 200);
  EXPECT_EQ(health.Find("status")->string, "ok");

  const obs::JsonValue solve =
      client.Call(R"({"op":"solve","id":2,"solution":true})");
  EXPECT_EQ(CodeOf(solve), 200);
  EXPECT_EQ(solve.Find("queries")->number, 2);
  ASSERT_NE(solve.Find("solution"), nullptr);
  EXPECT_TRUE(solve.Find("solution")->is_array());

  const obs::JsonValue stats = client.Call(R"({"op":"stats","id":3})");
  EXPECT_EQ(CodeOf(stats), 200);
  EXPECT_GE(stats.Find("requests")->number, 2);

  server.RequestDrain();
  server.Join();
}

TEST(ServerTest, MalformedLineGets400) {
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const obs::JsonValue response = client.Call("this is not json");
  EXPECT_EQ(CodeOf(response), 400);
  server.RequestDrain();
  server.Join();
  EXPECT_EQ(server.GetStats().malformed, 1u);
}

TEST(ServerTest, UpdateAddsAndRemovesQueries) {
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const obs::JsonValue added = client.Call(
      R"({"op":"update","id":1,"add":[["blue","sofa"]]})");
  ASSERT_EQ(CodeOf(added), 200);
  EXPECT_EQ(added.Find("queries")->number, 3);

  const obs::JsonValue removed = client.Call(
      R"({"op":"update","id":2,"remove":[["blue","sofa"]]})");
  ASSERT_EQ(CodeOf(removed), 200);
  EXPECT_EQ(removed.Find("queries")->number, 2);

  server.RequestDrain();
  server.Join();
}

TEST(ServerTest, OnlyABatchThatInternsReplacesTheNameTable) {
  Server server(TestOptions());
  const Instance base = BaseInstance();
  ASSERT_TRUE(server.Start(base).ok());
  const auto table = [&server] {
    PropertyNames names;
    server.WithEngine([&names](const online::OnlineEngine& engine) {
      names = engine.shared_property_names();
    });
    return names;
  };
  // The server, its interner and the engine share the base's table.
  const PropertyNames at_start = table();
  EXPECT_EQ(at_start, base.shared_property_names());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_EQ(CodeOf(client.Call(
                R"({"op":"update","id":1,"remove":[["red","shirt"]]})")),
            200);
  EXPECT_EQ(table(), at_start);
  ASSERT_EQ(CodeOf(client.Call(
                R"({"op":"update","id":2,"add":[["blue","sofa"]]})")),
            200);
  const PropertyNames grown = table();
  EXPECT_NE(grown, at_start);
  EXPECT_EQ(grown->size(), at_start->size() + 2);
  EXPECT_EQ(at_start->size(), 3u);  // the published old table is untouched
  ASSERT_EQ(CodeOf(client.Call(
                R"({"op":"update","id":3,"add":[["red","shirt"]]})")),
            200);
  EXPECT_EQ(table(), grown);

  server.RequestDrain();
  server.Join();
}

TEST(ServerTest, StartRefusesRepeatedPropertyNames) {
  Instance base = BaseInstance();
  std::vector<std::string> names = base.property_names();
  names.push_back(names.front());  // a second id with the first one's name
  base.set_property_names(std::move(names));
  Server server(TestOptions());
  EXPECT_EQ(server.Start(base).code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, UncoverableAddGets400WithoutDefaultCost) {
  ServerOptions options = TestOptions();
  options.default_cost = -1;  // no auto-pricing
  Server server(options);
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const obs::JsonValue response = client.Call(
      R"({"op":"update","id":1,"add":[["never_priced_a","never_priced_b"]]})");
  EXPECT_EQ(CodeOf(response), 400);
  // The engine state is untouched: the failed batch fell back to
  // per-request application, which also failed atomically.
  const obs::JsonValue solve = client.Call(R"({"op":"solve","id":2})");
  EXPECT_EQ(solve.Find("queries")->number, 2);
  server.RequestDrain();
  server.Join();
}

TEST(ServerTest, OverLongAddGets400BeforeTheEngine) {
  Server server(TestOptions());  // default cost 2: every classifier priced
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const obs::JsonValue before = client.Call(R"({"op":"solve","id":1})");
  ASSERT_EQ(CodeOf(before), 200);

  const obs::JsonValue response = client.Call(UpdateAddingQuery(26, 0));
  EXPECT_EQ(CodeOf(response), 400);
  EXPECT_NE(response.Find("error")->string.find("at most 25"),
            std::string::npos)
      << response.Find("error")->string;
  const obs::JsonValue after = client.Call(R"({"op":"solve","id":2})");
  ASSERT_EQ(CodeOf(after), 200);
  EXPECT_EQ(after.Find("queries")->number, before.Find("queries")->number);
  EXPECT_EQ(after.Find("cost")->number, before.Find("cost")->number);
  server.RequestDrain();
  server.Join();
  // Refused by the parser: the engine never saw an update.
  EXPECT_EQ(server.GetStats().malformed, 1u);
  EXPECT_EQ(server.GetStats().batches, 0u);
}

TEST(ServerTest, AdmissionRejectsAboveWatermarkWithRetryHint) {
  ServerOptions options = TestOptions();
  options.engine_thread = false;  // nothing drains the queue: depth is ours
  options.queue_capacity = 8;
  options.admission_watermark = 2;
  Server server(options);
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // First two updates are admitted (no response yet: no engine worker).
  client.Send(R"({"op":"update","id":1,"add":[["u1"]]})");
  client.Send(R"({"op":"update","id":2,"add":[["u2"]]})");
  // Wait until both are queued (connection handling is asynchronous).
  while (server.QueueDepth() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The next one hits the watermark: immediate 429 with a retry hint.
  const obs::JsonValue rejected =
      client.Call(R"({"op":"update","id":3,"add":[["u3"]]})");
  EXPECT_EQ(CodeOf(rejected), 429);
  ASSERT_NE(rejected.Find("retry_after_ms"), nullptr);
  EXPECT_GT(rejected.Find("retry_after_ms")->number, 0);

  // Reads bypass admission: with the queue still at the watermark, a
  // second connection's solve and snapshot answer 200 from the published
  // views and never enter the queue.
  TestClient reader(server.port());
  ASSERT_TRUE(reader.connected());
  EXPECT_EQ(CodeOf(reader.Call(R"({"op":"solve","id":4})")), 200);
  EXPECT_EQ(CodeOf(reader.Call(R"({"op":"snapshot","id":5})")), 200);
  EXPECT_EQ(server.QueueDepth(), 2u);

  // Draining answers the two queued updates; nothing is lost.
  server.RequestDrain();
  server.Join();
  EXPECT_EQ(CodeOf(obs::ParseJson(client.ReadLine()).value()), 200);
  EXPECT_EQ(CodeOf(obs::ParseJson(client.ReadLine()).value()), 200);
  const ServerStats stats = server.GetStats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServerTest, DrainRefusesNewEngineOpsWith503) {
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // A first round-trip guarantees the acceptor has handed this connection
  // to a worker before the drain stops accepting (connect alone only means
  // the kernel queued us on the listen backlog).
  EXPECT_EQ(CodeOf(client.Call(R"({"op":"health","id":0})")), 200);
  server.RequestDrain();
  const obs::JsonValue refused =
      client.Call(R"({"op":"update","id":1,"add":[["x"]]})");
  EXPECT_EQ(CodeOf(refused), 503);
  server.Join();
  EXPECT_GE(server.GetStats().refused_draining, 1u);
}

TEST(ServerTest, ShutdownEndpointDrainsAndJoins) {
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const obs::JsonValue ack = client.Call(R"({"op":"shutdown","id":7})");
  EXPECT_EQ(CodeOf(ack), 200);
  EXPECT_EQ(ack.Find("draining")->boolean, true);
  server.Join();  // completes because the endpoint requested the drain
  EXPECT_TRUE(server.draining());
}

TEST(ServerTest, ConcurrentClientsMatchOfflineBatchAndNothingDrops) {
  ServerOptions options = TestOptions();
  options.engine.solver_options.num_threads = 1;
  Server server(options);
  ASSERT_TRUE(server.Start(BaseInstance()).ok());

  // Each client interleaves adds and removes over its own property slice;
  // queries across clients share properties (pfx overlap) so component
  // merges happen across client boundaries too.
  constexpr size_t kClients = 4;
  constexpr size_t kOpsPerClient = 12;
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> non_ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, port = server.port(), &responses, &non_ok] {
      TestClient client(port);
      ASSERT_TRUE(client.connected());
      for (size_t i = 0; i < kOpsPerClient; ++i) {
        const std::string mine = ClientProperty('c', c, i % 3);
        const std::string shared = "shared_" + std::to_string(i % 2);
        std::string line;
        if (i % 4 == 3) {
          // Remove the query added at i-1 (same (c, i%3) name).
          line = R"({"op":"update","id":)" + std::to_string(i) +
                 R"(,"remove":[[")" + ClientProperty('c', c, (i - 1) % 3) +
                 R"(","shared_)" + std::to_string((i - 1) % 2) + R"("]]})";
        } else {
          line = R"({"op":"update","id":)" + std::to_string(i) +
                 R"(,"add":[[")" + mine + R"(",")" + shared + R"("]]})";
        }
        const obs::JsonValue response = client.Call(line);
        responses.fetch_add(1);
        if (CodeOf(response) != 200) non_ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Zero dropped: every request of every client was answered 200 (no
  // admission pressure at these depths).
  EXPECT_EQ(responses.load(), kClients * kOpsPerClient);
  EXPECT_EQ(non_ok.load(), 0u);

  server.RequestDrain();
  server.Join();

  // Offline reference: replay the same net operations as single batches on
  // a fresh engine (per client, in the client's order — the final live set
  // is order-independent because each client touches distinct query names).
  online::OnlineEngine reference;
  ASSERT_TRUE(reference.Initialize(BaseInstance()).ok());
  std::vector<std::string> names = BaseInstance().property_names();
  std::unordered_map<std::string, PropertyId> interned;
  for (PropertyId id = 0; id < names.size(); ++id) {
    interned.emplace(names[id], id);
  }
  auto intern = [&](const std::vector<std::string>& query) {
    std::vector<PropertyId> ids;
    for (const std::string& name : query) {
      auto [it, inserted] =
          interned.emplace(name, static_cast<PropertyId>(names.size()));
      if (inserted) names.push_back(name);
      ids.push_back(it->second);
    }
    return PropertySet::FromUnsorted(std::move(ids));
  };
  // Reconstruct each client's final live contribution directly.
  std::vector<PropertySet> add;
  for (size_t c = 0; c < kClients; ++c) {
    UpdateCoalescer coalescer;
    for (size_t i = 0; i < kOpsPerClient; ++i) {
      const std::string mine = ClientProperty('c', c, i % 3);
      const std::string shared = "shared_" + std::to_string(i % 2);
      if (i % 4 == 3) {
        coalescer.Remove(intern(
            {ClientProperty('c', c, (i - 1) % 3),
             "shared_" + std::to_string((i - 1) % 2)}));
      } else {
        coalescer.Add(intern({mine, shared}));
      }
    }
    const NetUpdate net = coalescer.Take();
    for (const PropertySet& query : net.add) add.push_back(query);
  }
  // Price the new classifiers the way the server does, then apply.
  {
    Instance pricing;
    pricing.set_property_names(names);
    for (const PropertySet& query : add) pricing.AddQuery(query);
    data::CostEstimatorOptions estimator;
    estimator.default_difficulty = 2;
    ASSERT_TRUE(data::EstimateCosts(&pricing, estimator).ok());
    for (const auto& [classifier, cost] :
         SortedCostEntries(pricing.costs())) {
      ASSERT_TRUE(reference.SetCost(classifier, cost).ok());
    }
  }
  ASSERT_TRUE(reference.ApplyUpdate(add, {}).ok());
  reference.set_property_names(names);

  server.WithEngine([&](const online::OnlineEngine& engine) {
    EXPECT_TRUE(engine.CheckInvariants().ok());
    EXPECT_EQ(engine.NumQueries(), reference.NumQueries());
    // Per-component costs are computed identically; the cached totals can
    // only differ by summation order.
    EXPECT_NEAR(engine.TotalCost(), reference.TotalCost(), 1e-9);
    EXPECT_EQ(
        CanonicalClassifiers(engine.CurrentSolution(), engine.property_names()),
        CanonicalClassifiers(reference.CurrentSolution(),
                             reference.property_names()));
  });
}

TEST(ServerTest, CoalescesBurstsIntoFewerBatches) {
  ServerOptions options = TestOptions();
  options.engine_thread = false;  // queue everything, then drain at once
  Server server(options);
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 6; ++i) {
    client.Send(R"({"op":"update","id":)" + std::to_string(i) +
                R"(,"add":[["burst_)" + std::to_string(i) + R"("]]})");
  }
  while (server.QueueDepth() < 6) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.ProcessQueuedNow();
  for (int i = 0; i < 6; ++i) {
    const std::string line = client.ReadLine();
    auto response = obs::ParseJson(line);
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_EQ(CodeOf(*response), 200);
    EXPECT_EQ(response->Find("batch_size")->number, 6);
  }
  const ServerStats stats = server.GetStats();
  EXPECT_EQ(stats.batches, 1u);       // one churn step for six requests
  EXPECT_EQ(stats.coalesced_ops, 6u);
  EXPECT_EQ(stats.max_batch, 6u);
  server.RequestDrain();
  server.Join();
}

// A coalesced batch that falls back to per-request application counts each
// request it applies as one churn step, in `stats` and in the registry
// alike: here the re-add applies alone and the uncoverable add is refused.
TEST(ServerTest, FallbackStepsCountInStatsAndMetricsAlike) {
  ServerOptions options = TestOptions();
  options.default_cost = -1;      // an unpriced add fails
  options.engine_thread = false;  // batches form exactly as queued
  Server server(options);
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Queues `lines`, drains them as one run, and returns each ack's code and
  // batch_size (0 on an error).
  const auto run_queued = [&](const std::vector<std::string>& lines) {
    for (const std::string& line : lines) client.Send(line);
    while (server.QueueDepth() < lines.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.ProcessQueuedNow();
    std::vector<std::pair<int, double>> acks;
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string line = client.ReadLine();
      auto response = obs::ParseJson(line);
      EXPECT_TRUE(response.ok()) << line;
      if (!response.ok()) continue;
      const obs::JsonValue* batch_size = response->Find("batch_size");
      acks.emplace_back(CodeOf(*response),
                        batch_size != nullptr ? batch_size->number : 0);
    }
    return acks;
  };
  using Acks = std::vector<std::pair<int, double>>;
  EXPECT_EQ(run_queued({R"({"op":"update","id":1,"remove":[["tv"]]})"}),
            (Acks{{200, 1}}));
  const ServerStats stats_before = server.GetStats();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snap();
  EXPECT_EQ(run_queued({R"({"op":"update","id":2,"add":[["tv"]]})",
                        R"({"op":"update","id":3,"add":[["never_priced"]]})"}),
            (Acks{{200, 1}, {400, 0}}));
  const ServerStats stats_after = server.GetStats();
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snap();
  server.RequestDrain();
  server.Join();

  const auto counter_delta = [&](const std::string& name) {
    const auto was = before.counters.find(name);
    const auto now = after.counters.find(name);
    return (now == after.counters.end() ? 0 : now->second) -
           (was == before.counters.end() ? 0 : was->second);
  };
  const obs::HistogramSnapshot& sizes_before =
      before.histograms.at("server.batch_size");
  const obs::HistogramSnapshot& sizes_after =
      after.histograms.at("server.batch_size");
  EXPECT_EQ(stats_after.batches - stats_before.batches, 1u);
  EXPECT_EQ(stats_after.coalesced_ops - stats_before.coalesced_ops, 1u);
  EXPECT_EQ(stats_after.max_batch, 1u);
  EXPECT_EQ(counter_delta("server.batches"), 1u);
  EXPECT_EQ(counter_delta("server.coalesced_ops"), 1u);
  EXPECT_EQ(sizes_after.count - sizes_before.count, 1u);
  EXPECT_DOUBLE_EQ(sizes_after.sum - sizes_before.sum, 1.0);
}

// ---------------------------------------------------------------------------
// Durability (docs/durability.md): the checkpoint / wal_stats verbs and
// restartability — a server restarted on the same data dir resumes with
// the state its predecessor acknowledged.

/// Fresh per-test durable data dir, removed on destruction.
struct DurableDir {
  explicit DurableDir(const char* tag)
      : path(::testing::TempDir() + "/mc3_server_durable_" + tag + "_" +
             std::to_string(reinterpret_cast<uintptr_t>(this))) {
    std::filesystem::remove_all(path);
  }
  ~DurableDir() { std::filesystem::remove_all(path); }
  std::string path;
};

ServerOptions DurableOptions(const std::string& data_dir) {
  ServerOptions options = TestOptions();
  options.durability.data_dir = data_dir;
  // Deterministic for tests; the group-commit path is covered by WalTest.
  options.durability.wal.sync =
      durability::WalOptions::SyncPolicy::kImmediate;
  return options;
}

TEST(ServerDurabilityTest, CheckpointVerbRequiresDurability) {
  Server server(TestOptions());  // no data dir
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const obs::JsonValue response =
      client.Call(R"({"op":"checkpoint","id":1})");
  EXPECT_EQ(CodeOf(response), 400);
  const obs::JsonValue stats = client.Call(R"({"op":"wal_stats","id":2})");
  EXPECT_EQ(CodeOf(stats), 200);
  ASSERT_NE(stats.Find("enabled"), nullptr);
  EXPECT_FALSE(stats.Find("enabled")->boolean);
  server.RequestDrain();
  server.Join();
}

TEST(ServerDurabilityTest, UpdatesCarryWalSeqAndStatsReportThem) {
  DurableDir dir("walseq");
  Server server(DurableOptions(dir.path));
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const obs::JsonValue first = client.Call(
      R"({"op":"update","id":1,"add":[["blue","sofa"]]})");
  ASSERT_EQ(CodeOf(first), 200);
  ASSERT_NE(first.Find("wal_seq"), nullptr);
  EXPECT_EQ(first.Find("wal_seq")->number, 1);
  const obs::JsonValue second = client.Call(
      R"({"op":"update","id":2,"remove":[["blue","sofa"]]})");
  ASSERT_EQ(CodeOf(second), 200);
  EXPECT_EQ(second.Find("wal_seq")->number, 2);

  const obs::JsonValue stats = client.Call(R"({"op":"wal_stats","id":3})");
  ASSERT_EQ(CodeOf(stats), 200);
  EXPECT_TRUE(stats.Find("enabled")->boolean);
  EXPECT_EQ(stats.Find("last_seq")->number, 2);
  EXPECT_EQ(stats.Find("records_appended")->number, 2);
  EXPECT_EQ(stats.Find("wal_errors")->number, 0);
  ASSERT_NE(stats.Find("recovery"), nullptr);
  EXPECT_EQ(stats.Find("recovery")->Find("wal_records_replayed")->number, 0);

  const obs::JsonValue checkpoint =
      client.Call(R"({"op":"checkpoint","id":4})");
  ASSERT_EQ(CodeOf(checkpoint), 200);
  EXPECT_EQ(checkpoint.Find("seq")->number, 2);
  EXPECT_GT(checkpoint.Find("bytes")->number, 0);

  server.RequestDrain();
  server.Join();
}

TEST(ServerDurabilityTest, RestartOnSameDataDirResumesAcknowledgedState) {
  DurableDir dir("restart");
  // First life: apply updates (some past a checkpoint), then drain — every
  // acknowledged update is on disk.
  {
    Server server(DurableOptions(dir.path));
    ASSERT_TRUE(server.Start(BaseInstance()).ok());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_EQ(CodeOf(client.Call(
                  R"({"op":"update","id":1,"add":[["blue","sofa"]]})")),
              200);
    ASSERT_EQ(CodeOf(client.Call(R"({"op":"checkpoint","id":2})")), 200);
    ASSERT_EQ(CodeOf(client.Call(
                  R"({"op":"update","id":3,"add":[["green","lamp"]]})")),
              200);
    ASSERT_EQ(CodeOf(client.Call(
                  R"({"op":"update","id":4,"remove":[["tv"]]})")),
              200);
    server.RequestDrain();
    server.Join();
  }

  // Second life: recovery = snapshot + WAL tail. The resumed engine equals
  // the reference engine that applied the same history directly.
  Server server(DurableOptions(dir.path));
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  const durability::DurabilityManager* manager = server.durability_manager();
  ASSERT_NE(manager, nullptr);
  EXPECT_TRUE(manager->recovery().snapshot_loaded);
  EXPECT_EQ(manager->recovery().snapshot_seq, 1u);
  EXPECT_EQ(manager->recovery().wal_records_replayed, 2u);

  online::OnlineEngine reference;
  ASSERT_TRUE(reference.Initialize(BaseInstance()).ok());
  {
    // Mirror the server's default-cost pricing for the unknown queries.
    std::vector<std::string> names = reference.property_names();
    names.push_back("blue");
    names.push_back("sofa");
    names.push_back("green");
    names.push_back("lamp");
    reference.set_property_names(names);
    const auto id = [&](const char* name) {
      return static_cast<PropertyId>(
          std::find(names.begin(), names.end(), name) - names.begin());
    };
    Instance added;
    added.set_property_names(names);
    added.AddQuery(PropertySet::Of({id("blue"), id("sofa")}));
    added.AddQuery(PropertySet::Of({id("green"), id("lamp")}));
    data::CostEstimatorOptions estimator;
    estimator.default_difficulty = 2;  // TestOptions().default_cost
    ASSERT_TRUE(data::EstimateCosts(&added, estimator).ok());
    for (const auto& [classifier, cost] :
         SortedCostEntries(added.costs())) {
      if (!IsInfiniteCost(reference.CostOf(classifier))) continue;
      ASSERT_TRUE(reference.SetCost(classifier, cost).ok());
    }
    ASSERT_TRUE(reference
                    .AddQueries({PropertySet::Of({id("blue"), id("sofa")})})
                    .ok());
    ASSERT_TRUE(reference
                    .AddQueries({PropertySet::Of({id("green"), id("lamp")})})
                    .ok());
    ASSERT_TRUE(reference.RemoveQueries({PropertySet::Of({id("tv")})}).ok());
  }

  int queries_after_restart = -1;
  server.WithEngine([&](const online::OnlineEngine& engine) {
    queries_after_restart = static_cast<int>(engine.NumQueries());
    ASSERT_TRUE(engine.CheckInvariants().ok());
    EXPECT_EQ(engine.TotalCost(), reference.TotalCost());
    EXPECT_EQ(
        CanonicalClassifiers(engine.CurrentSolution(),
                             engine.property_names()),
        CanonicalClassifiers(reference.CurrentSolution(),
                             reference.property_names()));
  });
  EXPECT_EQ(queries_after_restart, 3);  // red&shirt, blue&sofa, green&lamp

  // And the resumed server keeps logging past the recovered tail.
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const obs::JsonValue next = client.Call(
      R"({"op":"update","id":5,"add":[["oak","desk"]]})");
  ASSERT_EQ(CodeOf(next), 200);
  EXPECT_EQ(next.Find("wal_seq")->number, 4);
  server.RequestDrain();
  server.Join();
}

/// The `solve` response (with the solution) a server holding `engine`'s
/// state renders, in the server's own field order and number format.
std::string ExpectedSolve(int64_t id, const online::OnlineEngine& engine) {
  const std::vector<PropertySet> solution = engine.CurrentSolution().Sorted();
  obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("id").Int(id);
  writer.Key("op").String("solve");
  writer.Key("code").Int(200);
  writer.Key("cost").Number(engine.TotalCost());
  writer.Key("queries").Int(engine.NumQueries());
  writer.Key("components").Int(engine.NumComponents());
  writer.Key("classifiers").Int(solution.size());
  writer.Key("solution").BeginArray();
  for (const PropertySet& classifier : solution) {
    writer.BeginArray();
    for (const PropertyId p : classifier) {
      writer.String(engine.property_names()[p]);
    }
    writer.EndArray();
  }
  writer.EndArray();
  writer.EndObject();
  return writer.Take();
}

/// The `update` request that adds `add` and removes `remove`.
std::string UpdateRequest(int64_t id, const std::vector<PropertySet>& add,
                          const std::vector<PropertySet>& remove,
                          const std::vector<std::string>& names) {
  obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("op").String("update");
  writer.Key("id").Int(id);
  for (const auto& [key, queries] : {std::pair{"add", &add},
                                     std::pair{"remove", &remove}}) {
    writer.Key(key).BeginArray();
    for (const PropertySet& q : *queries) {
      writer.BeginArray();
      for (const PropertyId p : q) writer.String(names[p]);
      writer.EndArray();
    }
    writer.EndArray();
  }
  writer.EndObject();
  return writer.Take();
}

/// Runs one seeded history against a durable server: updates
/// that add new queries, retire live ones and revive retired ones, solves,
/// checkpoints taken while queries are retired, and drain+restart cycles
/// followed by revivals. Every acknowledged update is applied to an offline
/// engine, and every solve response must equal the one that engine's state
/// renders.
void RunModelHistory(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  // Every singleton is priced, so every query over known properties is
  // coverable.
  const Instance base = testing::NamedShardedSynthetic(seed, 15);
  const std::vector<std::string>& names = base.property_names();
  online::OnlineEngine oracle;
  ASSERT_TRUE(oracle.Initialize(base).ok());
  DurableDir dir("model");
  ServerOptions options = DurableOptions(dir.path);
  options.default_cost = -1;  // base prices cover every query the test adds
  auto server = std::make_unique<Server>(options);
  ASSERT_TRUE(server->Start(base).ok());
  auto client = std::make_unique<TestClient>(server->port());
  ASSERT_TRUE(client->connected());

  Rng rng(seed);
  std::set<PropertySet> live(base.queries().begin(), base.queries().end());
  std::set<PropertySet> retired;
  const auto pick = [&rng](const std::set<PropertySet>& pool) {
    return *std::next(pool.begin(),
                      static_cast<long>(rng.UniformInt(0, pool.size() - 1)));
  };
  bool revive_next = false;  // set by a restart
  int64_t id = 0;
  bool same = true;  // stop at the first divergence
  const auto solve = [&] {
    ++id;
    client->Send(R"({"op":"solve","solution":true,"id":)" +
                 std::to_string(id) + "}");
    const std::string response = client->ReadLine();
    const std::string expected = ExpectedSolve(id, oracle);
    same = response == expected;
    EXPECT_EQ(response, expected) << "request " << id;
  };
  for (int step = 0; step < 40 && same; ++step) {
    const uint64_t action = rng.UniformInt(0, 9);
    if (action < 6) {
      std::vector<PropertySet> add, remove;
      const size_t ops = rng.UniformInt(1, 3);
      const uint64_t kind =
          revive_next && !retired.empty() ? 2 : rng.UniformInt(0, 2);
      for (size_t i = 0; i < ops; ++i) {
        if (kind == 0) {  // a new query bridging two live ones
          const PropertySet a = pick(live);
          const PropertySet b = pick(live);
          const PropertySet bridge =
              PropertySet::Of({a.ids().front(), b.ids().back()});
          if (live.count(bridge) > 0 || retired.count(bridge) > 0) continue;
          live.insert(bridge);
          add.push_back(bridge);
        } else if (kind == 1 || retired.empty()) {  // retire
          if (live.size() <= 8) break;
          const PropertySet q = pick(live);
          live.erase(q);
          retired.insert(q);
          remove.push_back(q);
        } else {  // revive
          const PropertySet q = pick(retired);
          retired.erase(q);
          live.insert(q);
          add.push_back(q);
        }
        if (retired.empty()) revive_next = false;
      }
      if (add.empty() && remove.empty()) continue;
      ++id;
      const obs::JsonValue ack =
          client->Call(UpdateRequest(id, add, remove, names));
      ASSERT_EQ(CodeOf(ack), 200) << "request " << id;
      ASSERT_TRUE(oracle.ApplyUpdate(add, remove).ok());
      solve();
    } else if (action < 8) {
      // Checkpoint only while queries are retired, so a snapshot omits
      // queries that later batches revive.
      if (retired.empty()) continue;
      ++id;
      ASSERT_EQ(CodeOf(client->Call(R"({"op":"checkpoint","id":)" +
                                    std::to_string(id) + "}")),
                200);
    } else {
      client.reset();
      server->RequestDrain();
      server->Join();
      server = std::make_unique<Server>(options);
      ASSERT_TRUE(server->Start(base).ok());
      client = std::make_unique<TestClient>(server->port());
      ASSERT_TRUE(client->connected());
      revive_next = !retired.empty();
      solve();
    }
  }
  ASSERT_TRUE(oracle.CheckInvariants().ok());
  client.reset();
  server->RequestDrain();
  server->Join();
}

TEST(ServerDurabilityTest, SeededHistoriesMatchAnOfflineEngineAcrossRestarts) {
  for (const uint64_t seed : {23u, 40u}) RunModelHistory(seed);
}

// ---------------------------------------------------------------------------
// Serving telemetry (docs/observability.md, "Serving telemetry"): enriched
// health/stats, the metrics exposition verb, and sampled trace export.

TEST(ServerTelemetryTest, HealthReportsUptimeAndBuildInfo) {
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const obs::JsonValue health = client.Call(R"({"op":"health","id":1})");
  ASSERT_EQ(CodeOf(health), 200);
  const obs::JsonValue* uptime = health.Find("uptime_seconds");
  ASSERT_NE(uptime, nullptr);
  ASSERT_TRUE(uptime->is_number());
  EXPECT_GE(uptime->number, 0);
  const obs::JsonValue* build = health.Find("build");
  ASSERT_NE(build, nullptr);
  ASSERT_TRUE(build->is_object());
  const obs::JsonValue* compiler = build->Find("compiler");
  ASSERT_NE(compiler, nullptr);
  EXPECT_FALSE(compiler->string.empty());
  ASSERT_NE(build->Find("build_type"), nullptr);
  const obs::JsonValue* obs_mode = build->Find("obs");
  ASSERT_NE(obs_mode, nullptr);
  EXPECT_TRUE(obs_mode->boolean);

  server.RequestDrain();
  server.Join();
}

TEST(ServerTelemetryTest, StatsReportsQueueHighWatermarkAndStages) {
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_EQ(CodeOf(client.Call(
                R"({"op":"update","id":1,"add":[["blue","sofa"]]})")),
            200);
  const obs::JsonValue stats = client.Call(R"({"op":"stats","id":2})");
  ASSERT_EQ(CodeOf(stats), 200);
  const obs::JsonValue* depth_max = stats.Find("queue_depth_max");
  ASSERT_NE(depth_max, nullptr);
  // The update above passed through the engine queue, so the high
  // watermark saw at least one entry.
  EXPECT_GE(depth_max->number, 1);
  ASSERT_NE(stats.Find("uptime_seconds"), nullptr);
  const obs::JsonValue* stages = stats.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_TRUE(stages->is_object());
  const obs::JsonValue* queue_wait = stages->Find("queue_wait.update");
  ASSERT_NE(queue_wait, nullptr);
  ASSERT_NE(queue_wait->Find("count"), nullptr);
  EXPECT_GE(queue_wait->Find("count")->number, 1);

  server.RequestDrain();
  server.Join();
}

TEST(ServerTelemetryTest, MetricsVerbAgreesWithStats) {
  Server server(TestOptions());
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_EQ(CodeOf(client.Call(
                R"({"op":"update","id":1,"add":[["blue","sofa"]]})")),
            200);
  ASSERT_EQ(CodeOf(client.Call(R"({"op":"solve","id":2})")), 200);
  const obs::JsonValue stats = client.Call(R"({"op":"stats","id":3})");
  ASSERT_EQ(CodeOf(stats), 200);

  const obs::JsonValue metrics = client.Call(R"({"op":"metrics","id":4})");
  ASSERT_EQ(CodeOf(metrics), 200);
  ASSERT_NE(metrics.Find("content_type"), nullptr);
  EXPECT_EQ(metrics.Find("content_type")->string,
            "text/plain; version=0.0.4");
  const obs::JsonValue* body = metrics.Find("body");
  ASSERT_NE(body, nullptr);
  ASSERT_TRUE(body->is_string());

  auto samples = obs::ParseExposition(body->string);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();

  // Counters scraped from the exposition reconcile exactly with the stats
  // verb: by parse time of the metrics request, the server has counted the
  // stats request's own response and the metrics request itself.
  const obs::ParsedSample* requests =
      obs::FindSample(*samples, "mc3_server_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->value, stats.Find("requests")->number + 1);
  const obs::ParsedSample* responses =
      obs::FindSample(*samples, "mc3_server_responses_total");
  ASSERT_NE(responses, nullptr);
  EXPECT_EQ(responses->value, stats.Find("responses")->number + 1);

  // Gauges and build info are always exposed.
  EXPECT_NE(obs::FindSample(*samples, "mc3_server_queue_depth_max"), nullptr);
  EXPECT_NE(obs::FindSample(*samples, "mc3_server_uptime_seconds"), nullptr);
  EXPECT_NE(obs::FindSample(*samples, "mc3_server_batches_total"), nullptr);
  const obs::ParsedSample* build = obs::FindSample(*samples, "mc3_build_info");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->value, 1);
  EXPECT_EQ(build->labels.at("obs"), "on");
  // Registry-backed per-verb counters and stage histograms.
  const obs::ParsedSample* updates =
      obs::FindSample(*samples, "mc3_server_requests_update_total");
  ASSERT_NE(updates, nullptr);
  EXPECT_GE(updates->value, 1);
  EXPECT_NE(
      obs::FindSample(*samples, "mc3_server_stage_queue_wait_update_count"),
      nullptr);
  // The applied update republished the read views.
  EXPECT_NE(obs::FindSample(*samples, "mc3_server_stage_publish_update_count"),
            nullptr);

  server.RequestDrain();
  server.Join();
}

TEST(ServerTelemetryTest, CheckpointsRecordTheirStage) {
  DurableDir dir("checkpoint_stage");
  ServerOptions options = DurableOptions(dir.path);
  // An update past this count checkpoints inside its batch.
  options.durability.checkpoint_every_updates = 1;
  Server server(options);
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_EQ(CodeOf(client.Call(R"({"op":"checkpoint","id":1})")), 200);
  ASSERT_EQ(CodeOf(client.Call(
                R"({"op":"update","id":2,"add":[["blue","sofa"]]})")),
            200);
  const obs::JsonValue metrics = client.Call(R"({"op":"metrics","id":3})");
  ASSERT_EQ(CodeOf(metrics), 200);
  auto samples = obs::ParseExposition(metrics.Find("body")->string);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  // The checkpoint verb's own stage, then the one an update batch ran.
  for (const char* name : {"mc3_server_stage_checkpoint_checkpoint_count",
                           "mc3_server_stage_checkpoint_update_count"}) {
    const obs::ParsedSample* count = obs::FindSample(*samples, name);
    ASSERT_NE(count, nullptr) << name;
    EXPECT_GE(count->value, 1) << name;
  }

  server.RequestDrain();
  server.Join();
}

// The acceptance-criteria run: a durable server with every request sampled
// produces a trace file in which one update's spans connect parse ->
// queue_wait -> coalesce -> shard_apply -> publish -> wal_durable ->
// serialize with flow events across connection, engine-worker and
// WAL-committer threads.
TEST(ServerTelemetryTest, DurableRunConnectsSpansAcrossThreads) {
  DurableDir dir("trace");
  ServerOptions options = DurableOptions(dir.path);
  // Group commit so durability lands on the dedicated committer thread.
  options.durability.wal.sync = durability::WalOptions::SyncPolicy::kGrouped;
  options.trace_sample = 1;
  options.trace_out_dir = dir.path + "/traces";
  Server server(options);
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  const std::string trace_path = server.trace_file_path();
  ASSERT_FALSE(trace_path.empty());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const obs::JsonValue updated = client.Call(
      R"({"op":"update","id":1,"add":[["blue","sofa"]]})");
  ASSERT_EQ(CodeOf(updated), 200);
  // With tracing on, every response echoes its request's trace id.
  const obs::JsonValue* echoed = updated.Find("trace_id");
  ASSERT_NE(echoed, nullptr);
  const uint64_t trace_id = static_cast<uint64_t>(echoed->number);
  ASSERT_GT(trace_id, 0u);
  const obs::JsonValue solved = client.Call(R"({"op":"solve","id":2})");
  ASSERT_EQ(CodeOf(solved), 200);
  ASSERT_NE(solved.Find("trace_id"), nullptr);
  EXPECT_NE(static_cast<uint64_t>(solved.Find("trace_id")->number), trace_id);

  server.RequestDrain();
  server.Join();  // writes the trace file after durability is closed

  std::ifstream in(trace_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << trace_path;
  std::stringstream raw;
  raw << in.rdbuf();
  auto doc = obs::ParseJson(raw.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Gather the update's spans (X events tagged with its trace id), the
  // thread-name metadata, and the flow chain for the id.
  std::set<std::string> span_names;
  std::set<double> span_tids;
  std::map<double, std::string> thread_names;
  int flow_starts = 0, flow_steps = 0, flow_finishes = 0;
  std::set<double> flow_tids;
  for (const obs::JsonValue& event : events->array) {
    const obs::JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") {
      thread_names[event.Find("tid")->number] =
          event.Find("args")->Find("name")->string;
      continue;
    }
    if (ph->string == "X") {
      const obs::JsonValue* args = event.Find("args");
      if (args == nullptr) continue;
      const obs::JsonValue* ids = args->Find("trace_ids");
      if (ids == nullptr) continue;
      for (const obs::JsonValue& id : ids->array) {
        if (static_cast<uint64_t>(id.number) != trace_id) continue;
        span_names.insert(event.Find("name")->string);
        span_tids.insert(event.Find("tid")->number);
      }
      continue;
    }
    if (ph->string == "s" || ph->string == "t" || ph->string == "f") {
      if (static_cast<uint64_t>(event.Find("id")->number) != trace_id)
        continue;
      flow_tids.insert(event.Find("tid")->number);
      if (ph->string == "s") ++flow_starts;
      if (ph->string == "t") ++flow_steps;
      if (ph->string == "f") {
        ++flow_finishes;
        ASSERT_NE(event.Find("bp"), nullptr);
        EXPECT_EQ(event.Find("bp")->string, "e");
      }
    }
  }

  // Every pipeline stage produced a span for this request.
  for (const char* stage : {"parse", "queue_wait", "coalesce", "shard_apply",
                            "publish", "wal_durable", "serialize"}) {
    EXPECT_EQ(span_names.count(stage), 1u) << stage;
  }
  // The journey crossed at least three threads, and the flow chain is
  // well-formed: one start, one finish, steps in between, spanning the
  // same threads the spans ran on.
  EXPECT_GE(span_tids.size(), 3u);
  EXPECT_EQ(flow_starts, 1);
  EXPECT_EQ(flow_finishes, 1);
  EXPECT_GE(flow_steps, 1);
  EXPECT_GE(flow_tids.size(), 3u);

  // Thread display names cover the three thread types the request crossed.
  std::set<std::string> named;
  for (const double tid : span_tids) {
    auto it = thread_names.find(tid);
    ASSERT_NE(it, thread_names.end());
    named.insert(it->second);
  }
  EXPECT_EQ(named.count("conn"), 1u);
  EXPECT_EQ(named.count("engine-worker"), 1u);
  EXPECT_EQ(named.count("wal-committer"), 1u);
}

/// The events of a trace file, parsed.
std::vector<obs::JsonValue> TraceFileEvents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream raw;
  raw << in.rdbuf();
  auto doc = obs::ParseJson(raw.str());
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok() || doc->Find("traceEvents") == nullptr) return {};
  return doc->Find("traceEvents")->array;
}

// A sampled batch's engine apply runs under its shard_apply span: the
// engine's own spans (online_update, solve_component, ...) land inside it
// on the engine-worker row, so a sampled update explains itself down to
// the solver's phases.
TEST(ServerTelemetryTest, SampledApplyNestsEngineSpansUnderShardApply) {
  DurableDir dir("nested_trace");
  ServerOptions options = DurableOptions(dir.path);
  options.trace_sample = 1;
  options.trace_out_dir = dir.path + "/traces";
  Server server(options);
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  const std::string trace_path = server.trace_file_path();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_EQ(CodeOf(client.Call(
                R"({"op":"update","id":1,"add":[["blue","sofa"]]})")),
            200);
  ASSERT_EQ(CodeOf(client.Call(
                R"({"op":"update","id":2,"add":[["green","lamp"]]})")),
            200);
  server.RequestDrain();
  server.Join();
  EXPECT_EQ(server.trace().dropped(), 0u);

  const std::vector<obs::JsonValue> events = TraceFileEvents(trace_path);
  double engine_tid = -1;
  for (const obs::JsonValue& event : events) {
    if (event.Find("ph")->string == "M" &&
        event.Find("args")->Find("name")->string == "engine-worker") {
      engine_tid = event.Find("tid")->number;
    }
  }
  ASSERT_GE(engine_tid, 0);
  struct Interval {
    double begin = 0;
    double end = 0;
  };
  std::vector<Interval> applies;
  std::map<std::string, std::vector<Interval>> engine_spans;
  for (const obs::JsonValue& event : events) {
    if (event.Find("ph")->string != "X") continue;
    const std::string& name = event.Find("name")->string;
    const double ts = event.Find("ts")->number;
    const Interval interval{ts, ts + event.Find("dur")->number};
    if (name == "shard_apply") {
      EXPECT_EQ(event.Find("tid")->number, engine_tid);
      applies.push_back(interval);
    } else if (name == "online_update" || name == "solve_component") {
      EXPECT_EQ(event.Find("tid")->number, engine_tid) << name;
      engine_spans[name].push_back(interval);
    }
  }
  ASSERT_EQ(applies.size(), 2u);  // one applied batch per update
  EXPECT_EQ(engine_spans["online_update"].size(), 2u);
  EXPECT_GE(engine_spans["solve_component"].size(), 2u);
  // Timestamps are microseconds rendered from doubles: allow rounding.
  constexpr double kSlackUs = 1e-3;
  for (const auto& [name, intervals] : engine_spans) {
    for (const Interval& span : intervals) {
      const bool inside = std::any_of(
          applies.begin(), applies.end(), [&span](const Interval& apply) {
            return span.begin >= apply.begin - kSlackUs &&
                   span.end <= apply.end + kSlackUs;
          });
      EXPECT_TRUE(inside) << name << " at " << span.begin;
    }
  }
}

// Every server.stage.* and server.read.* histogram counts exactly its
// events over a fixed script: a batch of two updates applied whole, a
// batch that falls back per request (one member is uncoverable), a
// checkpoint, and a solve and a snapshot read. Sampling changes no count.
TEST(ServerTelemetryTest, StageHistogramsCountExactlyTheirEvents) {
  for (const uint64_t trace_sample : {uint64_t{0}, uint64_t{1}}) {
    SCOPED_TRACE(trace_sample);
    DurableDir dir("stage_counts");
    ServerOptions options = DurableOptions(dir.path);
    options.default_cost = -1;       // an unpriced add fails
    options.engine_thread = false;   // batches form exactly as queued
    options.durability.checkpoint_every_updates = 2;
    options.trace_sample = trace_sample;
    const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snap();
    Server server(options);
    ASSERT_TRUE(server.Start(BaseInstance()).ok());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    // Queues `lines`, drains them as one run, and checks the response codes.
    const auto run_queued = [&](const std::vector<std::string>& lines,
                                const std::vector<int>& codes) {
      for (const std::string& line : lines) client.Send(line);
      while (server.QueueDepth() < lines.size()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      server.ProcessQueuedNow();
      for (const int code : codes) {
        const std::string line = client.ReadLine();
        auto response = obs::ParseJson(line);
        ASSERT_TRUE(response.ok()) << line;
        EXPECT_EQ(CodeOf(*response), code) << line;
      }
    };
    // One coalesced batch, applied whole: WAL record 1.
    run_queued({R"({"op":"update","id":1,"add":[["red"]]})",
                R"({"op":"update","id":2,"add":[["shirt"]]})"},
               {200, 200});
    // The coalesced batch fails on the unpriced {blue}; per request, {red,
    // tv} applies alone (WAL record 2, then the policy checkpoint) and
    // {blue} is refused.
    run_queued({R"({"op":"update","id":3,"add":[["red","tv"]]})",
                R"({"op":"update","id":4,"add":[["blue"]]})"},
               {200, 400});
    run_queued({R"({"op":"checkpoint","id":5})"}, {200});
    EXPECT_EQ(CodeOf(client.Call(R"({"op":"solve","id":6})")), 200);
    EXPECT_EQ(CodeOf(client.Call(R"({"op":"snapshot","id":7})")), 200);
    server.RequestDrain();
    server.Join();

    const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snap();
    std::map<std::string, uint64_t> counted;
    for (const auto& [name, histogram] : after.histograms) {
      if (name.rfind("server.stage.", 0) != 0 &&
          name.rfind("server.read.", 0) != 0) {
        continue;
      }
      const auto was = before.histograms.find(name);
      const uint64_t delta =
          histogram.count -
          (was == before.histograms.end() ? 0 : was->second.count);
      if (delta != 0) counted[name] = delta;
    }
    const std::map<std::string, uint64_t> expected = {
        {"server.stage.queue_wait.update", 4},
        {"server.stage.coalesce.update", 2},
        {"server.stage.shard_apply.update", 1},
        {"server.stage.publish.update", 2},
        {"server.stage.wal_durable.update", 2},
        {"server.stage.checkpoint.update", 1},
        {"server.stage.serialize.update", 4},
        {"server.stage.queue_wait.checkpoint", 1},
        {"server.stage.checkpoint.checkpoint", 1},
        {"server.stage.serialize.checkpoint", 1},
        {"server.read.acquire.solve", 1},
        {"server.read.render.solve", 1},
        {"server.stage.serialize.solve", 1},
        {"server.read.acquire.snapshot", 1},
        {"server.read.render.snapshot", 1},
        {"server.stage.serialize.snapshot", 1},
    };
    EXPECT_EQ(counted, expected);
  }
}

TEST(ServerTelemetryTest, TracingOffKeepsResponsesFreeOfTraceIds) {
  Server server(TestOptions());  // trace_sample defaults to 0: tracing off
  ASSERT_TRUE(server.Start(BaseInstance()).ok());
  EXPECT_TRUE(server.trace_file_path().empty());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const obs::JsonValue updated = client.Call(
      R"({"op":"update","id":1,"add":[["blue","sofa"]]})");
  ASSERT_EQ(CodeOf(updated), 200);
  EXPECT_EQ(updated.Find("trace_id"), nullptr);
  server.RequestDrain();
  server.Join();
}

}  // namespace
}  // namespace mc3::server
