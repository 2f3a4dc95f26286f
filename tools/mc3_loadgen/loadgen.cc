#include "mc3_loadgen/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "obs/exposition.h"
#include "obs/json.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace mc3::loadgen {
namespace {

/// One request of the pre-computed schedule.
struct PlannedRequest {
  double at = 0;  ///< seconds from run start (0 inside the burst)
  std::string line;
  size_t conn = 0;
  uint64_t id = 0;
  bool solve = false;  ///< read op (vs. update), for per-verb accounting
};

/// Per-connection state. The reader thread owns `latencies` and the
/// category counts; the sender only touches `fd` and `sent`. The scraped
/// response bodies are polled by the main thread while the reader is still
/// running, so they live behind `scrape_mu`.
struct ConnState {
  // mc3-lint: guard-ok(set once by the connector before the reader launches)
  int fd = -1;
  // mc3-lint: guard-ok(sender-thread-owned; readers only see it after join)
  uint64_t sent = 0;
  std::atomic<uint64_t> got{0};
  // mc3-lint: guard-ok(reader-thread-owned; harvested after join)
  uint64_t ok = 0;
  // mc3-lint: guard-ok(reader-thread-owned; harvested after join)
  uint64_t ok_updates = 0;
  // mc3-lint: guard-ok(reader-thread-owned; harvested after join)
  uint64_t rejected = 0;
  // mc3-lint: guard-ok(reader-thread-owned; harvested after join)
  uint64_t refused = 0;
  // mc3-lint: guard-ok(reader-thread-owned; harvested after join)
  uint64_t errors = 0;
  // mc3-lint: guard-ok(reader-thread-owned; harvested after join)
  std::vector<double> latencies;
  // mc3-lint: guard-ok(reader-thread-owned; harvested after join)
  std::vector<double> read_latencies;
  // mc3-lint: guard-ok(reader-thread-owned; harvested after join)
  std::vector<double> write_latencies;
  mc3::util::Mutex scrape_mu;
  /// Last stats response seen.
  std::string stats_json MC3_GUARDED_BY(scrape_mu);
  /// Shutdown ack, when requested.
  std::string shutdown_json MC3_GUARDED_BY(scrape_mu);
  // Launched by the connector, joined only by the harvester.
  std::thread reader;

  std::string StatsJson() {
    mc3::util::MutexLock lock(scrape_mu);
    return stats_json;
  }
  std::string ShutdownJson() {
    mc3::util::MutexLock lock(scrape_mu);
    return shutdown_json;
  }
};

Result<int> Connect(const std::string& host, uint16_t port,
                    double timeout_seconds) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse host " + host);
  }
  Timer waited;
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Internal(std::string("socket: ") + std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    if (waited.Seconds() > timeout_seconds) {
      return Status::IOError("cannot connect to " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

Status SendLine(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Request kinds for the per-verb latency split, indexed by request id.
enum class ReqKind : uint8_t { kWrite = 0, kRead = 1, kOther = 2 };

/// Blocking line reader: categorizes every response, records latency
/// against `send_time` (indexed by response id; `kinds` splits the sample
/// into read/write series) and stashes stats/shutdown bodies for the
/// end-of-run scrape.
void ReaderLoop(ConnState* conn, const Timer* run_clock,
                const std::vector<std::atomic<double>>* send_time,
                const std::vector<ReqKind>* kinds) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    size_t newline;
    while ((newline = buffer.find('\n', start)) != std::string::npos) {
      const std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (line.empty()) continue;
      conn->got.fetch_add(1, std::memory_order_release);
      auto parsed = obs::ParseJson(line);
      if (!parsed.ok() || !parsed->is_object()) {
        ++conn->errors;
        continue;
      }
      const obs::JsonValue* code = parsed->Find("code");
      const obs::JsonValue* op = parsed->Find("op");
      const obs::JsonValue* id = parsed->Find("id");
      const int status = (code != nullptr && code->is_number())
                             ? static_cast<int>(code->number)
                             : 0;
      if (status == 200) {
        ++conn->ok;
        if (op != nullptr && op->is_string() && op->string == "update") {
          ++conn->ok_updates;
        }
      } else if (status == 429) {
        ++conn->rejected;
      } else if (status == 503) {
        ++conn->refused;
      } else {
        ++conn->errors;
      }
      if (id != nullptr && id->is_number()) {
        const size_t slot = static_cast<size_t>(id->number);
        const double stamped =
            slot < send_time->size()
                ? (*send_time)[slot].load(std::memory_order_acquire)
                : -1;
        if (stamped >= 0) {
          const double latency = run_clock->Seconds() - stamped;
          conn->latencies.push_back(latency);
          if (slot < kinds->size()) {
            if ((*kinds)[slot] == ReqKind::kRead) {
              conn->read_latencies.push_back(latency);
            } else if ((*kinds)[slot] == ReqKind::kWrite) {
              conn->write_latencies.push_back(latency);
            }
          }
        }
      }
      if (op != nullptr && op->is_string()) {
        mc3::util::MutexLock lock(conn->scrape_mu);
        if (op->string == "stats") conn->stats_json = line;
        if (op->string == "shutdown") conn->shutdown_json = line;
      }
    }
    buffer.erase(0, start);
  }
}

LatencySummary Summarize(std::vector<double> latencies) {
  LatencySummary summary;
  if (latencies.empty()) return summary;
  std::sort(latencies.begin(), latencies.end());
  summary.count = latencies.size();
  double sum = 0;
  for (const double v : latencies) sum += v;
  summary.mean = sum / static_cast<double>(latencies.size());
  auto at = [&](double q) {
    const size_t rank = std::min(
        latencies.size() - 1,
        static_cast<size_t>(q * static_cast<double>(latencies.size())));
    return latencies[rank];
  };
  summary.p50 = at(0.50);
  summary.p95 = at(0.95);
  summary.p99 = at(0.99);
  summary.max = latencies.back();
  return summary;
}

/// Deterministically plans the whole run: ids are 1-based and dense, so
/// send times index by id.
std::vector<PlannedRequest> PlanRequests(const LoadGenOptions& options) {
  std::mt19937_64 rng(options.seed);
  std::vector<PlannedRequest> plan;
  plan.reserve(options.operations);
  std::vector<std::vector<std::string>> added;
  size_t updates = 0;
  for (size_t i = 0; i < options.operations; ++i) {
    PlannedRequest request;
    request.id = i + 1;
    request.conn = options.connections > 0 ? i % options.connections : 0;
    request.at = i < options.burst
                     ? 0
                     : static_cast<double>(i - options.burst) /
                           std::max(1.0, options.qps);
    // Mixed mode draws one uniform per operation (so the plan stays fully
    // determined by the seed); the historical cadence consumes no RNG here,
    // keeping read_ratio < 0 plans byte-identical to older releases.
    const bool solve =
        options.read_ratio >= 0
            ? (static_cast<double>(rng() >> 11) * 0x1.0p-53) <
                  options.read_ratio
            : options.solve_every > 0 && (i + 1) % options.solve_every == 0;
    request.solve = solve;
    obs::JsonWriter writer(/*compact=*/true);
    writer.BeginObject();
    writer.Key("op").String(solve ? "solve" : "update");
    writer.Key("id").Int(request.id);
    if (!solve) {
      ++updates;
      // Round-robin tenant choice; each tenant draws from its own disjoint
      // slice of the property namespace. With one tenant the offset is 0
      // and the plan (names and RNG consumption) is byte-identical to the
      // historical single-pool workload.
      const size_t tenant =
          options.tenants > 1 ? (updates - 1) % options.tenants : 0;
      const size_t offset = tenant * options.num_properties;
      std::vector<std::string> query;
      std::vector<size_t> pool(options.num_properties);
      for (size_t p = 0; p < pool.size(); ++p) pool[p] = p;
      for (size_t l = 0; l < options.query_length && !pool.empty(); ++l) {
        const size_t pick = rng() % pool.size();
        query.push_back(std::string("p").append(
            std::to_string(offset + pool[pick])));
        pool.erase(pool.begin() + static_cast<ptrdiff_t>(pick));
      }
      writer.Key("add").BeginArray();
      writer.BeginArray();
      for (const std::string& name : query) writer.String(name);
      writer.EndArray();
      writer.EndArray();
      if (options.remove_every > 0 && !added.empty() &&
          updates % options.remove_every == 0) {
        const size_t victim = rng() % added.size();
        writer.Key("remove").BeginArray();
        writer.BeginArray();
        for (const std::string& name : added[victim]) writer.String(name);
        writer.EndArray();
        writer.EndArray();
        added.erase(added.begin() + static_cast<ptrdiff_t>(victim));
      }
      added.push_back(std::move(query));
    }
    writer.EndObject();
    request.line = writer.Take();
    plan.push_back(std::move(request));
  }
  return plan;
}

uint64_t FieldAsInt(const obs::JsonValue& value, const char* key) {
  const obs::JsonValue* field = value.Find(key);
  return (field != nullptr && field->is_number())
             ? static_cast<uint64_t>(field->number)
             : 0;
}

/// One synchronous request/response exchange on a dedicated connection
/// (nothing else is in flight, so the next newline is our response).
Result<std::string> SyncRequest(int fd, const std::string& line) {
  MC3_RETURN_IF_ERROR(SendLine(fd, line));
  std::string buffer;
  char chunk[4096];
  size_t newline;
  while ((newline = buffer.find('\n')) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return Status::IOError("connection closed mid-scrape");
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return buffer.substr(0, newline);
}

/// Fetches one `metrics` exposition; returns the raw text body and fills
/// `sample` with the series values (absent series read 0).
Result<std::string> ScrapeOnce(int fd, uint64_t id, double at_seconds,
                               ScrapeSample* sample) {
  auto line = SyncRequest(
      fd, "{\"op\":\"metrics\",\"id\":" + std::to_string(id) + "}");
  if (!line.ok()) return line.status();
  auto envelope = obs::ParseJson(*line);
  if (!envelope.ok() || !envelope->is_object()) {
    return Status::InvalidArgument("metrics response is not a JSON object");
  }
  const obs::JsonValue* code = envelope->Find("code");
  if (code == nullptr || !code->is_number() ||
      static_cast<int>(code->number) != 200) {
    return Status::InvalidArgument("metrics verb answered non-200");
  }
  const obs::JsonValue* body = envelope->Find("body");
  if (body == nullptr || !body->is_string()) {
    return Status::InvalidArgument("metrics response has no body");
  }
  auto parsed = obs::ParseExposition(body->string);
  if (!parsed.ok()) return parsed.status();
  sample->at_seconds = at_seconds;
  const auto value_of = [&parsed](const char* name) -> double {
    const obs::ParsedSample* found = obs::FindSample(*parsed, name);
    return found != nullptr ? found->value : 0;
  };
  sample->requests = value_of("mc3_server_requests_total");
  sample->responses = value_of("mc3_server_responses_total");
  sample->requests_update = value_of("mc3_server_requests_update_total");
  sample->requests_solve = value_of("mc3_server_requests_solve_total");
  sample->batches = value_of("mc3_server_batches_total");
  sample->queue_depth = value_of("mc3_server_queue_depth");
  return body->string;
}

/// End-of-run cross-check: the final exposition's per-verb request
/// counters must equal the client's sent counts (requests are counted at
/// parse, strictly before any response, so by the time every response has
/// arrived the counters are settled), and the server cannot have committed
/// more engine batches than the client saw acknowledged updates.
std::string ReconcileDrift(const ScrapeSample& last, const LoadReport& report) {
  const auto drift = [](const char* what, double got, uint64_t want) {
    return std::string(what) + ": server reports " +
           std::to_string(static_cast<uint64_t>(got)) + ", client counted " +
           std::to_string(want);
  };
  if (static_cast<uint64_t>(last.requests_update) !=
      report.client_updates_sent) {
    return drift("update requests", last.requests_update,
                 report.client_updates_sent);
  }
  if (static_cast<uint64_t>(last.requests_solve) !=
      report.client_solves_sent) {
    return drift("solve requests", last.requests_solve,
                 report.client_solves_sent);
  }
  if (static_cast<uint64_t>(last.batches) > report.client_updates_acked) {
    return drift("engine batches exceed acked updates", last.batches,
                 report.client_updates_acked);
  }
  return "";
}

}  // namespace

Result<LoadReport> RunLoadGen(const LoadGenOptions& options) {
  if (options.port == 0) {
    return Status::InvalidArgument("loadgen needs a target --port");
  }
  if (options.operations == 0 || options.connections == 0) {
    return Status::InvalidArgument(
        "loadgen needs operations > 0 and connections > 0");
  }
  LoadReport report;
  report.options = options;

  const std::vector<PlannedRequest> plan = PlanRequests(options);
  // send_time[id] stamps each request as it goes out; -1 = not sent yet.
  // Atomic because readers race the stamp: a response can only arrive after
  // its send, but the socket gives no happens-before edge the memory model
  // (or TSan) recognizes.
  std::vector<std::atomic<double>> send_time(options.operations + 3);
  for (auto& slot : send_time) slot.store(-1, std::memory_order_relaxed);
  // kinds[id] classifies each planned request for the read/write latency
  // split; the end-of-run stats/shutdown ids stay kOther.
  std::vector<ReqKind> kinds(options.operations + 3, ReqKind::kOther);
  for (const PlannedRequest& request : plan) {
    kinds[request.id] = request.solve ? ReqKind::kRead : ReqKind::kWrite;
  }
  Timer run_clock;

  // The scraper's dedicated connection opens first: a failure here returns
  // before any thread launches.
  int scrape_fd = -1;
  if (options.scrape_interval_seconds > 0) {
    auto fd = Connect(options.host, options.port, options.timeout_seconds);
    if (!fd.ok()) return fd.status();
    scrape_fd = *fd;
  }

  std::vector<std::unique_ptr<ConnState>> conns;
  for (size_t c = 0; c < options.connections; ++c) {
    auto fd = Connect(options.host, options.port, options.timeout_seconds);
    if (!fd.ok()) {
      if (scrape_fd >= 0) ::close(scrape_fd);
      return fd.status();
    }
    auto conn = std::make_unique<ConnState>();
    conn->fd = *fd;
    conns.push_back(std::move(conn));
  }
  for (auto& conn : conns) {
    ConnState* state = conn.get();
    state->reader = std::thread(
        [state, &run_clock, &send_time, &kinds] {
          ReaderLoop(state, &run_clock, &send_time, &kinds);
        });
  }

  // Scraper thread: samples the metrics exposition every interval, then
  // takes one settled final sample after the stop flag (set once every
  // response is in). State is scraper-owned and harvested after join.
  std::vector<ScrapeSample> scrapes;
  std::string final_exposition;
  std::atomic<bool> scrape_stop{false};
  std::thread scraper;
  if (scrape_fd >= 0) {
    scraper = std::thread([&options, &run_clock, &scrapes, &final_exposition,
                           &scrape_stop, scrape_fd] {
      uint64_t scrape_id = 1;
      const auto take = [&] {
        ScrapeSample sample;
        auto body = ScrapeOnce(scrape_fd, scrape_id++, run_clock.Seconds(),
                               &sample);
        if (body.ok()) {
          scrapes.push_back(sample);
          final_exposition = std::move(*body);
        }
      };
      while (!scrape_stop.load(std::memory_order_acquire)) {
        take();
        Timer slept;
        while (!scrape_stop.load(std::memory_order_acquire) &&
               slept.Seconds() < options.scrape_interval_seconds) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
      take();  // settled counters: every client response has arrived
    });
  }

  // Open-loop replay: sleep to each request's arrival time, stamp, send.
  Status send_status = Status::OK();
  for (const PlannedRequest& request : plan) {
    const double now = run_clock.Seconds();
    if (request.at > now) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(request.at - now));
    }
    ConnState& conn = *conns[request.conn];
    send_time[request.id].store(run_clock.Seconds(),
                                std::memory_order_release);
    send_status = SendLine(conn.fd, request.line);
    if (!send_status.ok()) break;
    ++conn.sent;
    ++report.sent;
    if (request.solve) {
      ++report.client_solves_sent;
    } else {
      ++report.client_updates_sent;
    }
  }

  // Wait for every in-flight response (each sent request gets exactly one).
  Timer waited;
  auto all_in = [&] {
    for (const auto& conn : conns) {
      if (conn->got.load(std::memory_order_acquire) < conn->sent) {
        return false;
      }
    }
    return true;
  };
  while (!all_in() && waited.Seconds() < options.timeout_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  report.wall_seconds = run_clock.Seconds();

  // Stop the scraper now: its final sample then sees settled counters
  // (every response has arrived, and the server counts requests before it
  // answers), and it is gone before a drain can 503 its connection.
  if (scraper.joinable()) {
    scrape_stop.store(true, std::memory_order_release);
    scraper.join();
  }
  if (scrape_fd >= 0) ::close(scrape_fd);

  // Scrape the server's stats (connection 0) so the report can attest
  // coalescing; then optionally request the drain.
  ConnState& front = *conns[0];
  const uint64_t stats_id = options.operations + 1;
  send_time[stats_id].store(run_clock.Seconds(), std::memory_order_release);
  if (Status sent = SendLine(front.fd, "{\"op\":\"stats\",\"id\":" +
                                           std::to_string(stats_id) + "}");
      sent.ok()) {
    ++front.sent;
    ++report.sent;
    Timer stats_wait;
    while (front.StatsJson().empty() && stats_wait.Seconds() < 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (options.shutdown_after) {
    const uint64_t shutdown_id = options.operations + 2;
    send_time[shutdown_id].store(run_clock.Seconds(),
                                 std::memory_order_release);
    if (Status sent =
            SendLine(front.fd, "{\"op\":\"shutdown\",\"id\":" +
                                   std::to_string(shutdown_id) + "}");
        sent.ok()) {
      ++front.sent;
      ++report.sent;
      Timer drain_wait;
      while (front.ShutdownJson().empty() && drain_wait.Seconds() < 10) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      report.drained = !front.ShutdownJson().empty();
    }
  }

  // Readers are unblocked by closing our end; they may first drain any
  // remaining buffered lines from the server.
  for (auto& conn : conns) ::shutdown(conn->fd, SHUT_WR);
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    ::close(conn->fd);
  }

  std::vector<double> latencies;
  std::vector<double> read_latencies;
  std::vector<double> write_latencies;
  for (const auto& conn : conns) {
    report.responses += conn->got.load(std::memory_order_acquire);
    report.ok += conn->ok;
    report.client_updates_acked += conn->ok_updates;
    report.rejected += conn->rejected;
    report.refused += conn->refused;
    report.errors += conn->errors;
    latencies.insert(latencies.end(), conn->latencies.begin(),
                     conn->latencies.end());
    read_latencies.insert(read_latencies.end(), conn->read_latencies.begin(),
                          conn->read_latencies.end());
    write_latencies.insert(write_latencies.end(),
                           conn->write_latencies.begin(),
                           conn->write_latencies.end());
  }
  if (options.scrape_interval_seconds > 0) {
    report.scrapes = std::move(scrapes);
    report.final_exposition = std::move(final_exposition);
    if (!report.scrapes.empty()) {
      report.reconcile.checked = true;
      report.reconcile.error = ReconcileDrift(report.scrapes.back(), report);
    }
  }
  report.lost =
      report.sent > report.responses ? report.sent - report.responses : 0;
  report.latency = Summarize(std::move(latencies));
  report.read_latency = Summarize(std::move(read_latencies));
  report.write_latency = Summarize(std::move(write_latencies));
  report.achieved_qps =
      report.wall_seconds > 0
          ? static_cast<double>(report.sent) / report.wall_seconds
          : 0;

  // Readers are joined: plain access is safe from here on.
  if (!front.stats_json.empty()) {
    if (auto stats = obs::ParseJson(front.stats_json); stats.ok()) {
      report.server_stats_valid = true;
      report.server_batches = FieldAsInt(*stats, "batches");
      report.server_coalesced_ops = FieldAsInt(*stats, "coalesced_ops");
      report.server_max_batch = FieldAsInt(*stats, "max_batch");
      report.server_requests = FieldAsInt(*stats, "requests");
      report.server_responses = FieldAsInt(*stats, "responses");
      report.server_rejected = FieldAsInt(*stats, "rejected");
    }
  }
  if (report.responses == 0) {
    return Status::IOError("no responses received from " + options.host +
                           ":" + std::to_string(options.port));
  }
  return report;
}

std::string RenderLoadReport(const LoadReport& report) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kLoadReportSchema);
  writer.Key("tool").String("mc3_loadgen");

  writer.Key("target").BeginObject();
  writer.Key("host").String(report.options.host);
  writer.Key("port").Int(report.options.port);
  writer.EndObject();

  writer.Key("run").BeginObject();
  writer.Key("qps").Number(report.options.qps);
  writer.Key("operations").Int(report.options.operations);
  writer.Key("connections").Int(report.options.connections);
  writer.Key("burst").Int(report.options.burst);
  writer.Key("solve_every").Int(report.options.solve_every);
  writer.Key("remove_every").Int(report.options.remove_every);
  writer.Key("seed").Int(report.options.seed);
  writer.Key("tenants").Int(report.options.tenants);
  if (report.options.read_ratio >= 0) {
    writer.Key("read_ratio").Number(report.options.read_ratio);
  }
  writer.Key("shutdown_after").Bool(report.options.shutdown_after);
  writer.EndObject();

  writer.Key("client").BeginObject();
  writer.Key("sent").Int(report.sent);
  writer.Key("responses").Int(report.responses);
  writer.Key("ok").Int(report.ok);
  writer.Key("rejected").Int(report.rejected);
  writer.Key("refused").Int(report.refused);
  writer.Key("errors").Int(report.errors);
  writer.Key("lost").Int(report.lost);
  writer.Key("wall_seconds").Number(report.wall_seconds);
  writer.Key("achieved_qps").Number(report.achieved_qps);
  const auto write_summary = [&writer](const char* key,
                                       const LatencySummary& summary) {
    writer.Key(key).BeginObject();
    writer.Key("count").Int(summary.count);
    writer.Key("mean").Number(summary.mean);
    writer.Key("p50").Number(summary.p50);
    writer.Key("p95").Number(summary.p95);
    writer.Key("p99").Number(summary.p99);
    writer.Key("max").Number(summary.max);
    writer.EndObject();
  };
  write_summary("latency_seconds", report.latency);
  // Mixed-mode split (additive, like the telemetry block): present exactly
  // when the run planned by read ratio.
  if (report.options.read_ratio >= 0) {
    write_summary("read_latency_seconds", report.read_latency);
    write_summary("write_latency_seconds", report.write_latency);
  }
  writer.EndObject();

  writer.Key("server").BeginObject();
  writer.Key("stats_valid").Bool(report.server_stats_valid);
  writer.Key("batches").Int(report.server_batches);
  writer.Key("coalesced_ops").Int(report.server_coalesced_ops);
  writer.Key("max_batch").Int(report.server_max_batch);
  writer.Key("requests").Int(report.server_requests);
  writer.Key("responses").Int(report.server_responses);
  writer.Key("rejected").Int(report.server_rejected);
  writer.EndObject();

  // Additive telemetry block (absent when the scraper did not run, so the
  // schema tag stays mc3.load_report/2).
  if (report.options.scrape_interval_seconds > 0) {
    writer.Key("telemetry").BeginObject();
    writer.Key("scrape_interval_seconds")
        .Number(report.options.scrape_interval_seconds);
    writer.Key("updates_sent").Int(report.client_updates_sent);
    writer.Key("solves_sent").Int(report.client_solves_sent);
    writer.Key("updates_acked").Int(report.client_updates_acked);
    writer.Key("scrapes").BeginArray();
    for (const ScrapeSample& sample : report.scrapes) {
      writer.BeginObject();
      writer.Key("at_seconds").Number(sample.at_seconds);
      writer.Key("requests").Number(sample.requests);
      writer.Key("responses").Number(sample.responses);
      writer.Key("requests_update").Number(sample.requests_update);
      writer.Key("requests_solve").Number(sample.requests_solve);
      writer.Key("batches").Number(sample.batches);
      writer.Key("queue_depth").Number(sample.queue_depth);
      writer.EndObject();
    }
    writer.EndArray();
    writer.Key("reconcile").BeginObject();
    writer.Key("checked").Bool(report.reconcile.checked);
    writer.Key("ok").Bool(report.reconcile.checked &&
                          report.reconcile.error.empty());
    writer.Key("error").String(report.reconcile.error);
    writer.EndObject();
    writer.EndObject();
  }

  writer.Key("drained").Bool(report.drained);
  writer.EndObject();
  return writer.Take();
}

namespace {

Status RequireMember(const obs::JsonValue& object, const char* key,
                     obs::JsonValue::Kind kind, const char* where) {
  const obs::JsonValue* member = object.Find(key);
  if (member == nullptr || member->kind != kind) {
    return Status::InvalidArgument(std::string("load report: ") + where +
                                   " needs member \"" + key + "\"");
  }
  return Status::OK();
}

}  // namespace

Status ValidateLoadReportJson(const std::string& json) {
  auto parsed = obs::ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const obs::JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("load report: document must be an object");
  }
  const obs::JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kLoadReportSchema) {
    return Status::InvalidArgument(
        std::string("load report: schema must be ") + kLoadReportSchema);
  }
  using Kind = obs::JsonValue::Kind;
  MC3_RETURN_IF_ERROR(RequireMember(root, "tool", Kind::kString, "root"));
  MC3_RETURN_IF_ERROR(RequireMember(root, "target", Kind::kObject, "root"));
  MC3_RETURN_IF_ERROR(RequireMember(root, "run", Kind::kObject, "root"));
  MC3_RETURN_IF_ERROR(RequireMember(root, "client", Kind::kObject, "root"));
  MC3_RETURN_IF_ERROR(RequireMember(root, "server", Kind::kObject, "root"));
  MC3_RETURN_IF_ERROR(RequireMember(root, "drained", Kind::kBool, "root"));
  const obs::JsonValue& target = *root.Find("target");
  MC3_RETURN_IF_ERROR(RequireMember(target, "host", Kind::kString, "target"));
  MC3_RETURN_IF_ERROR(RequireMember(target, "port", Kind::kNumber, "target"));
  const obs::JsonValue& run = *root.Find("run");
  for (const char* key :
       {"qps", "operations", "connections", "burst", "seed"}) {
    MC3_RETURN_IF_ERROR(RequireMember(run, key, Kind::kNumber, "run"));
  }
  const obs::JsonValue& client = *root.Find("client");
  for (const char* key : {"sent", "responses", "ok", "rejected", "refused",
                          "errors", "lost", "wall_seconds", "achieved_qps"}) {
    MC3_RETURN_IF_ERROR(RequireMember(client, key, Kind::kNumber, "client"));
  }
  MC3_RETURN_IF_ERROR(
      RequireMember(client, "latency_seconds", Kind::kObject, "client"));
  const obs::JsonValue& latency = *client.Find("latency_seconds");
  for (const char* key : {"count", "mean", "p50", "p95", "p99", "max"}) {
    MC3_RETURN_IF_ERROR(
        RequireMember(latency, key, Kind::kNumber, "latency_seconds"));
  }
  // Mixed-mode runs (run.read_ratio present) must carry the full per-verb
  // latency split; single-mode runs must not fake one half of it.
  if (run.Find("read_ratio") != nullptr) {
    MC3_RETURN_IF_ERROR(
        RequireMember(run, "read_ratio", Kind::kNumber, "run"));
    for (const char* block : {"read_latency_seconds",
                              "write_latency_seconds"}) {
      MC3_RETURN_IF_ERROR(RequireMember(client, block, Kind::kObject,
                                        "client"));
      const obs::JsonValue& split = *client.Find(block);
      for (const char* key : {"count", "mean", "p50", "p95", "p99", "max"}) {
        MC3_RETURN_IF_ERROR(RequireMember(split, key, Kind::kNumber, block));
      }
    }
  }
  const obs::JsonValue& server = *root.Find("server");
  MC3_RETURN_IF_ERROR(
      RequireMember(server, "stats_valid", Kind::kBool, "server"));
  for (const char* key : {"batches", "coalesced_ops", "max_batch", "requests",
                          "responses", "rejected"}) {
    MC3_RETURN_IF_ERROR(RequireMember(server, key, Kind::kNumber, "server"));
  }
  // The telemetry block is optional (scraper runs only), but when present
  // it must be structurally complete.
  if (const obs::JsonValue* telemetry = root.Find("telemetry");
      telemetry != nullptr) {
    if (!telemetry->is_object()) {
      return Status::InvalidArgument(
          "load report: telemetry must be an object");
    }
    for (const char* key : {"scrape_interval_seconds", "updates_sent",
                            "solves_sent", "updates_acked"}) {
      MC3_RETURN_IF_ERROR(
          RequireMember(*telemetry, key, Kind::kNumber, "telemetry"));
    }
    MC3_RETURN_IF_ERROR(
        RequireMember(*telemetry, "scrapes", Kind::kArray, "telemetry"));
    for (const obs::JsonValue& entry : telemetry->Find("scrapes")->array) {
      if (!entry.is_object()) {
        return Status::InvalidArgument(
            "load report: telemetry.scrapes entries must be objects");
      }
      for (const char* key :
           {"at_seconds", "requests", "responses", "requests_update",
            "requests_solve", "batches", "queue_depth"}) {
        MC3_RETURN_IF_ERROR(
            RequireMember(entry, key, Kind::kNumber, "telemetry.scrapes"));
      }
    }
    MC3_RETURN_IF_ERROR(
        RequireMember(*telemetry, "reconcile", Kind::kObject, "telemetry"));
    const obs::JsonValue& reconcile = *telemetry->Find("reconcile");
    MC3_RETURN_IF_ERROR(
        RequireMember(reconcile, "checked", Kind::kBool, "reconcile"));
    MC3_RETURN_IF_ERROR(
        RequireMember(reconcile, "ok", Kind::kBool, "reconcile"));
    MC3_RETURN_IF_ERROR(
        RequireMember(reconcile, "error", Kind::kString, "reconcile"));
  }
  return Status::OK();
}

}  // namespace mc3::loadgen
