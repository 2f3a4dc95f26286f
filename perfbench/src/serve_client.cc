#include "serve_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "data/io.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "serve_gen.h"
#include "serve_replay.h"
#include "server/protocol.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr double kRequestTimeoutS = 60;
/// Mean pause between an ack and a writer's next request. Without it the
/// two writers phase-lock by a microsecond race at the engine queue: either
/// both requests ride every batch or they alternate, and a run lands in one
/// mode or the other (update p50 13.8 ms against 25 ms at one seed on a
/// 4-CPU host). A random millisecond decorrelates them on every run.
constexpr double kWriterThinkS = 0.001;
/// Poisson rate of the reader's `solve` requests, and the schedule's
/// horizon (the measured phase ends long before).
constexpr double kReadRate = 200;
constexpr double kReadHorizonS = 600;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Parses a response line and checks it is a 200 for `op`.
mc3::Result<mc3::obs::JsonValue> ParseOk(const std::string& line,
                                          const std::string& op) {
  auto value = mc3::obs::ParseJson(line);
  if (!value.ok()) return value.status();
  const mc3::obs::JsonValue* code = value->Find("code");
  const mc3::obs::JsonValue* got_op = value->Find("op");
  if (code == nullptr || !code->is_number() || code->number != 200 ||
      got_op == nullptr || got_op->string != op) {
    return mc3::Status::Internal("unexpected response to " + op + ": " +
                                 line.substr(0, 200));
  }
  return value;
}

/// What one closed-loop writer saw. A writer stops at its first failure.
struct WriterLog {
  std::vector<double> latency;  ///< send to ack of each acked request, seconds
  uint64_t ops = 0;             ///< adds + removes in acked requests
  std::string error;
};

/// A writer's request lines with the adds plus removes each carries.
struct WriterScript {
  std::vector<std::string> lines;
  std::vector<uint64_t> ops;
};

mc3::Result<WriterScript> LoadScript(const std::string& path) {
  auto lines = ReadLines(path);
  if (!lines.ok()) return lines.status();
  WriterScript script;
  for (const std::string& line : *lines) {
    auto request = mc3::server::ParseRequest(line);
    if (!request.ok()) return request.status();
    script.ops.push_back(request->add.size() + request->remove.size());
  }
  script.lines = std::move(*lines);
  return script;
}

/// Sends script lines [begin, end) closed-loop: each one after the previous
/// ack plus a seeded exponential pause of mean `think_s` (0 for none).
void RunWriter(LineSocket& socket, const WriterScript& script, size_t begin,
               size_t end, double think_s, uint64_t seed, WriterLog* log) {
  mc3::Rng rng(seed);
  for (size_t i = begin; i < end; ++i) {
    if (think_s > 0) {
      SleepUntil(Now() - think_s * std::log1p(-rng.UniformDouble()));
    }
    const double started = Now();
    if (mc3::Status status = socket.Send(script.lines[i]); !status.ok()) {
      log->error = status.ToString();
      return;
    }
    auto line = socket.Receive(kRequestTimeoutS);
    if (!line.ok()) {
      log->error = line.status().ToString();
      return;
    }
    const double acked = Now();
    if (auto ok = ParseOk(*line, "update"); !ok.ok()) {
      log->error = ok.status().ToString();
      return;
    }
    log->latency.push_back(acked - started);
    log->ops += script.ops[i];
  }
}

/// Sends one control request and returns its parsed 200 response.
mc3::Result<mc3::obs::JsonValue> Control(LineSocket& socket, uint64_t id,
                                         const std::string& op,
                                         const std::string& extra = "") {
  MC3_RETURN_IF_ERROR(socket.Send("{\"op\":\"" + op + "\",\"id\":" +
                                  std::to_string(id) + extra + "}"));
  auto line = socket.Receive(kRequestTimeoutS);
  if (!line.ok()) return line.status();
  return ParseOk(*line, op);
}

/// Renders the `solve` response's plan canonically, pricing each
/// classifier from the catalog.
mc3::Result<std::string> ServedPlan(const mc3::obs::JsonValue& response,
                                    const mc3::Instance& catalog) {
  const mc3::obs::JsonValue* solution = response.Find("solution");
  if (solution == nullptr || !solution->is_array()) {
    return mc3::Status::Internal("solve response carries no solution");
  }
  std::unordered_map<std::string, mc3::PropertyId> ids;
  const std::vector<std::string>& names = catalog.property_names();
  for (size_t i = 0; i < names.size(); ++i) {
    ids.emplace(names[i], static_cast<mc3::PropertyId>(i));
  }
  PlanRows rows;
  for (const mc3::obs::JsonValue& classifier : solution->array) {
    std::vector<std::string> row;
    std::vector<mc3::PropertyId> props;
    for (const mc3::obs::JsonValue& name : classifier.array) {
      auto it = ids.find(name.string);
      if (it == ids.end()) {
        return mc3::Status::Internal("served plan names unknown property " +
                                     name.string);
      }
      row.push_back(name.string);
      props.push_back(it->second);
    }
    rows.emplace_back(std::move(row),
                      catalog.CostOf(mc3::PropertySet::FromUnsorted(props)));
  }
  return CanonicalPlan(std::move(rows));
}

/// One `metrics` scrape, parsed.
mc3::Result<std::vector<mc3::obs::ParsedSample>> ScrapeMetrics(
    LineSocket& control, uint64_t id) {
  auto response = Control(control, id, "metrics");
  if (!response.ok()) return response.status();
  // The verb carries the Prometheus exposition text in "body".
  const mc3::obs::JsonValue* body = response->Find("body");
  if (body == nullptr || !body->is_string()) {
    return mc3::Status::Internal("metrics response has no body");
  }
  return mc3::obs::ParseExposition(body->string);
}

/// Value of an unlabeled counter in a scrape; 0 when absent.
double CounterValue(const std::vector<mc3::obs::ParsedSample>& samples,
                    const std::string& name) {
  const mc3::obs::ParsedSample* found = mc3::obs::FindSample(samples, name);
  return found != nullptr ? found->value : 0;
}

}  // namespace

LineSocket::~LineSocket() {
  if (fd_ >= 0) close(fd_);
}

mc3::Result<std::unique_ptr<LineSocket>> LineSocket::Connect(
    const std::string& host, int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return mc3::Status::IOError(Errno("socket"));
  auto out = std::make_unique<LineSocket>(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return mc3::Status::InvalidArgument("bad host " + host);
  }
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return mc3::Status::IOError(Errno("connect"));
  }
  // Client-side only: the server's accepted sockets keep their defaults,
  // so any Nagle hold on responses stays visible in the read latencies.
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return out;
}

mc3::Status LineSocket::Send(const std::string& line) {
  std::string framed = line + "\n";
  size_t at = 0;
  while (at < framed.size()) {
    const ssize_t n = send(fd_, framed.data() + at, framed.size() - at,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return mc3::Status::IOError(Errno("send"));
    }
    at += static_cast<size_t>(n);
  }
  return mc3::Status::OK();
}

mc3::Result<std::optional<std::string>> LineSocket::TryReceive(double wait_s) {
  const double deadline = Now() + wait_s;
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return std::optional<std::string>(std::move(line));
    }
    const double left = deadline - Now();
    if (left <= 0) return std::optional<std::string>();
    pollfd p{fd_, POLLIN, 0};
    const int ready = poll(&p, 1, static_cast<int>(std::ceil(left * 1e3)));
    if (ready < 0 && errno != EINTR) return mc3::Status::IOError(Errno("poll"));
    if (ready <= 0) continue;
    char chunk[65536];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return mc3::Status::IOError("connection closed");
    if (n < 0) {
      if (errno == EINTR) continue;
      return mc3::Status::IOError(Errno("recv"));
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

mc3::Result<std::string> LineSocket::Receive(double timeout_s) {
  auto line = TryReceive(timeout_s);
  if (!line.ok()) return line.status();
  if (!line->has_value()) return mc3::Status::IOError("response timed out");
  return std::move(**line);
}

OpenLoopTrace RunOpenLoop(LineSocket& socket, const std::vector<double>& due,
                          double start,
                          const std::vector<std::string>& requests,
                          const std::atomic<bool>& stop, double timeout_s) {
  OpenLoopTrace trace;
  const size_t total = std::min(due.size(), requests.size());
  // The sender owns due/sent until it is joined; the receiver only needs
  // the count in flight, published before each send so the receiver is
  // already waiting in poll() when the response lands.
  std::vector<double> sent_at(total);
  std::atomic<size_t> sent_count{0};
  std::atomic<bool> sender_done{false};
  std::string sender_error;
  std::thread sender([&] {
    for (size_t i = 0; i < total; ++i) {
      SleepUntil(start + due[i]);
      if (stop.load(std::memory_order_acquire)) break;
      sent_at[i] = Now();
      sent_count.store(i + 1, std::memory_order_release);
      if (mc3::Status status = socket.Send(requests[i]); !status.ok()) {
        sender_error = status.ToString();
        sent_count.store(i, std::memory_order_release);
        break;
      }
    }
    sender_done.store(true, std::memory_order_release);
  });
  // Receiver on this thread: responses on one connection arrive in order.
  double waiting_since = Now();
  while (true) {
    const bool done = sender_done.load(std::memory_order_acquire);
    if (done && trace.done.size() == sent_count.load(std::memory_order_acquire)) {
      break;
    }
    auto line = socket.TryReceive(0.05);
    if (!line.ok()) {
      trace.error = line.status().ToString();
      break;
    }
    if (!line->has_value()) {
      const bool idle = trace.done.size() == sent_count.load(std::memory_order_acquire);
      if (idle) {
        waiting_since = Now();
      } else if (Now() - waiting_since > timeout_s) {
        trace.error = "response timed out";
        break;
      }
      continue;
    }
    trace.done.push_back(Now());
    trace.responses.push_back(std::move(**line));
    waiting_since = Now();
  }
  sender.join();
  if (trace.error.empty()) trace.error = sender_error;
  // Keep the arrays parallel: drop requests whose response never came.
  const size_t answered = trace.done.size();
  for (size_t i = 0; i < answered; ++i) {
    trace.due.push_back(start + due[i]);
    trace.sent.push_back(sent_at[i]);
  }
  return trace;
}

std::map<double, double> HistogramBuckets(
    const std::vector<mc3::obs::ParsedSample>& samples,
    const std::string& name) {
  std::map<double, double> buckets;
  const std::string series = name + "_bucket";
  for (const mc3::obs::ParsedSample& sample : samples) {
    if (sample.name != series) continue;
    auto le = sample.labels.find("le");
    if (le == sample.labels.end() || le->second == "+Inf") continue;
    buckets[std::stod(le->second)] = sample.value;
  }
  return buckets;
}

double PercentileBetween(const std::map<double, double>& before,
                         const std::map<double, double>& after, double q) {
  const auto count_at = [](const std::map<double, double>& buckets,
                           double upper) {
    auto it = buckets.find(upper);
    return it == buckets.end() ? 0.0 : it->second;
  };
  if (after.empty()) return 0;
  const double total =
      after.rbegin()->second - count_at(before, after.rbegin()->first);
  if (total <= 0) return 0;
  const double rank = q * total;
  double lower_bound = 0;
  double below = 0;
  for (const auto& [upper, count] : after) {
    const double cumulative = count - count_at(before, upper);
    if (cumulative >= rank && cumulative > below) {
      return lower_bound +
             (rank - below) / (cumulative - below) * (upper - lower_bound);
    }
    lower_bound = upper;
    below = cumulative;
  }
  return after.rbegin()->first;
}

RunResult RunServeClient(const ServeClientOptions& options) {
  RunResult out;
  const std::string& dir = options.workload_dir;
  WriterScript warmup[2];
  WriterScript measured[2];
  for (int w = 0; w < 2; ++w) {
    const std::string prefix = dir + "/writer-" + std::to_string(w);
    auto warm = LoadScript(prefix + "-warmup.jsonl");
    auto main = LoadScript(prefix + ".jsonl");
    if (!warm.ok() || !main.ok()) {
      out.Fail("cannot read the request files in " + dir);
      return out;
    }
    warmup[w] = std::move(*warm);
    measured[w] = std::move(*main);
  }
  auto catalog = mc3::data::LoadInstance(dir + "/catalog.csv");
  if (!catalog.ok()) {
    out.Fail(catalog.status().ToString());
    return out;
  }

  std::unique_ptr<LineSocket> sockets[4];
  for (auto& socket : sockets) {
    auto connected = LineSocket::Connect(options.host, options.port);
    if (!connected.ok()) {
      out.Fail(connected.status().ToString());
      return out;
    }
    socket = std::move(*connected);
  }
  LineSocket& control = *sockets[3];
  uint64_t control_id = 4 * kIdStride;

  // Checkpoint before any update, so the snapshot is the catalog as loaded
  // and the WAL tail is the whole fixed request sequence on every run.
  // (A checkpoint taken once queries are retired is not reproduced by
  // `mc3 recover`: see "Known effects" in README.md.)
  ++out.attempted;
  if (auto checkpoint = Control(control, control_id++, "checkpoint");
      !checkpoint.ok()) {
    out.Fail("checkpoint: " + checkpoint.status().ToString());
    return out;
  }

  // Warm-up (unmeasured): retire 10% of the catalog.
  {
    WriterLog logs[2];
    std::thread writers[2];
    for (int w = 0; w < 2; ++w) {
      writers[w] = std::thread(RunWriter, std::ref(*sockets[w]),
                               std::cref(warmup[w]), 0, warmup[w].lines.size(),
                               0.0, 0, &logs[w]);
    }
    for (int w = 0; w < 2; ++w) {
      writers[w].join();
      out.attempted += warmup[w].lines.size();
      if (!logs[w].error.empty()) {
        out.Fail("warm-up writer " + std::to_string(w) + ": " + logs[w].error);
        return out;
      }
    }
  }

  // Measured phase. The reader runs from the first measured write to the
  // last ack.
  const std::vector<double> due =
      PoissonSchedule(options.seed * 7 + 3, kReadRate, kReadHorizonS);
  std::vector<std::string> reads;
  reads.reserve(due.size());
  for (size_t i = 0; i < due.size(); ++i) {
    reads.push_back("{\"op\":\"solve\",\"id\":" +
                    std::to_string(3 * kIdStride + i) + "}");
  }
  // Stage histograms and batch counters at the start, so the traced
  // figures cover the measured phase alone.
  std::vector<mc3::obs::ParsedSample> scrape_before;
  if (options.scrape_stages) {
    ++out.attempted;
    auto scraped = ScrapeMetrics(control, control_id++);
    if (!scraped.ok()) {
      out.Fail("metrics scrape failed: " + scraped.status().ToString());
    } else {
      scrape_before = std::move(*scraped);
    }
  }
  std::atomic<bool> stop_reads{false};
  OpenLoopTrace read_trace;
  auto cpu_start = PidCpuSeconds(options.server_pid);
  const double start = Now();
  std::thread reader([&] {
    read_trace = RunOpenLoop(*sockets[2], due, start, reads, stop_reads,
                             kRequestTimeoutS);
  });
  WriterLog logs[2];
  {
    std::thread writers[2];
    for (int w = 0; w < 2; ++w) {
      writers[w] = std::thread(RunWriter, std::ref(*sockets[w]),
                               std::cref(measured[w]), 0, measured[w].lines.size(),
                               kWriterThinkS,
                               options.seed * 16 + static_cast<uint64_t>(w), &logs[w]);
    }
    for (auto& writer : writers) writer.join();
  }
  const double end = Now();
  auto cpu_end = PidCpuSeconds(options.server_pid);
  stop_reads.store(true, std::memory_order_release);
  reader.join();

  std::vector<double> update_ms;
  uint64_t ops = 0;
  for (int w = 0; w < 2; ++w) {
    out.attempted += measured[w].lines.size();
    if (!logs[w].error.empty()) {
      // The failed request and every one the writer never sent.
      out.Fail("writer " + std::to_string(w) + ": " + logs[w].error,
               measured[w].lines.size() - logs[w].latency.size());
    }
    for (double s : logs[w].latency) update_ms.push_back(1e3 * s);
    ops += logs[w].ops;
  }
  out.attempted += read_trace.done.size();
  if (!read_trace.error.empty()) out.Fail("reader: " + read_trace.error);
  for (const std::string& response : read_trace.responses) {
    if (auto ok = ParseOk(response, "solve"); !ok.ok()) {
      out.Fail(ok.status().ToString());
    }
  }
  std::vector<double> read_ms;
  for (double s : LatenciesFromDue(read_trace.due, read_trace.done)) {
    read_ms.push_back(1e3 * s);
  }
  double late_max = 0;
  for (size_t i = 0; i < read_trace.sent.size(); ++i) {
    late_max = std::max(late_max, read_trace.sent[i] - read_trace.due[i]);
  }

  const double measured_s = end - start;
  out.samples["update_ms"] = update_ms;
  out.samples["read_ms"] = read_ms;
  out.Set("update_p50_ms", Median(update_ms), "ms");
  if (cpu_start.ok() && cpu_end.ok() && ops > 0) {
    out.Set("cpu_ms_per_op",
            1e3 * (*cpu_end - *cpu_start) / static_cast<double>(ops),
            "ms");
  }
  out.notes["measured_s"] = measured_s;
  out.notes["committed_ops"] = static_cast<double>(ops);
  out.notes["updates"] = static_cast<double>(update_ms.size());
  out.notes["reads"] = static_cast<double>(read_ms.size());
  out.notes["reader_late_max_ms"] = 1e3 * late_max;

  if (options.scrape_stages) {
    ++out.attempted;
    auto scrape_after = ScrapeMetrics(control, control_id++);
    if (!scrape_after.ok()) {
      out.Fail("metrics scrape failed: " + scrape_after.status().ToString());
    } else {
      const auto stage = [&](const std::string& series, const std::string& name) {
        const std::map<double, double> before = HistogramBuckets(scrape_before, series);
        const std::map<double, double> after = HistogramBuckets(*scrape_after, series);
        out.Set(name + "_p50_ms", 1e3 * PercentileBetween(before, after, 0.5), "ms");
        out.Set(name + "_p99_ms", 1e3 * PercentileBetween(before, after, 0.99), "ms");
      };
      for (const char* name :
           {"queue_wait", "coalesce", "shard_apply", "wal_durable", "serialize"}) {
        stage(std::string("mc3_server_stage_") + name + "_update",
              std::string("server.stage.") + name);
      }
      stage("mc3_server_read_acquire_solve", "server.read.acquire");
      stage("mc3_server_read_render_solve", "server.read.render");
      stage("mc3_server_stage_serialize_solve", "server.read.serialize");
      const auto delta = [&](const char* counter) {
        return CounterValue(*scrape_after, counter) -
               CounterValue(scrape_before, counter);
      };
      const double batches = delta("mc3_server_batches_total");
      out.Set("server.batch_ops",
              batches > 0 ? delta("mc3_server_coalesced_ops_total") / batches : 0,
              "count");
      const double server_read_p50 =
          out.metrics["server.read.acquire_p50_ms"].value +
          out.metrics["server.read.render_p50_ms"].value +
          out.metrics["server.read.serialize_p50_ms"].value;
      out.Set("net.read_hold_ms", Median(read_ms) - server_read_p50, "ms");
    }
  }

  ++out.attempted;
  auto final_plan = Control(control, control_id++, "solve", ",\"solution\":true");
  if (!final_plan.ok()) {
    out.Fail("final solve: " + final_plan.status().ToString());
  } else {
    const mc3::obs::JsonValue* cost = final_plan->Find("cost");
    out.Set("plan_cost", cost != nullptr ? cost->number : 0, "cost");
    auto plan = ServedPlan(*final_plan, *catalog);
    if (!plan.ok()) {
      out.Fail(plan.status().ToString());
    } else if (mc3::Status status = WriteFile(dir + "/served-plan.txt", *plan);
               !status.ok()) {
      out.Fail(status.ToString());
    }
  }
  ++out.attempted;
  if (auto shutdown = Control(control, control_id++, "shutdown"); !shutdown.ok()) {
    out.Fail("shutdown: " + shutdown.status().ToString());
  }
  return out;
}

}  // namespace perfbench
