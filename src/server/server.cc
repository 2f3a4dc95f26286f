#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "online/update_trace.h"
#include "server/coalescer.h"
#include "util/build_info.h"

namespace mc3::server {
namespace {

/// Largest accepted request line; longer input is a protocol violation.
constexpr size_t kMaxLineBytes = 1 << 20;

void CountEndpoint(const char* which, Request::Op op) {
  obs::MetricsRegistry::Global()
      .GetCounter(std::string("server.") + which + "." + OpName(op))
      .Add();
}

/// The trace ids a request's spans carry: its own when it is sampled.
std::vector<uint64_t> SampledIds(uint64_t trace_id, bool sampled) {
  return sampled ? std::vector<uint64_t>{trace_id} : std::vector<uint64_t>{};
}

using PieceEntry = online::SolutionPiece::value_type;

/// Merges the view's pieces into the sequence of
/// OnlineEngine::CurrentSolution().Sorted(): components share no property,
/// so no classifier is in two pieces and a sort by classifier suffices. It
/// points into the pinned pieces instead of copying them; each entry keeps
/// the price captured at publish time, so renders never consult a cost
/// table.
std::vector<const PieceEntry*> MergeViewClassifiers(
    const online::EngineReadView& view) {
  std::vector<const PieceEntry*> merged;
  merged.reserve(view.num_classifiers);
  for (const auto& piece : view.pieces) {
    for (const PieceEntry& entry : *piece) merged.push_back(&entry);
  }
  std::sort(merged.begin(), merged.end(),
            [](const PieceEntry* a, const PieceEntry* b) {
              return a->first < b->first;
            });
  return merged;
}

}  // namespace

Admission AdmitAt(size_t depth, size_t watermark, double base_retry_ms) {
  Admission admission;
  if (watermark == 0 || depth < watermark) return admission;
  admission.accept = false;
  // Back off harder the deeper the overload: 1x the base at the watermark,
  // growing linearly with the excess depth.
  admission.retry_after_ms =
      base_retry_ms *
      (1.0 + static_cast<double>(depth - watermark + 1) /
                 static_cast<double>(watermark));
  return admission;
}

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity),
      engine_(options_.engine),
      telemetry_({options_.trace_sample, options_.trace_out_dir}) {
  if (options_.admission_watermark == 0) {
    options_.admission_watermark =
        std::max<size_t>(1, options_.queue_capacity * 3 / 4);
  }
  options_.admission_watermark =
      std::min(options_.admission_watermark, options_.queue_capacity);
}

Server::~Server() {
  if (started_.load(std::memory_order_acquire) &&
      !stopped_.load(std::memory_order_acquire)) {
    RequestDrain();
    Join();
  }
}

Status Server::Start(const Instance& base) {
  if (started_.exchange(true)) {
    return Status::Internal("server already started");
  }
  uptime_.Reset();
  // Route WAL durability notifications into the telemetry layer so the
  // wal_durable stage of traced requests gets its committer-side timestamp.
  // kNone never advances durable_seq, so nothing would resolve the entries.
  if (!options_.durability.data_dir.empty() &&
      options_.durability.wal.sync !=
          durability::WalOptions::SyncPolicy::kNone) {
    options_.durability.wal.on_durable = [this](uint64_t durable_seq) {
      telemetry_.OnWalDurable(durable_seq);
    };
  }
  {
    // No worker exists yet, but the initialization below writes the
    // engine_mu_-guarded state, so hold the (uncontended) lock for the
    // thread-safety analysis.
    util::MutexLock lock(engine_mu_);
    if (!options_.durability.data_dir.empty()) {
      auto manager = durability::DurabilityManager::Open(options_.durability);
      if (!manager.ok()) return manager.status();
      durability_ = std::move(*manager);
      auto recovered =
          durability_->Recover(base, options_.default_cost, &engine_);
      if (!recovered.ok()) return recovered.status();
      MC3_RETURN_IF_ERROR(engine_.CheckInvariants());
    } else {
      auto init = engine_.Initialize(base);
      if (!init.ok()) return init.status();
    }
    // The recovered state may know properties the base workload does not
    // (interned from WAL-logged updates): the name table comes from the
    // engine, not the base. The interner shares it.
    MC3_RETURN_IF_ERROR(interner_.Load(engine_.shared_property_names()));
    // Publish the initial (post-init / post-recovery) root before any
    // socket exists: every connection ever accepted finds a live one.
    PublishReadRoot();
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  auto fail = [this](const char* what) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string(what) + ": " + std::strerror(errno));
  };
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("cannot parse listen host " +
                                   options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return fail("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  if (::pipe(wake_pipe_) != 0) return fail("pipe");

  pool_ = std::make_unique<WorkerPool>(
      std::max<size_t>(1, options_.connection_workers));
  if (options_.engine_thread) {
    engine_thread_ = std::thread([this] { EngineWorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::RequestDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  queue_.Close();
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    // Best-effort wake of the acceptor's poll; Join also closes the socket.
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
  {
    util::MutexLock lock(drain_mu_);
  }
  drain_cv_.NotifyAll();
}

void Server::Join() {
  {
    util::MutexLock lock(drain_mu_);
    drain_cv_.Wait(drain_mu_, [this] {
      return draining_.load(std::memory_order_acquire);
    });
  }
  if (stopped_.exchange(true)) return;
  if (acceptor_.joinable()) acceptor_.join();
  if (engine_thread_.joinable()) {
    engine_thread_.join();
  } else {
    ProcessQueuedNow();
  }
  // Unblock connection readers so their pool tasks finish; everything
  // queued has already been answered (the queue drained above).
  {
    util::MutexLock lock(conns_mu_);
    for (const std::weak_ptr<Connection>& weak : conns_) {
      if (std::shared_ptr<Connection> conn = weak.lock()) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  if (pool_ != nullptr) pool_->Shutdown();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  // The engine thread is gone: nothing appends anymore. Make the tail
  // durable and release the data directory. The lock is uncontended (every
  // thread is joined) but the analysis wants it for the guarded manager.
  util::MutexLock lock(engine_mu_);
  if (durability_ != nullptr) {
    const Status closed = durability_->Close();
    if (!closed.ok()) wal_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  // Durability is closed (the final group commit has fired on_durable), so
  // every span that will ever exist is in the trace: export the file.
  const Status trace_written = telemetry_.WriteTraceFile(port_);
  if (!trace_written.ok()) {
    obs::MetricsRegistry::Global()
        .GetCounter("server.trace_write_errors")
        .Add();
  }
}

void Server::AcceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & (POLLIN | POLLHUP)) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Each response is one complete write: send it at once rather than let
    // Nagle hold it while the client has another request in flight.
    const int nodelay = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                       sizeof(nodelay));
    connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      util::MutexLock lock(conns_mu_);
      conns_.push_back(conn);
    }
    (void)pool_->Post([this, conn] { ConnectionLoop(conn); });
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::ConnectionLoop(const std::shared_ptr<Connection>& conn) {
  telemetry_.NameThread("conn");
  // One reader slot per connection (mutex-protected registration); each
  // read on this connection then pins an epoch lock-free (ReadGuard).
  concurrency::ReaderRegistration reader(epochs_);
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    size_t newline;
    while ((newline = buffer.find('\n', start)) != std::string::npos) {
      std::string line = buffer.substr(start, newline - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      start = newline + 1;
      if (!line.empty()) HandleLine(conn, line, reader);
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      malformed_.fetch_add(1, std::memory_order_relaxed);
      WriteResponse(conn, RenderErrorResponse(0, Request::Op::kHealth, 400,
                                              "request line too long"));
      break;
    }
  }
}

void Server::HandleLine(const std::shared_ptr<Connection>& conn,
                        const std::string& line,
                        concurrency::ReaderRegistration& reader) {
  Timer latency;  // also the start of the parse span
  auto parsed = ParseRequest(line);
  if (!parsed.ok()) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    WriteResponse(conn, RenderErrorResponse(0, Request::Op::kHealth, 400,
                                            parsed.status().message()));
    return;
  }
  Request request = std::move(*parsed);
  requests_.fetch_add(1, std::memory_order_relaxed);
  CountEndpoint("requests", request.op);
  const TraceAssignment trace = telemetry_.Assign();

  switch (request.op) {
    case Request::Op::kHealth:
      WriteResponse(conn, RenderHealth(request));
      ObserveLatency(request, latency.Seconds());
      return;
    case Request::Op::kStats:
      WriteResponse(conn, RenderStats(request, reader));
      ObserveLatency(request, latency.Seconds());
      return;
    case Request::Op::kShutdown: {
      obs::JsonWriter writer(/*compact=*/true);
      writer.BeginObject();
      writer.Key("id").Int(request.id);
      writer.Key("op").String("shutdown");
      writer.Key("code").Int(200);
      writer.Key("draining").Bool(true);
      writer.EndObject();
      WriteResponse(conn, writer.Take());
      ObserveLatency(request, latency.Seconds());
      RequestDrain();
      return;
    }
    case Request::Op::kWalStats:
      WriteResponse(conn, RenderWalStats(request));
      ObserveLatency(request, latency.Seconds());
      return;
    case Request::Op::kMetrics:
      WriteResponse(conn, RenderMetrics(request));
      ObserveLatency(request, latency.Seconds());
      return;
    case Request::Op::kSolve:
    case Request::Op::kUpdate:
    case Request::Op::kSnapshot:
    case Request::Op::kCheckpoint:
      break;
  }

  // Every engine op, read or mutation, is refused once the drain began.
  if (draining_.load(std::memory_order_acquire)) {
    refused_draining_.fetch_add(1, std::memory_order_relaxed);
    WriteResponse(conn, RenderErrorResponse(request.id, request.op, 503,
                                            "server is draining"));
    return;
  }
  // Read-only verbs never queue: they render from the epoch-protected
  // published views right here, on the connection worker thread — no
  // admission control, no engine mutex, no 429s
  // (docs/serving.md#lock-free-reads).
  if (request.op == Request::Op::kSolve ||
      request.op == Request::Op::kSnapshot) {
    if (trace.sampled) {
      telemetry_.RecordSpan("parse", latency.start(), Clock::now(),
                            {trace.trace_id});
    }
    HandleLockFreeRead(conn, request, trace, latency, reader);
    return;
  }
  // Mutations pass admission control and enter the bounded queue.
  const size_t depth = queue_.Depth();
  const Admission admission =
      AdmitAt(depth, options_.admission_watermark, options_.base_retry_ms);
  if (!admission.accept) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::Global().GetCounter("server.rejected").Add();
    WriteResponse(conn,
                  RenderErrorResponse(request.id, request.op, 429,
                                      "queue depth " + std::to_string(depth) +
                                          " at admission watermark",
                                      admission.retry_after_ms));
    return;
  }
  PendingRequest pending;
  pending.request = std::move(request);
  pending.conn = conn;
  pending.trace_id = trace.trace_id;
  pending.sampled = trace.sampled;
  const Request::Op op = pending.request.op;
  const uint64_t id = pending.request.id;
  if (!queue_.TryPush(std::move(pending))) {
    if (queue_.closed()) {
      refused_draining_.fetch_add(1, std::memory_order_relaxed);
      WriteResponse(conn, RenderErrorResponse(id, op, 503,
                                              "server is draining"));
    } else {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::Global().GetCounter("server.rejected").Add();
      WriteResponse(conn, RenderErrorResponse(
                              id, op, 429, "queue is at hard capacity",
                              options_.base_retry_ms * 2));
    }
    return;
  }
  obs::MetricsRegistry::Global()
      .GetGauge("server.queue_depth")
      .Set(static_cast<double>(queue_.Depth()));
  if (trace.sampled) {
    telemetry_.RecordSpan("parse", latency.start(), Clock::now(),
                          {trace.trace_id});
  }
}

void Server::EngineWorkerLoop() {
  telemetry_.NameThread("engine-worker");
  while (ProcessNext(/*drain_only=*/false)) {
  }
}

Result<online::UpdateStats> Server::ApplyEngineUpdate(
    const std::vector<PropertySet>& add,
    const std::vector<PropertySet>& remove,
    const std::vector<uint64_t>& trace_ids, bool count) {
  StageScope stage(telemetry_, Stage::kShardApply, Request::Op::kUpdate,
                   trace_ids);
  // A sampled batch's engine spans nest under its shard_apply span.
  obs::ScopedSpanAdoption adopt(stage.context());
  Result<online::UpdateStats> applied = engine_.ApplyUpdate(add, remove);
  stage.Close(count && applied.ok());
  return applied;
}

void Server::ProcessQueuedNow() {
  while (ProcessNext(/*drain_only=*/true)) {
  }
}

bool Server::ProcessNext(bool drain_only) {
  std::optional<PendingRequest> first =
      drain_only ? queue_.TryPopIf([](const PendingRequest&) { return true; })
                 : queue_.Pop();
  if (!first.has_value()) return false;
  obs::MetricsRegistry::Global()
      .GetGauge("server.queue_depth")
      .Set(static_cast<double>(queue_.Depth()));
  if (first->request.op == Request::Op::kUpdate) {
    std::vector<PendingRequest> batch;
    batch.push_back(std::move(*first));
    // Coalesce the maximal run of consecutive updates at the head; stopping
    // at the first checkpoint keeps queue order between checkpoints and
    // updates.
    while (batch.size() < options_.max_batch) {
      std::optional<PendingRequest> next =
          queue_.TryPopIf([](const PendingRequest& pending) {
            return pending.request.op == Request::Op::kUpdate;
          });
      if (!next.has_value()) break;
      batch.push_back(std::move(*next));
    }
    HandleUpdateBatch(std::move(batch));
  } else {
    HandleCheckpoint(*first);
  }
  return true;
}

PropertySet Server::InternQuery(const std::vector<std::string>& names) {
  std::vector<PropertyId> ids;
  ids.reserve(names.size());
  for (const std::string& name : names) ids.push_back(interner_.Intern(name));
  return PropertySet::FromUnsorted(std::move(ids));
}

uint64_t Server::PersistApplied(const std::vector<PropertySet>& add,
                                const std::vector<PropertySet>& remove,
                                const std::vector<uint64_t>& trace_ids) {
  if (durability_ == nullptr) return 0;
  auto payload =
      online::RenderUpdateBatch(add, remove, engine_.property_names());
  if (!payload.ok()) {
    // Unreachable for admitted requests (ParseQueryLists only admits
    // serializable names), but a base workload with exotic names could
    // trip it; the batch stays applied, the gap is surfaced as a counter.
    wal_errors_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  // Only a policy that eventually fires on_durable may register a pending
  // wal_durable stage (kNone never resolves it).
  const bool track_durable = options_.durability.wal.sync !=
                             durability::WalOptions::SyncPolicy::kNone;
  const Clock::time_point append_start =
      track_durable ? Clock::now() : Clock::time_point{};
  auto seq = durability_->LogPayload(std::move(*payload));
  if (!seq.ok()) {
    wal_errors_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  if (track_durable) {
    telemetry_.NoteWalAppend(*seq, Request::Op::kUpdate, append_start,
                             trace_ids);
  }
  return *seq;
}

void Server::MaybeCheckpoint() {
  if (durability_ == nullptr || !durability_->ShouldCheckpoint()) return;
  StageScope stage(telemetry_, Stage::kCheckpoint, Request::Op::kUpdate, {});
  auto info = durability_->Checkpoint(engine_.ExportState());
  if (!info.ok()) wal_errors_.fetch_add(1, std::memory_order_relaxed);
}

void Server::HandleUpdateBatch(std::vector<PendingRequest> batch) {
  struct ParsedUpdate {
    std::vector<PropertySet> add;
    std::vector<PropertySet> remove;
  };
  std::vector<ParsedUpdate> parsed(batch.size());
  std::vector<std::string> responses(batch.size());

  // Stage telemetry: queue_wait closes for every member now that the batch
  // left the queue; the batch-level stages (coalesce, shard_apply, publish,
  // wal_durable) carry every sampled member's trace id.
  const Clock::time_point dequeued = Clock::now();
  std::vector<uint64_t> sampled_ids;
  for (const PendingRequest& member : batch) {
    if (member.sampled) sampled_ids.push_back(member.trace_id);
    telemetry_.RecordStage(Stage::kQueueWait, Request::Op::kUpdate,
                           member.enqueued.start(), dequeued,
                           SampledIds(member.trace_id, member.sampled));
  }

  {
    util::MutexLock lock(engine_mu_);
    // An applied batch with zero net ops still bumps the engine counters,
    // so the root is republished whenever anything applied at all.
    bool any_applied = false;
    StageScope coalesce(telemetry_, Stage::kCoalesce, Request::Op::kUpdate,
                        sampled_ids);
    UpdateCoalescer coalescer;
    const size_t known_names = interner_.size();
    for (size_t i = 0; i < batch.size(); ++i) {
      for (const auto& names : batch[i].request.add) {
        parsed[i].add.push_back(InternQuery(names));
      }
      for (const auto& names : batch[i].request.remove) {
        parsed[i].remove.push_back(InternQuery(names));
      }
      coalescer.Fold(parsed[i].add, parsed[i].remove);
    }
    // Only a batch that brought a new name replaces the engine's table.
    if (interner_.size() != known_names) {
      engine_.share_property_names(interner_.names());
    }

    const NetUpdate net = coalescer.Take();
    coalesce.Close();
    Result<size_t> priced =
        durability::PriceUnknown(net.add, options_.default_cost, &engine_);
    Result<online::UpdateStats> applied =
        priced.ok() ? ApplyEngineUpdate(net.add, net.remove, sampled_ids,
                                        /*count=*/true)
                    : Result<online::UpdateStats>(priced.status());
    if (applied.ok()) {
      any_applied = true;
      CountChurnStep(net.ops);
      const uint64_t wal_seq = PersistApplied(net.add, net.remove,
                                              sampled_ids);
      for (size_t i = 0; i < batch.size(); ++i) {
        responses[i] = RenderUpdateAck(batch[i], wal_seq, net.ops,
                                       batch.size(), *applied);
      }
    } else {
      // The coalesced batch is infeasible as a whole (typically one
      // uncoverable add). Fall back to per-request application so the
      // blast radius is the offending request, not its batch peers.
      for (size_t i = 0; i < batch.size(); ++i) {
        const std::vector<uint64_t> one_ids =
            SampledIds(batch[i].trace_id, batch[i].sampled);
        Result<size_t> fallback_priced = durability::PriceUnknown(
            parsed[i].add, options_.default_cost, &engine_);
        Result<online::UpdateStats> one =
            fallback_priced.ok()
                ? ApplyEngineUpdate(parsed[i].add, parsed[i].remove, one_ids,
                                    /*count=*/false)
                : Result<online::UpdateStats>(fallback_priced.status());
        if (!one.ok()) {
          responses[i] = RenderErrorResponse(batch[i].request.id,
                                             Request::Op::kUpdate, 400,
                                             one.status().message());
          continue;
        }
        any_applied = true;
        const size_t ops = one->queries_added + one->queries_removed;
        CountChurnStep(ops);
        const uint64_t wal_seq = PersistApplied(parsed[i].add,
                                                parsed[i].remove, one_ids);
        responses[i] = RenderUpdateAck(batch[i], wal_seq, ops,
                                       /*batch_requests=*/1, *one);
      }
    }
    // Publish before the lock drops (and so before any ack is written):
    // a client that saw its ack reads its write on the lock-free path.
    if (any_applied) {
      StageScope publish(telemetry_, Stage::kPublish, Request::Op::kUpdate,
                         sampled_ids);
      PublishReadRoot();
    }
    MaybeCheckpoint();
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    FinishTracedResponse(batch[i], responses[i]);
  }
}

void Server::CountChurnStep(uint64_t ops) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  coalesced_ops_.fetch_add(ops, std::memory_order_relaxed);
  uint64_t seen = max_batch_.load(std::memory_order_relaxed);
  while (seen < ops && !max_batch_.compare_exchange_weak(
                           seen, ops, std::memory_order_relaxed)) {
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("server.batches").Add();
  registry.GetCounter("server.coalesced_ops").Add(ops);
  registry.GetHistogram("server.batch_size").Record(static_cast<double>(ops));
}

std::string Server::RenderUpdateAck(const PendingRequest& pending,
                                    uint64_t wal_seq, size_t batch_size,
                                    size_t batch_requests,
                                    const online::UpdateStats& applied) {
  obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("id").Int(pending.request.id);
  writer.Key("op").String("update");
  writer.Key("code").Int(200);
  if (pending.trace_id != 0) writer.Key("trace_id").Int(pending.trace_id);
  if (durability_ != nullptr) writer.Key("wal_seq").Int(wal_seq);
  writer.Key("batch_size").Int(batch_size);
  writer.Key("batch_requests").Int(batch_requests);
  writer.Key("queries_added").Int(applied.queries_added);
  writer.Key("queries_removed").Int(applied.queries_removed);
  writer.Key("components_resolved").Int(applied.components_resolved);
  writer.Key("cost").Number(engine_.TotalCost());
  writer.Key("queries").Int(engine_.NumQueries());
  writer.Key("components").Int(engine_.NumComponents());
  writer.EndObject();
  return writer.Take();
}

void Server::FinishTracedResponse(const PendingRequest& pending,
                                  const std::string& response) {
  {
    StageScope serialize(telemetry_, Stage::kSerialize, pending.request.op,
                         SampledIds(pending.trace_id, pending.sampled));
    WriteResponse(pending.conn, response);
  }
  ObserveLatency(pending.request, pending.enqueued.Seconds());
}

void Server::HandleCheckpoint(const PendingRequest& pending) {
  const std::vector<uint64_t> ids =
      SampledIds(pending.trace_id, pending.sampled);
  telemetry_.RecordStage(Stage::kQueueWait, Request::Op::kCheckpoint,
                         pending.enqueued.start(), Clock::now(), ids);
  if (durability_ == nullptr) {
    WriteResponse(pending.conn,
                  RenderErrorResponse(pending.request.id,
                                      Request::Op::kCheckpoint, 400,
                                      "server is not durable (no --data-dir)"));
    ObserveLatency(pending.request, pending.enqueued.Seconds());
    return;
  }
  obs::JsonWriter writer(/*compact=*/true);
  {
    util::MutexLock lock(engine_mu_);
    StageScope stage(telemetry_, Stage::kCheckpoint, Request::Op::kCheckpoint,
                     ids);
    auto info = durability_->Checkpoint(engine_.ExportState());
    stage.Close();
    if (!info.ok()) {
      WriteResponse(pending.conn,
                    RenderErrorResponse(pending.request.id,
                                        Request::Op::kCheckpoint, 500,
                                        info.status().message()));
      ObserveLatency(pending.request, pending.enqueued.Seconds());
      return;
    }
    writer.BeginObject();
    writer.Key("id").Int(pending.request.id);
    writer.Key("op").String("checkpoint");
    writer.Key("code").Int(200);
    if (pending.trace_id != 0) {
      writer.Key("trace_id").Int(pending.trace_id);
    }
    writer.Key("seq").Int(info->seq);
    writer.Key("bytes").Int(info->bytes);
    writer.Key("path").String(info->path);
    writer.Key("checkpoint_ms").Number(info->seconds * 1e3);
    writer.EndObject();
  }
  FinishTracedResponse(pending, writer.Take());
}

void Server::PublishReadRoot() {
  // Writer-side version read: the only publisher holds engine_mu_.
  // mc3-lint: new-delete-ok(ownership passes to the publisher/epoch pair)
  auto* root = new ReadRoot{
      online::BuildReadView(engine_, root_publisher_.version() + 1),
      engine_.shared_property_names(), engine_.counters()};
  if (const ReadRoot* old = root_publisher_.Publish(root); old != nullptr) {
    epochs_.Retire(old);
  }
  epochs_.AdvanceAndReclaim();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("engine.view.version")
      .Set(static_cast<double>(root->view.version));
  registry.GetGauge("engine.epoch.retired")
      .Set(static_cast<double>(epochs_.TotalReclaimed()));
}

void Server::HandleLockFreeRead(const std::shared_ptr<Connection>& conn,
                                const Request& request,
                                const TraceAssignment& trace,
                                const Timer& latency,
                                concurrency::ReaderRegistration& reader) {
  const std::vector<uint64_t> ids = SampledIds(trace.trace_id, trace.sampled);
  std::string response;
  {
    StageScope acquire(telemetry_, Stage::kReadAcquire, request.op, ids);
    concurrency::ReadGuard guard(epochs_, reader);
    const ReadRoot* root = root_publisher_.Acquire();
    acquire.Close();
    if (root == nullptr) {
      // Start() publishes before the socket opens, so this is unreachable
      // through the wire; kept as a defensive 503 for direct-call tests.
      WriteResponse(conn,
                    RenderErrorResponse(request.id, request.op, 503,
                                        "read views not yet published",
                                        options_.base_retry_ms));
      ObserveLatency(request, latency.Seconds());
      return;
    }
    StageScope render(telemetry_, Stage::kReadRender, request.op, ids);
    response = request.op == Request::Op::kSolve
                   ? RenderSolveFromRoot(request, trace.trace_id, *root)
                   : RenderSnapshotFromRoot(request, trace.trace_id, *root);
  }
  // The epoch unpins before the socket write: the response string owns all
  // its bytes, so a slow client never extends the grace period.
  {
    StageScope serialize(telemetry_, Stage::kSerialize, request.op, ids);
    WriteResponse(conn, response);
  }
  ObserveLatency(request, latency.Seconds());
}

std::string Server::RenderSolveFromRoot(const Request& request,
                                        uint64_t trace_id,
                                        const ReadRoot& root) {
  // Every field equals the engine's at the published state. Only a request
  // for the solution merges it (MergeViewClassifiers above).
  const online::EngineReadView& view = root.view;
  obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("id").Int(request.id);
  writer.Key("op").String("solve");
  writer.Key("code").Int(200);
  if (trace_id != 0) writer.Key("trace_id").Int(trace_id);
  writer.Key("cost").Number(view.total_cost);
  writer.Key("queries").Int(view.num_queries);
  writer.Key("components").Int(view.num_components);
  writer.Key("classifiers").Int(view.num_classifiers);
  if (request.include_solution) {
    const std::vector<std::string>& names = NamesOf(root.names);
    writer.Key("solution").BeginArray();
    for (const PieceEntry* entry : MergeViewClassifiers(view)) {
      writer.BeginArray();
      for (const PropertyId id : entry->first) {
        writer.String(id < names.size() ? names[id] : std::to_string(id));
      }
      writer.EndArray();
    }
    writer.EndArray();
  }
  writer.EndObject();
  return writer.Take();
}

std::string Server::RenderSnapshotFromRoot(const Request& request,
                                           uint64_t trace_id,
                                           const ReadRoot& root) {
  // Every field equals the engine's at the published state; classifier
  // prices were captured at publish time, matching OnlineEngine::CostOf.
  const online::EngineReadView& view = root.view;
  obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("id").Int(request.id);
  writer.Key("op").String("snapshot");
  writer.Key("code").Int(200);
  if (trace_id != 0) writer.Key("trace_id").Int(trace_id);
  writer.Key("cost").Number(view.total_cost);
  writer.Key("queries").Int(view.num_queries);
  writer.Key("components").Int(view.num_components);
  const std::vector<std::string>& names = NamesOf(root.names);
  writer.Key("classifiers").BeginArray();
  for (const PieceEntry* entry : MergeViewClassifiers(view)) {
    writer.BeginObject();
    writer.Key("properties").BeginArray();
    for (const PropertyId id : entry->first) {
      writer.String(id < names.size() ? names[id] : std::to_string(id));
    }
    writer.EndArray();
    writer.Key("cost").Number(entry->second);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("counters").BeginObject();
  writer.Key("updates").Int(root.counters.updates);
  writer.Key("queries_added").Int(root.counters.queries_added);
  writer.Key("queries_removed").Int(root.counters.queries_removed);
  writer.Key("components_resolved").Int(root.counters.components_resolved);
  writer.Key("queries_touched").Int(root.counters.queries_touched);
  writer.EndObject();
  writer.EndObject();
  return writer.Take();
}

std::string Server::RenderWalStats(const Request& request) {
  obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("id").Int(request.id);
  writer.Key("op").String("wal_stats");
  writer.Key("code").Int(200);
  writer.Key("enabled").Bool(durability_ != nullptr);
  if (durability_ != nullptr) {
    const durability::WalWriterStats wal = durability_->GetWalStats();
    writer.Key("last_seq").Int(wal.last_seq);
    writer.Key("durable_seq").Int(wal.durable_seq);
    writer.Key("records_appended").Int(wal.records_appended);
    writer.Key("bytes_appended").Int(wal.bytes_appended);
    writer.Key("bytes_fsynced").Int(wal.bytes_fsynced);
    writer.Key("syncs").Int(wal.syncs);
    writer.Key("group_commit_max").Int(wal.group_commit_max);
    writer.Key("segments").Int(wal.segments);
    writer.Key("wal_errors").Int(wal_errors_.load(std::memory_order_relaxed));
    const durability::RecoveryStats& recovery = durability_->recovery();
    writer.Key("recovery").BeginObject();
    writer.Key("snapshot_loaded").Bool(recovery.snapshot_loaded);
    writer.Key("snapshot_seq").Int(recovery.snapshot_seq);
    writer.Key("wal_records_replayed").Int(recovery.wal_records_replayed);
    writer.Key("wal_last_seq").Int(recovery.wal_last_seq);
    writer.Key("torn_tail").Bool(recovery.torn_tail);
    writer.Key("recovery_ms").Number(recovery.recovery_seconds * 1e3);
    writer.EndObject();
  }
  writer.EndObject();
  return writer.Take();
}

std::string Server::RenderHealth(const Request& request) {
  // Health never queues and never touches the engine: it is answered
  // inline on the connection thread in every server state. While draining
  // it answers 503 with a retry hint (load balancers should fail over),
  // but still answers — a draining server is observable to the end.
  const bool draining = draining_.load(std::memory_order_acquire);
  obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("id").Int(request.id);
  writer.Key("op").String("health");
  writer.Key("code").Int(draining ? 503 : 200);
  writer.Key("status").String(draining ? "draining" : "ok");
  if (draining) writer.Key("retry_after_ms").Number(options_.base_retry_ms);
  writer.Key("queue_depth").Int(queue_.Depth());
  writer.Key("uptime_seconds").Number(uptime_.Seconds());
  writer.Key("build").BeginObject();
  writer.Key("compiler").String(util::BuildCompiler());
  writer.Key("build_type").String(util::BuildType());
  writer.Key("obs").Bool(true);
  writer.EndObject();
  writer.EndObject();
  return writer.Take();
}

std::string Server::RenderStats(const Request& request,
                                concurrency::ReaderRegistration& reader) {
  const ServerStats stats = GetStats();
  obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("id").Int(request.id);
  writer.Key("op").String("stats");
  writer.Key("code").Int(200);
  writer.Key("draining").Bool(draining_.load(std::memory_order_acquire));
  writer.Key("connections").Int(stats.connections);
  writer.Key("requests").Int(stats.requests);
  writer.Key("responses").Int(stats.responses);
  writer.Key("rejected").Int(stats.rejected);
  writer.Key("refused_draining").Int(stats.refused_draining);
  writer.Key("malformed").Int(stats.malformed);
  writer.Key("batches").Int(stats.batches);
  writer.Key("coalesced_ops").Int(stats.coalesced_ops);
  writer.Key("max_batch").Int(stats.max_batch);
  writer.Key("queue_depth").Int(stats.queue_depth);
  writer.Key("queue_depth_max").Int(stats.queue_depth_max);
  writer.Key("uptime_seconds").Number(stats.uptime_seconds);
  {
    // The published root's version, read through one pinned load like any
    // other read (docs/serving.md#lock-free-reads); never engine_mu_.
    concurrency::ReadGuard guard(epochs_, reader);
    const ReadRoot* root = root_publisher_.Acquire();
    if (root != nullptr) writer.Key("view_seq").Int(root->view.version);
  }
  // Per-endpoint in-server latency percentiles (seconds), then the pipeline
  // stage breakdown (docs/observability.md, "Serving telemetry"; keys are
  // `<stage>.<verb>`), straight from the ambient metrics registry.
  // MetricsSnapshot maps are ordered, so the rendering is deterministic.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snap();
  for (const auto& [key, prefix] :
       {std::pair<const char*, std::string>{"latency_seconds",
                                            "server.latency."},
        {"stages", "server.stage."}}) {
    writer.Key(key).BeginObject();
    for (const auto& [name, histogram] : snap.histograms) {
      if (name.rfind(prefix, 0) != 0) continue;
      writer.Key(name.substr(prefix.size())).BeginObject();
      writer.Key("count").Int(histogram.count);
      writer.Key("mean").Number(histogram.Mean());
      writer.Key("p50").Number(histogram.P50());
      writer.Key("p95").Number(histogram.P95());
      writer.Key("p99").Number(histogram.P99());
      writer.EndObject();
    }
    writer.EndObject();
  }
  writer.EndObject();
  return writer.Take();
}

std::string Server::RenderMetrics(const Request& request) {
  const ServerStats stats = GetStats();
  // Extras cover everything the registry does not already track under a
  // flat name.
  std::vector<obs::ExpositionSample> extra;
  const auto counter = [&extra](const std::string& name, double value) {
    extra.push_back({name, "counter", {}, value});
  };
  const auto gauge = [&extra](const std::string& name, double value) {
    extra.push_back({name, "gauge", {}, value});
  };
  counter("server.connections", stats.connections);
  counter("server.requests", stats.requests);
  counter("server.responses", stats.responses);
  counter("server.refused_draining", stats.refused_draining);
  counter("server.malformed", stats.malformed);
  counter("server.wal_errors",
          wal_errors_.load(std::memory_order_relaxed));
  gauge("server.max_batch", stats.max_batch);
  gauge("server.queue_depth_max", stats.queue_depth_max);
  gauge("server.uptime_seconds", stats.uptime_seconds);
  extra.push_back({"build_info",
                   "gauge",
                   {{"compiler", util::BuildCompiler()},
                    {"build_type", util::BuildType()},
                    {"obs", "on"}},
                   1.0});
  const std::string body = obs::RenderPrometheus(
      obs::MetricsRegistry::Global().Snap(), extra);
  obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("id").Int(request.id);
  writer.Key("op").String("metrics");
  writer.Key("code").Int(200);
  writer.Key("content_type").String("text/plain; version=0.0.4");
  writer.Key("body").String(body);
  writer.EndObject();
  return writer.Take();
}

void Server::WriteResponse(const std::shared_ptr<Connection>& conn,
                           const std::string& line) {
  responses_.fetch_add(1, std::memory_order_relaxed);
  const std::string framed = line + "\n";
  util::MutexLock lock(conn->write_mu);
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(conn->fd, framed.data() + sent,
                             framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // peer gone; the response is undeliverable
    sent += static_cast<size_t>(n);
  }
}

void Server::ObserveLatency(const Request& request, double seconds) {
  CountEndpoint("responses", request.op);
  obs::MetricsRegistry::Global()
      .GetHistogram(std::string("server.latency.") + OpName(request.op))
      .Record(seconds);
}

ServerStats Server::GetStats() const {
  ServerStats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.responses = responses_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.refused_draining =
      refused_draining_.load(std::memory_order_relaxed);
  stats.malformed = malformed_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.coalesced_ops = coalesced_ops_.load(std::memory_order_relaxed);
  stats.max_batch = max_batch_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_.Depth();
  stats.queue_depth_max = queue_.DepthMax();
  stats.uptime_seconds = uptime_.Seconds();
  return stats;
}

void Server::WithEngine(
    const std::function<void(const online::OnlineEngine&)>& fn) {
  util::MutexLock lock(engine_mu_);
  fn(engine_);
}

}  // namespace mc3::server
