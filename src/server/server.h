// Long-lived TCP serving front-end for the incremental engine: a
// newline-delimited-JSON listener (src/server/protocol.h) whose accepted
// connections are handled by a fixed WorkerPool, feeding mutations
// through a BoundedQueue into one engine thread that coalesces concurrent
// updates into single OnlineEngine churn steps.
//
// Threading model (docs/serving.md):
//   * acceptor thread    — accept() loop; posts one connection task per
//                          socket to the worker pool (pool size bounds
//                          concurrent connections);
//   * connection tasks   — blocking line reads; health/stats/shutdown are
//                          answered inline, solve and snapshot are rendered
//                          from epoch-protected published read views
//                          (docs/serving.md#lock-free-reads), and mutations
//                          (update, checkpoint) pass admission control and
//                          enter the bounded queue;
//   * engine thread      — blocks on the queue; an update at the head is
//                          coalesced with the maximal run of consecutive
//                          queued updates (never reordering a checkpoint
//                          past them) and applied as ONE ApplyUpdate, then
//                          the read root is republished before the acks.
//                          One thread keeps queue order; all engine access
//                          is serialized by a mutex.
//                          The engine itself re-solves only the components
//                          a batch dirtied (Observation 3.2).
//
// Admission control: the queue has a hard capacity and a reject watermark;
// at or above the watermark new mutations are answered 429 with a
// retry_after_ms hint instead of queueing (bounded latency beats unbounded
// buffering). Graceful drain (shutdown request or SIGTERM in the CLI):
// stop accepting, answer new engine ops 503, finish everything queued,
// then join — no accepted request is ever dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/epoch.h"
#include "concurrency/versioned_publisher.h"
#include "core/instance.h"
#include "durability/durability.h"
#include "online/online_engine.h"
#include "online/read_view.h"
#include "server/bounded_queue.h"
#include "server/protocol.h"
#include "server/telemetry.h"
#include "server/worker_pool.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace mc3::server {

/// Admission-control decision for a mutation arriving at queue depth
/// `depth`. Rejects at or above the watermark; the retry hint grows
/// linearly with the overload so clients back off harder the deeper the
/// queue (deterministic in its inputs).
struct Admission {
  bool accept = true;
  double retry_after_ms = 0;
};
Admission AdmitAt(size_t depth, size_t watermark, double base_retry_ms);

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral (read the bound port from port())

  /// Hard bound of the engine-op queue.
  size_t queue_capacity = 1024;
  /// Reject mutations at/above this queue depth; 0 derives 3/4 capacity.
  size_t admission_watermark = 0;
  /// Base of the 429 Retry-After hint.
  double base_retry_ms = 25;

  /// Engine ops coalesced into one churn step at most.
  size_t max_batch = 256;
  /// Start the engine thread that drains the queue in FIFO order. false is
  /// an embedding/test mode: nothing drains the queue until
  /// ProcessQueuedNow() is called.
  bool engine_thread = true;
  /// Connection-handling pool size = max concurrent connections.
  size_t connection_workers = 16;

  /// Price unknown classifiers of added queries at this default difficulty
  /// (mirrors `mc3 serve --default-cost`); negative = no auto-pricing, an
  /// uncoverable add fails with 400.
  double default_cost = -1;

  online::EngineOptions engine;

  /// Durability (docs/durability.md). Enabled when `durability.data_dir`
  /// is non-empty: Start recovers engine state from the directory's latest
  /// snapshot + WAL tail, every admitted update batch is WAL-logged, and
  /// checkpoints fire per the configured policy or the `checkpoint` verb.
  durability::DurabilityOptions durability;

  /// Request tracing (`mc3 serve --trace-sample N`): assign every request a
  /// trace id (echoed in engine-op responses) and record every Nth
  /// request's stage spans, with the engine's spans under its apply, into
  /// the server's trace. 0 keeps tracing fully off — responses carry no
  /// `trace_id`.
  uint64_t trace_sample = 0;
  /// Where the trace-event JSON lands on shutdown (`--trace-out DIR`);
  /// see trace_file_path(). Empty = collected but never written.
  std::string trace_out_dir;
};

/// Point-in-time server statistics (also served by the stats endpoint).
struct ServerStats {
  uint64_t connections = 0;  ///< connections accepted
  uint64_t requests = 0;     ///< well-formed requests received
  uint64_t responses = 0;    ///< responses written (incl. errors/rejects)
  uint64_t rejected = 0;     ///< 429 admission rejects
  uint64_t refused_draining = 0;  ///< 503 during drain
  uint64_t malformed = 0;    ///< 400 parse failures
  uint64_t batches = 0;      ///< engine churn steps applied
  uint64_t coalesced_ops = 0;  ///< source update ops folded into batches
  uint64_t max_batch = 0;    ///< largest ops-per-batch seen
  size_t queue_depth = 0;
  size_t queue_depth_max = 0;  ///< engine-op queue high watermark
  double uptime_seconds = 0;  ///< seconds since Start
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Initializes the engine with `base` (its cost table and queries), then
  /// binds, listens and starts the acceptor, pool and engine thread.
  Status Start(const Instance& base);

  /// The bound TCP port (valid after Start).
  uint16_t port() const { return port_; }

  /// Initiates graceful drain: stop accepting, 503 new engine ops, finish
  /// the queue. Idempotent, callable from any thread (the shutdown
  /// endpoint and the CLI's SIGTERM watcher both land here).
  void RequestDrain();

  /// Blocks until a requested drain completes and every thread is joined.
  void Join();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  ServerStats GetStats() const;

  /// Engine-op queue depth right now.
  size_t QueueDepth() const { return queue_.Depth(); }

  /// Synchronously drains everything currently queued on the caller's
  /// thread. Only meaningful without the engine thread (embedding/test
  /// mode); with it running it merely competes with it.
  void ProcessQueuedNow();

  /// Read access to the engine (equivalence checks in tests, the CLI's
  /// summary lines); takes the engine mutex. `fn` must not re-enter the
  /// server.
  void WithEngine(const std::function<void(const online::OnlineEngine&)>& fn);

  /// The durability manager, or nullptr when serving non-durably. Valid
  /// after Start; the CLI uses it to report what recovery did.
  const durability::DurabilityManager* durability_manager() const {
    return durability_.get();
  }

  /// Path the Chrome trace-event file is written to on Join, or "" when
  /// trace export is not configured. Valid after Start (needs the port).
  std::string trace_file_path() const {
    return telemetry_.TraceFilePath(port_);
  }

  /// The sampled requests' spans; read it after Join.
  const obs::Trace& trace() const { return telemetry_.trace(); }

 private:
  struct Connection {
    // Written once by the acceptor before the connection task is posted;
    // write_mu only serializes concurrent response writes to the socket.
    // mc3-lint: guard-ok(set once by the acceptor before the task is posted)
    int fd = -1;
    util::Mutex write_mu;
    ~Connection();
  };
  /// One queued mutation (update or checkpoint): the parsed request plus
  /// its response channel.
  struct PendingRequest {
    Request request;
    std::shared_ptr<Connection> conn;
    /// Started when the request is queued: its queue_wait stage and its
    /// in-server latency.
    Timer enqueued;
    uint64_t trace_id = 0;  ///< nonzero only when tracing is on
    bool sampled = false;   ///< spans recorded for this request
  };

  /// The atomically published read root: one pinned load gives readers
  /// the engine's view, name table and counters as one consistent cut.
  /// Rebuilt and swapped after every applied batch; the displaced root is
  /// epoch-retired.
  struct ReadRoot {
    /// The engine at publish time; its version is the root's publish count
    /// (stats `view_seq`).
    online::EngineReadView view;
    /// The engine's name table at publish time: the same immutable table
    /// the engine and the interner share, replaced only by a batch that
    /// interned a new name.
    PropertyNames names;
    online::EngineCounters counters;
  };

  void AcceptLoop();
  void ConnectionLoop(const std::shared_ptr<Connection>& conn);
  void HandleLine(const std::shared_ptr<Connection>& conn,
                  const std::string& line,
                  concurrency::ReaderRegistration& reader);
  void EngineWorkerLoop();
  /// Pops one item (blocking unless `drain_only`), coalesces consecutive
  /// updates behind it, executes, responds. Returns false when the queue is
  /// closed and empty.
  bool ProcessNext(bool drain_only);

  /// Applies one net batch through the engine as the shard_apply stage
  /// (engine_mu_ held). `trace_ids` are the sampled requests folded into
  /// the batch: the engine's spans nest under their shard_apply span. Only
  /// a successful apply with `count` set is a shard_apply histogram sample.
  Result<online::UpdateStats> ApplyEngineUpdate(
      const std::vector<PropertySet>& add,
      const std::vector<PropertySet>& remove,
      const std::vector<uint64_t>& trace_ids, bool count)
      MC3_REQUIRES(engine_mu_);

  void HandleUpdateBatch(std::vector<PendingRequest> batch);
  /// Counts one applied churn step of `ops` update ops (the ack's
  /// `batch_size`), whether the coalesced batch or one request of a
  /// per-request fallback: `stats` and the registry's `server.batches`,
  /// `server.coalesced_ops` and `server.batch_size` move together.
  void CountChurnStep(uint64_t ops);
  /// Renders the 200 ack of one update request at the engine's current
  /// state (engine_mu_ held). `batch_size`/`batch_requests` describe the
  /// churn step that applied it: the coalesced batch, or the request alone
  /// when the batch fell back to per-request application.
  std::string RenderUpdateAck(const PendingRequest& pending, uint64_t wal_seq,
                              size_t batch_size, size_t batch_requests,
                              const online::UpdateStats& applied)
      MC3_REQUIRES(engine_mu_);
  /// Writes `response`, recording the serialize stage (and span when the
  /// request is sampled) and the endpoint latency.
  void FinishTracedResponse(const PendingRequest& pending,
                            const std::string& response);
  void HandleCheckpoint(const PendingRequest& pending);

  /// Builds and publishes a fresh read root, retires the displaced one and
  /// runs one reclamation pass. Called after every applied batch, before
  /// the acks render, so a client that saw its ack also reads its write
  /// (docs/serving.md#lock-free-reads).
  void PublishReadRoot() MC3_REQUIRES(engine_mu_);
  /// Lock-free `solve`/`snapshot`: pins an epoch, loads the root once and
  /// renders on the connection worker thread. Every field equals the
  /// engine's own accessors at the published state (TotalCost, NumQueries,
  /// NumComponents, CurrentSolution().Sorted(), CostOf, counters()).
  void HandleLockFreeRead(const std::shared_ptr<Connection>& conn,
                          const Request& request,
                          const TraceAssignment& trace, const Timer& latency,
                          concurrency::ReaderRegistration& reader);
  std::string RenderSolveFromRoot(const Request& request, uint64_t trace_id,
                                  const ReadRoot& root)
      MC3_REQUIRES_SHARED(epochs_);
  std::string RenderSnapshotFromRoot(const Request& request,
                                     uint64_t trace_id, const ReadRoot& root)
      MC3_REQUIRES_SHARED(epochs_);

  std::string RenderHealth(const Request& request);
  std::string RenderStats(const Request& request,
                          concurrency::ReaderRegistration& reader);
  std::string RenderWalStats(const Request& request);
  /// Prometheus text exposition of the whole obs registry plus server
  /// stats, wrapped in a JSON envelope (`metrics` verb).
  std::string RenderMetrics(const Request& request);

  /// WAL-logs one applied batch (engine_mu_ held). Returns the assigned
  /// WAL sequence (0 when not durable). Failures are counted in
  /// wal_errors_, not propagated: the batch is already applied and
  /// acknowledged state must not be rolled back.
  uint64_t PersistApplied(const std::vector<PropertySet>& add,
                          const std::vector<PropertySet>& remove,
                          const std::vector<uint64_t>& trace_ids)
      MC3_REQUIRES(engine_mu_);
  /// Fires a policy-triggered checkpoint if one is due (engine_mu_ held).
  void MaybeCheckpoint() MC3_REQUIRES(engine_mu_);

  /// Interns `names` into the property table (engine_mu_ held).
  PropertySet InternQuery(const std::vector<std::string>& names)
      MC3_REQUIRES(engine_mu_);

  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     const std::string& line);
  void ObserveLatency(const Request& request, double seconds);

  // mc3-lint: guard-ok(frozen by the constructor and Start before any thread launches)
  ServerOptions options_;
  // mc3-lint: guard-ok(written once in Start, read-only afterwards)
  uint16_t port_ = 0;
  // mc3-lint: guard-ok(owned by Start then the acceptor thread; Join runs after its exit)
  int listen_fd_ = -1;
  ///< unblocks the acceptor's poll on drain
  // mc3-lint: guard-ok(opened in Start before threads; pipe writes are async-signal-safe)
  int wake_pipe_[2] = {-1, -1};

  BoundedQueue<PendingRequest> queue_;
  // Created in Start before the acceptor that uses it.
  std::unique_ptr<WorkerPool> pool_;
  // Launched in Start, joined only by Join.
  std::thread acceptor_;
  std::thread engine_thread_;

  util::Mutex engine_mu_;
  online::OnlineEngine engine_ MC3_GUARDED_BY(engine_mu_);
  /// Name -> id over the engine's table; its snapshot is what the engine
  /// and the published read roots share.
  PropertyInterner interner_ MC3_GUARDED_BY(engine_mu_);

  /// Lock-free read path (docs/serving.md#lock-free-reads): one read root,
  /// reclaimed through epochs. All publishing happens under engine_mu_
  /// (single writer); readers pin an epoch per read and never lock.
  concurrency::EpochManager epochs_;
  // Publication slot: swapped only under engine_mu_, read lock-free under
  // an epoch pin per concurrency/epoch.h.
  concurrency::VersionedPublisher<ReadRoot> root_publisher_;

  /// Durability state (engine_mu_ guards all manager calls except the
  /// thread-safe GetWalStats). Null when serving non-durably.
  // mc3-lint: guard-ok(pointer set once in Start; manager calls go through engine_mu_)
  std::unique_ptr<durability::DurabilityManager> durability_;
  std::atomic<uint64_t> wal_errors_{0};

  util::Mutex conns_mu_;
  std::vector<std::weak_ptr<Connection>> conns_ MC3_GUARDED_BY(conns_mu_);

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  util::Mutex drain_mu_;
  util::CondVar drain_cv_;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> refused_draining_{0};
  std::atomic<uint64_t> malformed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> coalesced_ops_{0};
  std::atomic<uint64_t> max_batch_{0};

  /// Request tracing + stage telemetry (internally synchronized).
  // mc3-lint: guard-ok(constructed before Start, internally synchronized)
  ServingTelemetry telemetry_;
  /// Start time for `health`/`metrics` uptime reporting.
  // mc3-lint: guard-ok(reset once in Start, read-only afterwards)
  Timer uptime_;
};

}  // namespace mc3::server
