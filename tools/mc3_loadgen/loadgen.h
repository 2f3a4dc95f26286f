// mc3_loadgen — open-loop load generator for the serving subsystem
// (src/server/, docs/serving.md).
//
// The generator pre-computes an arrival schedule (an initial burst at t=0,
// then one request every 1/qps seconds) and a deterministic churn workload
// (seeded RNG over a synthetic property pool), then replays it over N
// line-delimited-JSON connections without waiting for responses — open-loop
// arrivals, so server slowness shows up as queueing/429s instead of
// silently throttling the offered load. Reader threads collect per-request
// client-side latencies and categorize responses by code (200/400/429/503).
// At the end the server's stats endpoint is scraped so the report can
// attest that update coalescing actually happened (max_batch > 1 whenever
// the burst outruns the engine worker).
//
// The run is summarized as a mc3.load_report/2 JSON document, self-validated
// against its schema before it is written (the same contract as the solve
// and bench reports).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace mc3::loadgen {

inline constexpr const char kLoadReportSchema[] = "mc3.load_report/2";

struct LoadGenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< required

  /// Open-loop arrival rate after the initial burst.
  double qps = 200;
  /// Engine operations (updates and interleaved solves) to send.
  size_t operations = 128;
  size_t connections = 4;
  /// Requests sent back-to-back at t=0: with a single engine worker this
  /// guarantees a queue run long enough to coalesce (max_batch > 1).
  size_t burst = 16;
  /// Every Nth operation is a solve (read) instead of an update; 0 = none.
  size_t solve_every = 16;
  /// Every Nth update also removes a previously added query; 0 = never.
  size_t remove_every = 3;
  /// Mixed read/write mode (docs/serving.md#lock-free-reads):
  /// when in [0,1], each operation is independently a solve with this
  /// probability (seeded, deterministic) instead of the solve_every cadence,
  /// and the report splits latencies into read/write summaries. Negative
  /// (the default) keeps the historical plan byte-for-byte.
  double read_ratio = -1;

  uint64_t seed = 1;
  /// Synthetic property pool ("p0" .. "p{N-1}") and query length. With
  /// `tenants` > 1 each tenant gets its own disjoint pool of
  /// `num_properties` names, so the total pool is tenants * num_properties.
  size_t num_properties = 24;
  size_t query_length = 3;
  /// Number of disjoint property pools. Updates round-robin across
  /// tenants, so queries from different tenants never share a property and
  /// land in separate engine components. 1 keeps the historical
  /// single-pool workload byte-for-byte.
  size_t tenants = 1;

  /// Give up waiting for responses / connects after this long.
  double timeout_seconds = 30;
  /// Send a shutdown request after the run and wait for the drain ack.
  bool shutdown_after = false;

  /// Scrape the server's `metrics` verb (Prometheus text exposition) every
  /// this many seconds on a dedicated connection; 0 disables scraping. The
  /// sampled series is embedded in the report, and a final scrape
  /// cross-checks server counters against client-side accounting.
  double scrape_interval_seconds = 0;
};

struct LatencySummary {
  uint64_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// One sample of the server's `metrics` exposition, taken mid-run by the
/// scraper connection. A series the exposition does not carry reads 0: the
/// registry creates a counter on its first event.
struct ScrapeSample {
  double at_seconds = 0;       ///< run-clock time of the scrape
  double requests = 0;         ///< mc3_server_requests_total
  double responses = 0;        ///< mc3_server_responses_total
  double requests_update = 0;  ///< mc3_server_requests_update_total
  double requests_solve = 0;   ///< mc3_server_requests_solve_total
  double batches = 0;          ///< mc3_server_batches_total
  double queue_depth = 0;      ///< mc3_server_queue_depth
};

/// Outcome of the end-of-run counter cross-check (scraper runs only).
/// `checked` means a final exposition was captured; a non-empty `error`
/// describes the first drift found and fails the run.
struct ReconcileResult {
  bool checked = false;
  std::string error;
};

/// Everything the run observed; rendered as mc3.load_report/2.
struct LoadReport {
  LoadGenOptions options;

  // Client-side accounting. Every sent request gets exactly one response
  // line (200/400/429/503); missing responses at timeout are `lost`.
  uint64_t sent = 0;
  uint64_t responses = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;  ///< 429 admission rejects
  uint64_t refused = 0;   ///< 503 while draining
  uint64_t errors = 0;    ///< 400s and unparseable responses
  uint64_t lost = 0;
  double wall_seconds = 0;
  double achieved_qps = 0;
  LatencySummary latency;
  /// Per-verb latency split (mixed mode, options.read_ratio >= 0 only):
  /// reads are solves, writes are updates. The combined summary above still
  /// covers every response.
  LatencySummary read_latency;
  LatencySummary write_latency;

  // Server-side truth, scraped from the stats endpoint after the run.
  bool server_stats_valid = false;
  uint64_t server_batches = 0;
  uint64_t server_coalesced_ops = 0;
  uint64_t server_max_batch = 0;
  uint64_t server_requests = 0;
  uint64_t server_responses = 0;
  uint64_t server_rejected = 0;

  /// Client-side per-verb accounting, the reconcile baseline: how many
  /// updates/solves went out and how many updates came back with code 200.
  uint64_t client_updates_sent = 0;
  uint64_t client_solves_sent = 0;
  uint64_t client_updates_acked = 0;

  /// Scraper output (`scrape_interval_seconds > 0` only): the sampled
  /// exposition time series, the raw final exposition body (for artifact
  /// dumps) and the counter cross-check verdict.
  std::vector<ScrapeSample> scrapes;
  std::string final_exposition;
  ReconcileResult reconcile;

  bool drained = false;  ///< shutdown requested and acknowledged
};

/// Runs the workload against a live server. Fails when the target cannot be
/// reached or the run times out with nothing received.
Result<LoadReport> RunLoadGen(const LoadGenOptions& options);

/// Renders `report` as a mc3.load_report/2 document.
std::string RenderLoadReport(const LoadReport& report);

/// Structural validation of a load-report document: schema tag plus the
/// presence and types of every required field.
Status ValidateLoadReportJson(const std::string& json);

}  // namespace mc3::loadgen
