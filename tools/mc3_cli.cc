// mc3 — command-line interface to the MC3 library.
//
//   mc3 stats <workload.csv>
//       Print Table-1-style statistics of a workload.
//
//   mc3 solve <workload.csv> [--solver general|k2|short-first|local-greedy|
//             query-oriented|property-oriented|exact] [--no-preprocess]
//             [--threads N] [--exact-components N] [--plan]
//             [--out plan.csv]
//       Choose the classifiers to train; --plan additionally prints the
//       per-query evaluation plan; --out writes the plan as CSV.
//
//   mc3 generate --dataset bestbuy|private|synthetic [--n N] [--seed S]
//             -o <out.csv>
//       Write one of the paper's reconstructed workloads as CSV.
//
//   mc3 preprocess <workload.csv>
//       Run Algorithm 1 alone and report what it pruned.
//
//   mc3 ingest <log.txt> -o <workload.csv> [--default-cost D]
//       Turn a raw free-text query log (one search per line) into a priced
//       MC3 workload (tokenize, aggregate, estimate costs).
//
//   mc3 serve <workload.csv> --trace <trace.txt> [--solver NAME]
//             [--threads N] [--batch N] [--default-cost D]
//             [--verify-every N] [--verbose] [--solution-out F]
//       Load the workload into the incremental serving engine and replay an
//       update trace ('+ props...' adds a query, '- props...' removes one;
//       see src/online/update_trace.h), re-solving only the dirty
//       components per batch. --batch groups N trace operations per update
//       (default 1); --default-cost prices classifiers of added queries
//       missing from the workload's table; --verify-every runs the
//       engine's invariant checker every N batches. A trace operation the
//       engine rejects (e.g. an uncoverable add with no --default-cost)
//       aborts the replay with exit code 1, naming the batch and the trace
//       lines it came from.
//
//   mc3 serve <workload.csv> --listen <port> [--port-file F]
//             [--queue-capacity N] [--watermark N] [--max-batch N]
//             [--workers N] [--solver NAME] [--threads N]
//             [--default-cost D] [--data-dir DIR] [...]
//       Network mode: load the workload into the incremental engine and
//       serve it over a line-delimited-JSON TCP protocol (src/server/,
//       docs/serving.md) until a shutdown request or SIGTERM/SIGINT drains
//       it. --listen 0 binds an ephemeral port; --port-file writes the
//       bound port for scripts. --queue-capacity (at least 1) and
//       --watermark bound the engine-op queue (admission control answers
//       429 above the watermark); --max-batch caps update coalescing;
//       --workers sizes the connection pool. --data-dir and the
//       --wal-*/--checkpoint-* flags make it durable (docs/durability.md).
//       --trace-sample N records every Nth request's pipeline spans, with
//       the engine's spans under its apply; with --trace-out DIR a Chrome
//       trace-event JSON file is written on drain and the `trace:` line
//       counts the spans kept and dropped (docs/observability.md,
//       "Serving telemetry").
//
//   mc3 bench [--quick] [--seed S] [--report out.json] [--repeat N]
//             [--warmup N] [--filter SUBSTR]
//       Unified observability bench: runs a general solve, a k<=2 exact
//       solve and an online churn replay over synthetic workloads, each
//       under a fresh phase trace, and writes a mc3.bench_report/2 JSON
//       document (default BENCH_mc3.json) with per-phase timings, per-case
//       deterministic work counters, per-repeat wall times and machine
//       metadata. The emitted report is self-validated against the schema;
//       a violation is a runtime failure, as is counter drift across
//       repeats of one case. --quick shrinks the workloads for smoke runs;
//       --repeat measures each case N times (median reported); --warmup
//       discards N unmeasured runs per case first; --filter keeps only the
//       cases whose name contains SUBSTR. Diff two reports (or gate against
//       a committed baseline) with tools/mc3_benchdiff.
//
//   `solve` and `serve --trace` additionally accept --report <out.json> to
//   export a mc3.solve_report/1 document (phase trace + metrics snapshot)
//   of the run.
//
// Each command accepts exactly the flags of its usage line; any other flag
// is a usage error that names it.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <cstdio>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "core/mc3.h"
#include "data/bestbuy.h"
#include "data/io.h"
#include "data/private_dataset.h"
#include "data/query_log.h"
#include "data/synthetic.h"
#include "durability/durability.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "online/online_engine.h"
#include "online/update_trace.h"
#include "server/server.h"
#include "util/timer.h"

namespace {

using namespace mc3;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  mc3 stats <workload.csv>\n"
      "  mc3 solve <workload.csv> [--solver NAME] [--no-preprocess]\n"
      "            [--threads N] [--exact-components N] [--plan]\n"
      "            [--out plan.csv]\n"
      "  mc3 generate --dataset bestbuy|private|synthetic [--n N]\n"
      "            [--seed S] -o <out.csv>\n"
      "  mc3 preprocess <workload.csv>\n"
      "  mc3 ingest <log.txt> -o <workload.csv> [--default-cost D]\n"
      "  mc3 serve <workload.csv> --trace <trace.txt> [--solver NAME]\n"
      "            [--threads N] [--batch N] [--default-cost D]\n"
      "            [--verify-every N] [--verbose] [--solution-out F]\n"
      "  mc3 serve <workload.csv> --listen <port> [--port-file F]\n"
      "            [--queue-capacity N] [--watermark N] [--max-batch N]\n"
      "            [--workers N] [--solver NAME] [--threads N]\n"
      "            [--default-cost D] [--data-dir DIR]\n"
      "            [--wal-sync grouped|immediate|none] [--wal-group-ms MS]\n"
      "            [--checkpoint-every N] [--checkpoint-interval SECS]\n"
      "            [--keep-wal-segments]\n"
      "            [--trace-sample N] [--trace-out DIR]\n"
      "  mc3 recover <workload.csv> --data-dir DIR [--solver NAME]\n"
      "            [--threads N] [--default-cost D] [--solution-out F]\n"
      "  mc3 wal dump --data-dir DIR [--after SEQ] [-o out.txt]\n"
      "  mc3 wal stats --data-dir DIR\n"
      "  mc3 bench [--quick] [--seed S] [--report out.json] [--repeat N]\n"
      "            [--warmup N] [--filter SUBSTR]\n"
      "(solve and serve --trace also accept --report <out.json>)\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<Instance> Load(const std::string& path) {
  return data::LoadInstance(path);
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), out);
  const bool flushed = std::fclose(out) == 0;
  if (written != content.size() || !flushed) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

/// Fills the instance-shape section of a report header.
void DescribeInstance(const Instance& instance, obs::SolveReportMeta* meta) {
  meta->num_queries = instance.NumQueries();
  meta->num_classifiers = instance.costs().size();
  meta->num_properties = instance.NumProperties();
  meta->max_query_length = instance.MaxQueryLength();
}

/// Renders, schema-validates and writes a solve report; validation failure
/// is a runtime error (the emitted document is the product).
int WriteSolveReport(const obs::SolveReportMeta& meta, const obs::Trace& trace,
                     const std::string& path) {
  const std::string json = obs::RenderSolveReport(
      meta, trace, obs::MetricsRegistry::Global().Snap());
  if (Status status = obs::ValidateSolveReportJson(json); !status.ok()) {
    return Fail(status);
  }
  if (Status status = WriteFile(path, json); !status.ok()) {
    return Fail(status);
  }
  std::printf("report written to %s\n", path.c_str());
  return 0;
}

/// Maps a --solver spelling to the engine's solver kind; false = unknown.
bool ParseSolverKind(const std::string& name,
                     online::EngineOptions::SolverKind* out) {
  if (name == "auto") {
    *out = online::EngineOptions::SolverKind::kAuto;
  } else if (name == "general") {
    *out = online::EngineOptions::SolverKind::kGeneral;
  } else if (name == "k2") {
    *out = online::EngineOptions::SolverKind::kK2Exact;
  } else if (name == "short-first") {
    *out = online::EngineOptions::SolverKind::kShortFirst;
  } else {
    return false;
  }
  return true;
}

/// Renders the engine's current solution keyed by property NAMES, not ids:
/// one classifier per line (names sorted lexicographically within the
/// line), lines sorted, each suffixed with the classifier's cost; a final
/// "total" line sums the per-line costs in that canonical order. Two
/// engines that reached the same solution through different id
/// interleavings — live serving vs. WAL replay (`mc3 recover`) vs. offline
/// trace replay — render byte-identical files, which is what
/// scripts/recover_smoke.sh diffs.
Result<std::string> RenderCanonicalSolution(
    const online::OnlineEngine& engine) {
  const std::vector<std::string>& names = engine.property_names();
  std::vector<std::pair<std::vector<std::string>, Cost>> rows;
  for (const PropertySet& classifier : engine.CurrentSolution().Sorted()) {
    std::vector<std::string> row;
    row.reserve(classifier.ids().size());
    for (const PropertyId id : classifier.ids()) {
      if (id >= names.size() || names[id].empty()) {
        return Status::Internal(
            "property " + std::to_string(id) +
            " has no name; cannot render a canonical solution");
      }
      row.push_back(names[id]);
    }
    std::sort(row.begin(), row.end());
    rows.emplace_back(std::move(row), engine.CostOf(classifier));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  Cost total = 0;
  char buffer[64];
  for (const auto& [row, cost] : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ' ';
      out += row[i];
    }
    std::snprintf(buffer, sizeof(buffer), " # %.17g\n", cost);
    out += buffer;
    total += cost;
  }
  std::snprintf(buffer, sizeof(buffer), "total %.17g\n", total);
  out += buffer;
  return out;
}

int CmdStats(const std::string& path) {
  auto instance = Load(path);
  if (!instance.ok()) return Fail(instance.status());
  const InstanceStats stats = ComputeStats(*instance);
  std::printf("queries:        %zu\n", stats.num_queries);
  std::printf("properties:     %zu\n", stats.num_properties);
  std::printf("classifiers:    %zu (priced)\n", stats.num_classifiers);
  std::printf("max length k:   %zu\n", stats.max_query_length);
  std::printf("short (<=2):    %.1f%%\n", 100 * stats.fraction_short);
  std::printf("cost range:     [%.2f, %.2f]\n", stats.min_cost,
              stats.max_cost);
  std::printf("incidence I:    %zu\n", stats.incidence);
  std::printf("feasible:       %s\n", stats.feasible ? "yes" : "NO");
  std::printf("length histogram:");
  for (size_t l = 1; l < stats.length_histogram.size(); ++l) {
    std::printf(" %zu:%zu", l, stats.length_histogram[l]);
  }
  std::printf("\n");
  return 0;
}

int CmdSolve(const std::string& path, const std::string& solver_name,
             const SolverOptions& options, bool print_plan,
             const std::string& out_path, const std::string& report_path) {
  auto instance = Load(path);
  if (!instance.ok()) return Fail(instance.status());

  std::unique_ptr<Solver> solver;
  if (solver_name == "general") {
    solver = std::make_unique<GeneralSolver>(options);
  } else if (solver_name == "k2") {
    solver = std::make_unique<K2ExactSolver>(options);
  } else if (solver_name == "short-first") {
    solver = std::make_unique<ShortFirstSolver>(options);
  } else if (solver_name == "local-greedy") {
    solver = std::make_unique<LocalGreedySolver>();
  } else if (solver_name == "query-oriented") {
    solver = std::make_unique<QueryOrientedSolver>();
  } else if (solver_name == "property-oriented") {
    solver = std::make_unique<PropertyOrientedSolver>();
  } else if (solver_name == "exact") {
    solver = std::make_unique<ExactSolver>();
  } else if (solver_name == "auto") {
    if (instance->MaxQueryLength() <= 2) {
      solver = std::make_unique<K2ExactSolver>(options);
    } else {
      solver = std::make_unique<GeneralSolver>(options);
    }
  } else {
    std::fprintf(stderr, "unknown solver '%s'\n", solver_name.c_str());
    return 2;
  }

  obs::Trace trace("solve");
  Timer timer;
  Result<SolveResult> result = [&] {
    obs::ScopedTraceActivation activate(&trace);
    return solver->Solve(*instance);
  }();
  const double total_seconds = timer.Seconds();
  if (!result.ok()) return Fail(result.status());
  std::printf("solver:      %s\n", solver->Name().c_str());
  std::printf("total cost:  %.2f\n", result->cost);
  std::printf("classifiers: %zu\n", result->solution.size());
  for (const PropertySet& c : result->solution.Sorted()) {
    std::printf("  [%s]  cost %.2f\n",
                c.ToString(instance->property_names()).c_str(),
                instance->CostOf(c));
  }
  if (!out_path.empty()) {
    if (Status status = data::SaveSolution(*instance, result->solution,
                                           out_path);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("plan written to %s\n", out_path.c_str());
  }
  if (print_plan) {
    std::printf("evaluation plan:\n");
    const CoverageReport report = VerifyCoverage(*instance, result->solution);
    for (size_t qi = 0; qi < instance->NumQueries(); ++qi) {
      std::printf("  %s <- AND of:",
                  instance->queries()[qi]
                      .ToString(instance->property_names())
                      .c_str());
      for (const PropertySet& c : report.witnesses[qi]) {
        std::printf(" [%s]", c.ToString(instance->property_names()).c_str());
      }
      std::printf("\n");
    }
  }
  if (!report_path.empty()) {
    obs::SolveReportMeta meta;
    meta.tool = "solve";
    meta.solver = solver->Name();
    meta.workload = path;
    DescribeInstance(*instance, &meta);
    meta.cost = result->cost;
    meta.solution_size = result->solution.size();
    meta.num_components = result->num_components;
    meta.total_seconds = total_seconds;
    if (int code = WriteSolveReport(meta, trace, report_path); code != 0) {
      return code;
    }
  }
  return 0;
}

int CmdGenerate(const std::string& dataset, size_t n, uint64_t seed,
                const std::string& out) {
  Instance instance;
  if (dataset == "bestbuy") {
    data::BestBuyConfig config;
    if (n > 0) config.num_queries = n;
    config.seed = seed;
    instance = data::GenerateBestBuy(config);
  } else if (dataset == "private") {
    data::PrivateConfig config;
    if (n > 0) {
      config.electronics_queries = n * 55 / 100;
      config.home_garden_queries = n * 35 / 100;
      config.fashion_queries = n - config.electronics_queries -
                               config.home_garden_queries;
    }
    config.seed = seed;
    instance = std::move(data::GeneratePrivate(config).instance);
  } else if (dataset == "synthetic") {
    data::SyntheticConfig config;
    if (n > 0) config.num_queries = n;
    config.seed = seed;
    instance = data::GenerateSynthetic(config);
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
    return 2;
  }
  if (Status status = data::SaveInstance(instance, out); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %zu queries / %zu classifiers to %s\n",
              instance.NumQueries(), instance.costs().size(), out.c_str());
  return 0;
}

int CmdIngest(const std::string& path, const std::string& out,
              Cost default_cost) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<std::string> lines;
  std::string current;
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current += static_cast<char>(c);
    }
  }
  if (!current.empty()) lines.push_back(std::move(current));
  std::fclose(in);

  data::QueryLog log = data::ParseQueryLog(lines);
  data::CostEstimatorOptions cost_options;
  cost_options.default_difficulty = default_cost;
  if (Status status = data::EstimateCosts(&log.instance, cost_options);
      !status.ok()) {
    return Fail(status);
  }
  if (Status status = data::SaveInstance(log.instance, out); !status.ok()) {
    return Fail(status);
  }
  std::printf(
      "ingested %zu lines (%zu dropped) -> %zu distinct queries, %zu priced "
      "classifiers -> %s\n",
      log.total_lines, log.dropped_lines, log.instance.NumQueries(),
      log.instance.costs().size(), out.c_str());
  return 0;
}

struct ServeConfig {
  std::string solver = "auto";
  size_t threads = 1;
  size_t batch = 1;         ///< trace operations per engine update
  Cost default_cost = -1;   ///< < 0 = no auto-pricing of unknown classifiers
  size_t verify_every = 0;  ///< 0 = only verify at the end
  bool verbose = false;
  std::string report;        ///< empty = no JSON report
  std::string solution_out;  ///< trace mode: canonical solution file

  // Network mode (--listen).
  long listen = -1;       ///< < 0 = trace-replay mode
  std::string port_file;  ///< write the bound port here (for scripts)
  size_t queue_capacity = 1024;
  size_t watermark = 0;  ///< 0 derives 3/4 of capacity
  size_t max_batch = 256;
  size_t workers = 16;   ///< connection pool size
};

/// SIGTERM/SIGINT -> graceful drain, via the self-pipe trick (the handler
/// may only call async-signal-safe functions, so it just writes a byte; a
/// watcher thread turns that into Server::RequestDrain).
int g_signal_pipe[2] = {-1, -1};

void HandleDrainSignal(int /*signum*/) {
  const char byte = 's';
  (void)!write(g_signal_pipe[1], &byte, 1);
}

int CmdServeListen(const std::string& workload_path,
                   const ServeConfig& config,
                   const server::ServerOptions& server_options) {
  auto instance = Load(workload_path);
  if (!instance.ok()) return Fail(instance.status());

  server::Server server(server_options);
  if (Status status = server.Start(*instance); !status.ok()) {
    return Fail(status);
  }
  if (const durability::DurabilityManager* manager =
          server.durability_manager()) {
    const durability::RecoveryStats& recovery = manager->recovery();
    std::printf("recovered:  snapshot %s, %llu wal records replayed "
                "(last seq %llu)%s, %.1f ms\n",
                recovery.snapshot_loaded
                    ? ("seq " + std::to_string(recovery.snapshot_seq)).c_str()
                    : "none",
                static_cast<unsigned long long>(recovery.wal_records_replayed),
                static_cast<unsigned long long>(recovery.wal_last_seq),
                recovery.torn_tail ? ", torn tail dropped" : "",
                1e3 * recovery.recovery_seconds);
  }
  server.WithEngine([&](const online::OnlineEngine& engine) {
    std::printf("listening:  %s:%u (%zu queries, %zu components, "
                "cost %.2f)\n",
                server_options.host.c_str(), server.port(),
                engine.NumQueries(), engine.NumComponents(),
                engine.TotalCost());
  });
  std::fflush(stdout);
  if (!config.port_file.empty()) {
    if (Status status =
            WriteFile(config.port_file, std::to_string(server.port()) + "\n");
        !status.ok()) {
      server.RequestDrain();
      server.Join();
      return Fail(status);
    }
  }

  if (pipe(g_signal_pipe) != 0) {
    server.RequestDrain();
    server.Join();
    return Fail(Status::Internal("cannot create signal pipe"));
  }
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGINT, HandleDrainSignal);
  std::atomic<bool> watcher_stop{false};
  std::thread watcher([&server, &watcher_stop] {
    char byte;
    while (read(g_signal_pipe[0], &byte, 1) == 1) {
      if (watcher_stop.load(std::memory_order_acquire)) return;
      server.RequestDrain();
      return;
    }
  });

  server.Join();  // returns after a shutdown request or signal drains it

  watcher_stop.store(true, std::memory_order_release);
  (void)!write(g_signal_pipe[1], "q", 1);
  watcher.join();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  close(g_signal_pipe[0]);
  close(g_signal_pipe[1]);
  g_signal_pipe[0] = g_signal_pipe[1] = -1;

  const server::ServerStats stats = server.GetStats();
  std::printf("drained:    %llu requests (%llu responses), %llu rejected, "
              "%llu refused, %llu malformed\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.responses),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.refused_draining),
              static_cast<unsigned long long>(stats.malformed));
  std::printf("coalesced:  %llu update ops into %llu engine batches "
              "(largest %llu)\n",
              static_cast<unsigned long long>(stats.coalesced_ops),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.max_batch));
  if (const std::string trace_file = server.trace_file_path();
      !trace_file.empty()) {
    std::printf("trace:      %s (%zu spans kept, %llu dropped; load in "
                "Perfetto / chrome://tracing)\n",
                trace_file.c_str(), server.trace().recorded(),
                static_cast<unsigned long long>(server.trace().dropped()));
  }
  int exit_code = 0;
  server.WithEngine([&](const online::OnlineEngine& engine) {
    std::printf("final:      %zu queries, %zu components, cost %.2f\n",
                engine.NumQueries(), engine.NumComponents(),
                engine.TotalCost());
    if (Status status = engine.CheckInvariants(); !status.ok()) {
      exit_code = Fail(status);
    }
  });
  return exit_code;
}

int CmdServe(const std::string& workload_path, const std::string& trace_path,
             const ServeConfig& config) {
  auto instance = Load(workload_path);
  if (!instance.ok()) return Fail(instance.status());

  online::EngineOptions options;
  if (!ParseSolverKind(config.solver, &options.solver)) {
    std::fprintf(stderr, "unknown serve solver '%s'\n", config.solver.c_str());
    return 2;
  }
  options.solver_options.num_threads = config.threads;

  online::OnlineEngine engine(options);
  obs::Trace obs_trace("serve");
  // Ends before the report renders, so the root span times the whole run.
  std::optional<obs::ScopedTraceActivation> activate(std::in_place,
                                                     &obs_trace);
  Timer total_timer;
  auto init = engine.Initialize(*instance);
  if (!init.ok()) return Fail(init.status());
  std::printf("loaded:     %zu queries, %zu components, cost %.2f "
              "(%.1f ms)\n",
              engine.NumQueries(), engine.NumComponents(), engine.TotalCost(),
              1e3 * init->resolve_seconds);

  auto trace =
      online::LoadUpdateTrace(trace_path, instance->property_names());
  if (!trace.ok()) return Fail(trace.status());
  engine.set_property_names(std::move(trace->property_names));
  std::printf("trace:      %zu operations (%zu lines skipped)\n",
              trace->ops.size(), trace->skipped_lines);

  // Price classifiers the trace introduces but the workload doesn't know,
  // exactly as the live server and WAL replay do.
  if (config.default_cost >= 0) {
    std::vector<PropertySet> added;
    std::unordered_set<PropertySet, PropertySetHash> seen;
    for (const online::TraceOp& op : trace->ops) {
      if (op.kind == online::TraceOp::Kind::kAdd &&
          seen.insert(op.query).second) {
        added.push_back(op.query);
      }
    }
    auto priced =
        durability::PriceUnknown(added, config.default_cost, &engine);
    if (!priced.ok()) return Fail(priced.status());
    std::printf("priced:     %zu new classifiers at default difficulty "
                "%.2f\n",
                *priced, config.default_cost);
  }

  const size_t batch_size = std::max<size_t>(1, config.batch);
  size_t batches = 0;
  for (size_t at = 0; at < trace->ops.size(); at += batch_size) {
    std::vector<PropertySet> add;
    std::vector<PropertySet> remove;
    const size_t end = std::min(at + batch_size, trace->ops.size());
    for (size_t i = at; i < end; ++i) {
      if (trace->ops[i].kind == online::TraceOp::Kind::kAdd) {
        add.push_back(trace->ops[i].query);
      } else {
        remove.push_back(trace->ops[i].query);
      }
    }
    auto stats = engine.ApplyUpdate(add, remove);
    if (!stats.ok()) {
      // Mid-stream failure: name the batch and its trace lines, then exit
      // non-zero (the engine left the live set untouched — ApplyUpdate
      // fails atomically).
      std::fprintf(stderr,
                   "error: update batch %zu (trace lines %zu..%zu of %s) "
                   "rejected by the engine\n",
                   batches + 1, trace->ops[at].line, trace->ops[end - 1].line,
                   trace_path.c_str());
      return Fail(stats.status());
    }
    ++batches;
    if (config.verbose) {
      std::printf("batch %-5zu +%zu -%zu | %zu dirty -> %zu resolved, "
                  "%zu queries touched, %.2f ms | cost %.2f, "
                  "%zu components\n",
                  batches, stats->queries_added, stats->queries_removed,
                  stats->components_dirtied, stats->components_resolved,
                  stats->queries_touched, 1e3 * stats->resolve_seconds,
                  engine.TotalCost(), engine.NumComponents());
    }
    if (config.verify_every > 0 && batches % config.verify_every == 0) {
      if (Status status = engine.CheckInvariants(); !status.ok()) {
        return Fail(status);
      }
    }
  }
  if (Status status = engine.CheckInvariants(); !status.ok()) {
    return Fail(status);
  }

  // Initialize() is counted in the cumulative counters; subtract its stats
  // so the summary reflects the replay alone.
  const online::EngineCounters& counters = engine.counters();
  const double replay_seconds =
      counters.resolve_seconds - init->resolve_seconds;
  std::printf("replayed:   %zu batches (+%zu / -%zu queries)\n", batches,
              counters.queries_added - init->queries_added,
              counters.queries_removed - init->queries_removed);
  std::printf("re-solved:  %zu components, %zu queries touched, "
              "%.1f ms total (%.2f ms/batch)\n",
              counters.components_resolved - init->components_resolved,
              counters.queries_touched - init->queries_touched,
              1e3 * replay_seconds,
              batches > 0 ? 1e3 * replay_seconds /
                                static_cast<double>(batches)
                          : 0.0);
  std::printf("final:      %zu queries, %zu components, cost %.2f "
              "(invariants ok)\n",
              engine.NumQueries(), engine.NumComponents(),
              engine.TotalCost());
  if (!config.solution_out.empty()) {
    auto canonical = RenderCanonicalSolution(engine);
    if (!canonical.ok()) return Fail(canonical.status());
    if (Status status = WriteFile(config.solution_out, *canonical);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("solution:   %s (canonical, %zu classifiers)\n",
                config.solution_out.c_str(),
                engine.CurrentSolution().classifiers().size());
  }
  activate.reset();
  if (!config.report.empty()) {
    obs::SolveReportMeta meta;
    meta.tool = "serve";
    meta.solver = config.solver;
    meta.workload = workload_path;
    DescribeInstance(engine.LiveInstance(), &meta);
    meta.cost = engine.TotalCost();
    meta.solution_size = engine.CurrentSolution().size();
    meta.num_components = engine.NumComponents();
    meta.total_seconds = total_timer.Seconds();
    if (int code = WriteSolveReport(meta, obs_trace, config.report);
        code != 0) {
      return code;
    }
  }
  return 0;
}

/// `mc3 recover`: offline recovery of a durable data directory — loads the
/// base workload, replays snapshot + WAL tail exactly as a durable server
/// start would, verifies invariants and reports what was recovered. With
/// --solution-out, writes the canonical solution for equivalence checks
/// (scripts/recover_smoke.sh diffs it against an offline trace replay).
/// Opens the directory's WAL for writing — a torn tail is truncated — so do
/// not point it at a live server's data dir.
int CmdRecover(const std::string& workload_path, const ServeConfig& config,
               const std::string& data_dir) {
  auto instance = Load(workload_path);
  if (!instance.ok()) return Fail(instance.status());

  online::EngineOptions options;
  if (!ParseSolverKind(config.solver, &options.solver)) {
    std::fprintf(stderr, "unknown recover solver '%s'\n",
                 config.solver.c_str());
    return 2;
  }
  options.solver_options.num_threads = config.threads;
  online::OnlineEngine engine(options);

  durability::DurabilityOptions durability_options;
  durability_options.data_dir = data_dir;
  // Recovery only reads; no point spinning up a committer or fsyncing.
  durability_options.wal.sync = durability::WalOptions::SyncPolicy::kNone;
  auto manager = durability::DurabilityManager::Open(durability_options);
  if (!manager.ok()) return Fail(manager.status());
  auto recovery = (*manager)->Recover(*instance, config.default_cost, &engine);
  if (!recovery.ok()) return Fail(recovery.status());
  if (Status status = engine.CheckInvariants(); !status.ok()) {
    return Fail(status);
  }
  std::printf("recovered:  snapshot %s, %llu wal records replayed "
              "(last seq %llu)%s, %.1f ms\n",
              recovery->snapshot_loaded
                  ? ("seq " + std::to_string(recovery->snapshot_seq)).c_str()
                  : "none",
              static_cast<unsigned long long>(recovery->wal_records_replayed),
              static_cast<unsigned long long>(recovery->wal_last_seq),
              recovery->torn_tail ? ", torn tail dropped" : "",
              1e3 * recovery->recovery_seconds);
  std::printf("final:      %zu queries, %zu components, cost %.2f "
              "(invariants ok)\n",
              engine.NumQueries(), engine.NumComponents(), engine.TotalCost());
  if (!config.solution_out.empty()) {
    auto canonical = RenderCanonicalSolution(engine);
    if (!canonical.ok()) return Fail(canonical.status());
    if (Status status = WriteFile(config.solution_out, *canonical);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("solution:   %s (canonical, %zu classifiers)\n",
                config.solution_out.c_str(),
                engine.CurrentSolution().classifiers().size());
  }
  if (Status status = (*manager)->Close(); !status.ok()) return Fail(status);
  return 0;
}

/// `mc3 wal dump`: concatenates the update_trace payloads of every valid
/// WAL record with seq > `after` — the output replays through
/// `mc3 serve --trace`. Read-only (a torn tail is reported, not truncated).
int CmdWalDump(const std::string& data_dir, uint64_t after,
               const std::string& out_path) {
  auto scan = durability::ReadWal(data_dir, after);
  if (!scan.ok()) return Fail(scan.status());
  std::string payloads;
  for (const durability::WalRecord& record : scan->records) {
    payloads += record.payload;
  }
  if (out_path.empty()) {
    std::fwrite(payloads.data(), 1, payloads.size(), stdout);
  } else if (Status status = WriteFile(out_path, payloads); !status.ok()) {
    return Fail(status);
  }
  std::fprintf(stderr, "wal:        %zu records after seq %llu "
               "(last seq %llu)%s\n",
               scan->records.size(), static_cast<unsigned long long>(after),
               static_cast<unsigned long long>(scan->last_seq),
               scan->torn_tail ? ", torn tail" : "");
  return 0;
}

/// `mc3 wal stats`: read-only summary of a durable data directory.
int CmdWalStats(const std::string& data_dir) {
  auto segments = durability::ListWalSegments(data_dir);
  if (!segments.ok()) return Fail(segments.status());
  auto scan = durability::ReadWal(data_dir, 0);
  if (!scan.ok()) return Fail(scan.status());
  std::printf("segments:   %zu\n", segments->size());
  for (const std::string& segment : *segments) {
    std::printf("  %s\n", segment.c_str());
  }
  std::printf("records:    %zu (last seq %llu)\n", scan->records.size(),
              static_cast<unsigned long long>(scan->last_seq));
  if (scan->torn_tail) {
    std::printf("torn tail:  %s\n", scan->torn_detail.c_str());
  }
  auto snapshot = durability::LoadLatestSnapshot(data_dir);
  if (snapshot.ok()) {
    std::printf("snapshot:   seq %llu (%s)%s\n",
                static_cast<unsigned long long>(snapshot->seq),
                snapshot->path.c_str(),
                snapshot->skipped_invalid > 0 ? ", invalid newer skipped"
                                              : "");
  } else if (snapshot.status().code() == StatusCode::kNotFound) {
    std::printf("snapshot:   none\n");
  } else {
    return Fail(snapshot.status());
  }
  return 0;
}

int CmdPreprocess(const std::string& path) {
  auto instance = Load(path);
  if (!instance.ok()) return Fail(instance.status());
  auto pre = Preprocess(*instance);
  if (!pre.ok()) return Fail(pre.status());
  const PreprocessStats& stats = pre->stats;
  std::printf("forced selections:     %zu (cost %.2f)\n",
              pre->forced.size(), pre->forced_cost);
  std::printf("  singleton queries:   %zu\n",
              stats.singleton_queries_selected);
  std::printf("  zero-weight:         %zu\n", stats.zero_weight_selected);
  std::printf("  step-3 forced:       %zu\n", stats.forced_selections_step3);
  std::printf("  step-4 selections:   %zu\n", stats.selections_step4);
  std::printf("classifiers removed:   %zu (step 3) + %zu (step 4)\n",
              stats.classifiers_removed_step3, stats.singletons_removed_step4);
  std::printf("queries covered:       %zu of %zu\n", stats.queries_covered,
              instance->NumQueries());
  std::printf("residual:              %zu queries, %zu classifiers, "
              "%zu independent components\n",
              stats.remaining_queries, stats.remaining_classifiers,
              stats.num_components);
  return 0;
}

/// Run-level bench parameters (mirrors obs::BenchRunInfo plus the output
/// path).
struct BenchConfig {
  bool quick = false;
  uint64_t seed = 1;
  std::string report_path;
  size_t repeat = 1;
  size_t warmup = 0;
  std::string filter;
};

double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Non-zero counters of `snap` (zero entries are registry artifacts of
/// earlier cases: handles persist across ResetAll).
std::map<std::string, uint64_t> NonZeroCounters(
    const obs::MetricsSnapshot& snap) {
  std::map<std::string, uint64_t> counters;
  for (const auto& [name, value] : snap.counters) {
    if (value > 0) counters[name] = value;
  }
  return counters;
}

/// Runs `body` under a fresh trace `warmup` unmeasured times, then `repeat`
/// measured times with the metrics registry reset before each measurement.
/// Fills the case's counters (first repeat; drift across repeats is a
/// runtime failure — work counters are the determinism contract), all wall
/// times and the last run's trace; merges every measured snapshot into
/// `run_metrics`.
Status RunRepeated(const char* name, const BenchConfig& config,
                   const std::function<Status()>& body,
                   obs::MetricsSnapshot* run_metrics, obs::BenchCase* out,
                   std::vector<std::unique_ptr<obs::Trace>>* traces) {
  auto& registry = obs::MetricsRegistry::Global();
  for (size_t i = 0; i < config.warmup; ++i) {
    obs::Trace trace(name);
    obs::ScopedTraceActivation activate(&trace);
    MC3_RETURN_IF_ERROR(body());
  }
  const size_t repeat = std::max<size_t>(1, config.repeat);
  for (size_t i = 0; i < repeat; ++i) {
    registry.ResetAll();
    auto trace = std::make_unique<obs::Trace>(name);
    Timer timer;
    Status status = [&] {
      obs::ScopedTraceActivation activate(trace.get());
      return body();
    }();
    const double seconds = timer.Seconds();
    MC3_RETURN_IF_ERROR(status);
    out->wall_seconds.push_back(seconds);
    const obs::MetricsSnapshot snap = registry.Snap();
    const std::map<std::string, uint64_t> counters = NonZeroCounters(snap);
    if (i == 0) {
      out->counters = counters;
    } else if (counters != out->counters) {
      return Status::Internal(std::string("work counters of case '") + name +
                              "' drifted across repeats — the solve is "
                              "non-deterministic");
    }
    obs::MergeSnapshot(run_metrics, snap);
    if (i + 1 == repeat) {
      out->trace = trace.get();  // report the last measured run's span tree
      traces->push_back(std::move(trace));
    }
  }
  out->meta.total_seconds = MedianOf(out->wall_seconds);
  return Status::OK();
}

void PrintBenchCase(const obs::BenchCase& bench_case) {
  std::printf("case %-14s %6zu queries | cost %10.2f, %5zu classifiers, "
              "%7.1f ms (median of %zu)\n",
              bench_case.meta.workload.c_str(), bench_case.meta.num_queries,
              bench_case.meta.cost, bench_case.meta.solution_size,
              1e3 * bench_case.meta.total_seconds,
              bench_case.wall_seconds.size());
}

/// Solves `instance` (repeatedly) under fresh phase traces and appends the
/// bench case.
int RunBenchSolveCase(const char* name, const Instance& instance,
                      const Solver& solver, const BenchConfig& config,
                      obs::MetricsSnapshot* run_metrics,
                      std::vector<std::unique_ptr<obs::Trace>>* traces,
                      std::vector<obs::BenchCase>* cases) {
  obs::BenchCase bench_case;
  Result<SolveResult> result = Status::Internal("bench body never ran");
  Status status = RunRepeated(
      name, config,
      [&] {
        result = solver.Solve(instance);
        return result.ok() ? Status::OK() : result.status();
      },
      run_metrics, &bench_case, traces);
  if (!status.ok()) return Fail(status);

  bench_case.meta.tool = "bench";
  bench_case.meta.solver = solver.Name();
  bench_case.meta.workload = name;
  DescribeInstance(instance, &bench_case.meta);
  bench_case.meta.cost = result->cost;
  bench_case.meta.solution_size = result->solution.size();
  bench_case.meta.num_components = result->num_components;
  PrintBenchCase(bench_case);
  cases->push_back(std::move(bench_case));
  return 0;
}

bool CaseSelected(const BenchConfig& config, const char* name) {
  return config.filter.empty() ||
         std::string(name).find(config.filter) != std::string::npos;
}

int CmdBench(const BenchConfig& config) {
  const double scale = config.quick ? 0.05 : 1.0;
  const uint64_t seed = config.seed;
  auto scaled = [&](size_t n) {
    return std::max<size_t>(100, static_cast<size_t>(n * scale));
  };
  std::vector<std::unique_ptr<obs::Trace>> traces;
  std::vector<obs::BenchCase> cases;
  obs::MetricsSnapshot run_metrics;

  // Case 1: the general pipeline (Algorithm 1 + WSC greedy / primal-dual)
  // on the paper's mixed-length synthetic workload.
  if (CaseSelected(config, "general")) {
    data::SyntheticConfig synth;
    synth.num_queries = scaled(20000);
    synth.seed = seed;
    const Instance instance = data::GenerateSynthetic(synth);
    if (int code = RunBenchSolveCase("general", instance,
                                     GeneralSolver(SolverOptions{}), config,
                                     &run_metrics, &traces, &cases);
        code != 0) {
      return code;
    }
  }

  // Case 2: the exact k <= 2 path (Algorithm 2: vertex cover via max-flow).
  if (CaseSelected(config, "k2")) {
    data::SyntheticConfig synth;
    synth.num_queries = scaled(20000);
    synth.max_query_length = 2;
    synth.seed = seed + 1;
    const Instance instance = data::GenerateSynthetic(synth);
    if (int code = RunBenchSolveCase("k2", instance,
                                     K2ExactSolver(SolverOptions{}), config,
                                     &run_metrics, &traces, &cases);
        code != 0) {
      return code;
    }
  }

  // Case 3: online churn — initialize the serving engine, then remove and
  // re-add sliding batches so the dirty-region repartition and component
  // re-solve paths are exercised. A fresh engine per repeat keeps the work
  // counters repeat-stable.
  if (CaseSelected(config, "online")) {
    data::SyntheticConfig synth;
    synth.num_queries = scaled(5000);
    synth.seed = seed + 2;
    const Instance instance = data::GenerateSynthetic(synth);
    obs::BenchCase bench_case;
    // Engine state of the last repeat, for the result section of the meta.
    std::unique_ptr<online::OnlineEngine> engine;
    Status status = RunRepeated(
        "online", config,
        [&]() -> Status {
          engine =
              std::make_unique<online::OnlineEngine>(online::EngineOptions{});
          auto init = engine->Initialize(instance);
          if (!init.ok()) return init.status();
          const auto& queries = instance.queries();
          const size_t batch = std::max<size_t>(1, queries.size() / 20);
          const size_t batches = std::min<size_t>(5, queries.size() / batch);
          for (size_t b = 0; b < batches; ++b) {
            const auto begin = queries.begin() + b * batch;
            const std::vector<PropertySet> chunk(begin, begin + batch);
            auto removed = engine->RemoveQueries(chunk);
            if (!removed.ok()) return removed.status();
            auto added = engine->AddQueries(chunk);
            if (!added.ok()) return added.status();
          }
          return engine->CheckInvariants();
        },
        &run_metrics, &bench_case, &traces);
    if (!status.ok()) return Fail(status);

    bench_case.meta.tool = "bench";
    bench_case.meta.solver = "online:auto";
    bench_case.meta.workload = "online";
    DescribeInstance(instance, &bench_case.meta);
    bench_case.meta.cost = engine->TotalCost();
    bench_case.meta.solution_size = engine->CurrentSolution().size();
    bench_case.meta.num_components = engine->NumComponents();
    PrintBenchCase(bench_case);
    cases.push_back(std::move(bench_case));
  }

  // Case 4: the durability path — the online churn of case 3 with every
  // batch WAL-logged (immediate fsync so the work counters are
  // repeat-stable), a mid-run checkpoint, then a full recovery into a
  // second engine that must reproduce the live solution exactly. Uses a
  // throwaway data dir under the working directory, recreated per repeat.
  if (CaseSelected(config, "wal")) {
    data::SyntheticConfig synth;
    synth.num_queries = scaled(2000);
    synth.seed = seed + 3;
    Instance instance = data::GenerateSynthetic(synth);
    // Synthetic instances are nameless; WAL payloads are name-keyed.
    std::vector<std::string> names;
    names.reserve(instance.NumProperties());
    for (size_t p = 0; p < instance.NumProperties(); ++p) {
      names.push_back("p" + std::to_string(p));
    }
    instance.set_property_names(std::move(names));
    // Per-process scratch dir: concurrent bench invocations (ctest -j runs
    // several) must not recover each other's half-written WALs.
    const std::string data_dir =
        "bench_wal." + std::to_string(::getpid()) + ".tmp";
    obs::BenchCase bench_case;
    std::unique_ptr<online::OnlineEngine> engine;
    Status status = RunRepeated(
        "wal", config,
        [&]() -> Status {
          std::error_code ec;
          std::filesystem::remove_all(data_dir, ec);
          engine =
              std::make_unique<online::OnlineEngine>(online::EngineOptions{});
          durability::DurabilityOptions durability_options;
          durability_options.data_dir = data_dir;
          durability_options.wal.sync =
              durability::WalOptions::SyncPolicy::kImmediate;
          auto manager = durability::DurabilityManager::Open(durability_options);
          if (!manager.ok()) return manager.status();
          auto recovery =
              (*manager)->Recover(instance, /*default_cost=*/-1, engine.get());
          if (!recovery.ok()) return recovery.status();
          const auto& queries = instance.queries();
          const size_t batch = std::max<size_t>(1, queries.size() / 20);
          const size_t batches = std::min<size_t>(5, queries.size() / batch);
          for (size_t b = 0; b < batches; ++b) {
            const auto begin = queries.begin() + b * batch;
            const std::vector<PropertySet> chunk(begin, begin + batch);
            auto removed = engine->RemoveQueries(chunk);
            if (!removed.ok()) return removed.status();
            auto logged =
                (*manager)->LogBatch({}, chunk, engine->property_names());
            if (!logged.ok()) return logged.status();
            auto added = engine->AddQueries(chunk);
            if (!added.ok()) return added.status();
            logged = (*manager)->LogBatch(chunk, {}, engine->property_names());
            if (!logged.ok()) return logged.status();
            if (b + 1 == (batches + 1) / 2) {
              auto checkpoint = (*manager)->Checkpoint(engine->ExportState());
              if (!checkpoint.ok()) return checkpoint.status();
            }
          }
          if (Status s = (*manager)->Close(); !s.ok()) return s;
          // Reopen and recover into a fresh engine: the canonical solution
          // must match the live engine byte for byte.
          online::OnlineEngine recovered{online::EngineOptions{}};
          auto reopened =
              durability::DurabilityManager::Open(durability_options);
          if (!reopened.ok()) return reopened.status();
          auto replay = (*reopened)->Recover(instance, -1, &recovered);
          if (!replay.ok()) return replay.status();
          if (Status s = (*reopened)->Close(); !s.ok()) return s;
          if (Status s = recovered.CheckInvariants(); !s.ok()) return s;
          auto live = RenderCanonicalSolution(*engine);
          if (!live.ok()) return live.status();
          auto redone = RenderCanonicalSolution(recovered);
          if (!redone.ok()) return redone.status();
          if (*live != *redone) {
            return Status::Internal(
                "recovered solution diverges from the live engine");
          }
          std::filesystem::remove_all(data_dir, ec);
          return Status::OK();
        },
        &run_metrics, &bench_case, &traces);
    if (!status.ok()) return Fail(status);

    bench_case.meta.tool = "bench";
    bench_case.meta.solver = "durability:auto";
    bench_case.meta.workload = "wal";
    DescribeInstance(instance, &bench_case.meta);
    bench_case.meta.cost = engine->TotalCost();
    bench_case.meta.solution_size = engine->CurrentSolution().size();
    bench_case.meta.num_components = engine->NumComponents();
    PrintBenchCase(bench_case);
    cases.push_back(std::move(bench_case));
  }

  if (cases.empty()) {
    std::fprintf(stderr, "no bench case matches --filter '%s'\n",
                 config.filter.c_str());
    return 2;
  }

  obs::BenchRunInfo run;
  run.quick = config.quick;
  run.scale = scale;
  run.seed = seed;
  run.repeat = std::max<size_t>(1, config.repeat);
  run.warmup = config.warmup;
  run.filter = config.filter;
  const std::string json = obs::RenderBenchReport(cases, run_metrics, run);
  if (Status status = obs::ValidateBenchReportJson(json); !status.ok()) {
    return Fail(status);
  }
  const std::string path =
      config.report_path.empty() ? "BENCH_mc3.json" : config.report_path;
  if (Status status = WriteFile(path, json); !status.ok()) {
    return Fail(status);
  }
  std::printf("report:        %s (validated, schema %s)\n", path.c_str(),
              obs::kBenchReportSchema);
  return 0;
}

/// One flag of a command's usage line.
struct Flag {
  const char* name;
  bool takes_value;
};

/// A command's arguments, checked against the flags of its usage line.
class Args {
 public:
  /// Splits `args` into flags (each known to `flags`) and positionals.
  /// Prints the offending argument and returns nullopt on an unknown flag
  /// or a value flag in last position.
  static std::optional<Args> Parse(const std::string& command,
                                   const std::vector<std::string>& args,
                                   std::initializer_list<Flag> flags) {
    Args out;
    out.command_ = command;
    for (size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.size() < 2 || arg[0] != '-') {
        out.positionals_.push_back(arg);
        continue;
      }
      const Flag* flag = nullptr;
      for (const Flag& f : flags) {
        if (arg == f.name) flag = &f;
      }
      if (flag == nullptr) {
        std::fprintf(stderr, "mc3 %s: unknown flag '%s'\n", command.c_str(),
                     arg.c_str());
        return std::nullopt;
      }
      if (!flag->takes_value) {
        out.values_.emplace_back(arg, "");
      } else if (i + 1 < args.size()) {
        out.values_.emplace_back(arg, args[++i]);
      } else {
        std::fprintf(stderr, "mc3 %s: flag '%s' needs a value\n",
                     command.c_str(), arg.c_str());
        return std::nullopt;
      }
    }
    return out;
  }

  /// The value of the first occurrence of `flag`, or nullptr.
  const std::string* value(const std::string& flag) const {
    for (const auto& [name, value] : values_) {
      if (name == flag) return &value;
    }
    return nullptr;
  }
  bool has(const std::string& flag) const { return value(flag) != nullptr; }
  /// Reads the value of `flag` into `*out` when the flag is given and leaves
  /// `*out` alone otherwise. The whole value must be a T: no trailing text,
  /// no overflow, no sign on an unsigned T, no infinity or NaN. Prints the
  /// flag and its value and returns false when it is not.
  template <typename T>
  bool Number(const std::string& flag, T* out) const {
    const std::string* text = value(flag);
    if (text == nullptr) return true;
    T parsed{};
    const char* end = text->data() + text->size();
    const auto [stop, error] = std::from_chars(text->data(), end, parsed);
    if (error != std::errc() || stop != end || !std::isfinite(parsed)) {
      const char* kind = std::is_floating_point_v<T> ? "a number"
                         : std::is_signed_v<T>       ? "an integer"
                                                     : "an unsigned integer";
      std::fprintf(stderr, "mc3 %s: flag '%s' needs %s, got '%s'\n",
                   command_.c_str(), flag.c_str(), kind, text->c_str());
      return false;
    }
    *out = parsed;
    return true;
  }
  /// The first positional argument, or nullptr.
  const std::string* positional() const {
    return positionals_.empty() ? nullptr : &positionals_.front();
  }

 private:
  std::string command_;
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> positionals_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const std::vector<std::string> raw(argv + 2, argv + argc);

  if (command == "stats" || command == "preprocess") {
    const auto args = Args::Parse(command, raw, {});
    if (!args || args->positional() == nullptr) return Usage();
    return command == "stats" ? CmdStats(*args->positional())
                              : CmdPreprocess(*args->positional());
  }
  if (command == "solve") {
    const auto args =
        Args::Parse(command, raw,
                    {{"--solver", true}, {"--no-preprocess", false},
                     {"--threads", true}, {"--exact-components", true},
                     {"--plan", false}, {"--out", true}, {"--report", true}});
    if (!args || args->positional() == nullptr) return Usage();
    const std::string* solver = args->value("--solver");
    SolverOptions options;
    if (args->has("--no-preprocess")) options.preprocess = false;
    if (!args->Number("--threads", &options.num_threads) ||
        !args->Number("--exact-components",
                      &options.exact_component_max_queries)) {
      return 2;
    }
    const std::string* out = args->value("--out");
    const std::string* report = args->value("--report");
    return CmdSolve(*args->positional(), solver != nullptr ? *solver : "auto",
                    options, args->has("--plan"), out != nullptr ? *out : "",
                    report != nullptr ? *report : "");
  }
  if (command == "generate") {
    const auto args = Args::Parse(
        command, raw,
        {{"--dataset", true}, {"--n", true}, {"--seed", true}, {"-o", true}});
    if (!args) return Usage();
    const std::string* dataset = args->value("--dataset");
    const std::string* out = args->value("-o");
    if (dataset == nullptr || out == nullptr) return Usage();
    size_t n = 0;
    uint64_t seed = 1;
    if (!args->Number("--n", &n) || !args->Number("--seed", &seed)) return 2;
    return CmdGenerate(*dataset, n, seed, *out);
  }
  if (command == "serve") {
    // The two modes have their own usage lines; --listen picks the network
    // one.
    const bool listening =
        std::find(raw.begin(), raw.end(), "--listen") != raw.end();
    const auto args =
        listening
            ? Args::Parse(command, raw,
                          {{"--listen", true},
                           {"--port-file", true},
                           {"--queue-capacity", true},
                           {"--watermark", true},
                           {"--max-batch", true},
                           {"--workers", true},
                           {"--solver", true},
                           {"--threads", true},
                           {"--default-cost", true},
                           {"--data-dir", true},
                           {"--wal-sync", true},
                           {"--wal-group-ms", true},
                           {"--checkpoint-every", true},
                           {"--checkpoint-interval", true},
                           {"--keep-wal-segments", false},
                           {"--trace-sample", true},
                           {"--trace-out", true}})
            : Args::Parse(command, raw,
                          {{"--trace", true},
                           {"--solver", true},
                           {"--threads", true},
                           {"--batch", true},
                           {"--default-cost", true},
                           {"--verify-every", true},
                           {"--verbose", false},
                           {"--solution-out", true},
                           {"--report", true}});
    if (!args) return Usage();
    const std::string* path = args->positional();
    const std::string* trace = args->value("--trace");
    const std::string* listen = args->value("--listen");
    if (path == nullptr || (trace == nullptr && listen == nullptr)) {
      return Usage();
    }
    ServeConfig config;
    if (const std::string* v = args->value("--solver")) config.solver = *v;
    if (!args->Number("--threads", &config.threads) ||
        !args->Number("--batch", &config.batch) ||
        !args->Number("--default-cost", &config.default_cost) ||
        !args->Number("--verify-every", &config.verify_every)) {
      return 2;
    }
    config.verbose = args->has("--verbose");
    if (const std::string* v = args->value("--report")) config.report = *v;
    if (const std::string* v = args->value("--solution-out")) {
      config.solution_out = *v;
    }
    if (listen != nullptr) {
      if (!args->Number("--listen", &config.listen)) return 2;
      if (config.listen < 0 || config.listen > 65535) return Usage();
      if (const std::string* v = args->value("--port-file")) {
        config.port_file = *v;
      }
      if (!args->Number("--queue-capacity", &config.queue_capacity) ||
          !args->Number("--watermark", &config.watermark) ||
          !args->Number("--max-batch", &config.max_batch) ||
          !args->Number("--workers", &config.workers)) {
        return 2;
      }
      // A queue that holds nothing would refuse every update with 429.
      if (config.queue_capacity == 0) {
        std::fprintf(stderr,
                     "mc3 serve: flag '--queue-capacity' needs at least 1, "
                     "got '0'\n");
        return 2;
      }
      server::ServerOptions server_options;
      server_options.port = static_cast<uint16_t>(config.listen);
      server_options.queue_capacity = config.queue_capacity;
      server_options.admission_watermark = config.watermark;
      server_options.max_batch = config.max_batch;
      server_options.connection_workers = config.workers;
      server_options.default_cost = config.default_cost;
      if (!ParseSolverKind(config.solver, &server_options.engine.solver)) {
        std::fprintf(stderr, "unknown serve solver '%s'\n",
                     config.solver.c_str());
        return 2;
      }
      server_options.engine.solver_options.num_threads = config.threads;
      if (const std::string* v = args->value("--data-dir")) {
        server_options.durability.data_dir = *v;
      }
      if (const std::string* v = args->value("--wal-sync")) {
        if (*v == "grouped") {
          server_options.durability.wal.sync =
              durability::WalOptions::SyncPolicy::kGrouped;
        } else if (*v == "immediate") {
          server_options.durability.wal.sync =
              durability::WalOptions::SyncPolicy::kImmediate;
        } else if (*v == "none") {
          server_options.durability.wal.sync =
              durability::WalOptions::SyncPolicy::kNone;
        } else {
          std::fprintf(stderr, "unknown --wal-sync '%s'\n", v->c_str());
          return 2;
        }
      }
      durability::DurabilityOptions& durable = server_options.durability;
      if (!args->Number("--wal-group-ms", &durable.wal.group_window_ms) ||
          !args->Number("--checkpoint-every",
                        &durable.checkpoint_every_updates) ||
          !args->Number("--checkpoint-interval",
                        &durable.checkpoint_interval_s)) {
        return 2;
      }
      durable.keep_segments = args->has("--keep-wal-segments");
      if (!args->Number("--trace-sample", &server_options.trace_sample)) {
        return 2;
      }
      if (const std::string* v = args->value("--trace-out")) {
        server_options.trace_out_dir = *v;
      }
      return CmdServeListen(*path, config, server_options);
    }
    return CmdServe(*path, *trace, config);
  }
  if (command == "recover") {
    const auto args = Args::Parse(
        command, raw,
        {{"--data-dir", true}, {"--solver", true}, {"--threads", true},
         {"--default-cost", true}, {"--solution-out", true}});
    if (!args) return Usage();
    const std::string* path = args->positional();
    const std::string* data_dir = args->value("--data-dir");
    if (path == nullptr || data_dir == nullptr) return Usage();
    ServeConfig config;
    if (const std::string* v = args->value("--solver")) config.solver = *v;
    if (!args->Number("--threads", &config.threads) ||
        !args->Number("--default-cost", &config.default_cost)) {
      return 2;
    }
    if (const std::string* v = args->value("--solution-out")) {
      config.solution_out = *v;
    }
    return CmdRecover(*path, config, *data_dir);
  }
  if (command == "wal") {
    // The verb picks the usage line: `dump` takes --after and -o, `stats`
    // only --data-dir.
    auto args = Args::Parse(
        "wal", raw, {{"--data-dir", true}, {"--after", true}, {"-o", true}});
    if (!args || args->positional() == nullptr) return Usage();
    if (*args->positional() != "dump") {
      args = Args::Parse("wal", raw, {{"--data-dir", true}});
      if (!args) return Usage();
    }
    const std::string* verb = args->positional();
    const std::string* data_dir = args->value("--data-dir");
    if (data_dir == nullptr) return Usage();
    if (*verb == "dump") {
      uint64_t after = 0;
      if (!args->Number("--after", &after)) return 2;
      const std::string* out = args->value("-o");
      return CmdWalDump(*data_dir, after, out != nullptr ? *out : "");
    }
    if (*verb == "stats") return CmdWalStats(*data_dir);
    return Usage();
  }
  if (command == "bench") {
    const auto args = Args::Parse(
        command, raw,
        {{"--quick", false}, {"--seed", true}, {"--report", true},
         {"--repeat", true}, {"--warmup", true}, {"--filter", true}});
    if (!args) return Usage();
    BenchConfig config;
    config.quick = args->has("--quick");
    if (!args->Number("--seed", &config.seed) ||
        !args->Number("--repeat", &config.repeat) ||
        !args->Number("--warmup", &config.warmup)) {
      return 2;
    }
    if (const std::string* v = args->value("--report")) {
      config.report_path = *v;
    }
    if (const std::string* v = args->value("--filter")) {
      config.filter = *v;
    }
    return CmdBench(config);
  }
  if (command == "ingest") {
    const auto args = Args::Parse(command, raw,
                                  {{"-o", true}, {"--default-cost", true}});
    if (!args) return Usage();
    const std::string* path = args->positional();
    const std::string* out = args->value("-o");
    if (path == nullptr || out == nullptr) return Usage();
    Cost default_cost = 5;
    if (!args->Number("--default-cost", &default_cost)) return 2;
    return CmdIngest(*path, *out, default_cost);
  }
  return Usage();
}
