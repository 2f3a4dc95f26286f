// mc3_loadgen — drive a running `mc3 serve --listen` server with an
// open-loop churn workload and write a mc3.load_report/2 summary.
//
//   mc3_loadgen --port N [--host H] [--port-file F] [--qps Q] [--ops N]
//               [--connections N] [--burst N] [--seed S] [--quick]
//               [--solve-every N] [--remove-every N] [--read-ratio R]
//               [--tenants N]
//               [--shutdown] [--report out.json] [--min-coalesced-batch N]
//               [--scrape-interval SECS] [--scrape-out F]
//
// --port-file reads the target port from a file written by
// `mc3 serve --listen 0 --port-file F` (ephemeral-port handshake for CI).
// --quick shrinks the run for smoke tests. --min-coalesced-batch fails the
// run (exit 1) unless the server reports a coalesced batch at least that
// large — the CI gate proving that batching actually engaged. --tenants
// splits the synthetic property pool into disjoint per-tenant slices, so
// the updates land in separate engine components. --scrape-interval samples
// the server's `metrics` exposition on a dedicated connection during the
// run, embeds the time series in the report, and fails the run (exit 1) if
// the final server counters disagree with client-side accounting;
// --scrape-out dumps the final raw exposition text for artifact upload.
// --read-ratio R (in [0,1]) switches to mixed mode: each operation is
// independently a solve with probability R (deterministic per seed) and
// the report splits read-vs-write latency summaries.
//
// Exit codes: 0 success, 1 runtime/gate failure, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mc3_loadgen/loadgen.h"

namespace {

using namespace mc3;

int Usage() {
  std::fprintf(
      stderr,
      "usage: mc3_loadgen --port N [--host H] [--port-file F] [--qps Q]\n"
      "                   [--ops N] [--connections N] [--burst N] [--seed S]\n"
      "                   [--quick] [--solve-every N] [--remove-every N]\n"
      "                   [--read-ratio R]\n"
      "                   [--tenants N] [--properties N] [--query-length N]\n"
      "                   [--shutdown] [--report out.json]\n"
      "                   [--min-coalesced-batch N]\n"
      "                   [--scrape-interval SECS] [--scrape-out F]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
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

Result<uint16_t> ReadPortFile(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::NotFound("cannot open port file " + path);
  }
  char buffer[32] = {};
  const size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, in);
  std::fclose(in);
  const unsigned long port = std::strtoul(buffer, nullptr, 10);
  if (n == 0 || port == 0 || port > 65535) {
    return Status::InvalidArgument("port file " + path +
                                   " does not hold a port number");
  }
  return static_cast<uint16_t>(port);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  auto flag_value = [&](const std::string& flag) -> const std::string* {
    for (size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i] == flag) return &args[i + 1];
    }
    return nullptr;
  };
  auto has_flag = [&](const std::string& flag) {
    for (const auto& a : args) {
      if (a == flag) return true;
    }
    return false;
  };

  loadgen::LoadGenOptions options;
  if (has_flag("--quick")) {
    options.operations = 64;
    options.qps = 400;
    options.connections = 4;
    options.burst = 24;
  }
  if (const std::string* v = flag_value("--host")) options.host = *v;
  if (const std::string* v = flag_value("--port")) {
    options.port = static_cast<uint16_t>(std::strtoul(v->c_str(), nullptr, 10));
  }
  if (const std::string* v = flag_value("--port-file")) {
    auto port = ReadPortFile(*v);
    if (!port.ok()) return Fail(port.status());
    options.port = *port;
  }
  if (const std::string* v = flag_value("--qps")) {
    options.qps = std::strtod(v->c_str(), nullptr);
  }
  if (const std::string* v = flag_value("--ops")) {
    options.operations = std::strtoul(v->c_str(), nullptr, 10);
  }
  if (const std::string* v = flag_value("--connections")) {
    options.connections = std::strtoul(v->c_str(), nullptr, 10);
  }
  if (const std::string* v = flag_value("--burst")) {
    options.burst = std::strtoul(v->c_str(), nullptr, 10);
  }
  if (const std::string* v = flag_value("--seed")) {
    options.seed = std::strtoull(v->c_str(), nullptr, 10);
  }
  if (const std::string* v = flag_value("--solve-every")) {
    options.solve_every = std::strtoul(v->c_str(), nullptr, 10);
  }
  if (const std::string* v = flag_value("--remove-every")) {
    options.remove_every = std::strtoul(v->c_str(), nullptr, 10);
  }
  if (const std::string* v = flag_value("--read-ratio")) {
    char* end = nullptr;
    options.read_ratio = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0' || options.read_ratio < 0 ||
        options.read_ratio > 1) {
      return Usage();
    }
  }
  if (const std::string* v = flag_value("--tenants")) {
    options.tenants = std::strtoul(v->c_str(), nullptr, 10);
    if (options.tenants == 0) return Usage();
  }
  if (const std::string* v = flag_value("--properties")) {
    options.num_properties = std::strtoul(v->c_str(), nullptr, 10);
    if (options.num_properties == 0) return Usage();
  }
  if (const std::string* v = flag_value("--query-length")) {
    options.query_length = std::strtoul(v->c_str(), nullptr, 10);
    if (options.query_length == 0) return Usage();
  }
  if (const std::string* v = flag_value("--scrape-interval")) {
    options.scrape_interval_seconds = std::strtod(v->c_str(), nullptr);
    if (options.scrape_interval_seconds <= 0) return Usage();
  }
  options.shutdown_after = has_flag("--shutdown");
  if (options.port == 0) return Usage();

  auto report = loadgen::RunLoadGen(options);
  if (!report.ok()) return Fail(report.status());

  const std::string json = loadgen::RenderLoadReport(*report);
  if (Status status = loadgen::ValidateLoadReportJson(json); !status.ok()) {
    return Fail(status);  // self-validation: the emitted document is the product
  }
  if (const std::string* path = flag_value("--report")) {
    if (Status status = WriteFile(*path, json); !status.ok()) {
      return Fail(status);
    }
    std::printf("report written to %s\n", path->c_str());
  } else {
    std::printf("%s\n", json.c_str());
  }
  if (const std::string* path = flag_value("--scrape-out")) {
    if (report->final_exposition.empty()) {
      std::fprintf(stderr,
                   "error: --scrape-out needs --scrape-interval and a "
                   "successful scrape\n");
      return 1;
    }
    if (Status status = WriteFile(*path, report->final_exposition);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("exposition written to %s (%zu scrapes)\n", path->c_str(),
                report->scrapes.size());
  }
  std::printf(
      "sent %llu, ok %llu, rejected %llu, refused %llu, errors %llu, "
      "lost %llu | server batches %llu, coalesced ops %llu, max batch %llu\n",
      static_cast<unsigned long long>(report->sent),
      static_cast<unsigned long long>(report->ok),
      static_cast<unsigned long long>(report->rejected),
      static_cast<unsigned long long>(report->refused),
      static_cast<unsigned long long>(report->errors),
      static_cast<unsigned long long>(report->lost),
      static_cast<unsigned long long>(report->server_batches),
      static_cast<unsigned long long>(report->server_coalesced_ops),
      static_cast<unsigned long long>(report->server_max_batch));

  if (report->lost > 0) {
    std::fprintf(stderr, "error: %llu accepted requests got no response\n",
                 static_cast<unsigned long long>(report->lost));
    return 1;
  }
  if (options.scrape_interval_seconds > 0) {
    if (!report->reconcile.checked) {
      std::fprintf(stderr,
                   "error: --scrape-interval was set but no metrics "
                   "exposition was captured\n");
      return 1;
    }
    if (!report->reconcile.error.empty()) {
      std::fprintf(stderr, "error: counter reconcile drift: %s\n",
                   report->reconcile.error.c_str());
      return 1;
    }
    std::printf("reconcile: ok (%llu updates, %llu solves, %zu scrapes)\n",
                static_cast<unsigned long long>(report->client_updates_sent),
                static_cast<unsigned long long>(report->client_solves_sent),
                report->scrapes.size());
  }
  if (const std::string* v = flag_value("--min-coalesced-batch")) {
    const uint64_t want = std::strtoull(v->c_str(), nullptr, 10);
    if (!report->server_stats_valid || report->server_max_batch < want) {
      std::fprintf(stderr,
                   "error: max coalesced batch %llu below required %llu\n",
                   static_cast<unsigned long long>(report->server_max_batch),
                   static_cast<unsigned long long>(want));
      return 1;
    }
  }
  return 0;
}
