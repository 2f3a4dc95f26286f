// mc3_benchdiff — compare two bench documents, or write a counters-only
// baseline from a report.
//
//   mc3_benchdiff <baseline.json> <current.json> [--counters-only]
//                 [--counter-tolerance PCT] [--wall-tolerance PCT]
//                 [--min-wall-ms MS] [--json out.json]
//       Diffs `current` against `baseline` (each a mc3.bench_report/2 or
//       mc3.bench_baseline/1 document). Prints a findings table;
//       --json additionally writes a validated mc3.bench_diff/1 document.
//       Tolerances are percentages (default: counters 0, wall 25).
//
//   mc3_benchdiff --write-baseline <out.json> <report.json>
//       Extracts the per-case work counters of `report` into a
//       machine-independent mc3.bench_baseline/1 document (the format
//       committed under bench/baselines/ and gated in CI).
//
// Exit codes: 0 no regression, 1 regression found, 2 usage or load error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "benchdiff/benchdiff.h"

namespace {

using namespace mc3;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  mc3_benchdiff <baseline.json> <current.json> [--counters-only]\n"
      "                [--counter-tolerance PCT] [--wall-tolerance PCT]\n"
      "                [--min-wall-ms MS] [--json out.json]\n"
      "  mc3_benchdiff --write-baseline <out.json> <report.json>\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::InvalidArgument("cannot open " + path);
  }
  std::string content;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(in);
  return content;
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

Result<benchdiff::BenchData> LoadFile(const std::string& path) {
  auto content = ReadFile(path);
  if (!content.ok()) return content.status();
  auto data = benchdiff::LoadBenchData(*content);
  if (!data.ok()) {
    return Status::InvalidArgument(path + ": " + data.status().ToString());
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  if (!args.empty() && args[0] == "--write-baseline") {
    if (args.size() != 3) return Usage();
    auto data = LoadFile(args[2]);
    if (!data.ok()) return Fail(data.status());
    const std::string json = benchdiff::RenderBaselineJson(*data);
    if (Status status = WriteFile(args[1], json); !status.ok()) {
      return Fail(status);
    }
    std::printf("baseline written to %s (%zu cases, schema %s)\n",
                args[1].c_str(), data->cases.size(),
                benchdiff::kBenchBaselineSchema);
    return 0;
  }

  std::vector<std::string> paths;
  benchdiff::DiffOptions options;
  std::string json_out;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const char* {
      return i + 1 < args.size() ? args[++i].c_str() : nullptr;
    };
    if (arg == "--counters-only") {
      options.counters_only = true;
    } else if (arg == "--counter-tolerance") {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.counter_tolerance = std::strtod(v, nullptr) / 100.0;
    } else if (arg == "--wall-tolerance") {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.wall_tolerance = std::strtod(v, nullptr) / 100.0;
    } else if (arg == "--min-wall-ms") {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.min_wall_seconds = std::strtod(v, nullptr) / 1e3;
    } else if (arg == "--json") {
      const char* v = value();
      if (v == nullptr) return Usage();
      json_out = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) return Usage();

  auto baseline = LoadFile(paths[0]);
  if (!baseline.ok()) return Fail(baseline.status());
  auto current = LoadFile(paths[1]);
  if (!current.ok()) return Fail(current.status());

  const benchdiff::DiffReport report =
      benchdiff::DiffBenchData(*baseline, *current, options);

  std::printf("compared %zu cases, %zu counters%s\n", report.cases_compared,
              report.counters_compared,
              report.wall_compared ? ", wall times" : "");
  if (report.findings.empty()) {
    std::printf("no drift: counters identical%s\n",
                options.counters_only ? " (wall times not compared)" : "");
  } else {
    std::printf("%s", benchdiff::RenderDiffTable(report).c_str());
  }

  if (!json_out.empty()) {
    const std::string json = benchdiff::RenderDiffJson(report, options);
    if (Status status = benchdiff::ValidateBenchDiffJson(json);
        !status.ok()) {
      return Fail(status);
    }
    if (Status status = WriteFile(json_out, json); !status.ok()) {
      return Fail(status);
    }
    std::printf("diff written to %s (schema %s)\n", json_out.c_str(),
                benchdiff::kBenchDiffSchema);
  }

  const size_t regressions = report.NumRegressions();
  if (regressions > 0) {
    std::fprintf(stderr, "%zu regression finding(s)\n", regressions);
    return 1;
  }
  return 0;
}
