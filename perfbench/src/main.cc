// mc3_perfbench: the compiled half of the benchmark. perfbench/run.py
// builds it next to `mc3`, then calls one subcommand per step; each step
// prints its result as one JSON line (the last line of stdout).
//
//   gen-solve --kind general|short --seed N --out F.csv
//   solve --kind K --csv F --seconds S
//   solve-traced --kind K --csv F --trace-out F.json
//   gen-serve --seed N --requests R --dir D
//   serve-client --port P --pid PID --dir D --seed N [--scrape-stages]
//   serve-replay --dir D                (writes D/replay-plan.txt)
//   serve-replay-traced --dir D --data-dir DD --trace-out F.json
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.h"
#include "data/io.h"
#include "serve_client.h"
#include "serve_gen.h"
#include "serve_replay.h"
#include "solve_bench.h"

namespace {

using perfbench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: mc3_perfbench <gen-solve|solve|solve-traced|gen-serve|"
               "serve-client|serve-replay|serve-replay-traced> [--flag value]...\n"
               "(see the comment at the top of perfbench/src/main.cc)\n");
  return 2;
}

int Emit(const RunResult& result) {
  std::printf("%s\n", result.ToJson().c_str());
  return result.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage();
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "1";
    }
  }
  const auto flag = [&](const std::string& name) -> std::string {
    auto it = flags.find(name);
    return it == flags.end() ? "" : it->second;
  };
  const auto number = [&](const std::string& name, double fallback) {
    const std::string value = flag(name);
    return value.empty() ? fallback : std::strtod(value.c_str(), nullptr);
  };
  const auto seed = static_cast<uint64_t>(number("--seed", 1));

  if (command == "gen-solve" || command == "solve" || command == "solve-traced") {
    auto kind = perfbench::ParseSolveKind(flag("--kind"));
    if (!kind.ok()) return Usage();
    if (command == "gen-solve") {
      if (flag("--out").empty()) return Usage();
      const mc3::Instance instance = perfbench::GenerateSolveInstance(*kind, seed);
      RunResult result;
      if (mc3::Status status = mc3::data::SaveInstance(instance, flag("--out"));
          !status.ok()) {
        result.Fail(status.ToString());
      }
      result.notes["queries"] = static_cast<double>(instance.NumQueries());
      return Emit(result);
    }
    if (flag("--csv").empty()) return Usage();
    if (command == "solve") {
      return Emit(perfbench::RunSolve(*kind, flag("--csv"), number("--seconds", 5)));
    }
    return Emit(perfbench::RunSolveTraced(*kind, flag("--csv"), flag("--trace-out")));
  }
  if (flag("--dir").empty()) return Usage();
  if (command == "gen-serve") {
    const auto requests = static_cast<size_t>(number("--requests", 500));
    RunResult result;
    if (mc3::Status status = perfbench::WriteServeWorkload(
            perfbench::GenerateServeWorkload(seed, requests), flag("--dir"));
        !status.ok()) {
      result.Fail(status.ToString());
    }
    return Emit(result);
  }
  if (command == "serve-client") {
    perfbench::ServeClientOptions options;
    options.port = static_cast<int>(number("--port", 0));
    options.server_pid = static_cast<int>(number("--pid", 0));
    options.workload_dir = flag("--dir");
    options.seed = seed;
    options.scrape_stages = !flag("--scrape-stages").empty();
    if (options.port <= 0 || options.server_pid <= 0) return Usage();
    return Emit(perfbench::RunServeClient(options));
  }
  if (command == "serve-replay") {
    RunResult result;
    ++result.attempted;
    auto plan = perfbench::ReplayOffline(flag("--dir"));
    if (!plan.ok()) {
      result.Fail("offline replay: " + plan.status().ToString());
    } else if (mc3::Status status = perfbench::WriteFile(
                   flag("--dir") + "/replay-plan.txt", *plan);
               !status.ok()) {
      result.Fail(status.ToString());
    }
    return Emit(result);
  }
  if (command == "serve-replay-traced") {
    if (flag("--data-dir").empty()) return Usage();
    return Emit(perfbench::RunServeReplayTraced(flag("--dir"), flag("--data-dir"),
                                                flag("--trace-out")));
  }
  return Usage();
}
