// Shared helpers of the benchmark binary: clocks, order statistics, seeded
// schedules, process resource probes and the result-line writer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double Now();

/// Blocks until the steady clock reads `when` (no-op when already past).
void SleepUntil(double when);

/// Median of `samples` (mean of the middle pair for even counts); 0 when
/// empty.
double Median(std::vector<double> samples);

/// Arrival offsets (seconds from 0) of a Poisson process with `rate` events
/// per second, up to `duration`. The same seed gives the same schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration);

/// Latency of each request of an open-loop stream, charged from the time it
/// was due rather than the time it was sent: a stall that delays a send (a
/// blocked socket, a late sender) is paid by every request it holds back.
/// `due` and `done` are parallel absolute times.
std::vector<double> LatenciesFromDue(const std::vector<double>& due,
                                     const std::vector<double>& done);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// user+sys CPU seconds of this process.
double ProcessCpuSeconds();

/// user+sys CPU seconds of process `pid` (all threads), from /proc.
mc3::Result<double> PidCpuSeconds(int pid);

/// Generator seed for the paper's synthetic workload at `num_queries` that
/// keeps the generator's first draw — the property-pool ratio t — equal to
/// the one seed 1 draws, searching upward from a scramble of `bench_seed`.
/// The pool ratio spans [2, sqrt(n)] and moves solve time and plan cost by
/// integer factors; holding it makes every benchmark seed the same regime
/// while queries and prices are fresh draws.
uint64_t SyntheticSeedFor(uint64_t bench_seed, size_t num_queries);

/// Reads / writes a whole file.
mc3::Result<std::string> ReadFile(const std::string& path);
mc3::Status WriteFile(const std::string& path, const std::string& content);

/// One metric of a result line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// A step's result: the last stdout line is
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Free-form diagnostics printed beside the metrics (not gated).
  std::map<std::string, double> notes;
  /// Raw per-event samples the caller aggregates across processes.
  std::map<std::string, std::vector<double>> samples;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts `count` failed operations and marks the run incorrect.
  void Fail(const std::string& why, uint64_t count = 1);
  std::string ToJson() const;
};

}  // namespace perfbench
