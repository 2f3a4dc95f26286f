#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/json.h"
#include "util/rng.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double when) {
  const double wait = when - Now();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration) {
  mc3::Rng rng(seed);
  std::vector<double> due;
  double at = 0;
  while (true) {
    at += -std::log1p(-rng.UniformDouble()) / rate;
    if (at > duration) break;
    due.push_back(at);
  }
  return due;
}

std::vector<double> LatenciesFromDue(const std::vector<double>& due,
                                     const std::vector<double>& done) {
  std::vector<double> out;
  const size_t n = std::min(due.size(), done.size());
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(done[i] - due[i]);
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

mc3::Result<double> PidCpuSeconds(int pid) {
  auto text = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  if (!text.ok()) return text.status();
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const size_t close = text->rfind(')');
  if (close == std::string::npos) {
    return mc3::Status::IOError("malformed /proc stat for pid " +
                                std::to_string(pid));
  }
  std::istringstream in(text->substr(close + 2));
  std::string field;
  double utime = 0;
  double stime = 0;
  // After ')': state(3) ... utime is field 14, stime 15.
  for (int index = 3; index <= 15 && (in >> field); ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

uint64_t SyntheticSeedFor(uint64_t bench_seed, size_t num_queries) {
  const auto sqrt_n = std::max<uint64_t>(
      2, static_cast<uint64_t>(std::sqrt(static_cast<double>(num_queries))));
  const uint64_t target = mc3::Rng(1).UniformInt(2, sqrt_n);
  // Scramble so neighbouring benchmark seeds land far apart.
  uint64_t candidate = mc3::Rng(bench_seed ^ 0x5eedULL).Next() >> 16;
  while (mc3::Rng(candidate).UniformInt(2, sqrt_n) != target) ++candidate;
  return candidate;
}

mc3::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return mc3::Status::NotFound("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

mc3::Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.close();
  if (!out) return mc3::Status::IOError("cannot write " + path);
  return mc3::Status::OK();
}

void RunResult::Fail(const std::string& why, uint64_t count) {
  std::fprintf(stderr, "check failed: %s\n", why.c_str());
  correct = false;
  failed += count;
}

std::string RunResult::ToJson() const {
  mc3::obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("correct").Bool(correct);
  writer.Key("attempted").Int(attempted);
  writer.Key("failed").Int(failed);
  writer.Key("metrics").BeginObject();
  for (const auto& [name, metric] : metrics) {
    writer.Key(name).BeginObject();
    writer.Key("value").Number(metric.value);
    writer.Key("unit").String(metric.unit);
    writer.EndObject();
  }
  writer.EndObject();
  writer.Key("notes").BeginObject();
  for (const auto& [name, value] : notes) writer.Key(name).Number(value);
  writer.EndObject();
  writer.Key("samples").BeginObject();
  for (const auto& [name, values] : samples) {
    writer.Key(name).BeginArray();
    for (double value : values) writer.Number(value);
    writer.EndArray();
  }
  writer.EndObject();
  writer.EndObject();
  return writer.Take();
}

}  // namespace perfbench
