// Tests of the benchmark's own helpers: order statistics, seeded schedules
// and inputs, open-loop due-time accounting and histogram scrapes. The
// percentile rule for pooled latencies lives in run.py (test_run.py).
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common.h"
#include "data/io.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "serve_client.h"
#include "serve_gen.h"
#include "solve_bench.h"
#include "util/rng.h"

namespace perfbench {
namespace {

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonSchedule(7, 200, 30);
  const std::vector<double> b = PoissonSchedule(7, 200, 30);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonSchedule(8, 200, 30));
  // 6,000 expected arrivals; the count is Poisson (sd about 77).
  EXPECT_NEAR(static_cast<double>(a.size()), 6000, 400);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LE(a.back(), 30);
}

TEST(LatenciesFromDue, ChargesFromDueTime) {
  // Sent 50 ms late and answered 1 ms after sending: 51 ms, not 1 ms.
  const std::vector<double> latency = LatenciesFromDue({1.0, 2.0}, {1.051, 2.001});
  ASSERT_EQ(latency.size(), 2u);
  EXPECT_NEAR(latency[0], 0.051, 1e-9);
  EXPECT_NEAR(latency[1], 0.001, 1e-9);
}

constexpr double kStall = 0.2;

TEST(RunOpenLoop, ServerStallIsChargedToTheRequestsItDelays) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  LineSocket client(fds[0]);

  // Fake server: holds its first response for kStall, then answers every
  // request at once, in order.
  std::thread server([fd = fds[1]] {
    std::string pending;
    char chunk[4096];
    bool stalled = false;
    int answered = 0;
    while (answered < 20) {
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      pending.append(chunk, static_cast<size_t>(n));
      if (!stalled) {
        std::this_thread::sleep_for(std::chrono::duration<double>(kStall));
        stalled = true;
      }
      size_t newline;
      while ((newline = pending.find('\n')) != std::string::npos) {
        pending.erase(0, newline + 1);
        const std::string response = "ok\n";
        send(fd, response.data(), response.size(), MSG_NOSIGNAL);
        ++answered;
      }
    }
    close(fd);
  });
  std::vector<double> due;
  std::vector<std::string> requests;
  for (int i = 0; i < 20; ++i) {
    due.push_back(0.01 * i);
    requests.push_back("req " + std::to_string(i));
  }
  std::atomic<bool> stop{false};
  const double start = Now() + 0.01;
  const OpenLoopTrace trace = RunOpenLoop(client, due, start, requests, stop, 5);
  server.join();
  ASSERT_TRUE(trace.error.empty()) << trace.error;
  ASSERT_EQ(trace.done.size(), 20u);
  const std::vector<double> latency = LatenciesFromDue(trace.due, trace.done);
  for (size_t i = 0; i < latency.size(); ++i) {
    // Every request due inside the stall waits for its end.
    const double stall_end = start + kStall;
    EXPECT_GE(latency[i], stall_end - trace.due[i] - 0.01) << "request " << i;
    // The sender kept its schedule: no request went out late.
    EXPECT_LT(trace.sent[i] - trace.due[i], 0.05) << "request " << i;
  }
  EXPECT_GE(latency[10], 0.09);
}

TEST(ServeWorkload, SameSeedSameBytes) {
  const ServeWorkload a = GenerateServeWorkload(3, 40);
  const ServeWorkload b = GenerateServeWorkload(3, 40);
  EXPECT_EQ(a.catalog_csv, b.catalog_csv);
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(a.warmup[w], b.warmup[w]);
    EXPECT_EQ(a.measured[w], b.measured[w]);
    EXPECT_EQ(a.measured[w].size(), 40u);
  }
  const ServeWorkload c = GenerateServeWorkload(4, 40);
  EXPECT_NE(a.catalog_csv, c.catalog_csv);
  EXPECT_NE(a.measured[0], c.measured[0]);
}

/// Property names a writer's requests mention.
std::set<std::string> NamesOf(const std::vector<std::string>& requests) {
  std::set<std::string> names;
  for (const std::string& line : requests) {
    auto value = mc3::obs::ParseJson(line);
    EXPECT_TRUE(value.ok());
    for (const char* list : {"add", "remove"}) {
      for (const auto& query : value->Find(list)->array) {
        for (const auto& name : query.array) names.insert(name.string);
      }
    }
  }
  return names;
}

TEST(ServeWorkload, WritersOwnDisjointDomains) {
  const ServeWorkload workload = GenerateServeWorkload(5, 200);
  std::set<std::string> first = NamesOf(workload.measured[0]);
  const std::set<std::string> warm0 = NamesOf(workload.warmup[0]);
  first.insert(warm0.begin(), warm0.end());
  std::set<std::string> second = NamesOf(workload.measured[1]);
  const std::set<std::string> warm1 = NamesOf(workload.warmup[1]);
  second.insert(warm1.begin(), warm1.end());
  for (const std::string& name : first) EXPECT_EQ(second.count(name), 0u) << name;
  // Each measured request removes four queries and revives four.
  const auto request = mc3::obs::ParseJson(workload.measured[0].front());
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->Find("add")->array.size(), kServeOpsPerSide);
  EXPECT_EQ(request->Find("remove")->array.size(), kServeOpsPerSide);
}

TEST(SolveWorkload, SameSeedSameCsv) {
  const std::string a =
      mc3::data::InstanceToCsv(GenerateSolveInstance(SolveKind::kGeneral, 2));
  const std::string b =
      mc3::data::InstanceToCsv(GenerateSolveInstance(SolveKind::kGeneral, 2));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, mc3::data::InstanceToCsv(
                   GenerateSolveInstance(SolveKind::kGeneral, 3)));
}

TEST(SyntheticSeedFor, HoldsThePoolRatioOfSeedOne) {
  for (size_t n : {size_t{20000}, size_t{100000}}) {
    const auto sqrt_n = static_cast<uint64_t>(std::sqrt(static_cast<double>(n)));
    const uint64_t target = mc3::Rng(1).UniformInt(2, sqrt_n);
    std::set<uint64_t> seeds;
    for (uint64_t bench_seed = 1; bench_seed <= 20; ++bench_seed) {
      const uint64_t seed = SyntheticSeedFor(bench_seed, n);
      EXPECT_EQ(mc3::Rng(seed).UniformInt(2, sqrt_n), target);
      seeds.insert(seed);
    }
    EXPECT_EQ(seeds.size(), 20u);
  }
}

TEST(PercentileBetween, TakesTheEventsBetweenTwoScrapes) {
  const auto scrape = [](int le1, int le2, int le4) {
    auto parsed = mc3::obs::ParseExposition(
        "# TYPE mc3_x histogram\n"
        "mc3_x_bucket{le=\"1\"} " + std::to_string(le1) + "\n"
        "mc3_x_bucket{le=\"2\"} " + std::to_string(le2) + "\n"
        "mc3_x_bucket{le=\"4\"} " + std::to_string(le4) + "\n"
        "mc3_x_bucket{le=\"+Inf\"} " + std::to_string(le4) + "\n");
    EXPECT_TRUE(parsed.ok());
    return HistogramBuckets(*parsed, "mc3_x");
  };
  // 10 early events at or below 2 are not part of the interval; the 100
  // between the scrapes split evenly over (1, 2] and (2, 4].
  const std::map<double, double> before = scrape(0, 10, 10);
  const std::map<double, double> after = scrape(0, 60, 110);
  EXPECT_DOUBLE_EQ(PercentileBetween(before, after, 0.5), 2);
  EXPECT_DOUBLE_EQ(PercentileBetween(before, after, 0.75), 3);
  EXPECT_EQ(PercentileBetween(after, after, 0.5), 0);
  EXPECT_TRUE(HistogramBuckets({}, "mc3_missing").empty());
}

}  // namespace
}  // namespace perfbench
