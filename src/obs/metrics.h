// Process-wide metrics for the solver hot paths: monotonic counters, gauges
// and latency/value histograms, collected in a thread-safe registry and
// exportable as JSON (the "metrics" section of SolveReport).
//
// Design constraints (see docs/observability.md):
//   * recording must be cheap enough to leave on in production — counters
//     and histograms are lock-free atomics; the registry mutex is only taken
//     on first lookup of a name (instrumented sites cache the handle in a
//     function-local static).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace mc3::obs {

/// Inclusive lower bound of exponential bucket `i` (0 for the first bucket,
/// 2^(i-1) * 1e-7 afterwards). Shared by the live Histogram and snapshot
/// percentile math so both agree on the bucket geometry.
double HistogramBucketBound(int i);

/// Point-in-time copy of one histogram's state.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0;
  double min = 0;  ///< 0 when count == 0
  double max = 0;
  /// Occupancy of the exponential buckets; buckets[i] counts samples in
  /// [2^i * 1e-7, 2^(i+1) * 1e-7) with the first/last buckets open-ended.
  std::vector<uint64_t> buckets;

  double Mean() const { return count == 0 ? 0 : sum / static_cast<double>(count); }

  /// Estimated value at quantile `q` in [0, 1]: linear interpolation inside
  /// the bucket holding the rank, clamped to the observed [min, max]. Exact
  /// at the extremes (q=0 -> min, q=1 -> max); 0 when the histogram is empty.
  double Percentile(double q) const;
  double P50() const { return Percentile(0.50); }
  double P95() const { return Percentile(0.95); }
  double P99() const { return Percentile(0.99); }
};

/// Point-in-time copy of the whole registry.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Accumulates `delta` into `into`: counters and histogram buckets add,
/// gauges last-write-win. The bench runner resets the registry between cases
/// and merges the per-case snapshots into the run-wide metrics section.
void MergeSnapshot(MetricsSnapshot* into, const MetricsSnapshot& delta);

/// Monotonic event counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Lock-free histogram over non-negative doubles with exponential buckets
/// sized for latencies in seconds (0.1 microsecond granularity at the low
/// end, ~1.5 hours at the high end) — but any non-negative quantity works
/// (the greedy's coverage-per-pick distribution uses one too).
class Histogram {
 public:
  static constexpr int kNumBuckets = 36;

  /// Bucket index for `value`: floor(log2(value / 1e-7)), clamped.
  static int BucketOf(double value);
  /// Inclusive lower bound of bucket `i` (0 for the first bucket).
  static double BucketLowerBound(int i);

  void Record(double value);
  HistogramSnapshot Snap() const;
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{0};
};

/// Name -> metric registry. Handles returned by the Get* methods are stable
/// for the lifetime of the process (metrics are never deleted; ResetAll
/// zeroes values in place), so instrumented sites can cache them.
class MetricsRegistry {
 public:
  /// The process-wide registry used by all instrumented code.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Zeroes every registered metric (names and handles survive). The bench
  /// runner calls this between cases so each case reports its own deltas.
  void ResetAll();

  MetricsSnapshot Snap() const;

 private:
  mutable util::Mutex mu_;
  // The maps are guarded; the pointed-to metrics are lock-free and stable,
  // so handed-out references stay valid without the lock.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      MC3_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ MC3_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      MC3_GUARDED_BY(mu_);
};

}  // namespace mc3::obs

