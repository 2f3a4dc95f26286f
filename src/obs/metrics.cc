#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mc3::obs {

namespace {

constexpr double kBucketBase = 1e-7;  ///< lower bound of bucket 1

/// Relaxed compare-exchange accumulate for atomic doubles (fetch_add on
/// atomic<double> needs C++20 library support that libstdc++ lowers to the
/// same loop; spelled out here for portability).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double expected = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(expected, expected + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double expected = target->load(std::memory_order_relaxed);
  while (value < expected && !target->compare_exchange_weak(
                                 expected, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double expected = target->load(std::memory_order_relaxed);
  while (value > expected && !target->compare_exchange_weak(
                                 expected, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

double HistogramBucketBound(int i) {
  if (i <= 0) return 0;
  return kBucketBase * std::pow(2.0, i - 1);
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0;
  if (q <= 0) return min;
  if (q >= 1) return max;
  // Rank of the requested quantile among the `count` samples (1-based).
  const double rank = q * static_cast<double>(count);
  double seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double next = seen + static_cast<double>(buckets[i]);
    if (rank <= next) {
      // Interpolate inside bucket i, clamped to the observed range (the
      // first and last buckets are open-ended; min/max bound them). Values
      // beyond the bucket table clamp into the last bucket, so its upper
      // edge is the observed max, not the (finite) next bound — and lo can
      // then exceed the nominal bucket range entirely.
      const double lo = std::max(HistogramBucketBound(static_cast<int>(i)), min);
      double hi = i + 1 >= buckets.size()
                      ? max
                      : std::min(HistogramBucketBound(static_cast<int>(i) + 1),
                                 max);
      if (hi < lo) hi = lo;
      const double fraction =
          (rank - seen) / static_cast<double>(buckets[i]);
      return lo + fraction * (hi - lo);
    }
    seen = next;
  }
  return max;
}

void MergeSnapshot(MetricsSnapshot* into, const MetricsSnapshot& delta) {
  for (const auto& [name, value] : delta.counters) {
    into->counters[name] += value;
  }
  for (const auto& [name, value] : delta.gauges) {
    into->gauges[name] = value;
  }
  for (const auto& [name, h] : delta.histograms) {
    HistogramSnapshot& target = into->histograms[name];
    if (target.count == 0) {
      target = h;
      continue;
    }
    if (h.count == 0) continue;
    target.min = std::min(target.min, h.min);
    target.max = std::max(target.max, h.max);
    target.count += h.count;
    target.sum += h.sum;
    if (h.buckets.size() > target.buckets.size()) {
      target.buckets.resize(h.buckets.size(), 0);
    }
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      target.buckets[i] += h.buckets[i];
    }
  }
}

int Histogram::BucketOf(double value) {
  if (!(value > kBucketBase)) return 0;  // also catches NaN and negatives
  const int bucket = 1 + static_cast<int>(std::log2(value / kBucketBase));
  return bucket >= kNumBuckets ? kNumBuckets - 1 : bucket;
}

double Histogram::BucketLowerBound(int i) { return HistogramBucketBound(i); }

void Histogram::Record(double value) {
  if (std::isnan(value)) return;
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

HistogramSnapshot Histogram::Snap() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = snap.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  snap.buckets.resize(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  // Drop trailing empty buckets so snapshots (and their JSON) stay small.
  while (!snap.buckets.empty() && snap.buckets.back() == 0) {
    snap.buckets.pop_back();
  }
  return snap;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Destroying the registry at exit would race late metric updates.
  // mc3-lint: new-delete-ok(intentionally leaked process-lifetime singleton)
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::ResetAll() {
  util::MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsSnapshot MetricsRegistry::Snap() const {
  util::MutexLock lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h->Snap();
  return snap;
}

}  // namespace mc3::obs
