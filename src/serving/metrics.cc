#include "serving/metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace qcore {

LatencyHistogram::LatencyHistogram() {
  std::memset(buckets_, 0, sizeof(buckets_));
}

namespace {

// 1e-5s * 2^((b+1)/2): spans 10us .. ~80s, last bucket +inf. Precomputed —
// Record runs under the histogram mutex on every serving task.
const std::array<double, LatencyHistogram::kNumBuckets>& BucketBounds() {
  static const auto bounds = []() {
    std::array<double, LatencyHistogram::kNumBuckets> b{};
    for (int i = 0; i < LatencyHistogram::kNumBuckets - 1; ++i) {
      b[static_cast<size_t>(i)] = 1e-5 * std::pow(2.0, 0.5 * (i + 1));
    }
    b[LatencyHistogram::kNumBuckets - 1] =
        std::numeric_limits<double>::infinity();
    return b;
  }();
  return bounds;
}

}  // namespace

double LatencyHistogram::UpperBound(int b) {
  return BucketBounds()[static_cast<size_t>(
      std::clamp(b, 0, kNumBuckets - 1))];
}

int LatencyHistogram::BucketFor(double seconds) const {
  const auto& bounds = BucketBounds();
  const auto it =
      std::upper_bound(bounds.begin(), bounds.end() - 1, seconds);
  return static_cast<int>(it - bounds.begin());
}

void LatencyHistogram::Record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  MutexLock lock(mu_);
  ++buckets_[BucketFor(seconds)];
  ++count_;
  sum_ += seconds;
}

uint64_t LatencyHistogram::count() const {
  MutexLock lock(mu_);
  return count_;
}

double LatencyHistogram::sum_seconds() const {
  MutexLock lock(mu_);
  return sum_;
}

double LatencyHistogram::mean_seconds() const {
  MutexLock lock(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

namespace {

// Quantile from a bucket snapshot (linear interpolation inside the bucket).
double QuantileFromBuckets(
    const uint64_t (&buckets)[LatencyHistogram::kNumBuckets], uint64_t count,
    double q) {
  q = std::clamp(q, 0.0, 1.0);
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  uint64_t running = 0;
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    const uint64_t next = running + buckets[b];
    if (static_cast<double>(next) >= target && buckets[b] > 0) {
      const double lo = (b == 0) ? 0.0 : LatencyHistogram::UpperBound(b - 1);
      double hi = LatencyHistogram::UpperBound(b);
      if (std::isinf(hi)) hi = lo * 2.0;
      const double frac = (target - static_cast<double>(running)) /
                          static_cast<double>(buckets[b]);
      return lo + frac * (hi - lo);
    }
    running = next;
  }
  return LatencyHistogram::UpperBound(LatencyHistogram::kNumBuckets - 2);
}

}  // namespace

double LatencyHistogram::QuantileSeconds(double q) const {
  MutexLock lock(mu_);
  return QuantileFromBuckets(buckets_, count_, q);
}

std::string LatencyHistogram::Summary() const {
  // One lock acquisition: the printed line must be internally consistent
  // even while pool workers keep recording.
  uint64_t buckets[kNumBuckets];
  uint64_t count;
  double sum;
  {
    MutexLock lock(mu_);
    std::memcpy(buckets, buckets_, sizeof(buckets));
    count = count_;
    sum = sum_;
  }
  const double mean = count == 0 ? 0.0 : sum / static_cast<double>(count);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms",
                static_cast<unsigned long long>(count), mean * 1e3,
                QuantileFromBuckets(buckets, count, 0.5) * 1e3,
                QuantileFromBuckets(buckets, count, 0.95) * 1e3,
                QuantileFromBuckets(buckets, count, 0.99) * 1e3);
  return buf;
}

void CountHistogram::Record(int64_t value) {
  if (value < 0) value = 0;
  const int bucket =
      value >= kMaxTracked ? kMaxTracked : static_cast<int>(value);
  MutexLock lock(mu_);
  ++buckets_[bucket];
  ++count_;
  sum_ += value;
  if (value > max_) max_ = value;
}

uint64_t CountHistogram::count() const {
  MutexLock lock(mu_);
  return count_;
}

double CountHistogram::mean() const {
  MutexLock lock(mu_);
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) /
                           static_cast<double>(count_);
}

int64_t CountHistogram::max() const {
  MutexLock lock(mu_);
  return max_;
}

uint64_t CountHistogram::CountAt(int64_t value) const {
  if (value < 0) return 0;
  const int bucket =
      value >= kMaxTracked ? kMaxTracked : static_cast<int>(value);
  MutexLock lock(mu_);
  return buckets_[bucket];
}

uint64_t CountHistogram::CountAtLeast(int64_t value) const {
  if (value < 0) value = 0;
  const int from =
      value >= kMaxTracked ? kMaxTracked : static_cast<int>(value);
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (int b = from; b <= kMaxTracked; ++b) total += buckets_[b];
  return total;
}

std::string CountHistogram::Summary() const {
  uint64_t count;
  int64_t sum, max;
  {
    MutexLock lock(mu_);
    count = count_;
    sum = sum_;
    max = max_;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "count=%llu mean=%.2f max=%lld",
                static_cast<unsigned long long>(count),
                count == 0 ? 0.0
                           : static_cast<double>(sum) /
                                 static_cast<double>(count),
                static_cast<long long>(max));
  return buf;
}

std::string ServingMetrics::Report() const {
  return "inference:   latency[" + inference_latency_.Summary() +
         "]\ncalibration: latency[" + calibration_latency_.Summary() +
         "]\nbatching:    occupancy[" + batch_occupancy_.Summary() +
         "]\noverload:    queue_depth[" + queue_depth_.Summary() + "]\n";
}

}  // namespace qcore
