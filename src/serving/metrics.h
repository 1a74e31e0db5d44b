// Serving-side latency and occupancy histograms, aggregated across all
// sessions of a fleet. Modeled on the usual production pattern
// (Prometheus-style fixed-bucket histograms) but dependency-free. All
// methods are safe to call concurrently from pool workers. Event counters
// are not kept here: they live once, on the whiteboard's device rows
// (obs/whiteboard.h).
#ifndef QCORE_SERVING_METRICS_H_
#define QCORE_SERVING_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace qcore {

// Fixed-bucket latency histogram (seconds). Buckets are exponential with
// sqrt(2) spacing from 10us; 48 buckets cover up to ~80s before overflow.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(double seconds);

  uint64_t count() const;
  double sum_seconds() const;
  double mean_seconds() const;
  // Linear-interpolated quantile from bucket boundaries, q in [0, 1].
  double QuantileSeconds(double q) const;

  // "count=12 mean=3.4ms p50=2.1ms p95=9.0ms p99=12.3ms"
  std::string Summary() const;

  static constexpr int kNumBuckets = 48;

  // Upper bound of bucket b (seconds); last bucket is +inf.
  static double UpperBound(int b);

 private:
  int BucketFor(double seconds) const;

  mutable Mutex mu_;
  uint64_t buckets_[kNumBuckets] QCORE_GUARDED_BY(mu_);
  uint64_t count_ QCORE_GUARDED_BY(mu_) = 0;
  double sum_ QCORE_GUARDED_BY(mu_) = 0.0;
};

// Small-integer histogram with exact unit buckets for 0..kMaxTracked-1 and
// one overflow bucket. Used for batch occupancy (requests per flushed
// batch) and per-session queue depth — distributions whose interesting
// range is a few dozen at most, where exact counts beat bucket
// interpolation. Thread-safe like LatencyHistogram.
class CountHistogram {
 public:
  static constexpr int kMaxTracked = 64;

  void Record(int64_t value);

  uint64_t count() const;
  double mean() const;
  int64_t max() const;
  // Observations with exactly this value (values >= kMaxTracked pool in
  // the overflow bucket, addressed as CountAt(kMaxTracked)).
  uint64_t CountAt(int64_t value) const;
  // Observations with value >= `value`.
  uint64_t CountAtLeast(int64_t value) const;

  // "count=12 mean=3.4 max=8".
  std::string Summary() const;

 private:
  mutable Mutex mu_;
  uint64_t buckets_[kMaxTracked + 1] QCORE_GUARDED_BY(mu_) = {};
  uint64_t count_ QCORE_GUARDED_BY(mu_) = 0;
  int64_t sum_ QCORE_GUARDED_BY(mu_) = 0;
  int64_t max_ QCORE_GUARDED_BY(mu_) = 0;
};

// The four serving histograms. One instance serves a whole fleet: a
// sharded router passes its instance into every shard.
class ServingMetrics {
 public:
  LatencyHistogram& inference_latency() { return inference_latency_; }
  LatencyHistogram& calibration_latency() { return calibration_latency_; }
  const LatencyHistogram& inference_latency() const {
    return inference_latency_;
  }
  const LatencyHistogram& calibration_latency() const {
    return calibration_latency_;
  }
  // Requests coalesced per batched forward pass (1 = degenerate batch).
  CountHistogram& batch_occupancy() { return batch_occupancy_; }
  const CountHistogram& batch_occupancy() const { return batch_occupancy_; }
  // Per-session queue depth sampled after each accepted enqueue.
  CountHistogram& queue_depth() { return queue_depth_; }
  const CountHistogram& queue_depth() const { return queue_depth_; }

  // Multi-line human-readable report.
  std::string Report() const;

 private:
  LatencyHistogram inference_latency_;
  LatencyHistogram calibration_latency_;
  CountHistogram batch_occupancy_;
  CountHistogram queue_depth_;
};

}  // namespace qcore

#endif  // QCORE_SERVING_METRICS_H_
