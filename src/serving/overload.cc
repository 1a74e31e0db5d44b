#include "serving/overload.h"

#include <algorithm>
#include <cmath>

#include "testing/fault_injector.h"

namespace qcore {

OverloadClock::TimePoint OverloadClock::Now() {
  TimePoint now = Clock::now();
  uint64_t skew_us = 0;
  if (MaybeFault(FaultPoint::kDeadlineClockSkew, &skew_us)) {
    now += std::chrono::microseconds(skew_us);
  }
  return now;
}

OverloadClock::TimePoint OverloadClock::DeadlineFor(double budget_us) {
  if (budget_us <= 0.0) return NoDeadline();
  return Now() + std::chrono::microseconds(
                     static_cast<int64_t>(std::llround(budget_us)));
}

const char* AdmissionLevelName(AdmissionLevel level) {
  switch (level) {
    case AdmissionLevel::kSession: return "session";
    case AdmissionLevel::kShard: return "shard";
    case AdmissionLevel::kFleet: return "fleet";
    case AdmissionLevel::kNone: return "none";
  }
  return "unknown";
}

bool AdmissionNode::TryAcquireLocal(bool is_inference) {
  std::atomic<int>& class_gauge = is_inference ? inference_ : calibration_;
  const int class_cap = is_inference ? caps_.inference : caps_.calibration;
  const int prev_total = total_.fetch_add(1, std::memory_order_relaxed);
  const int prev_class = class_gauge.fetch_add(1, std::memory_order_relaxed);
  const bool over_total = caps_.total > 0 && prev_total >= caps_.total;
  const bool over_class = class_cap > 0 && prev_class >= class_cap;
  if (over_total || over_class) {
    class_gauge.fetch_sub(1, std::memory_order_relaxed);
    total_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void AdmissionNode::ReleaseLocal(bool is_inference) {
  (is_inference ? inference_ : calibration_)
      .fetch_sub(1, std::memory_order_relaxed);
  total_.fetch_sub(1, std::memory_order_relaxed);
}

AdmissionLimiter::AdmissionLimiter(AdmissionCaps fleet_caps)
    : root_(std::make_unique<AdmissionNode>(AdmissionLevel::kFleet, fleet_caps,
                                            nullptr)) {}

AdmissionNode* AdmissionLimiter::AddShard(AdmissionCaps caps) {
  MutexLock lock(mu_);
  nodes_.push_back(std::make_unique<AdmissionNode>(AdmissionLevel::kShard,
                                                   caps, root_.get()));
  return nodes_.back().get();
}

AdmissionNode* AdmissionLimiter::AddSession(AdmissionNode* shard,
                                            AdmissionCaps caps) {
  QCORE_CHECK(shard != nullptr);
  QCORE_CHECK(shard->level() == AdmissionLevel::kShard);
  MutexLock lock(mu_);
  nodes_.push_back(std::make_unique<AdmissionNode>(AdmissionLevel::kSession,
                                                   caps, shard));
  return nodes_.back().get();
}

AdmissionLevel AdmissionLimiter::TryAcquire(AdmissionNode* leaf,
                                            bool is_inference) {
  QCORE_CHECK(leaf != nullptr);
  for (AdmissionNode* node = leaf; node != nullptr; node = node->parent()) {
    const bool refused_by_fault = node->level() == AdmissionLevel::kFleet &&
                                  MaybeFault(FaultPoint::kLimiterRefuse);
    if (refused_by_fault || !node->TryAcquireLocal(is_inference)) {
      // Roll back the levels already reserved (leaf up to node's child).
      for (AdmissionNode* held = leaf; held != node; held = held->parent()) {
        held->ReleaseLocal(is_inference);
      }
      return node->level();
    }
  }
  return AdmissionLevel::kNone;
}

void AdmissionLimiter::Release(AdmissionNode* leaf, bool is_inference) {
  QCORE_CHECK(leaf != nullptr);
  for (AdmissionNode* node = leaf; node != nullptr; node = node->parent()) {
    node->ReleaseLocal(is_inference);
  }
}

uint64_t ComputeBackoffUs(const RetryPolicy& policy, int attempt, Rng* rng) {
  QCORE_CHECK(attempt >= 1);
  double wait = static_cast<double>(policy.base_backoff_us) *
                std::pow(policy.multiplier, attempt - 1);
  if (policy.jitter > 0.0 && rng != nullptr) {
    wait *= rng->NextDouble(1.0 - policy.jitter, 1.0 + policy.jitter);
  }
  return static_cast<uint64_t>(std::llround(std::max(0.0, wait)));
}

}  // namespace qcore
