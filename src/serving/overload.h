// Overload-control plane for the fleet serving runtime: the pieces that
// decide, under sustained load beyond capacity, WHICH work is refused or
// abandoned and which is protected — so that what the fleet does deliver
// stays bit-identical to an unloaded run of the same admitted set.
//
// Three mechanisms live here; the serving layers thread them through:
//
//  1. Deadline shedding (OverloadClock + Deadline). A submission may carry
//     a latency budget. The budget is converted to an absolute deadline at
//     admission; the batcher's flush path and the session exec path both
//     re-check it, so a request whose budget expired while parked in a
//     queue is resolved with kDeadlineExceeded instead of burning a
//     forward pass on an answer nobody is waiting for. The clock is a
//     chaos seam: kDeadlineClockSkew skews "now" forward, forcing early
//     expiry without touching any model math — a latency-only fault.
//
//  2. Hierarchical admission (AdmissionLimiter). Queue bounds compose down
//     a fleet -> shard -> session tree, in the style of grouped memory
//     limiters in production databases (cf. YDB's grouped memory limiter):
//     admitting one request reserves a slot at every level leaf-to-root,
//     any level can refuse, and a refusal rolls the partial reservation
//     back. Refusals are counted per level, so "who is the bottleneck" is
//     a gauge read, not a log dive. Caps of 0 mean unbounded at that
//     level, which is how single-shard deployments keep their historical
//     flat per-session bounds unchanged.
//
//  3. Retry shaping (RetryPolicy). Shed work is retried by callers, not by
//     the server (retrying inside would invert the point of shedding).
//     RetryWithBackoff gives TrySubmit* callers one canonical
//     seeded-jitter exponential backoff so a thousand shed clients do not
//     re-arrive in lockstep.
#ifndef QCORE_SERVING_OVERLOAD_H_
#define QCORE_SERVING_OVERLOAD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace qcore {

// ------------------------------------------------------------- deadlines

// The deadline clock. All budget/deadline arithmetic in the serving plane
// goes through Now() so the kDeadlineClockSkew fault point can skew every
// expiry check coherently from one seam.
struct OverloadClock {
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  // steady_clock::now(), plus the chaos skew when kDeadlineClockSkew is
  // armed (script arg = microseconds to leap forward).
  static TimePoint Now();

  // Absolute deadline for a budget measured from Now(). A budget of 0 (or
  // negative) means "no deadline" and maps to TimePoint::max(), the value
  // every expiry check treats as never-expiring.
  static TimePoint DeadlineFor(double budget_us);

  static constexpr TimePoint NoDeadline() { return TimePoint::max(); }

  // True when `deadline` has passed. Never true for NoDeadline().
  static bool Expired(TimePoint deadline) {
    return deadline != NoDeadline() && Now() >= deadline;
  }
};

// -------------------------------------------------- hierarchical admission

// Which level of the admission tree refused a reservation. Shed accounting
// and whiteboard rows key off this: a session refusal is the historical
// "queue full" shed; shard/fleet refusals are limiter sheds.
enum class AdmissionLevel : uint8_t {
  kSession = 0,
  kShard,
  kFleet,
  kNone,  // not refused — the reservation succeeded
};

const char* AdmissionLevelName(AdmissionLevel level);

// Per-level queue-depth caps. 0 = unbounded for that axis. `total` bounds
// inference + calibration together; the per-class caps bound each class
// alone (both are checked — a class cap cannot borrow headroom the shared
// cap does not have).
struct AdmissionCaps {
  int total = 0;
  int inference = 0;
  int calibration = 0;
};

// One node of the admission tree. Gauges are atomics written on the
// submit/complete paths; caps are immutable after construction. Nodes are
// created through AdmissionLimiter and live as long as the limiter —
// sessions that migrate away keep their node allocated (gauges at zero),
// so no submit path ever races a node teardown.
class AdmissionNode {
 public:
  AdmissionNode(AdmissionLevel level, AdmissionCaps caps, AdmissionNode* parent)
      : level_(level), caps_(caps), parent_(parent) {}

  AdmissionNode(const AdmissionNode&) = delete;
  AdmissionNode& operator=(const AdmissionNode&) = delete;

  AdmissionLevel level() const { return level_; }
  AdmissionNode* parent() const { return parent_; }
  const AdmissionCaps& caps() const { return caps_; }

  // Live reservations through this node.
  int total_depth() const { return total_.load(std::memory_order_relaxed); }
  int inference_depth() const {
    return inference_.load(std::memory_order_relaxed);
  }
  int calibration_depth() const {
    return calibration_.load(std::memory_order_relaxed);
  }
  // Reservations this node itself refused (not refusals further up).
  uint64_t refusals() const {
    return refusals_.load(std::memory_order_relaxed);
  }

 private:
  friend class AdmissionLimiter;

  // Optimistically takes one slot at THIS node; rolls back and counts a
  // refusal when a cap is exceeded. The fetch_add-then-check pattern
  // matches the historical per-session gauges: transiently overshooting by
  // the number of concurrent submitters is fine, admitting past the cap is
  // not.
  bool TryAcquireLocal(bool is_inference);
  void ReleaseLocal(bool is_inference);

  const AdmissionLevel level_;
  const AdmissionCaps caps_;
  AdmissionNode* const parent_;
  std::atomic<int> total_{0};
  std::atomic<int> inference_{0};
  std::atomic<int> calibration_{0};
  std::atomic<uint64_t> refusals_{0};
};

// The admission tree. One limiter spans one admission domain: the
// ShardedFleetServer owns the limiter and hands each shard its node, so
// fleet-wide caps compose over every shard's sessions.
//
// Thread-safety: node creation takes the limiter mutex; acquire/release
// are lock-free gauge traffic on the nodes themselves.
class AdmissionLimiter {
 public:
  explicit AdmissionLimiter(AdmissionCaps fleet_caps);

  AdmissionLimiter(const AdmissionLimiter&) = delete;
  AdmissionLimiter& operator=(const AdmissionLimiter&) = delete;

  AdmissionNode* fleet() { return root_.get(); }

  // Adds a shard under the fleet root / a session under its shard. Nodes
  // are never removed (see AdmissionNode).
  AdmissionNode* AddShard(AdmissionCaps caps);
  AdmissionNode* AddSession(AdmissionNode* shard, AdmissionCaps caps);

  // Reserves one slot on every node from `leaf` up to the root. On refusal
  // at any level the partial reservation is rolled back and the refusing
  // level is returned; kNone means the reservation held and must later be
  // paired with exactly one Release(leaf). The kLimiterRefuse fault point
  // injects a fleet-level refusal even when capacity exists.
  AdmissionLevel TryAcquire(AdmissionNode* leaf, bool is_inference);
  void Release(AdmissionNode* leaf, bool is_inference);

  // Refusals by level, summed over the whole tree.
  uint64_t refusals(AdmissionLevel level) const;

 private:
  std::unique_ptr<AdmissionNode> root_;
  mutable Mutex mu_;
  // Tree growth only — acquire/release never touch this vector, they walk
  // parent pointers through nodes that are immutable once handed out.
  std::vector<std::unique_ptr<AdmissionNode>> nodes_ QCORE_GUARDED_BY(mu_);
};

// ------------------------------------------------------------ retry policy

// Canonical client-side reaction to a kResourceExhausted shed: capped
// exponential backoff with seeded jitter. Deterministic given the seed, so
// stress tests replay byte-for-byte.
struct RetryPolicy {
  int max_attempts = 5;          // total tries, including the first
  uint64_t base_backoff_us = 100;
  double multiplier = 2.0;
  double jitter = 0.25;          // each wait is scaled by [1-j, 1+j)
  uint64_t seed = 1;
};

// The wait before retry number `attempt` (1 = first retry). Exposed for
// unit tests; RetryWithBackoff is the intended caller.
uint64_t ComputeBackoffUs(const RetryPolicy& policy, int attempt, Rng* rng);

// Runs `op` (a callable returning Status) until it returns anything other
// than kResourceExhausted, or attempts run out. kDeadlineExceeded is NOT
// retried: the budget is gone, a retry would just shed again later.
template <typename Op>
Status RetryWithBackoff(const RetryPolicy& policy, Op&& op) {
  QCORE_CHECK(policy.max_attempts >= 1);
  Rng rng(policy.seed);
  Status status = Status::OK();
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    status = op();
    if (status.code() != StatusCode::kResourceExhausted) return status;
    if (attempt == policy.max_attempts) break;
    std::this_thread::sleep_for(
        std::chrono::microseconds(ComputeBackoffUs(policy, attempt, &rng)));
  }
  return status;
}

}  // namespace qcore

#endif  // QCORE_SERVING_OVERLOAD_H_
