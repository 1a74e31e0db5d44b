#include "runtime/parallel_for.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace qcore {
namespace {

constexpr int kMaxHelpers = 15;  // caller + helpers <= 16 threads

thread_local bool tls_in_parallel_region = false;

// Threads inside a BusyThreadScope, and whether this one is.
std::atomic<int> g_busy_threads{0};
thread_local bool tls_busy = false;

// The process-wide helper set. One region at a time (region_mu_); helpers
// park on job_ready_ between regions and claim tasks from an atomic cursor
// while engaged. All job state hand-off happens under mu_: a helper's
// engagement (read generation_/body_, increment helpers_running_) and its
// check-out (decrement, notify) are single critical sections, and the
// caller's teardown (wait for helpers_running_ == 0, then clear body_ and
// zero engage_budget_) runs in one critical section too — so a late-waking
// helper can never observe a dangling body: either it engages before the
// teardown (the caller then waits for it) or it finds engage_budget_ == 0
// and goes back to sleep.
class PanelWorkerSet {
 public:
  static PanelWorkerSet& Instance() {
    static PanelWorkerSet* set = new PanelWorkerSet();  // never destroyed:
    // helpers may outlive main()'s static teardown in detached-exit paths,
    // and an intentionally-leaked singleton sidesteps join-at-exit ordering.
    return *set;
  }

  // Runs the region, caller participating, with up to helpers_wanted
  // helpers. Returns false without blocking if another region is in
  // flight (the caller must then run the loop itself).
  bool TryRun(int64_t num_tasks, int helpers_wanted,
              const std::function<void(int64_t)>& body) {
    if (!region_mu_.TryLock()) return false;
    in_flight_.store(true, std::memory_order_relaxed);
    {
      MutexLock lock(mu_);
      EnsureHelpers(helpers_wanted);
      helpers_wanted =
          std::min<int>(helpers_wanted, static_cast<int>(helpers_.size()));
      body_ = &body;
      total_ = num_tasks;
      next_.store(0, std::memory_order_relaxed);
      engage_budget_ = helpers_wanted;
      ++generation_;
      job_ready_.NotifyAll();
    }
    Drain(body, num_tasks);  // caller participates; never parks
    {
      MutexLock lock(mu_);
      job_done_.Wait(mu_, [this] {
        mu_.AssertHeld();
        return helpers_running_ == 0;
      });
      // Still inside the same critical section as the final predicate
      // evaluation: neutralize the job before any sleeping helper can
      // engage it.
      engage_budget_ = 0;
      body_ = nullptr;
      total_ = 0;
    }
    in_flight_.store(false, std::memory_order_relaxed);
    region_mu_.Unlock();
    return true;
  }

  // Whether a region holds the set right now (a hint: it may change the
  // moment it is read).
  bool InFlight() const { return in_flight_.load(std::memory_order_relaxed); }

 private:
  PanelWorkerSet() = default;

  void EnsureHelpers(int count) QCORE_REQUIRES(mu_) {
    count = std::min(count, kMaxHelpers);
    while (static_cast<int>(helpers_.size()) < count) {
      helpers_.emplace_back([this] { HelperLoop(); });
    }
  }

  void HelperLoop() {
    uint64_t seen_generation = 0;
    MutexLock lock(mu_);
    for (;;) {
      job_ready_.Wait(mu_, [this, seen_generation] {
        mu_.AssertHeld();
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      if (engage_budget_ == 0) continue;  // job already torn down (or full)
      --engage_budget_;
      ++helpers_running_;
      const std::function<void(int64_t)>* body = body_;
      const int64_t total = total_;
      lock.Unlock();
      Drain(*body, total);
      lock.Lock();
      if (--helpers_running_ == 0) job_done_.NotifyAll();
      // mu_ stays held from this check-out through the next Wait, so the
      // caller's teardown cannot interleave between them.
    }
  }

  // Claims tasks until the cursor passes total. Runs on the caller and on
  // every engaged helper; the relaxed fetch_add hands out each index
  // exactly once, and bodies write disjoint outputs, so execution order
  // across threads never affects results.
  void Drain(const std::function<void(int64_t)>& body, int64_t total) {
    const bool saved = tls_in_parallel_region;
    tls_in_parallel_region = true;
    for (;;) {
      const int64_t t = next_.fetch_add(1, std::memory_order_relaxed);
      if (t >= total) break;
      body(t);
    }
    tls_in_parallel_region = saved;
  }

  // Serializes regions. TryLock-only from TryRun: a busy set must never
  // block a submitting thread (the nested-parallelism contract).
  Mutex region_mu_;
  std::atomic<bool> in_flight_{false};  // region_mu_ is held

  Mutex mu_;
  CondVar job_ready_;
  CondVar job_done_;
  const std::function<void(int64_t)>* body_ QCORE_GUARDED_BY(mu_) = nullptr;
  int64_t total_ QCORE_GUARDED_BY(mu_) = 0;
  int engage_budget_ QCORE_GUARDED_BY(mu_) = 0;
  int helpers_running_ QCORE_GUARDED_BY(mu_) = 0;
  uint64_t generation_ QCORE_GUARDED_BY(mu_) = 0;
  bool shutdown_ QCORE_GUARDED_BY(mu_) = false;
  // Task cursor for the current region. Plain atomic (not guarded): the
  // caller resets it before publishing the region under mu_, and claims
  // only need uniqueness, which fetch_add provides on its own.
  std::atomic<int64_t> next_{0};
  // Appended only in EnsureHelpers (under mu_, serialized further by
  // region_mu_); never shrunk. Not read outside that path.
  std::vector<std::thread> helpers_;
};

void RunSequential(int64_t num_tasks,
                   const std::function<void(int64_t)>& body) {
  for (int64_t t = 0; t < num_tasks; ++t) body(t);
}

}  // namespace

bool InParallelRegion() { return tls_in_parallel_region; }

int DefaultParallelWorkers() {
  // hardware_concurrency counts the host's CPUs, not the ones this process
  // may run on: under `taskset -c 0` it still reads every CPU.
  unsigned cpus = std::thread::hardware_concurrency();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const unsigned pinned = static_cast<unsigned>(CPU_COUNT(&allowed));
    if (pinned > 0 && (cpus == 0 || pinned < cpus)) cpus = pinned;
  }
  if (cpus == 0) return 1;
  return static_cast<int>(std::min<unsigned>(cpus, 16));
}

BusyThreadScope::BusyThreadScope() {
  QCORE_CHECK_MSG(!tls_busy, "BusyThreadScope does not nest");
  tls_busy = true;
  g_busy_threads.fetch_add(1, std::memory_order_relaxed);
}

BusyThreadScope::~BusyThreadScope() {
  g_busy_threads.fetch_sub(1, std::memory_order_relaxed);
  tls_busy = false;
}

int FreeParallelThreads(int max_threads) {
  if (max_threads <= 1 || tls_in_parallel_region ||
      PanelWorkerSet::Instance().InFlight()) {
    return 1;
  }
  const int others = g_busy_threads.load(std::memory_order_relaxed) -
                     (tls_busy ? 1 : 0);
  return std::max(1, std::min(max_threads, DefaultParallelWorkers() - others));
}

void ParallelFor(int64_t num_tasks, int max_threads,
                 const std::function<void(int64_t)>& body) {
  if (num_tasks <= 0) return;
  // A nested region runs on the current worker: going wide there could
  // make a helper wait on helpers, which the no-blocking contract forbids.
  if (tls_in_parallel_region || max_threads <= 1 || num_tasks == 1) {
    RunSequential(num_tasks, body);
    return;
  }
  const int helpers = static_cast<int>(std::min<int64_t>(
      {static_cast<int64_t>(max_threads) - 1, num_tasks - 1, kMaxHelpers}));
  if (!PanelWorkerSet::Instance().TryRun(num_tasks, helpers, body)) {
    RunSequential(num_tasks, body);
  }
}

}  // namespace qcore
