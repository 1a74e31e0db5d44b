// ParallelFor: the work-stealing-free data-parallel primitive under the
// deterministic multithreaded GEMM (tensor/kernels.cc).
//
// Model: ParallelFor(n, t, body) runs body(i) exactly once for every
// i in [0, n), across at most t threads. The caller always participates;
// up to t-1 helpers come from a lazily-grown process-wide worker set.
// Tasks are claimed from a shared atomic cursor (no stealing, no
// per-worker deques): which thread runs which task is timing-dependent,
// but callers only pass bodies whose tasks write disjoint outputs with a
// fixed internal operation order, so results are bit-identical for every
// thread count — the kernel layer's determinism contract.
//
// Nested-parallelism contract (what lets serving-pool workers fan a big
// batched forward out across panels without deadlock):
//   * The caller participates in its own region — it never parks waiting
//     for a queue slot, so a ThreadPool worker calling ParallelFor always
//     makes progress through its own tasks.
//   * At most one region is in flight at a time. A second concurrent
//     caller does NOT block on the first: it runs its loop sequentially
//     on its own thread (a TryLock, never a blocking submit). Results are
//     unchanged either way; only wall-clock differs.
//   * A body that itself calls ParallelFor (a nested region, e.g. a
//     parallel GEMM inside a task) runs the inner loop sequentially on
//     the current worker. No helper ever waits on another helper, so the
//     composition device-level pool x panel-level region cannot cycle.
//
// The worker set uses the annotated common/mutex.h wrappers and spawns
// raw std::threads — permitted only here in src/runtime/ (lint rule
// raw-thread); everything above composes ParallelFor or ThreadPool.
#ifndef QCORE_RUNTIME_PARALLEL_FOR_H_
#define QCORE_RUNTIME_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace qcore {

// True while the current thread is executing a ParallelFor body (caller
// or helper). Nested ParallelFor calls observe this and run sequentially.
bool InParallelRegion();

// Worker count the host can usefully sustain: the CPUs the calling thread
// may run on (the smaller of hardware_concurrency and the affinity mask, so
// a pinned process does not oversubscribe its cores), clamped to [1, 16].
// The kernel layer's default thread budget.
int DefaultParallelWorkers();

// Marks the current thread busy for its lifetime: it holds a CPU for work
// outside the worker set. ThreadPool workers hold one while they run a
// task, so FreeParallelThreads() sees how many CPUs a serving pool already
// occupies. One per thread at a time (they do not nest).
class BusyThreadScope {
 public:
  BusyThreadScope();
  ~BusyThreadScope();
  BusyThreadScope(const BusyThreadScope&) = delete;
  BusyThreadScope& operator=(const BusyThreadScope&) = delete;
};

// How many threads, the caller included, a region started now from this
// thread would run on without taking a CPU from other work: 1 inside a
// region or while another region is in flight (ParallelFor would run
// sequentially), else DefaultParallelWorkers() less the other busy threads,
// at least 1 and at most max_threads. A snapshot for sizing work that is
// split once and then run in many regions; results must not depend on it.
int FreeParallelThreads(int max_threads);

// Runs body(i) for every i in [0, num_tasks), on up to max_threads
// threads including the caller. Returns after every task has finished.
// Never blocks on another region (see the contract above); max_threads
// <= 1 or num_tasks <= 1 runs inline. body must be safe to invoke
// concurrently for distinct i.
void ParallelFor(int64_t num_tasks, int max_threads,
                 const std::function<void(int64_t)>& body);

}  // namespace qcore

#endif  // QCORE_RUNTIME_PARALLEL_FOR_H_
