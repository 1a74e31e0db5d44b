// Request-lifecycle tracing for the serving runtime: a fixed-size ring
// buffer of trace events per thread, collected into one ordered timeline on
// demand. The shape follows the always-on profiling managers of production
// storage systems (cf. YTsaurus profiling_manager): writers append to their
// own thread's ring with no cross-thread contention — the only lock a
// Record() takes is that ring's own mutex, uncontended except while a
// reader drains — so tracing is cheap enough to leave enabled in serving
// hot paths (the macro perf gate pins this: tracing on vs off must be
// within the gate's tolerance).
//
// Events carry a request-scoped span id. Every serving submission
// (inference, calibration, snapshot publish, migration) allocates a span at
// entry and threads it through the lifecycle — submit -> batch-enqueue ->
// batch-flush -> forward -> complete for inference, publish -> WAL-append
// for snapshots — so CollectSpan() reconstructs exactly what happened to
// one request, in order, across every thread it touched. Layers that
// cannot be handed a span explicitly (the snapshot WAL under the registry
// lock) read the submitting task's span from a thread-local set by
// ScopedTraceSpan.
//
// Ring wraparound drops the OLDEST events of that thread only (total
// recorded count is kept, so drops are observable); Collect() merges all
// rings and sorts by timestamp. ToChromeJson() exports the merged timeline
// in the chrome://tracing / Perfetto JSON array format.
#ifndef QCORE_OBS_TRACE_H_
#define QCORE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace qcore {

enum class TraceKind : uint8_t {
  kSubmitInference = 0,  // request admitted to the serving plane
  kSubmitCalibration,
  kShed,           // admission refused (queue bound); terminal for the span
  kBatchEnqueue,   // request parked in the batcher's per-device group
  kBatchFlush,     // request's group handed to the session (arg1 = group span)
  kBarrierFlush,   // a model-mutating submission forced the group out early
  kExecStart,      // session task running the forward/calibration started
  kExecEnd,
  kComplete,        // result delivered (promise resolved)
  kSnapshotPublish, // session model being published into the registry
  kWalAppend,       // durable store appended the snapshot record (arg1 = bytes)
  kDetach,          // session serialized off its shard (migration source)
  kAttach,          // session restored on its shard (arg1 = target shard)
  kFaultInjected,   // a chaos FaultPoint fired (arg0 = interned point name,
                    // arg1 = script arg); see testing/fault_injector.h
  kDeadlineShed,    // admitted request expired before its forward pass and
                    // was shed with kDeadlineExceeded; terminal for the span
};

// Stable lowerCamel name, e.g. "batchFlush" — the chrome-trace event name.
const char* TraceKindName(TraceKind kind);

struct TraceEvent {
  uint64_t ts_ns = 0;  // steady-clock nanoseconds (same clock fleet-wide)
  uint64_t span = 0;   // request-scoped id from NextSpan(); 0 = unscoped
  uint64_t arg0 = 0;   // interned name id (device) for serving events
  uint64_t arg1 = 0;   // event-specific: group span, byte count, version...
  uint32_t ring = 0;   // id of the thread ring that recorded it
  TraceKind kind = TraceKind::kSubmitInference;
};

// Process-wide trace domain. One instance (Global()) serves every server:
// span ids are globally unique, so concurrent servers' events interleave
// without ambiguity and tests filter by span.
class TraceRing {
 public:
  static TraceRing& Global();

  // Allocates a request-scoped span id (monotonic, never reused, never 0).
  static uint64_t NextSpan();

  // The span set by the innermost live ScopedTraceSpan on this thread
  // (0 when none) — how layers below the serving API inherit the
  // submitting request's span without plumbing it through every signature.
  static uint64_t CurrentSpan();

  // Appends one event to the calling thread's ring (dropping that ring's
  // oldest event once full). Near-free when disabled.
  void Record(TraceKind kind, uint64_t span, uint64_t arg0 = 0,
              uint64_t arg1 = 0);

  // Interns `name` into a stable small id carried in TraceEvent::arg0.
  // Callers on hot paths intern once (e.g. at device registration) and
  // cache the id. Id 0 is reserved for "no name".
  uint32_t Intern(const std::string& name);
  // Name for an interned id ("" for 0 or unknown).
  std::string NameOf(uint64_t id) const;

  // Tracing is on by default (the overhead budget is enforced by the macro
  // perf gate). SetEnabled(false) stops recording; existing events stay
  // collectable.
  void SetEnabled(bool enabled);
  bool enabled() const;

  // Ring capacity for rings created AFTER the call (each thread's ring is
  // created on its first Record). Tests shrink this to force wraparound.
  void SetCapacityPerThread(size_t capacity);

  // Drops every buffered event (rings stay registered, interning and span
  // numbering are untouched). The start of a capture window.
  void Clear();

  // Merged snapshot of every ring's live events, sorted by timestamp.
  // Concurrent Records serialize against the copy per ring, so each ring
  // contributes a consistent slice.
  std::vector<TraceEvent> Collect() const;
  // Collect() filtered to one span, still timestamp-ordered: the request's
  // lifecycle timeline.
  std::vector<TraceEvent> CollectSpan(uint64_t span) const;

  // Events lost to wraparound since the last Clear(), across all rings.
  uint64_t dropped_events() const;

  // chrome://tracing / Perfetto JSON: {"traceEvents": [...]}. kExecStart /
  // kExecEnd become paired duration events ("B"/"E"); everything else is a
  // thread-scoped instant with span/device/arg in "args".
  std::string ToChromeJson() const;

 private:
  struct Ring {
    explicit Ring(uint32_t id_, size_t capacity_)
        : id(id_), capacity(capacity_) {}
    const uint32_t id;
    const size_t capacity;
    mutable Mutex mu;
    // Ring storage, index = total % capacity.
    std::vector<TraceEvent> buf QCORE_GUARDED_BY(mu);
    // Events ever recorded (since Clear).
    uint64_t total QCORE_GUARDED_BY(mu) = 0;
  };

  TraceRing() = default;
  Ring* LocalRing();

  // Lock order: registry_mu_ before any ring->mu (Collect/Clear copy the
  // ring list under registry_mu_, release it, then lock rings one at a
  // time; Record only ever takes its own ring's mu).
  mutable Mutex registry_mu_;
  std::vector<std::shared_ptr<Ring>> rings_ QCORE_GUARDED_BY(registry_mu_);
  std::map<std::string, uint32_t> intern_ QCORE_GUARDED_BY(registry_mu_);
  // Interned names, index = id - 1.
  std::vector<std::string> names_ QCORE_GUARDED_BY(registry_mu_);
  std::atomic<bool> enabled_{true};
  std::atomic<size_t> capacity_{8192};
};

// RAII thread-local span context: Record() calls made below the current
// frame (e.g. the WAL append inside a snapshot publish) pick the span up
// via TraceRing::CurrentSpan(). Nests; restores the previous span on exit.
class ScopedTraceSpan {
 public:
  explicit ScopedTraceSpan(uint64_t span);
  ~ScopedTraceSpan();

  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

 private:
  uint64_t prev_;
};

}  // namespace qcore

#endif  // QCORE_OBS_TRACE_H_
