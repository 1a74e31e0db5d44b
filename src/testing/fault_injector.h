// Deterministic, seed-driven fault injection for the serving and durability
// planes. Production code is threaded with named FaultPoints (the catalog
// below); each point calls MaybeFault() at the exact moment the fault would
// strike in the wild — before the bytes hit the WAL, between detach and
// attach of a migrating session, inside the batcher's flusher loop.
//
// Cost discipline: with no injector installed, MaybeFault() is a single
// relaxed atomic load against nullptr — no branch history pollution, no
// lock, nothing allocated — so the hooks are safe to leave in release
// builds (tests/chaos_test.cc pins the hot path bit-identical with and
// without an installed-then-uninstalled injector). When an injector IS
// installed, the pointer is re-read with acquire so every armed script
// written before Install() is visible to the faulting thread (TSan-clean).
//
// Scripts are per-point and composable: fire on exactly the Nth hit,
// fire each hit with a seeded-RNG probability, one-shot (default) or
// sticky. Every firing is recorded into the trace plane as a
// TraceKind::kFaultInjected event carrying the point's interned name and
// the script arg, inheriting the current request span — so a chaos run's
// post-mortem shows exactly which request each fault landed on.
#ifndef QCORE_TESTING_FAULT_INJECTOR_H_
#define QCORE_TESTING_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace qcore {

// The injection-point catalog. Every point names one precise seam in the
// production code (see the README's chaos section for the per-point
// semantics and the invariant each fault family is tested against).
enum class FaultPoint : uint8_t {
  // SnapshotStore::AppendRecord — flip one payload bit in the frame
  // before it is written, so the record lands CRC-broken on disk while the
  // live process keeps serving (silent media rot, caught at next Open).
  kWalAppendBitRot = 0,
  // AppendRecord — write only half the frame, then fail the append, as if
  // the writer died mid-write (torn tail; next Open truncates + counts it).
  kWalTornAppend,
  // AppendRecord — fail before writing anything, as if fsync returned
  // EIO: nothing durable, nothing visible in memory (log-then-apply).
  kWalFsyncFail,
  // AppendRecord — sleep `arg` microseconds before the write (slow disk).
  kWalAppendDelay,
  // SnapshotStore::RewriteSegment — die mid-segment-write: the
  // partial .compact tmp stays on disk, the old log is untouched.
  kWalCompactionCrash,
  // SnapshotRegistry::ExportDelta — truncate the outgoing delta blob
  // (payload cut in transit; the importer must reject it whole).
  kSnapshotExportTruncate,
  // SnapshotRegistry::ImportDelta — drop the incoming delta entirely
  // (network loss; retrying the same delta is idempotent).
  kSnapshotImportDrop,
  // ShardedFleetServer::MigratePinned — the target shard crashes between
  // DetachSession and AttachSession: the continuation is lost, the device
  // leaves the routing maps, and recovery is a warm re-registration from
  // the barrier snapshot.
  kShardCrashDuringMigration,
  // FleetServer's SimulateDeviceLink — an extra `arg`-microsecond RTT
  // spike on one device round trip (fires even with RTT simulation off).
  kDeviceRttSpike,
  // InferenceBatcher::FlusherLoop — stall the deadline flusher for `arg`
  // microseconds (outside the batcher lock; barriers still flush).
  kBatcherFlusherStall,
  // FleetServer::BarrierFlush — delay the barrier by `arg` microseconds
  // before flushing the pending group.
  kBarrierDelay,
  // ThreadPool::WorkerLoop — stall the worker `arg` microseconds after it
  // pops a task, before running it (every worker slow at once models a
  // saturated pool; the aging clock keeps ticking underneath).
  kPoolSaturation,
  // overload.h OverloadClock::Now — skew the deadline clock forward by
  // `arg` microseconds, making admitted requests look expired early. A
  // latency-only fault: delivered results must stay bit-identical.
  kDeadlineClockSkew,
  // AdmissionLimiter::TryAcquire — refuse the acquisition at the fleet
  // level even though capacity exists (spurious limiter refusal; callers
  // must treat it exactly like a real kResourceExhausted shed).
  kLimiterRefuse,

  kNumFaultPoints,  // count sentinel, not a point
};

// Stable lowerCamel name, e.g. "walTornAppend" — what the kFaultInjected
// trace event's interned arg0 resolves to (prefixed "fault:").
const char* FaultPointName(FaultPoint point);

// What to do when an armed point is hit.
struct FaultScript {
  // Fire on exactly the Nth hit (1-based). 0 = every hit is eligible.
  // With `sticky`, hits >= fire_on_hit all fire.
  uint64_t fire_on_hit = 0;
  // Eligible hits fire with this probability, drawn from the injector's
  // seeded Rng — so a chaos schedule replays exactly from its seed.
  double probability = 1.0;
  // One-shot (default): disarm after the first firing. Sticky: keep firing.
  bool sticky = false;
  // Point-specific payload (microseconds for the delay points, bytes for
  // the truncation point); handed back through MaybeFault's out-param.
  uint64_t arg = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Destruction auto-uninstalls if this injector is the installed one, so
  // a test that forgets Uninstall() cannot leave a dangling global.
  ~FaultInjector();

  // Arms `point` with `script` (replacing any previous script and
  // resetting its fired latch, not its hit count). Thread-safe.
  void Arm(FaultPoint point, FaultScript script);
  // Disarms `point`; its counters survive for post-run assertions.
  void Disarm(FaultPoint point);

  // Times production code reached / actually fired the point.
  uint64_t hits(FaultPoint point) const;
  uint64_t fired(FaultPoint point) const;
  // Sum of fired() over every point.
  uint64_t total_fired() const;

  // Makes this injector the process-wide one MaybeFault() consults /
  // removes it. Install is release-ordered against the hooks' acquire
  // re-read, so scripts armed before Install are visible everywhere.
  void Install();
  static void Uninstall();
  static FaultInjector* installed();

  // The slow path behind MaybeFault(): counts the hit, evaluates the
  // script, records a kFaultInjected trace event on firing, and writes the
  // script arg through `arg` (when non-null). Thread-safe; the internal
  // mutex is a leaf lock (no callbacks run under it).
  bool ShouldFire(FaultPoint point, uint64_t* arg);

 private:
  struct PointState {
    bool armed = false;
    FaultScript script;
    uint64_t hits = 0;
    uint64_t fired = 0;
  };

  mutable Mutex mu_;
  Rng rng_ QCORE_GUARDED_BY(mu_);
  PointState points_[static_cast<size_t>(FaultPoint::kNumFaultPoints)]
      QCORE_GUARDED_BY(mu_);
};

namespace chaos_internal {
// The installed injector. Hooks fast-path on a relaxed null check; the
// acquire re-read in MaybeFault provides the publication ordering.
extern std::atomic<FaultInjector*> g_injector;
}  // namespace chaos_internal

// The hook production code calls at each FaultPoint. Returns true when the
// fault should strike now; `arg` (optional) receives the script payload.
// Free when no injector is installed: one relaxed load, one predictable
// branch.
inline bool MaybeFault(FaultPoint point, uint64_t* arg = nullptr) {
  if (chaos_internal::g_injector.load(std::memory_order_relaxed) == nullptr) {
    return false;
  }
  FaultInjector* injector =
      chaos_internal::g_injector.load(std::memory_order_acquire);
  if (injector == nullptr) return false;  // raced an Uninstall
  return injector->ShouldFire(point, arg);
}

}  // namespace qcore

#endif  // QCORE_TESTING_FAULT_INJECTOR_H_
