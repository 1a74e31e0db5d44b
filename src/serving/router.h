// ShardedFleetServer: the fleet server, and the only server type callers
// construct. N independent FleetServer shards (serving/server.h) — each
// with its own ThreadPool, session mutex map, and (when batching is
// enabled) its own InferenceBatcher — behind a consistent-hash ring
// mapping device_id -> shard. Sessions never talk across shards, so the
// per-shard pool/mutex pressure divides by N; one shard is the plain
// single-pool server.
//
// Contract:
//   * Per-device submission order is execution order, and results are
//     bit-identical to the single-threaded pipeline for any thread count,
//     shard count, or batching configuration — sessions are seeded by
//     device id, never by placement.
//   * TrySubmit* never blocks on model work. It sheds with
//     kResourceExhausted under a configured queue bound, and answers
//     kNotFound for a device the router does not know; the Submit* forms
//     are the unconditional ones for unbounded servers.
//   * PublishSnapshot is control-plane (never shed) and captures the model
//     in the device's submission order.
//   * Drain() returns only when every previously submitted task (including
//     work pending inside a batcher) has finished.
//
// Shared planes:
//   * SnapshotRegistry — ONE federated registry, passed into every shard,
//     so versions are globally monotonic and a snapshot published by any
//     shard is restorable on any other (which is what makes live
//     rebalancing possible).
//   * ServingMetrics — ONE histogram set, passed into every shard.
//   * Whiteboard — ONE fleet-wide board. Device rows are the only store of
//     the serving counters; a device's row follows it across migrations,
//     and per-shard and fleet totals are derived from the rows when an
//     image is read, so totals survive shard retirement with nothing to
//     fold or rebuild. Its WAL row is read from the registry.
//   * AdmissionLimiter — ONE admission tree (see the overload plane below).
//
// Live rebalancing (MoveDevice / Rebalance): the source shard publishes a
// barrier snapshot for the device (flushing its pending batched inference
// group first, then waiting out its queue), serializes the session's
// continuation state, and drops the session; the target shard restores the
// session from that registry version plus the continuation. Because the
// barrier runs in the device's submission order and the restored session
// resumes the exact model codes, QCore, and Rng position, the device's
// subsequent results are provably bit-identical to never having moved
// (pinned by tests/sharding_test.cc).
//
// Migration is NON-BLOCKING for unrelated devices. The protocol:
//   1. control_mu_ serializes the control plane (one migration, rebalance,
//      or registration at a time).
//   2. A brief EXCLUSIVE routing-lock acquisition records the device in
//      migrating_ — the acquisition itself is the barrier that flushes
//      every in-flight shared-lock submission, so no thread can be
//      mid-route to the source shard once it returns.
//   3. The expensive part — draining the mover's queued backlog and the
//      detach/attach handoff — runs under the SHARED routing lock:
//      submissions for every other device proceed concurrently.
//      Submissions for the migrating device park on a condition variable
//      (WithRoutedShard) and re-route when the pin clears.
//   4. A second brief exclusive acquisition updates the routing map, then
//      the pin is dropped and parked submitters wake.
// Lock order: control_mu_ -> route_mu_ -> migration_mu_.
//
// Overload plane: the router owns the fleet-level admission root
// (serving/overload.h); every shard hangs its shard node under it, so a
// fleet-wide queue bound (max_queue_per_fleet) applies across shards on
// top of the per-shard and per-session bounds.
#ifndef QCORE_SERVING_ROUTER_H_
#define QCORE_SERVING_ROUTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serving/hash_ring.h"
#include "serving/overload.h"
#include "serving/server.h"

namespace qcore {

struct ShardedFleetServerOptions {
  // Shard count at construction; Rebalance() can change it live.
  int num_shards = 2;
  // Per-shard configuration: every shard gets its own pool of
  // `shard.num_threads` workers, its own batcher, and the same seed (device
  // seeds depend on the device id only, so placement never affects
  // results).
  FleetServerOptions shard;
  // Fleet-level admission bound: total outstanding tasks across ALL shards
  // (the root of the admission tree). 0 = unbounded. Refusals at this level
  // shed with "admission refused at fleet level".
  int max_queue_per_fleet = 0;
};

class ShardedFleetServer {
 public:
  // `base_model` is the server-prepared deployed model (quantize + initial
  // calibration done, shadows dropped) and `base_bf` its trained
  // bit-flipping net; every registered device starts from clones of these,
  // so both must outlive the server. `shared_registry` (optional) makes
  // every shard publish into an external registry instead of the router's
  // own federated one — e.g. a registry constructed over a
  // DurableSnapshotStore, so the fleet's snapshots survive the process and
  // restore on the next construction (the registry must outlive the
  // router).
  ShardedFleetServer(const QuantizedModel& base_model,
                     const BitFlipNet& base_bf,
                     ShardedFleetServerOptions options,
                     SnapshotRegistry* shared_registry = nullptr);

  ShardedFleetServer(const ShardedFleetServer&) = delete;
  ShardedFleetServer& operator=(const ShardedFleetServer&) = delete;

  // Drains every shard (each shard's destructor drains its own pool).
  ~ShardedFleetServer();

  // Creates the device's session (clone of the base model + net, QCore
  // copy, deterministic per-device seed) on the shard its ring position
  // picks. Must not already exist.
  void RegisterDevice(const std::string& device_id, Dataset qcore);
  bool HasDevice(const std::string& device_id) const;
  int num_sessions() const;

  // Admission-controlled async quantized inference on the device's current
  // model. Sheds with kResourceExhausted when an admission bound is hit at
  // any level of the session/shard/fleet tree (never blocks, never
  // deadlocks — the overload fast-fail), and returns kNotFound for a device
  // the router does not know (never registered, or lost by a crashed
  // migration). `opts` carries the per-request latency budget; a budget
  // that expires post-admission resolves the future with a
  // kDeadlineExceeded result instead.
  Result<std::future<InferenceResult>> TrySubmitInference(
      const std::string& device_id, Tensor x,
      const InferenceSubmitOptions& opts = {});
  // Admission-controlled async continual-calibration step on one stream
  // batch; the test slice is evaluated after calibration. Sheds and
  // answers unknown devices like TrySubmitInference.
  Result<std::future<BatchStats>> TrySubmitCalibration(
      const std::string& device_id, Dataset batch, Dataset test_slice);

  // Unconditional submission forms, for servers without queue bounds. A
  // shed or an unknown device is a programming error here (checked) —
  // overload-aware callers use TrySubmit*.
  std::future<InferenceResult> SubmitInference(const std::string& device_id,
                                               Tensor x);
  std::future<BatchStats> SubmitCalibration(const std::string& device_id,
                                            Dataset batch, Dataset test_slice);

  // Async snapshot publish of the device's current model into snapshots();
  // resolves to the assigned version. Runs in the session's task order (a
  // pending batched inference group is flushed first). Never shed.
  std::future<uint64_t> PublishSnapshot(const std::string& device_id);

  // Blocks until every queued task (including pending batched inference and
  // tasks queued while draining) has finished, across all shards.
  void Drain();

  // Read-side session access with a safe contract: the owning shard
  // quiesces the session — pending batched work for the device is flushed,
  // every queued task runs to completion, and `fn` executes with exclusive
  // access; concurrent submissions for the device simply wait. `fn` must
  // not submit work or call Drain on this server (it runs under the
  // session's lock).
  void WithSessionQuiesced(
      const std::string& device_id,
      const std::function<void(CalibrationSession&)>& fn);

  // Fleet-wide observability, one instance each for all shards: metrics()
  // holds the latency and occupancy histograms, snapshots() is the
  // federated registry, and whiteboard() the introspection rows (device
  // rows are the only store of the serving counters; shard and fleet
  // totals are derived from them when an image is read, and Read() is a
  // snapshot-consistent image at any moment, including mid-rebalance).
  ServingMetrics& metrics() { return metrics_; }
  const ServingMetrics& metrics() const { return metrics_; }
  SnapshotRegistry& snapshots() { return *snapshots_; }
  Whiteboard& whiteboard() { return whiteboard_; }
  const Whiteboard& whiteboard() const { return whiteboard_; }

  // --- Rebalancing control plane -----------------------------------------

  // Migrates one device to `target_shard` (see the file comment for the
  // barrier-snapshot protocol). Returns the barrier snapshot's registry
  // version. The move records a persistent placement pin: every subsequent
  // Rebalance() keeps the device on the pinned shard instead of re-deriving
  // its placement from the ring, until ClearPin() — unless the pinned shard
  // itself is retired by a shrink, which drops the pin and rehomes the
  // device by ring position.
  uint64_t MoveDevice(const std::string& device_id, int target_shard);

  // Drops the placement pin MoveDevice recorded for `device_id` (no-op if
  // none). The device stays where it is until the next Rebalance(), which
  // re-derives its placement from the ring again.
  void ClearPin(const std::string& device_id);

  // Changes the shard count live: builds the new ring, creates any new
  // shards, migrates exactly the devices whose placement changed — pinned
  // devices stay on their pinned shard; everyone else follows the ring
  // (growth moves devices only onto new shards — the consistent-hash
  // minimal-movement property) — then drains and retires surplus shards.
  // Existing futures stay valid; subsequent submissions route by the new
  // map.
  void Rebalance(int new_shard_count);

  // --- Introspection (benches, tests, reports) ---------------------------

  int num_shards() const;
  // Current shard of a registered device.
  int ShardOf(const std::string& device_id) const;
  int SessionCountOnShard(int shard) const;

 private:
  // What one barrier-snapshot migration produced. `session_lost` is the
  // chaos path (FaultPoint::kShardCrashDuringMigration): the target shard
  // "crashed" between detach and attach, so the continuation is gone — the
  // caller must drop the device from the routing maps. The barrier version
  // is still valid either way; it is what a warm re-registration restores
  // the device's model from (the documented continuation gap: codes come
  // back bit-identical, Rng/QCore/batch-counter state starts fresh).
  struct MigrationOutcome {
    uint64_t barrier_version = 0;
    bool session_lost = false;
  };

  std::unique_ptr<FleetServer> MakeShard(int index);
  // One barrier-snapshot handoff. Caller holds route_mu_ SHARED plus the
  // device's migration pin (its submissions are parked), with control_mu_
  // serializing against other control-plane work — the detach/attach only
  // touches shard-internal state, so the shared lock suffices.
  MigrationOutcome MigratePinned(const std::string& device_id, int source,
                                 int target) QCORE_REQUIRES_SHARED(route_mu_);
  int ShardIndexFor(const std::string& device_id) const
      QCORE_REQUIRES_SHARED(route_mu_);

  // Routes `device_id` and runs `fn(shard)` under the shared routing lock,
  // with `shard` null when the router does not know the device. If the
  // device is mid-migration, parks (without any lock that would stall
  // other devices) until the pin clears, then re-routes — the
  // non-blocking-migration contract: callers never observe a half-moved
  // device, and never block behind another device's migration.
  template <typename Fn>
  auto WithRoutedShard(const std::string& device_id, Fn&& fn)
      -> decltype(fn(std::declval<FleetServer*>())) {
    for (;;) {
      SharedLock lock(route_mu_);
      auto placed = device_shard_.find(device_id);
      if (placed == device_shard_.end()) return fn(nullptr);
      {
        MutexLock mig(migration_mu_);
        if (migrating_.count(device_id) > 0) {
          lock.Unlock();  // park without holding up the routing plane
          migration_cv_.Wait(migration_mu_, [&]() {
            migration_mu_.AssertHeld();
            return migrating_.count(device_id) == 0;
          });
          continue;  // re-route: the map may now point elsewhere
        }
      }
      return fn(shards_[static_cast<size_t>(placed->second)].get());
    }
  }

  const QuantizedModel& base_model_;
  const BitFlipNet& base_bf_;
  ShardedFleetServerOptions options_;

  // Root of the fleet admission tree; every shard's node hangs under its
  // fleet() root. Declared before shards_ so the nodes outlive the shards
  // that hold pointers into them.
  AdmissionLimiter limiter_;

  // Federated across shards; declared before shards_ so they outlive them.
  // Used unless the constructor received an external (e.g. durable)
  // registry, which snapshots_ then points at instead.
  SnapshotRegistry owned_snapshots_;
  SnapshotRegistry* snapshots_;
  // The histograms every shard records into; outlives shards_.
  ServingMetrics metrics_;
  // Fleet whiteboard, the only counter store: shards hold row handles into
  // it, so it must outlive shards_ (declared before it; a retiring shard's
  // destructor still flags its row retired). Its WAL row reads snapshots_,
  // which outlives it.
  Whiteboard whiteboard_;

  // Serializes the control plane: MoveDevice, Rebalance, RegisterDevice.
  // Always taken before route_mu_ (see the file-comment lock order).
  Mutex control_mu_;

  // Guards ring_/shards_/device_shard_/pinned_. Shared: submissions,
  // queries, and the long drain phase of a migration. Exclusive: only the
  // brief pin-insert and map-update phases, plus registration and shard
  // retirement.
  mutable SharedMutex route_mu_;

  // The migration pin set: devices currently mid-handoff. Guarded by
  // migration_mu_ (taken after route_mu_ when both are held); parked
  // submitters wait on migration_cv_ in WithRoutedShard.
  mutable Mutex migration_mu_;
  CondVar migration_cv_;
  std::set<std::string> migrating_ QCORE_GUARDED_BY(migration_mu_);
  HashRing ring_ QCORE_GUARDED_BY(route_mu_);
  std::vector<std::unique_ptr<FleetServer>> shards_
      QCORE_GUARDED_BY(route_mu_);
  std::map<std::string, int> device_shard_ QCORE_GUARDED_BY(route_mu_);
  // Placement overrides from MoveDevice, consulted before the ring on every
  // Rebalance (the policy layer the ROADMAP asked for).
  std::map<std::string, int> pinned_ QCORE_GUARDED_BY(route_mu_);
};

// bench/e2e/bench_e2e.cc spells the server type by this older interface
// name, and that benchmark's sources change only together with the
// benchmark's definition, so the name stays as an alias.
using FleetBackend = ShardedFleetServer;

}  // namespace qcore

#endif  // QCORE_SERVING_ROUTER_H_
