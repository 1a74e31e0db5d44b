#include "serving/router.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/trace.h"
#include "testing/fault_injector.h"

namespace qcore {

namespace {

// Control-plane calls on a device the router does not know are programming
// errors; submissions answer kNotFound instead (router.h).
FleetServer& KnownShard(FleetServer* shard, const std::string& device_id) {
  QCORE_CHECK_MSG(shard != nullptr, ("unknown device: " + device_id).c_str());
  return *shard;
}

Status UnknownDevice(const std::string& device_id) {
  return Status::NotFound("unknown device: " + device_id);
}

// The unconditional Submit* forms: a refused submission is a programming
// error here — overload-aware callers use TrySubmit*.
template <typename T>
T CheckSubmitted(Result<T> result) {
  QCORE_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

}  // namespace

ShardedFleetServer::ShardedFleetServer(const QuantizedModel& base_model,
                                       const BitFlipNet& base_bf,
                                       ShardedFleetServerOptions options,
                                       SnapshotRegistry* shared_registry)
    : base_model_(base_model),
      base_bf_(base_bf),
      options_(std::move(options)),
      limiter_(AdmissionCaps{options_.max_queue_per_fleet, 0, 0}),
      snapshots_(shared_registry != nullptr ? shared_registry
                                            : &owned_snapshots_),
      ring_(options_.num_shards) {
  QCORE_CHECK_GT(options_.num_shards, 0);
  // The WAL row reflects the registry's store (all zeros without a log).
  // The registry outlives the board: an external one must outlive the
  // router, and the owned one is declared before whiteboard_.
  whiteboard_.SetWalStatsProvider(
      [registry = snapshots_]() { return registry->wal_stats(); });
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(MakeShard(s));
  }
}

ShardedFleetServer::~ShardedFleetServer() {
  // Each shard's destructor drains its own pool; nothing shared to tear
  // down first (the registry outlives shards_ by declaration order).
}

std::unique_ptr<FleetServer> ShardedFleetServer::MakeShard(int index) {
  return std::unique_ptr<FleetServer>(
      new FleetServer(base_model_, base_bf_, options_.shard, *snapshots_,
                      metrics_, whiteboard_, index, limiter_));
}

int ShardedFleetServer::ShardIndexFor(const std::string& device_id) const {
  auto it = device_shard_.find(device_id);
  QCORE_CHECK_MSG(it != device_shard_.end(),
                  ("unknown device: " + device_id).c_str());
  return it->second;
}

void ShardedFleetServer::RegisterDevice(const std::string& device_id,
                                        Dataset qcore) {
  // Control-plane, like migration: control_mu_ keeps registration from
  // landing a session on a shard a concurrent Rebalance is about to
  // retire, and the clone-heavy session construction runs under the
  // exclusive routing lock (a session on a shard the map does not know
  // about — or vice versa — would break retirement's empty-shard
  // invariant). Fleets register devices up front or at device-arrival
  // rate, not per request.
  MutexLock control(control_mu_);
  WriterLock lock(route_mu_);
  QCORE_CHECK_MSG(device_shard_.count(device_id) == 0,
                  ("device registered twice: " + device_id).c_str());
  const int shard = ring_.ShardFor(device_id);
  shards_[static_cast<size_t>(shard)]->RegisterDevice(device_id,
                                                      std::move(qcore));
  device_shard_[device_id] = shard;
}

bool ShardedFleetServer::HasDevice(const std::string& device_id) const {
  SharedLock lock(route_mu_);
  return device_shard_.count(device_id) > 0;
}

int ShardedFleetServer::num_sessions() const {
  SharedLock lock(route_mu_);
  return static_cast<int>(device_shard_.size());
}

Result<std::future<InferenceResult>> ShardedFleetServer::TrySubmitInference(
    const std::string& device_id, Tensor x, const InferenceSubmitOptions& opts) {
  return WithRoutedShard(
      device_id,
      [&](FleetServer* shard) -> Result<std::future<InferenceResult>> {
        if (shard == nullptr) return UnknownDevice(device_id);
        return shard->TrySubmitInference(device_id, std::move(x), opts);
      });
}

Result<std::future<BatchStats>> ShardedFleetServer::TrySubmitCalibration(
    const std::string& device_id, Dataset batch, Dataset test_slice) {
  return WithRoutedShard(
      device_id, [&](FleetServer* shard) -> Result<std::future<BatchStats>> {
        if (shard == nullptr) return UnknownDevice(device_id);
        return shard->TrySubmitCalibration(device_id, std::move(batch),
                                           std::move(test_slice));
      });
}

std::future<InferenceResult> ShardedFleetServer::SubmitInference(
    const std::string& device_id, Tensor x) {
  return CheckSubmitted(TrySubmitInference(device_id, std::move(x)));
}

std::future<BatchStats> ShardedFleetServer::SubmitCalibration(
    const std::string& device_id, Dataset batch, Dataset test_slice) {
  return CheckSubmitted(TrySubmitCalibration(device_id, std::move(batch),
                                             std::move(test_slice)));
}

std::future<uint64_t> ShardedFleetServer::PublishSnapshot(
    const std::string& device_id) {
  return WithRoutedShard(device_id, [&](FleetServer* shard) {
    return KnownShard(shard, device_id).PublishSnapshot(device_id);
  });
}

void ShardedFleetServer::Drain() {
  // The shared lock keeps the shard list stable (a concurrent Rebalance
  // waits until the drain finishes); shard drains are independent, so
  // sequential order is fine — each one only waits on its own work.
  SharedLock lock(route_mu_);
  for (auto& shard : shards_) shard->Drain();
}

void ShardedFleetServer::WithSessionQuiesced(
    const std::string& device_id,
    const std::function<void(CalibrationSession&)>& fn) {
  WithRoutedShard(device_id, [&](FleetServer* shard) {
    KnownShard(shard, device_id).WithSessionQuiesced(device_id, fn);
  });
}

uint64_t ShardedFleetServer::MoveDevice(const std::string& device_id,
                                        int target_shard) {
  // Phase numbering follows the protocol in the file comment.
  MutexLock control(control_mu_);
  int source;
  {
    // Phase 2 — brief exclusive: validate, record the persistent placement
    // pin (an explicit move is an operator decision Rebalance keeps
    // honoring), and mark the device migrating. The exclusive acquisition
    // itself flushes every in-flight shared-lock submission.
    WriterLock lock(route_mu_);
    QCORE_CHECK(target_shard >= 0 &&
                target_shard < static_cast<int>(shards_.size()));
    source = ShardIndexFor(device_id);
    pinned_[device_id] = target_shard;
    MutexLock mig(migration_mu_);
    migrating_.insert(device_id);
  }
  uint64_t version = 0;
  bool session_lost = false;
  if (source == target_shard) {
    // Degenerate move: still publish the barrier (callers rely on getting a
    // version back), but skip the detach/attach. Runs under the shared lock
    // like any submission; control_mu_ keeps shards_ stable.
    SharedLock lock(route_mu_);
    version =
        shards_[static_cast<size_t>(source)]->PublishSnapshot(device_id).get();
  } else {
    // Phase 3 — the expensive drain + handoff, under the SHARED lock:
    // unrelated devices keep submitting throughout.
    SharedLock lock(route_mu_);
    const MigrationOutcome outcome =
        MigratePinned(device_id, source, target_shard);
    version = outcome.barrier_version;
    session_lost = outcome.session_lost;
  }
  {
    // Phase 4 — brief exclusive: publish the new placement.
    WriterLock lock(route_mu_);
    if (session_lost) {
      device_shard_.erase(device_id);
      pinned_.erase(device_id);
    } else if (source != target_shard) {
      device_shard_[device_id] = target_shard;
    }
  }
  {
    // Unpin and wake the device's parked submissions; they re-route to the
    // new shard (or, if the session was lost, find the device unknown).
    MutexLock mig(migration_mu_);
    migrating_.erase(device_id);
  }
  migration_cv_.NotifyAll();
  return version;
}

void ShardedFleetServer::ClearPin(const std::string& device_id) {
  WriterLock lock(route_mu_);
  pinned_.erase(device_id);
}

ShardedFleetServer::MigrationOutcome ShardedFleetServer::MigratePinned(
    const std::string& device_id, int source, int target) {
  SessionHandoff handoff =
      shards_[static_cast<size_t>(source)]->DetachSession(device_id);
  // The fault (and its trace event) rides the migration span, so a chaos
  // post-mortem shows detach -> faultInjected with no matching attach.
  ScopedTraceSpan scope(handoff.trace_span);
  if (MaybeFault(FaultPoint::kShardCrashDuringMigration)) {
    // The target shard dies holding the handoff: its continuation is lost
    // (the barrier snapshot is NOT — it lives in the shared registry).
    // Surface the loss on both whiteboard rows; the caller erases the
    // device from routing so HasDevice() turns false and the operator's
    // recovery is a warm re-registration from the barrier snapshot.
    const Status crash = Status::IoError(
        "shard " + std::to_string(target) +
        " crashed during migration of " + device_id + " (injected)");
    whiteboard_.UpsertDevice(device_id, target, WarmStartOrigin::kCold)
        ->RecordError(crash);
    whiteboard_.RegisterShard(target)->RecordError(crash);
    return {handoff.barrier_version, /*session_lost=*/true};
  }
  shards_[static_cast<size_t>(target)]->AttachSession(handoff);
  return {handoff.barrier_version, /*session_lost=*/false};
}

void ShardedFleetServer::Rebalance(int new_shard_count) {
  MutexLock control(control_mu_);
  QCORE_CHECK_GT(new_shard_count, 0);
  HashRing new_ring(new_shard_count);
  struct PlannedMove {
    std::string device_id;
    int source;
    int target;
  };
  std::vector<PlannedMove> moves;
  {
    // Brief exclusive: grow the shard vector, plan the moves, and pin
    // every mover at once — the pin set makes their submissions park for
    // the duration while everyone else keeps flowing.
    //
    // Placement: a pin from MoveDevice overrides the ring, unless its
    // target shard is being retired by this shrink — then the pin is
    // dropped and the device rehomes by ring position. The moves are
    // collected first, then executed: a crash-faulted migration erases its
    // device from device_shard_, which must not invalidate a live
    // iterator. Collection is map order (deterministic), so
    // barrier-snapshot versions are too.
    WriterLock lock(route_mu_);
    while (static_cast<int>(shards_.size()) < new_shard_count) {
      shards_.push_back(MakeShard(static_cast<int>(shards_.size())));
    }
    for (const auto& [device_id, shard] : device_shard_) {
      int target;
      auto pin = pinned_.find(device_id);
      if (pin != pinned_.end() && pin->second < new_shard_count) {
        target = pin->second;
      } else {
        if (pin != pinned_.end()) pinned_.erase(pin);
        target = new_ring.ShardFor(device_id);
      }
      if (target != shard) moves.push_back({device_id, shard, target});
    }
    MutexLock mig(migration_mu_);
    for (const PlannedMove& m : moves) migrating_.insert(m.device_id);
  }
  // Per mover: long drain + handoff under the shared lock, brief exclusive
  // map update, then unpin immediately — a device parked behind the first
  // move does not also wait out the rest of the plan.
  for (const PlannedMove& move : moves) {
    MigrationOutcome outcome;
    {
      SharedLock lock(route_mu_);
      outcome = MigratePinned(move.device_id, move.source, move.target);
    }
    {
      WriterLock lock(route_mu_);
      if (outcome.session_lost) {
        device_shard_.erase(move.device_id);
        pinned_.erase(move.device_id);
      } else {
        device_shard_[move.device_id] = move.target;
      }
    }
    {
      MutexLock mig(migration_mu_);
      migrating_.erase(move.device_id);
    }
    migration_cv_.NotifyAll();
  }
  {
    // Final exclusive: retire surplus shards — every session has been
    // migrated off, the updated map routes nothing at them, and the
    // exclusive acquisition has flushed any shared-lock caller still
    // touching one. Drain straggling control work, then destroy; their
    // devices' counters moved with the devices, so fleet totals never
    // regress.
    WriterLock lock(route_mu_);
    while (static_cast<int>(shards_.size()) > new_shard_count) {
      FleetServer* shard = shards_.back().get();
      QCORE_CHECK_MSG(shard->num_sessions() == 0,
                      "Rebalance: retiring a shard that still owns sessions");
      shard->Drain();
      shards_.pop_back();
    }
    ring_ = std::move(new_ring);
    options_.num_shards = new_shard_count;
  }
}

int ShardedFleetServer::num_shards() const {
  SharedLock lock(route_mu_);
  return static_cast<int>(shards_.size());
}

int ShardedFleetServer::ShardOf(const std::string& device_id) const {
  SharedLock lock(route_mu_);
  return ShardIndexFor(device_id);
}

int ShardedFleetServer::SessionCountOnShard(int shard) const {
  SharedLock lock(route_mu_);
  QCORE_CHECK(shard >= 0 && shard < static_cast<int>(shards_.size()));
  return shards_[static_cast<size_t>(shard)]->num_sessions();
}

}  // namespace qcore
