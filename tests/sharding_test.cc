// Sharding determinism suite: ShardedFleetServer must be a pure routing
// layer — results (inference labels, per-batch calibration stats, final
// model codes, published snapshot versions and bytes) are bit-identical to
// one inline, unbatched shard for any shard count, and remain
// bit-identical across live rebalancing (MoveDevice / Rebalance) in the
// middle of a stream, with and without inference batching. Also pins the
// operational properties of the router: ring-driven placement, counter
// totals surviving shard retirement, and the barrier-snapshot protocol of
// a migration.
#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serving/hash_ring.h"
#include "serving/router.h"
#include "serving/server.h"
#include "testing/fault_injector.h"
#include "tests/fleet_fixture.h"

namespace qcore {
namespace {

FleetFixture* GetFixture() {
  static FleetFixture* fixture = MakeFleetFixture(20260101, 909, 8);
  return fixture;
}

ContinualOptions FastContinualOptions() {
  ContinualOptions opts;
  opts.iterations = 1;
  return opts;
}

FleetServerOptions ShardOptions(int threads, bool batching) {
  FleetServerOptions opts;
  opts.num_threads = threads;
  opts.continual = FastContinualOptions();
  opts.seed = 0x5EED;
  opts.enable_batching = batching;
  opts.batching.max_batch = 3;
  opts.batching.max_delay_us = 100.0;
  return opts;
}

const std::vector<std::string>& Devices() {
  static const std::vector<std::string> devices = {"s0", "s1", "s2", "s3",
                                                   "s4"};
  return devices;
}

// Everything a run produces; two runs are interchangeable iff == holds.
struct StreamOutcome {
  std::vector<std::vector<std::pair<float, int>>> stats;   // per device
  std::vector<std::vector<std::vector<int>>> predictions;  // per device
  std::vector<std::vector<std::vector<int32_t>>> codes;    // per device
  std::vector<uint64_t> versions;                          // final publishes
  std::vector<std::vector<uint8_t>> bytes;                 // their blobs

  bool operator==(const StreamOutcome& o) const {
    return stats == o.stats && predictions == o.predictions &&
           codes == o.codes && versions == o.versions && bytes == o.bytes;
  }
};

// Fixed interleaved workload: per stream batch and device, two probe
// inferences, one calibration, one trailing probe. `mid_action` (optional)
// runs between stream batches 1 and 2, with futures still in flight —
// that is where the rebalance tests inject MoveDevice/Rebalance.
StreamOutcome DriveStream(ShardedFleetServer* server,
                          const std::function<void()>& mid_action = nullptr) {
  FleetFixture* f = GetFixture();
  const auto& devices = Devices();
  for (const auto& d : devices) server->RegisterDevice(d, f->qcore);

  std::vector<std::vector<std::future<BatchStats>>> cal(devices.size());
  std::vector<std::vector<std::future<InferenceResult>>> inf(devices.size());
  for (size_t b = 0; b < f->batches.size(); ++b) {
    if (b == 2 && mid_action) mid_action();
    for (size_t d = 0; d < devices.size(); ++d) {
      for (size_t p = 0; p < 2; ++p) {
        inf[d].push_back(server->SubmitInference(
            devices[d], f->probes[(b + d + p) % f->probes.size()]));
      }
      cal[d].push_back(
          server->SubmitCalibration(devices[d], f->batches[b], f->slices[b]));
      inf[d].push_back(server->SubmitInference(
          devices[d], f->probes[(b + d) % f->probes.size()]));
    }
  }
  server->Drain();

  StreamOutcome out;
  // Publication order is forced (sequential .get()) so version numbers are
  // comparable across runs.
  for (const auto& d : devices) {
    out.versions.push_back(server->PublishSnapshot(d).get());
    out.bytes.push_back(server->snapshots().LatestFor(d)->bytes);
  }
  for (size_t d = 0; d < devices.size(); ++d) {
    out.stats.emplace_back();
    for (auto& fu : cal[d]) {
      const BatchStats s = fu.get();
      out.stats.back().emplace_back(s.accuracy, s.qcore_changed);
    }
    out.predictions.emplace_back();
    for (auto& fu : inf[d]) {
      out.predictions.back().push_back(fu.get().predictions);
    }
    server->WithSessionQuiesced(devices[d], [&](CalibrationSession& s) {
      out.codes.push_back(s.model()->AllCodes());
    });
  }
  return out;
}

StreamOutcome RunSharded(int num_shards, int threads, bool batching,
                         std::function<void(ShardedFleetServer&)> mid =
                             nullptr) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions opts;
  opts.num_shards = num_shards;
  opts.shard = ShardOptions(threads, batching);
  ShardedFleetServer server(*f->base, *f->bf, opts);
  if (mid) {
    return DriveStream(&server, [&]() { mid(server); });
  }
  return DriveStream(&server);
}

// The reference every run must match: one shard, inline execution, no
// batching.
StreamOutcome RunReference() {
  return RunSharded(/*num_shards=*/1, /*threads=*/0, /*batching=*/false);
}

// Equality minus version numbers: a rebalanced run's migrations consume
// registry versions for their barrier snapshots, so its explicit publish
// versions are offset from a never-rebalanced run's — everything else
// (stats, labels, codes, published model bytes) must still match exactly.
// Version determinism for rebalanced runs is pinned separately below.
void ExpectSameResults(const StreamOutcome& got, const StreamOutcome& want,
                       const std::string& label) {
  EXPECT_EQ(got.stats, want.stats) << label;
  EXPECT_EQ(got.predictions, want.predictions) << label;
  EXPECT_EQ(got.codes, want.codes) << label;
  EXPECT_EQ(got.bytes, want.bytes) << label;
}

// ------------------------------------------------- shard-count bit-identity

TEST(ShardingDeterminismTest, ShardCounts124MatchReferenceBitIdentically) {
  const StreamOutcome reference = RunReference();
  ASSERT_FALSE(reference.codes.empty());
  for (int shards : {1, 2, 4}) {
    const StreamOutcome sharded =
        RunSharded(shards, /*threads=*/2, /*batching=*/false);
    EXPECT_TRUE(sharded == reference) << "shards=" << shards;
  }
  // Per-shard batchers on top must change nothing either.
  for (int shards : {1, 2, 4}) {
    const StreamOutcome batched =
        RunSharded(shards, /*threads=*/2, /*batching=*/true);
    EXPECT_TRUE(batched == reference) << "batched shards=" << shards;
  }
}

// ------------------------------------------------------- live rebalancing

TEST(ShardingDeterminismTest, MoveDeviceMidStreamIsBitIdentical) {
  const StreamOutcome reference = RunReference();
  FleetFixture* f = GetFixture();
  for (bool batching : {false, true}) {
    ShardedFleetServerOptions opts;
    opts.num_shards = 2;
    opts.shard = ShardOptions(/*threads=*/2, batching);
    ShardedFleetServer server(*f->base, *f->bf, opts);
    uint64_t barrier_version = 0;
    int source_shard = -1;
    const StreamOutcome moved = DriveStream(&server, [&]() {
      // Mid-stream, with futures in flight (and, when batching, possibly a
      // pending group — the barrier must flush it): move s0 to the other
      // shard.
      source_shard = server.ShardOf("s0");
      barrier_version = server.MoveDevice("s0", 1 - source_shard);
    });
    ExpectSameResults(moved, reference,
                      batching ? "move batched" : "move unbatched");
    EXPECT_EQ(server.ShardOf("s0"), 1 - source_shard);
    // The barrier snapshot is a real registry version capturing the
    // mid-stream model: published by s0 after its first two calibrations.
    auto snap = server.snapshots().Get(barrier_version);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->device_id, "s0");
    EXPECT_EQ(snap->batches_seen, 2u);
    auto restored = f->base->Clone();
    ASSERT_TRUE(SnapshotRegistry::RestoreInto(*snap, restored.get()).ok());
    EXPECT_NE(restored->AllCodes(), f->base->AllCodes());
  }
}

TEST(ShardingDeterminismTest, RebalanceMidStreamIsBitIdentical) {
  const StreamOutcome reference = RunReference();
  // Grow 1 -> 3 mid-stream: every device that the 3-shard ring places off
  // shard 0 migrates, streams keep flowing afterwards.
  const auto grow = [](ShardedFleetServer& s) { s.Rebalance(3); };
  ExpectSameResults(RunSharded(1, 2, /*batching=*/false, grow), reference,
                    "grow 1->3");
  ExpectSameResults(RunSharded(1, 2, /*batching=*/true, grow), reference,
                    "grow 1->3 batched");

  // Shrink 4 -> 2 mid-stream: shards 2 and 3 hand every session off and
  // retire.
  const auto shrink = [](ShardedFleetServer& s) {
    s.Rebalance(2);
    EXPECT_EQ(s.num_shards(), 2);
  };
  ExpectSameResults(RunSharded(4, 2, /*batching=*/false, shrink), reference,
                    "shrink 4->2");
  ExpectSameResults(RunSharded(4, 2, /*batching=*/true, shrink), reference,
                    "shrink 4->2 batched");
}

// Snapshot versions across rebalanced runs: a migration consumes registry
// versions for its barrier snapshots, so a rebalanced run's version
// numbers differ from a never-rebalanced one — but they must be fully
// deterministic: identical across replays and identical whether or not
// batching is enabled (the barrier count depends only on the schedule).
TEST(ShardingDeterminismTest, RebalancedSnapshotVersionsAreDeterministic) {
  const auto grow = [](ShardedFleetServer& s) { s.Rebalance(3); };
  const StreamOutcome a = RunSharded(1, 2, /*batching=*/false, grow);
  const StreamOutcome b = RunSharded(1, 2, /*batching=*/false, grow);
  EXPECT_TRUE(a == b) << "replay";
  const StreamOutcome c = RunSharded(1, 2, /*batching=*/true, grow);
  EXPECT_EQ(a.versions, c.versions) << "batching changed version assignment";
  EXPECT_EQ(a.bytes, c.bytes);
}

// ------------------------------------------------------------- chaos soak

// Randomized chaos soak: several seeded fault schedules, each arming every
// latency-only fault family (device RTT spikes, batcher flusher stalls,
// barrier delays) with probabilities and delays drawn from the seed, over
// a 4-shard batched fleet that rebalances twice mid-stream (grow 4->5,
// shrink 5->3). Latency faults stretch time but must never change WHAT is
// computed, so every schedule's outcome — stats, labels, codes, snapshot
// versions and bytes — must be bit-for-bit the fault-free run's.
TEST(ShardingChaosTest, SeededLatencyFaultSchedulesStayBitIdentical) {
  const auto mid = [](ShardedFleetServer& s) {
    s.Rebalance(5);
    s.Rebalance(3);
  };
  const StreamOutcome reference =
      RunSharded(4, /*threads=*/2, /*batching=*/true, mid);
  ASSERT_FALSE(reference.codes.empty());

  for (const uint64_t seed : {0xA11CEull, 0xB0Bull, 0xC4A05ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // The schedule itself is derived from the seed, so each iteration
    // exercises a different (but replayable) interleaving of faults.
    Rng plan(seed);
    FaultInjector injector(seed);
    FaultScript rtt;
    rtt.sticky = true;
    rtt.probability = 0.25 + 0.5 * plan.NextDouble();
    rtt.arg = 100 + plan.NextUint64(1200);  // microseconds
    injector.Arm(FaultPoint::kDeviceRttSpike, rtt);
    FaultScript stall;
    stall.sticky = true;
    stall.probability = 0.2;
    stall.arg = 500 + plan.NextUint64(2500);
    injector.Arm(FaultPoint::kBatcherFlusherStall, stall);
    FaultScript barrier;
    barrier.sticky = true;
    barrier.probability = 0.3 + 0.6 * plan.NextDouble();
    barrier.arg = 50 + plan.NextUint64(500);
    injector.Arm(FaultPoint::kBarrierDelay, barrier);

    injector.Install();
    const StreamOutcome faulted =
        RunSharded(4, /*threads=*/2, /*batching=*/true, mid);
    FaultInjector::Uninstall();

    EXPECT_TRUE(faulted == reference);
    // The soak must actually have injected something, or it proves nothing.
    EXPECT_GT(injector.total_fired(), 0u);
    EXPECT_GT(injector.hits(FaultPoint::kDeviceRttSpike), 0u);
  }
}

// --------------------------------------------------- router operationality

TEST(ShardedFleetServerTest, PlacementFollowsTheRingAndCoversShards) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions opts;
  opts.num_shards = 4;
  opts.shard = ShardOptions(/*threads=*/1, /*batching=*/false);
  ShardedFleetServer server(*f->base, *f->bf, opts);
  HashRing ring(4);
  const int kDevices = 64;
  for (int i = 0; i < kDevices; ++i) {
    const std::string id = "device-" + std::to_string(i);
    server.RegisterDevice(id, f->qcore);
    EXPECT_EQ(server.ShardOf(id), ring.ShardFor(id)) << id;
    EXPECT_TRUE(server.HasDevice(id));
  }
  EXPECT_EQ(server.num_sessions(), kDevices);
  int total = 0;
  for (int s = 0; s < server.num_shards(); ++s) {
    const int on_shard = server.SessionCountOnShard(s);
    EXPECT_GT(on_shard, 0) << "shard " << s << " owns no sessions";
    total += on_shard;
  }
  EXPECT_EQ(total, kDevices);
}

// MoveDevice records a persistent placement pin: Rebalance keeps the device
// on the pinned shard instead of re-deriving from the ring, ClearPin
// restores ring placement, and a pin to a retired shard is dropped —
// closing the old "pins last only until the next Rebalance" caveat. Results
// stay bit-identical throughout (migration is still the barrier-snapshot
// protocol, wherever the device lands).
TEST(ShardedFleetServerTest, PlacementPinSurvivesRebalance) {
  const StreamOutcome reference = RunReference();
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions opts;
  opts.num_shards = 2;
  opts.shard = ShardOptions(/*threads=*/2, /*batching=*/false);
  ShardedFleetServer server(*f->base, *f->bf, opts);
  // Pin s0 to a shard the 3-shard ring would NOT choose, so the pin (not
  // the ring) demonstrably decides placement after the rebalance.
  const int ring3_home = HashRing(3).ShardFor("s0");
  const int pin_target = ring3_home == 0 ? 1 : 0;
  const StreamOutcome moved = DriveStream(&server, [&]() {
    server.MoveDevice("s0", pin_target);
    server.Rebalance(3);
  });
  ExpectSameResults(moved, reference, "pinned move + rebalance");
  EXPECT_EQ(server.ShardOf("s0"), pin_target);
  ASSERT_NE(server.ShardOf("s0"), ring3_home);

  // A second rebalance still honors the pin...
  server.Rebalance(3);
  EXPECT_EQ(server.ShardOf("s0"), pin_target);
  // ...until ClearPin, after which placement is the ring's again.
  server.ClearPin("s0");
  EXPECT_EQ(server.ShardOf("s0"), pin_target);  // ClearPin itself moves nothing
  server.Rebalance(3);
  EXPECT_EQ(server.ShardOf("s0"), ring3_home);
  // The device kept serving through every placement change.
  server.SubmitInference("s0", f->probes[0]).get();
  server.Drain();
}

TEST(ShardedFleetServerTest, PinToRetiredShardIsDroppedOnShrink) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions opts;
  opts.num_shards = 4;
  opts.shard = ShardOptions(/*threads=*/1, /*batching=*/false);
  ShardedFleetServer server(*f->base, *f->bf, opts);
  const auto& devices = Devices();
  for (const auto& d : devices) server.RegisterDevice(d, f->qcore);
  server.MoveDevice("s1", 3);
  EXPECT_EQ(server.ShardOf("s1"), 3);

  // Shrinking away shard 3 drops the pin: the device rehomes by the
  // 2-shard ring like everyone else, and the retiring shard ends empty.
  server.Rebalance(2);
  EXPECT_EQ(server.num_shards(), 2);
  HashRing ring2(2);
  for (const auto& d : devices) {
    EXPECT_EQ(server.ShardOf(d), ring2.ShardFor(d)) << d;
  }
  // The dropped pin stays dropped: growing again follows the ring, not the
  // stale override.
  server.Rebalance(4);
  HashRing ring4(4);
  EXPECT_EQ(server.ShardOf("s1"), ring4.ShardFor("s1"));
  server.Drain();
}

TEST(ShardedFleetServerTest, RollupSurvivesShardRetirement) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions opts;
  opts.num_shards = 3;
  opts.shard = ShardOptions(/*threads=*/2, /*batching=*/false);
  ShardedFleetServer server(*f->base, *f->bf, opts);
  const auto& devices = Devices();
  for (const auto& d : devices) server.RegisterDevice(d, f->qcore);
  for (const auto& d : devices) {
    server.SubmitInference(d, f->probes[0]);
    server.SubmitCalibration(d, f->batches[0], f->slices[0]);
  }
  server.Drain();
  const ServingCounters before = server.whiteboard().Read().FleetTotals();
  EXPECT_EQ(before.inference_requests, devices.size());
  EXPECT_EQ(before.calibration_batches, devices.size());

  // Shard totals are derived from the devices placed on each shard, so
  // retiring shards loses nothing: their devices carry their history to
  // shard 0, the retired rows total zero, and the fleet total is unchanged
  // (the migrations' barrier snapshots add to the snapshot counter only).
  server.Rebalance(1);
  EXPECT_EQ(server.num_shards(), 1);
  {
    const WhiteboardImage image = server.whiteboard().Read();
    const ServingCounters after = image.FleetTotals();
    EXPECT_EQ(after.inference_requests, before.inference_requests);
    EXPECT_EQ(after.calibration_batches, before.calibration_batches);
    EXPECT_EQ(after.accepted_inference, before.accepted_inference);
    EXPECT_TRUE(image.ShardTotals(0) == after);
    for (int s = 1; s < 3; ++s) {
      EXPECT_TRUE(image.ShardTotals(s) == ServingCounters()) << s;
    }
  }
  // Every device still serves from the surviving shard.
  for (const auto& d : devices) {
    EXPECT_EQ(server.ShardOf(d), 0);
    server.SubmitInference(d, f->probes[1]);
  }
  server.Drain();
  EXPECT_EQ(server.whiteboard().Read().FleetTotals().inference_requests,
            before.inference_requests + devices.size());
}

}  // namespace
}  // namespace qcore
