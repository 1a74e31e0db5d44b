// Chaos suite: deterministic fault injection across the fleet
// (src/testing/fault_injector.h). Three layers of coverage:
//
//   * Injector semantics — scripts (Nth hit, seeded probability, one-shot
//     vs sticky), install/uninstall lifecycle, and the kFaultInjected
//     trace event every firing records.
//   * Storage fault families over a DurableSnapshotStore — torn append,
//     silent bit-rot, append delay — and registry-delta transport faults
//     (truncated export, dropped import). Each asserts the documented
//     invariant: either the surviving state is bit-identical to the
//     fault-free run, or the failure is loud (a Status) and recovery
//     (reopen / retry) restores exactly what was durable. Never silent
//     corruption. (Fsync failure and compaction crashes are pinned in
//     tests/snapshot_store_test.cc next to the other durability tests.)
//   * Serving fault families over a live fleet — device RTT spikes,
//     batcher flusher stalls, barrier delays (all latency-only: results
//     must stay bit-identical), and the shard-crash-during-migration
//     family, whose documented degradation is a lost continuation with
//     bit-identical model recovery from the barrier snapshot.
//
// Plus the zero-cost contract: with no injector installed — or one
// installed with nothing armed, then uninstalled — the serving hot path
// produces bit-identical results and zero kFaultInjected events.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "obs/whiteboard.h"
#include "serving/router.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "serving/snapshot_store.h"
#include "testing/fault_injector.h"
#include "tests/fleet_fixture.h"

namespace qcore {
namespace {

// --------------------------------------------------- injector semantics

// A point the cheap tests fire by hand; any catalog entry works because
// ShouldFire never interprets the point, only its script.
constexpr FaultPoint kProbe = FaultPoint::kWalFsyncFail;

TEST(FaultInjectorTest, UninstalledHookIsInert) {
  ASSERT_EQ(FaultInjector::installed(), nullptr);
  uint64_t arg = 42;
  EXPECT_FALSE(MaybeFault(kProbe, &arg));
  EXPECT_EQ(arg, 42u);  // untouched
}

TEST(FaultInjectorTest, InstallUninstallAndDestructorSafety) {
  {
    FaultInjector injector(1);
    EXPECT_EQ(FaultInjector::installed(), nullptr);
    injector.Install();
    EXPECT_EQ(FaultInjector::installed(), &injector);
    FaultInjector::Uninstall();
    EXPECT_EQ(FaultInjector::installed(), nullptr);
    // Hits count even when nothing is armed — how tests prove production
    // code actually reached a point.
    injector.Install();
    EXPECT_FALSE(MaybeFault(kProbe));
    EXPECT_EQ(injector.hits(kProbe), 1u);
    EXPECT_EQ(injector.fired(kProbe), 0u);
    // Destructor auto-uninstalls: no dangling global after this scope.
  }
  EXPECT_EQ(FaultInjector::installed(), nullptr);
  EXPECT_FALSE(MaybeFault(kProbe));
}

TEST(FaultInjectorTest, NthHitOneShotAndStickyScripts) {
  FaultInjector injector(7);
  FaultScript script;
  script.fire_on_hit = 3;  // one-shot on exactly the 3rd hit
  injector.Arm(kProbe, script);
  injector.Install();
  std::vector<bool> fires;
  for (int i = 0; i < 6; ++i) fires.push_back(MaybeFault(kProbe));
  EXPECT_EQ(fires, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(injector.hits(kProbe), 6u);
  EXPECT_EQ(injector.fired(kProbe), 1u);

  // Re-arming resets the fired counter (it doubles as the one-shot
  // latch) but not the hit count, so with sticky set every hit >=
  // fire_on_hit fires from here on.
  script.sticky = true;
  script.fire_on_hit = 8;
  injector.Arm(kProbe, script);
  fires.clear();
  for (int i = 0; i < 4; ++i) fires.push_back(MaybeFault(kProbe));  // hits 7-10
  EXPECT_EQ(fires, (std::vector<bool>{false, true, true, true}));
  EXPECT_EQ(injector.fired(kProbe), 3u);
  EXPECT_EQ(injector.total_fired(), 3u);

  // Disarm keeps the counters for post-run assertions.
  injector.Disarm(kProbe);
  EXPECT_FALSE(MaybeFault(kProbe));
  EXPECT_EQ(injector.hits(kProbe), 11u);
  EXPECT_EQ(injector.fired(kProbe), 3u);
  FaultInjector::Uninstall();
}

TEST(FaultInjectorTest, SeededProbabilityReplaysExactly) {
  const auto run = [](uint64_t seed) {
    FaultInjector injector(seed);
    FaultScript script;
    script.probability = 0.4;
    script.sticky = true;
    injector.Arm(kProbe, script);
    injector.Install();
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) fires.push_back(MaybeFault(kProbe));
    FaultInjector::Uninstall();
    return fires;
  };
  const std::vector<bool> a = run(0xC4A05);
  EXPECT_EQ(a, run(0xC4A05)) << "same seed must replay the same schedule";
  EXPECT_NE(a, run(0xC4A06)) << "different seed, different schedule";
  size_t fired = 0;
  for (bool f : a) fired += f ? 1 : 0;
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, a.size());
}

TEST(FaultInjectorTest, FiringRecordsTraceEventOnTheCurrentSpan) {
  TraceRing::Global().Clear();
  FaultInjector injector(3);
  FaultScript script;
  script.arg = 777;
  injector.Arm(FaultPoint::kDeviceRttSpike, script);
  injector.Install();
  const uint64_t span = TraceRing::NextSpan();
  uint64_t arg = 0;
  {
    ScopedTraceSpan scope(span);
    EXPECT_TRUE(MaybeFault(FaultPoint::kDeviceRttSpike, &arg));
  }
  FaultInjector::Uninstall();
  EXPECT_EQ(arg, 777u);

  const std::vector<TraceEvent> timeline =
      TraceRing::Global().CollectSpan(span);
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline[0].kind, TraceKind::kFaultInjected);
  EXPECT_EQ(TraceRing::Global().NameOf(timeline[0].arg0),
            "fault:deviceRttSpike");
  EXPECT_EQ(timeline[0].arg1, 777u);
}

// ------------------------------------------------- WAL fault families

std::string TempLog(const std::string& name) {
  const std::string path = "/tmp/qcore_chaos_" + name + ".wal";
  std::remove(path.c_str());
  return path;
}

std::shared_ptr<const ModelSnapshot> MakeSnap(uint64_t version,
                                              const std::string& device,
                                              size_t n_bytes = 64) {
  auto snap = std::make_shared<ModelSnapshot>();
  snap->version = version;
  snap->device_id = device;
  snap->batches_seen = version * 10;
  snap->bytes.resize(n_bytes);
  for (size_t i = 0; i < n_bytes; ++i) {
    snap->bytes[i] = static_cast<uint8_t>((version * 131 + device.size() * 17 +
                                           i * 7) &
                                          0xFF);
  }
  return snap;
}

std::unique_ptr<DurableSnapshotStore> OpenOrDie(const std::string& path) {
  DurableSnapshotStoreOptions options;
  options.path = path;
  auto store = DurableSnapshotStore::Open(std::move(options));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

std::vector<uint8_t> Slurp(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  std::fseek(file, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(file)));
  std::fseek(file, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
  return bytes;
}

// Torn append: the Put fails loudly, the next Open truncates the half-frame
// and counts the recovery (WalStats::torn_tails_recovered — the whiteboard
// WAL row's torn_tails field), and everything before the tear replays
// bit-identically.
TEST(WalFaultTest, TornAppendIsRecoveredAndCounted) {
  const std::string path = TempLog("torn");
  {
    auto store = OpenOrDie(path);
    ASSERT_TRUE(store->Put(MakeSnap(1, "dev")).ok());
    ASSERT_TRUE(store->Put(MakeSnap(2, "dev")).ok());

    FaultInjector injector(11);
    injector.Arm(FaultPoint::kWalTornAppend, {});
    injector.Install();
    const Status torn = store->Put(MakeSnap(3, "dev"));
    FaultInjector::Uninstall();
    EXPECT_EQ(injector.fired(FaultPoint::kWalTornAppend), 1u);
    EXPECT_EQ(torn.code(), StatusCode::kIoError);
    // Log-then-apply: the failed Put never reached the in-memory maps.
    EXPECT_EQ(store->size(), 2u);
    EXPECT_EQ(store->Get(3), nullptr);
  }
  auto store = OpenOrDie(path);
  EXPECT_GT(store->truncated_tail_bytes(), 0u);
  EXPECT_EQ(store->wal_stats().torn_tails_recovered, 1u);
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->Get(1)->bytes, MakeSnap(1, "dev")->bytes);
  EXPECT_EQ(store->Get(2)->bytes, MakeSnap(2, "dev")->bytes);
  // The truncated log stays appendable: the re-published v3 lands cleanly.
  ASSERT_TRUE(store->Put(MakeSnap(3, "dev")).ok());
  EXPECT_EQ(store->MaxVersion(), 3u);
  std::remove(path.c_str());
}

// Silent bit-rot: the append "succeeds" (this process keeps serving from
// memory), and the damage surfaces loudly at the NEXT Open — the CRC scan
// cuts the rotted record off, keeping the clean prefix bit-identically.
TEST(WalFaultTest, BitRotSurfacesAtNextOpenNotInProcess) {
  const std::string path = TempLog("bitrot");
  {
    auto store = OpenOrDie(path);
    ASSERT_TRUE(store->Put(MakeSnap(1, "dev")).ok());

    FaultInjector injector(13);
    injector.Arm(FaultPoint::kWalAppendBitRot, {});
    injector.Install();
    const Status rotted = store->Put(MakeSnap(2, "dev"));
    FaultInjector::Uninstall();
    EXPECT_TRUE(rotted.ok()) << "rot is silent in the writing process";
    // The live process still serves the rotted version from memory.
    EXPECT_EQ(store->size(), 2u);
    EXPECT_EQ(store->Get(2)->bytes, MakeSnap(2, "dev")->bytes);
  }
  auto store = OpenOrDie(path);
  EXPECT_EQ(store->wal_stats().torn_tails_recovered, 1u);
  EXPECT_EQ(store->size(), 1u);
  EXPECT_EQ(store->Get(2), nullptr);
  EXPECT_EQ(store->Get(1)->bytes, MakeSnap(1, "dev")->bytes);
  std::remove(path.c_str());
}

// Append delay is latency-only: the log written under injected slow-disk
// sleeps must be byte-identical to one written without them.
TEST(WalFaultTest, AppendDelayChangesNothingButTime) {
  const std::string clean_path = TempLog("delay_clean");
  const std::string slow_path = TempLog("delay_slow");
  const auto fill = [](const std::string& path) {
    auto store = OpenOrDie(path);
    for (uint64_t v = 1; v <= 3; ++v) {
      ASSERT_TRUE(store->Put(MakeSnap(v, "dev")).ok());
    }
  };
  fill(clean_path);
  FaultInjector injector(17);
  FaultScript script;
  script.sticky = true;
  script.arg = 500;  // 500us per append
  injector.Arm(FaultPoint::kWalAppendDelay, script);
  injector.Install();
  fill(slow_path);
  FaultInjector::Uninstall();
  EXPECT_EQ(injector.fired(FaultPoint::kWalAppendDelay), 3u);
  EXPECT_EQ(Slurp(slow_path), Slurp(clean_path));
  std::remove(clean_path.c_str());
  std::remove(slow_path.c_str());
}

// ------------------------------------------- delta transport families

// A delta cut in transit is rejected whole — the target registry imports
// nothing — and a clean re-export delivers everything.
TEST(DeltaFaultTest, TruncatedExportRejectedWholeThenCleanRetry) {
  auto store = std::make_unique<MemorySnapshotStore>();
  for (uint64_t v = 1; v <= 3; ++v) {
    ASSERT_TRUE(store->Put(MakeSnap(v, v == 3 ? "b" : "a")).ok());
  }
  SnapshotRegistry source(std::move(store));
  SnapshotRegistry target;

  FaultInjector injector(19);
  injector.Arm(FaultPoint::kSnapshotExportTruncate, {});
  injector.Install();
  const std::vector<uint8_t> cut = source.ExportDelta(0);
  FaultInjector::Uninstall();
  EXPECT_EQ(injector.fired(FaultPoint::kSnapshotExportTruncate), 1u);

  const auto imported = target.ImportDelta(cut);
  EXPECT_FALSE(imported.ok());
  EXPECT_EQ(target.size(), 0u) << "a cut delta must not half-apply";

  // The fault was one-shot; the retry exports and applies completely.
  const auto retry = target.ImportDelta(source.ExportDelta(0));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value(), 3u);
  EXPECT_EQ(target.Get(3)->bytes, MakeSnap(3, "b")->bytes);
}

// A delta dropped in transit fails loudly and touches nothing; resending
// the SAME delta succeeds because imports are idempotent.
TEST(DeltaFaultTest, DroppedImportIsIdempotentOnRetry) {
  auto store = std::make_unique<MemorySnapshotStore>();
  ASSERT_TRUE(store->Put(MakeSnap(1, "a")).ok());
  ASSERT_TRUE(store->Put(MakeSnap(2, "a")).ok());
  SnapshotRegistry source(std::move(store));
  SnapshotRegistry target;
  const std::vector<uint8_t> delta = source.ExportDelta(0);

  FaultInjector injector(23);
  injector.Arm(FaultPoint::kSnapshotImportDrop, {});
  injector.Install();
  const auto dropped = target.ImportDelta(delta);
  FaultInjector::Uninstall();
  EXPECT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kIoError);
  EXPECT_EQ(target.size(), 0u);

  const auto retry = target.ImportDelta(delta);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value(), 2u);
  EXPECT_EQ(target.LatestFor("a")->version, 2u);
}

// ------------------------------------------------ serving fault families

FleetFixture* GetFixture() {
  static FleetFixture* fixture = MakeFleetFixture(20260808, 606, 8);
  return fixture;
}

FleetServerOptions ChaosServerOptions() {
  FleetServerOptions opts;
  opts.num_threads = 2;
  opts.continual.iterations = 1;
  opts.seed = 0x5EED;
  opts.enable_batching = true;  // thread the batcher/barrier hooks too
  opts.batching.max_batch = 3;
  opts.batching.max_delay_us = 100.0;
  return opts;
}

const std::vector<std::string>& Devices() {
  static const std::vector<std::string> devices = {"c0", "c1", "c2"};
  return devices;
}

// Everything a workload produces; runs are interchangeable iff == holds.
struct Outcome {
  std::vector<std::vector<std::pair<float, int>>> stats;
  std::vector<std::vector<std::vector<int>>> predictions;
  std::vector<std::vector<std::vector<int32_t>>> codes;
  std::vector<uint64_t> versions;
  std::vector<std::vector<uint8_t>> bytes;

  bool operator==(const Outcome& o) const {
    return stats == o.stats && predictions == o.predictions &&
           codes == o.codes && versions == o.versions && bytes == o.bytes;
  }
};

// Interleaved inference + calibration across every stream batch, then a
// publish per device — the workload every serving fault family replays.
Outcome RunWorkload(ShardedFleetServer* server) {
  FleetFixture* f = GetFixture();
  const auto& devices = Devices();
  for (const auto& d : devices) server->RegisterDevice(d, f->qcore);
  std::vector<std::vector<std::future<BatchStats>>> cal(devices.size());
  std::vector<std::vector<std::future<InferenceResult>>> inf(devices.size());
  for (size_t b = 0; b < f->batches.size(); ++b) {
    for (size_t d = 0; d < devices.size(); ++d) {
      inf[d].push_back(
          server->SubmitInference(devices[d], f->slices[b].x()));
      cal[d].push_back(
          server->SubmitCalibration(devices[d], f->batches[b], f->slices[b]));
    }
  }
  server->Drain();

  Outcome out;
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

Outcome RunFresh() {
  FleetFixture* f = GetFixture();
  ShardedFleetServer server(*f->base, *f->bf,
                            OneShard(ChaosServerOptions()));
  return RunWorkload(&server);
}

// The acceptance requirement: the hot path with chaos hooks compiled in is
// bit-identical whether an injector was never installed, is installed with
// nothing armed, or was installed and then removed — and an unarmed
// injector proves the hooks are actually reached (hits > 0) while firing
// nothing (no kFaultInjected events, no result perturbation).
TEST(ChaosServingTest, NoInjectorHotPathBitIdentical) {
  const Outcome reference = RunFresh();  // no injector ever installed
  ASSERT_FALSE(reference.codes.empty());

  TraceRing::Global().Clear();
  FaultInjector unarmed(0xDEAD);
  unarmed.Install();
  const Outcome with_hooks_live = RunFresh();
  FaultInjector::Uninstall();
  EXPECT_TRUE(with_hooks_live == reference);
  EXPECT_EQ(unarmed.total_fired(), 0u);
  // The serving path really crossed the injection points...
  EXPECT_GT(unarmed.hits(FaultPoint::kDeviceRttSpike), 0u);
  EXPECT_GT(unarmed.hits(FaultPoint::kBatcherFlusherStall), 0u);
  // ...without ever recording a firing.
  for (const TraceEvent& e : TraceRing::Global().Collect()) {
    EXPECT_NE(e.kind, TraceKind::kFaultInjected);
  }

  const Outcome after_uninstall = RunFresh();
  EXPECT_TRUE(after_uninstall == reference);
}

// RTT spikes, flusher stalls, and barrier delays are latency-only faults:
// under an aggressive schedule of all three, every result — labels, stats,
// codes, snapshot versions and bytes — must stay bit-identical.
TEST(ChaosServingTest, LatencyFaultFamiliesAreBitIdentical) {
  const Outcome reference = RunFresh();

  FaultInjector injector(0x10C4);
  FaultScript rtt;
  rtt.sticky = true;
  rtt.probability = 0.5;
  rtt.arg = 400;  // 400us spike on half the device round trips
  injector.Arm(FaultPoint::kDeviceRttSpike, rtt);
  FaultScript stall;
  stall.sticky = true;
  stall.probability = 0.3;
  stall.arg = 1500;  // deadline flusher naps
  injector.Arm(FaultPoint::kBatcherFlusherStall, stall);
  FaultScript barrier;
  barrier.sticky = true;
  barrier.arg = 300;  // every barrier hesitates
  injector.Arm(FaultPoint::kBarrierDelay, barrier);
  injector.Install();
  const Outcome faulted = RunFresh();
  FaultInjector::Uninstall();

  EXPECT_TRUE(faulted == reference);
  EXPECT_GT(injector.fired(FaultPoint::kDeviceRttSpike), 0u);
  EXPECT_GT(injector.fired(FaultPoint::kBarrierDelay), 0u);
}

// The shard-crash family's recovery invariant: the continuation is lost
// (documented degradation — Rng/QCore/batch-counter state starts fresh),
// but the barrier snapshot survives in the shared registry and a warm
// re-registration restores the device's model codes bit-identically.
TEST(ChaosServingTest, ShardCrashDuringMoveRecoversFromBarrierSnapshot) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions sopts;
  sopts.num_shards = 2;
  sopts.shard = ChaosServerOptions();
  sopts.shard.warm_start_from_registry = true;  // the recovery path below
  ShardedFleetServer server(*f->base, *f->bf, sopts);
  for (const auto& d : Devices()) server.RegisterDevice(d, f->qcore);
  // Calibrate the victim so the barrier snapshot is a real mid-stream
  // model, not the factory base.
  const std::string victim = "c0";
  server.SubmitCalibration(victim, f->batches[0], f->slices[0]).get();
  server.SubmitCalibration(victim, f->batches[1], f->slices[1]).get();
  server.Drain();

  FaultInjector injector(0x5AAD);
  injector.Arm(FaultPoint::kShardCrashDuringMigration, {});
  injector.Install();
  const int source = server.ShardOf(victim);
  const uint64_t barrier = server.MoveDevice(victim, 1 - source);
  FaultInjector::Uninstall();
  ASSERT_EQ(injector.fired(FaultPoint::kShardCrashDuringMigration), 1u);

  // The device fell out of the fleet — loudly, not silently.
  EXPECT_FALSE(server.HasDevice(victim));
  EXPECT_EQ(server.num_sessions(),
            static_cast<int>(Devices().size()) - 1);
  const WhiteboardImage image = server.whiteboard().Read();
  bool found = false;
  for (const auto& row : image.devices) {
    if (row.device_id != victim) continue;
    found = true;
    EXPECT_EQ(row.last_error.code(), StatusCode::kIoError);
    EXPECT_NE(row.last_error.message().find("injected"), std::string::npos);
  }
  EXPECT_TRUE(found);

  // The barrier snapshot is real and carries the pre-crash model.
  auto snap = server.snapshots().Get(barrier);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->device_id, victim);
  EXPECT_EQ(snap->batches_seen, 2u);

  // A client still submitting for the lost device is told so (kNotFound)
  // instead of taking the fleet down, and survivors keep serving.
  auto orphan = server.TrySubmitInference(victim, f->slices[0].x());
  ASSERT_FALSE(orphan.ok());
  EXPECT_EQ(orphan.status().code(), StatusCode::kNotFound);
  server.SubmitCalibration("c1", f->batches[2], f->slices[2]).get();

  // Recovery: warm re-registration restores the barrier codes
  // bit-identically.
  server.RegisterDevice(victim, f->qcore);
  auto expected = f->base->Clone();
  ASSERT_TRUE(SnapshotRegistry::RestoreInto(*snap, expected.get()).ok());
  server.WithSessionQuiesced(victim, [&](CalibrationSession& s) {
    EXPECT_EQ(s.model()->AllCodes(), expected->AllCodes());
    EXPECT_NE(s.model()->AllCodes(), f->base->AllCodes());
  });
  server.Drain();
}

// A shard crash in the middle of a Rebalance must lose exactly the device
// whose migration the fault hit: every other planned move completes, the
// fleet keeps serving, and a later shrink still satisfies the
// empty-retired-shard invariant.
TEST(ChaosServingTest, ShardCrashDuringRebalanceLosesOnlyThatDevice) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions sopts;
  sopts.num_shards = 1;
  sopts.shard = ChaosServerOptions();
  sopts.shard.warm_start_from_registry = true;
  ShardedFleetServer server(*f->base, *f->bf, sopts);
  const std::vector<std::string> fleet = {"c0", "c1", "c2", "c3", "c4"};
  for (const auto& d : fleet) server.RegisterDevice(d, f->qcore);
  for (const auto& d : fleet) {
    server.SubmitCalibration(d, f->batches[0], f->slices[0]);
  }
  server.Drain();

  FaultInjector injector(0xB4D5EED);
  FaultScript once;
  once.fire_on_hit = 1;  // the first migration of the rebalance crashes
  injector.Arm(FaultPoint::kShardCrashDuringMigration, once);
  injector.Install();
  server.Rebalance(3);
  FaultInjector::Uninstall();
  ASSERT_EQ(injector.fired(FaultPoint::kShardCrashDuringMigration), 1u);
  ASSERT_GT(injector.hits(FaultPoint::kShardCrashDuringMigration), 1u)
      << "schedule must have planned several migrations";

  std::vector<std::string> lost;
  for (const auto& d : fleet) {
    if (!server.HasDevice(d)) lost.push_back(d);
  }
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(server.num_sessions(), static_cast<int>(fleet.size()) - 1);

  // Survivors serve; the lost device warm-starts back in from its barrier
  // snapshot (published by the crashed migration before the "crash").
  for (const auto& d : fleet) {
    if (d == lost[0]) continue;
    server.SubmitInference(d, f->slices[0].x());
  }
  server.Drain();
  auto snap = server.snapshots().LatestFor(lost[0]);
  ASSERT_NE(snap, nullptr);
  server.RegisterDevice(lost[0], f->qcore);
  auto expected = f->base->Clone();
  ASSERT_TRUE(SnapshotRegistry::RestoreInto(*snap, expected.get()).ok());
  server.WithSessionQuiesced(lost[0], [&](CalibrationSession& s) {
    EXPECT_EQ(s.model()->AllCodes(), expected->AllCodes());
  });

  // Shrinking back retires shards cleanly: no session leaked mid-crash.
  server.Rebalance(1);
  EXPECT_EQ(server.num_shards(), 1);
  EXPECT_EQ(server.num_sessions(), static_cast<int>(fleet.size()));
  server.Drain();
}

}  // namespace
}  // namespace qcore
