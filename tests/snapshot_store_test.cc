// Snapshot durability suite: the SnapshotStore storage plane under the
// registry facade. Store-level tests pin the WAL mechanics — publish N
// versions, drop all process state, reopen the log, and every device's
// latest restores bit-identically; a torn tail (writer killed mid-append)
// truncates cleanly; TrimBelow-driven compaction preserves device-latest
// across a reopen. Fleet-level tests pin the serving-plane contract: a
// fleet server of 1, 2 or 4 shards killed mid-stream and
// reconstructed over the same WAL restores every device's latest snapshot
// (bytes bit-identical, versions monotonic across the restart) and
// warm-starts re-registered sessions from it; ExportDelta/ImportDelta ship
// a registry across a process boundary for cohort-nearest warm starts.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "serving/router.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "serving/snapshot_store.h"
#include "testing/fault_injector.h"
#include "tests/fleet_fixture.h"

namespace qcore {
namespace {

// ----------------------------------------------------- store-level (cheap)

std::string TempLog(const std::string& name) {
  const std::string path = "/tmp/qcore_" + name + ".wal";
  std::remove(path.c_str());
  return path;
}

// A synthetic snapshot whose bytes depend on (version, device), so any
// cross-wiring or corruption shows up as a byte mismatch.
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

std::unique_ptr<SnapshotStore> OpenOrDie(const std::string& path,
                                         bool fsync = false) {
  SnapshotLogOptions options;
  options.path = path;
  options.fsync_on_publish = fsync;
  auto store = SnapshotStore::Open(std::move(options));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

TEST(SnapshotRecordTest, EncodeDecodeRoundTrip) {
  auto snap = MakeSnap(42, "dev-x", 100);
  auto decoded = DecodeSnapshotRecord(EncodeSnapshotRecord(*snap));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().version, snap->version);
  EXPECT_EQ(decoded.value().device_id, snap->device_id);
  EXPECT_EQ(decoded.value().batches_seen, snap->batches_seen);
  EXPECT_EQ(decoded.value().bytes, snap->bytes);

  // A truncated payload must decode to Corruption, not garbage.
  auto payload = EncodeSnapshotRecord(*snap);
  payload.resize(payload.size() / 2);
  EXPECT_FALSE(DecodeSnapshotRecord(payload).ok());
}

TEST(SnapshotLogTest, PersistsAcrossReopenBitIdentically) {
  const std::string path = TempLog("reopen");
  std::vector<std::shared_ptr<const ModelSnapshot>> published;
  {
    auto store = OpenOrDie(path);
    EXPECT_EQ(store->size(), 0u);
    EXPECT_EQ(store->MaxVersion(), 0u);
    uint64_t version = 1;
    for (const char* device : {"a", "b", "c"}) {
      for (int k = 0; k < 3; ++k) {
        auto snap = MakeSnap(version++, device, 64 + k);
        published.push_back(snap);
        ASSERT_TRUE(store->Put(snap).ok());
      }
    }
    // Store object destroyed here: all process state gone, only the log
    // remains.
  }
  auto store = OpenOrDie(path);
  EXPECT_EQ(store->truncated_tail_bytes(), 0u);
  EXPECT_EQ(store->size(), published.size());
  EXPECT_EQ(store->MaxVersion(), 9u);
  for (const auto& snap : published) {
    auto got = store->Get(snap->version);
    ASSERT_NE(got, nullptr) << "v" << snap->version;
    EXPECT_EQ(got->device_id, snap->device_id);
    EXPECT_EQ(got->batches_seen, snap->batches_seen);
    EXPECT_EQ(got->bytes, snap->bytes);
  }
  for (const char* device : {"a", "b", "c"}) {
    auto latest = store->LatestFor(device);
    ASSERT_NE(latest, nullptr);
    // Versions 3/6/9 are the devices' last publishes.
    EXPECT_EQ(latest->version % 3, 0u);
    EXPECT_EQ(latest->bytes, published[latest->version - 1]->bytes);
  }
  std::remove(path.c_str());
}

TEST(SnapshotLogTest, TornTailIsTruncatedAndAppendableAfter) {
  const std::string path = TempLog("torn");
  long full_size = 0;
  {
    auto store = OpenOrDie(path);
    for (uint64_t v = 1; v <= 4; ++v) {
      ASSERT_TRUE(store->Put(MakeSnap(v, "dev")).ok());
    }
  }
  {
    // Kill the last record mid-write: chop a few bytes off the tail, the
    // exact artifact of a writer that died inside fwrite.
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    full_size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), full_size - 5), 0);
  }
  {
    auto store = OpenOrDie(path);
    // Versions 1-3 replay; the torn v4 is cut off the file.
    EXPECT_GT(store->truncated_tail_bytes(), 0u);
    EXPECT_EQ(store->size(), 3u);
    EXPECT_EQ(store->MaxVersion(), 3u);
    EXPECT_EQ(store->LatestFor("dev")->bytes, MakeSnap(3, "dev")->bytes);
    // The log stays appendable after truncation: re-publish v4 and a v5.
    ASSERT_TRUE(store->Put(MakeSnap(4, "dev")).ok());
    ASSERT_TRUE(store->Put(MakeSnap(5, "dev")).ok());
  }
  auto store = OpenOrDie(path);
  EXPECT_EQ(store->truncated_tail_bytes(), 0u);
  EXPECT_EQ(store->size(), 5u);
  EXPECT_EQ(store->LatestFor("dev")->bytes, MakeSnap(5, "dev")->bytes);
  std::remove(path.c_str());
}

TEST(SnapshotLogTest, CorruptByteMidFileDropsTheSuffix) {
  const std::string path = TempLog("bitrot");
  long second_record_offset = 0;
  {
    auto store = OpenOrDie(path);
    ASSERT_TRUE(store->Put(MakeSnap(1, "dev")).ok());
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    second_record_offset = std::ftell(f);
    std::fclose(f);
    ASSERT_TRUE(store->Put(MakeSnap(2, "dev")).ok());
    ASSERT_TRUE(store->Put(MakeSnap(3, "dev")).ok());
  }
  {
    // Flip one byte inside record 2's payload: the scan stops at the CRC
    // failure and keeps the clean prefix (log semantics — everything after
    // an unreadable record is unreachable anyway).
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, second_record_offset + 12, SEEK_SET);
    const uint8_t junk = 0x5A;
    ASSERT_EQ(std::fwrite(&junk, 1, 1, f), 1u);
    std::fclose(f);
  }
  auto store = OpenOrDie(path);
  EXPECT_GT(store->truncated_tail_bytes(), 0u);
  EXPECT_EQ(store->size(), 1u);
  EXPECT_EQ(store->LatestFor("dev")->bytes, MakeSnap(1, "dev")->bytes);
  std::remove(path.c_str());
}

TEST(SnapshotLogTest, CompactionPreservesLatestAcrossReopen) {
  const std::string path = TempLog("compact");
  long before_compaction = 0;
  {
    auto store = OpenOrDie(path);
    for (uint64_t v = 1; v <= 6; ++v) {
      ASSERT_TRUE(
          store->Put(MakeSnap(v, v % 2 == 0 ? "even" : "odd", 256)).ok());
    }
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    before_compaction = std::ftell(f);
    std::fclose(f);

    // Trim everything except device-latest (v5 for "odd", v6 for "even");
    // the logged store rewrites the segment.
    auto dropped = store->TrimBelow(100);
    ASSERT_TRUE(dropped.ok());
    EXPECT_EQ(dropped.value(), 4u);
    EXPECT_EQ(store->size(), 2u);
  }
  // The rewritten segment is smaller and replays to exactly the survivors,
  // with MaxVersion intact so the registry resumes numbering correctly.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  EXPECT_LT(std::ftell(f), before_compaction);
  std::fclose(f);
  auto store = OpenOrDie(path);
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->MaxVersion(), 6u);
  EXPECT_EQ(store->Get(5)->bytes, MakeSnap(5, "odd", 256)->bytes);
  EXPECT_EQ(store->Get(6)->bytes, MakeSnap(6, "even", 256)->bytes);
  EXPECT_EQ(store->Get(3), nullptr);
  // And the compacted log is still appendable.
  ASSERT_TRUE(store->Put(MakeSnap(7, "odd")).ok());
  EXPECT_EQ(store->MaxVersion(), 7u);
  std::remove(path.c_str());
}

// Injected fsync failure (chaos plane): the Put fails atomically — no
// bytes reach the log, the in-memory maps are untouched — and the same
// Put retried lands cleanly, so the reopened log replays every version
// bit-identically.
TEST(SnapshotLogTest, InjectedFsyncFailureIsAtomicAndRetryable) {
  const std::string path = TempLog("fsyncfail");
  const auto file_size = [&]() {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    return size;
  };
  {
    auto store = OpenOrDie(path, /*fsync=*/true);
    ASSERT_TRUE(store->Put(MakeSnap(1, "dev")).ok());
    ASSERT_TRUE(store->Put(MakeSnap(2, "dev")).ok());
    const long before = file_size();

    FaultInjector injector(29);
    injector.Arm(FaultPoint::kWalFsyncFail, {});
    injector.Install();
    const Status failed = store->Put(MakeSnap(3, "dev"));
    FaultInjector::Uninstall();
    EXPECT_EQ(injector.fired(FaultPoint::kWalFsyncFail), 1u);
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    // Atomic: nothing durable, nothing visible (log-then-apply).
    EXPECT_EQ(file_size(), before);
    EXPECT_EQ(store->size(), 2u);
    EXPECT_EQ(store->Get(3), nullptr);
    EXPECT_EQ(store->wal_stats().appends, 2u);

    // The fault was one-shot; the retried publish lands.
    ASSERT_TRUE(store->Put(MakeSnap(3, "dev")).ok());
    EXPECT_EQ(store->size(), 3u);
  }
  auto store = OpenOrDie(path);
  EXPECT_EQ(store->truncated_tail_bytes(), 0u);
  EXPECT_EQ(store->size(), 3u);
  for (uint64_t v = 1; v <= 3; ++v) {
    EXPECT_EQ(store->Get(v)->bytes, MakeSnap(v, "dev")->bytes);
  }
  std::remove(path.c_str());
}

// Injected mid-compaction crash (chaos plane): the atomic-rename protocol
// means a writer dying inside the segment rewrite leaves the OLD log
// complete and the partial .compact tmp as a crash artifact — never a
// mix. The store stays appendable, a reopen replays everything the old
// log holds (the in-memory trim is lost, which is the safe direction),
// and the next compaction truncates the leftover tmp and completes.
TEST(SnapshotLogTest, CompactionCrashLeavesOldLogComplete) {
  const std::string path = TempLog("compactcrash");
  const std::string tmp = path + ".compact";
  {
    auto store = OpenOrDie(path);
    for (uint64_t v = 1; v <= 6; ++v) {
      ASSERT_TRUE(
          store->Put(MakeSnap(v, v % 2 == 0 ? "even" : "odd", 256)).ok());
    }
    FaultInjector injector(31);
    injector.Arm(FaultPoint::kWalCompactionCrash, {});
    injector.Install();
    auto dropped = store->TrimBelow(100);
    FaultInjector::Uninstall();
    EXPECT_EQ(injector.fired(FaultPoint::kWalCompactionCrash), 1u);
    EXPECT_FALSE(dropped.ok());
    EXPECT_EQ(dropped.status().code(), StatusCode::kIoError);
    // Memory trimmed, old log untouched — and the crash artifact stays.
    EXPECT_EQ(store->size(), 2u);
    std::FILE* leftover = std::fopen(tmp.c_str(), "rb");
    EXPECT_NE(leftover, nullptr) << "partial .compact tmp should survive";
    if (leftover != nullptr) std::fclose(leftover);
    // The append handle survived the crashed rewrite.
    ASSERT_TRUE(store->Put(MakeSnap(7, "odd")).ok());
  }
  {
    // Reopen: the old log is complete — all six originals plus v7 replay.
    // Recovering MORE than the crashed process remembered is the safe
    // direction; a later trim re-drops the stale versions.
    auto store = OpenOrDie(path);
    EXPECT_EQ(store->truncated_tail_bytes(), 0u);
    EXPECT_EQ(store->size(), 7u);
    EXPECT_EQ(store->MaxVersion(), 7u);
    auto dropped = store->TrimBelow(100);
    ASSERT_TRUE(dropped.ok());
    EXPECT_EQ(dropped.value(), 5u);  // keeps v6 ("even") and v7 ("odd")
  }
  // The completed compaction renamed over the log and consumed the tmp.
  EXPECT_EQ(std::fopen(tmp.c_str(), "rb"), nullptr);
  auto store = OpenOrDie(path);
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->MaxVersion(), 7u);
  EXPECT_EQ(store->Get(6)->bytes, MakeSnap(6, "even", 256)->bytes);
  EXPECT_EQ(store->Get(7)->bytes, MakeSnap(7, "odd")->bytes);
  std::remove(path.c_str());
}

TEST(SnapshotLogTest, BadHeaderIsCorruptionNotTruncation) {
  const std::string path = TempLog("badmagic");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const uint64_t junk = 0xDEADBEEFDEADBEEFull;
    std::fwrite(&junk, sizeof(junk), 1, f);
    std::fclose(f);
  }
  SnapshotLogOptions options;
  options.path = path;
  auto store = SnapshotStore::Open(std::move(options));
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// (version, bytes) of a snapshot, or (0, {}) for none.
std::pair<uint64_t, std::vector<uint8_t>> Id(
    const std::shared_ptr<const ModelSnapshot>& snap) {
  if (snap == nullptr) return {0, {}};
  return {snap->version, snap->bytes};
}

// The log changes what survives the process, never what the store answers:
// one Put/TrimBelow sequence on an in-memory store and on a logged one, and
// a reopen of that log, answer every query alike.
TEST(SnapshotStoreTest, InMemoryLoggedAndReopenedStoresAnswerAlike) {
  const std::string path = TempLog("alike");
  SnapshotStore memory;
  auto logged = OpenOrDie(path);
  for (SnapshotStore* store : {&memory, logged.get()}) {
    uint64_t version = 1;
    for (int round = 0; round < 3; ++round) {
      for (const char* device : {"a", "b", "c"}) {
        ASSERT_TRUE(store->Put(MakeSnap(version++, device)).ok());
      }
    }
    // A delta can land an older version after a device's newer one.
    ASSERT_TRUE(store->Put(MakeSnap(12, "a")).ok());
    ASSERT_TRUE(store->Put(MakeSnap(11, "a")).ok());
    auto dropped = store->TrimBelow(6);
    ASSERT_TRUE(dropped.ok());
    EXPECT_EQ(dropped.value(), 5u);
    ASSERT_TRUE(store->Put(MakeSnap(13, "b")).ok());
    dropped = store->TrimBelow(12);  // keeps only c's latest below 12
    ASSERT_TRUE(dropped.ok());
    EXPECT_EQ(dropped.value(), 4u);
  }
  auto reopened = OpenOrDie(path);
  for (const SnapshotStore* store : {logged.get(), reopened.get()}) {
    EXPECT_EQ(store->size(), memory.size());
    EXPECT_EQ(Id(store->Latest()), Id(memory.Latest()));
    for (const char* device : {"a", "b", "c", "none"}) {
      EXPECT_EQ(Id(store->LatestFor(device)), Id(memory.LatestFor(device)))
          << device;
    }
    for (uint64_t v = 0; v <= 14; ++v) {
      EXPECT_EQ(Id(store->Get(v)), Id(memory.Get(v))) << "v" << v;
    }
  }
  EXPECT_EQ(memory.size(), 3u);  // v9, v12, v13
  EXPECT_EQ(memory.LatestFor("a")->version, 12u);
  std::remove(path.c_str());
}

// ------------------------------------------------- registry facade (cheap)

// A registry constructed over a pre-populated store resumes versioning
// after the recovered maximum — the monotonicity half of crash recovery.
TEST(SnapshotRegistryTest, ResumesVersioningAfterRecoveredStore) {
  auto store = std::make_unique<SnapshotStore>();
  ASSERT_TRUE(store->Put(MakeSnap(7, "dev")).ok());
  SnapshotRegistry registry(std::move(store));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Latest()->version, 7u);
  // Import assigns nothing below the recovered watermark either.
  SnapshotRegistry other;
  auto imported = registry.ImportDelta(other.ExportDelta(0));
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported.value(), 0u);  // empty delta
}

TEST(SnapshotRegistryTest, ExportImportDeltaRoundTrip) {
  auto store = std::make_unique<SnapshotStore>();
  for (uint64_t v = 1; v <= 3; ++v) {
    ASSERT_TRUE(store->Put(MakeSnap(v, v == 3 ? "b" : "a")).ok());
  }
  SnapshotRegistry source(std::move(store));

  // Ship everything after version 1 into a fresh registry.
  SnapshotRegistry target;
  auto imported = target.ImportDelta(source.ExportDelta(1));
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported.value(), 2u);
  EXPECT_EQ(target.size(), 2u);
  EXPECT_EQ(target.Get(2)->bytes, MakeSnap(2, "a")->bytes);
  EXPECT_EQ(target.Get(3)->bytes, MakeSnap(3, "b")->bytes);
  EXPECT_EQ(target.LatestFor("a")->version, 2u);
  EXPECT_EQ(target.LatestFor("b")->version, 3u);

  // Idempotent: re-importing the same delta changes nothing.
  auto again = target.ImportDelta(source.ExportDelta(1));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
  EXPECT_EQ(target.size(), 2u);

  // A corrupted delta is rejected whole.
  auto delta = source.ExportDelta(0);
  delta[delta.size() / 2] ^= 0x10;
  auto corrupt = target.ImportDelta(delta);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(target.size(), 2u);
}

TEST(SnapshotRegistryTest, NearestForPrefersOwnThenCohortNeighbor) {
  auto store = std::make_unique<SnapshotStore>();
  ASSERT_TRUE(store->Put(MakeSnap(1, "peer-a")).ok());
  ASSERT_TRUE(store->Put(MakeSnap(2, "peer-b")).ok());
  ASSERT_TRUE(store->Put(MakeSnap(3, "peer-a")).ok());
  SnapshotRegistry registry(std::move(store));

  // Own latest wins when present.
  EXPECT_EQ(registry.NearestFor("peer-a")->version, 3u);
  // A stranger gets a deterministic cohort neighbor's latest.
  auto nearest = registry.NearestFor("stranger");
  ASSERT_NE(nearest, nullptr);
  EXPECT_EQ(nearest, registry.NearestFor("stranger"));  // stable
  EXPECT_TRUE(nearest->device_id == "peer-a" ||
              nearest->device_id == "peer-b");
  EXPECT_EQ(nearest->version, registry.LatestFor(nearest->device_id)->version);
  // Empty registry: no warm-start source.
  SnapshotRegistry empty;
  EXPECT_EQ(empty.NearestFor("stranger"), nullptr);
}

// ------------------------------------------------ fleet-level (ML fixture)

FleetFixture* GetFixture() {
  static FleetFixture* fixture = MakeFleetFixture(20260715, 4242, 8);
  return fixture;
}

FleetServerOptions RecoveryServerOptions() {
  FleetServerOptions opts;
  opts.num_threads = 2;
  opts.continual.iterations = 1;
  opts.seed = 0x5EED;
  return opts;
}

// By pointer: the registry owns a mutex, so it is neither copyable nor
// movable.
std::unique_ptr<SnapshotRegistry> OpenRegistry(const std::string& path) {
  SnapshotLogOptions options;
  options.path = path;
  auto store = SnapshotStore::Open(std::move(options));
  QCORE_CHECK_MSG(store.ok(), "cannot open snapshot log");
  return std::make_unique<SnapshotRegistry>(std::move(store).value());
}

std::unique_ptr<ShardedFleetServer> MakeRecoveryServer(
    FleetFixture* f, int num_shards, FleetServerOptions opts,
    SnapshotRegistry* registry) {
  ShardedFleetServerOptions sopts;
  sopts.num_shards = num_shards;
  sopts.shard = std::move(opts);
  return std::make_unique<ShardedFleetServer>(*f->base, *f->bf,
                                              std::move(sopts), registry);
}

// The acceptance scenario: serve a fleet over a durable registry, kill the
// server (destroy every in-memory structure), reconstruct over the same
// WAL, and the recovered registry must hold every device's latest snapshot
// bit-identically, resume versions monotonically, and warm-start
// re-registered sessions from the recovered codes.
TEST(CrashRecoveryTest, ServerKilledMidStreamRecoversFromWal) {
  FleetFixture* f = GetFixture();
  const std::vector<std::string> devices = {"r0", "r1", "r2", "r3"};
  for (int num_shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    const std::string path =
        TempLog("recovery_" + std::to_string(num_shards));

    std::vector<std::vector<uint8_t>> expected_bytes;
    std::vector<uint64_t> expected_versions;
    uint64_t max_version = 0;
    {
      auto registry = OpenRegistry(path);
      auto server = MakeRecoveryServer(
          f, num_shards, RecoveryServerOptions(), registry.get());
      for (const auto& d : devices) server->RegisterDevice(d, f->qcore);
      // Stream two of three batches with interleaved publishes, so the log
      // holds stale versions AND a meaningful latest per device.
      for (size_t b = 0; b < 2; ++b) {
        for (const auto& d : devices) {
          server->SubmitCalibration(d, f->batches[b], f->slices[b]);
          server->PublishSnapshot(d);
        }
      }
      server->Drain();
      for (const auto& d : devices) {
        auto latest = registry->LatestFor(d);
        ASSERT_NE(latest, nullptr);
        expected_bytes.push_back(latest->bytes);
        expected_versions.push_back(latest->version);
      }
      max_version = registry->Latest()->version;
      // Server + registry die here — the "kill". Only the WAL survives.
    }

    auto recovered = OpenRegistry(path);
    // Every version replayed, device-latest bytes bit-identical.
    EXPECT_EQ(recovered->size(), devices.size() * 2);
    for (size_t d = 0; d < devices.size(); ++d) {
      auto latest = recovered->LatestFor(devices[d]);
      ASSERT_NE(latest, nullptr) << devices[d];
      EXPECT_EQ(latest->version, expected_versions[d]);
      EXPECT_EQ(latest->bytes, expected_bytes[d]);
    }

    // Reconstruct the server over the recovered registry with warm starts:
    // each re-registered session resumes the recovered codes, and resumed
    // publishing continues the version sequence monotonically.
    FleetServerOptions opts = RecoveryServerOptions();
    opts.warm_start_from_registry = true;
    auto server = MakeRecoveryServer(f, num_shards, opts, recovered.get());
    for (const auto& d : devices) server->RegisterDevice(d, f->qcore);
    for (size_t d = 0; d < devices.size(); ++d) {
      auto expected = f->base->Clone();
      ASSERT_TRUE(SnapshotRegistry::RestoreInto(
                      *recovered->LatestFor(devices[d]), expected.get())
                      .ok());
      server->WithSessionQuiesced(devices[d], [&](CalibrationSession& s) {
        EXPECT_EQ(s.model()->AllCodes(), expected->AllCodes());
      });
    }
    std::vector<std::future<uint64_t>> publishes;
    for (const auto& d : devices) {
      server->SubmitCalibration(d, f->batches[2], f->slices[2]);
      publishes.push_back(server->PublishSnapshot(d));
    }
    for (auto& fu : publishes) {
      EXPECT_GT(fu.get(), max_version);  // monotonic across the restart
    }
    server->Drain();
    std::remove(path.c_str());
  }
}

// Warm starting a device the registry has never seen seeds it from the
// cohort-nearest peer's snapshot instead of the factory base model — the
// snapshot-distribution payoff (ROADMAP).
TEST(CrashRecoveryTest, NewDeviceWarmStartsFromCohortNearestSnapshot) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts = RecoveryServerOptions();
  SnapshotRegistry registry;
  {
    ShardedFleetServer server(*f->base, *f->bf, OneShard(opts), &registry);
    server.RegisterDevice("veteran", f->qcore);
    server.SubmitCalibration("veteran", f->batches[0], f->slices[0]);
    server.PublishSnapshot("veteran");
    server.Drain();
  }
  // Ship the registry "across a process boundary" and serve a new fleet
  // from the import.
  SnapshotRegistry imported;
  ASSERT_TRUE(imported.ImportDelta(registry.ExportDelta(0)).ok());
  opts.warm_start_from_registry = true;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts), &imported);
  server.RegisterDevice("rookie", f->qcore);

  auto veteran_model = f->base->Clone();
  ASSERT_TRUE(SnapshotRegistry::RestoreInto(*imported.LatestFor("veteran"),
                                            veteran_model.get())
                  .ok());
  server.WithSessionQuiesced("rookie", [&](CalibrationSession& s) {
    EXPECT_EQ(s.model()->AllCodes(), veteran_model->AllCodes());
    EXPECT_NE(s.model()->AllCodes(), f->base->AllCodes());
  });

  // Without the option, registration stays a cold start.
  FleetServerOptions cold = RecoveryServerOptions();
  ShardedFleetServer cold_server(*f->base, *f->bf, OneShard(cold),
                                 &imported);
  cold_server.RegisterDevice("rookie", f->qcore);
  cold_server.WithSessionQuiesced("rookie", [&](CalibrationSession& s) {
    EXPECT_EQ(s.model()->AllCodes(), f->base->AllCodes());
  });

  // An incompatible nearest snapshot (e.g. a foreign fleet's model merged
  // into a shared registry) falls back to a cold start instead of
  // crashing: RestoreInto fails atomically, leaving the base clone.
  auto foreign_store = std::make_unique<SnapshotStore>();
  ASSERT_TRUE(foreign_store->Put(MakeSnap(1, "alien", 32)).ok());
  SnapshotRegistry foreign(std::move(foreign_store));
  ShardedFleetServer fallback_server(*f->base, *f->bf, OneShard(opts),
                                     &foreign);
  fallback_server.RegisterDevice("rookie", f->qcore);
  fallback_server.WithSessionQuiesced("rookie", [&](CalibrationSession& s) {
    EXPECT_EQ(s.model()->AllCodes(), f->base->AllCodes());
  });
}

// fsync_on_publish must change durability cost only, never contents: the
// logs written with and without it are byte-identical.
TEST(CrashRecoveryTest, FsyncOptionDoesNotChangeLogContents) {
  FleetFixture* f = GetFixture();
  auto run = [&](bool fsync, const std::string& path) {
    SnapshotLogOptions options;
    options.path = path;
    options.fsync_on_publish = fsync;
    auto store = SnapshotStore::Open(std::move(options));
    ASSERT_TRUE(store.ok());
    SnapshotRegistry registry(std::move(store).value());
    ShardedFleetServer server(*f->base, *f->bf,
                              OneShard(RecoveryServerOptions()), &registry);
    server.RegisterDevice("dev", f->qcore);
    server.SubmitCalibration("dev", f->batches[0], f->slices[0]);
    server.PublishSnapshot("dev");
    server.Drain();
  };
  const std::string nosync_path = TempLog("nosync");
  const std::string sync_path = TempLog("sync");
  run(false, nosync_path);
  run(true, sync_path);
  auto slurp = [](const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr);
    std::fseek(file, 0, SEEK_END);
    std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(file)));
    std::fseek(file, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
    std::fclose(file);
    return bytes;
  };
  EXPECT_EQ(slurp(nosync_path), slurp(sync_path));
  std::remove(nosync_path.c_str());
  std::remove(sync_path.c_str());
}

}  // namespace
}  // namespace qcore
