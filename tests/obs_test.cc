// Tests for the observability layer (src/obs/): whiteboard rows and their
// derived shard/fleet totals reconciling with known submission counts
// under concurrent load, surviving migration / rebalance / shard
// retirement, last-error and barrier-flush plumbing, queue depths reading
// zero after Drain, the serialize/table renderings, and TraceRing
// request-lifecycle reconstruction (batched and unbatched chains, snapshot
// publish -> WAL append, ring wraparound, chrome://tracing export).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
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

FleetFixture* GetFixture() {
  static FleetFixture* fixture = MakeFleetFixture(20240901, 777, 8);
  return fixture;
}

ContinualOptions TestContinualOptions() {
  ContinualOptions opts;
  opts.iterations = 2;
  return opts;
}

FleetServerOptions ServerOptions(int threads) {
  FleetServerOptions opts;
  opts.num_threads = threads;
  opts.continual = TestContinualOptions();
  opts.seed = 0x5EED;
  return opts;
}

const DeviceRow* FindDevice(const WhiteboardImage& image,
                            const std::string& device_id) {
  for (const auto& row : image.devices) {
    if (row.device_id == device_id) return &row;
  }
  return nullptr;
}

const ShardRow* FindShard(const WhiteboardImage& image, int shard) {
  for (const auto& row : image.shards) {
    if (row.shard == shard) return &row;
  }
  return nullptr;
}

// Index of the first event of `kind`, or -1.
int IndexOf(const std::vector<TraceEvent>& events, TraceKind kind) {
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == kind) return static_cast<int>(i);
  }
  return -1;
}

// ------------------------------------------------------ whiteboard dumps

// The acceptance scenario: a 4-shard fleet under concurrent client load;
// after Drain the whiteboard image must reconcile exactly with what was
// submitted, the router's placement, and the snapshot registry.
TEST(WhiteboardTest, FourShardDumpReconcilesWithSubmissionsUnderLoad) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions sopts;
  sopts.num_shards = 4;
  sopts.shard = ServerOptions(2);
  ShardedFleetServer server(*f->base, *f->bf, sopts);

  const int kDevices = 8;
  std::vector<std::string> devices;
  for (int d = 0; d < kDevices; ++d) {
    devices.push_back("dev-" + std::to_string(d));
    server.RegisterDevice(devices.back(), f->qcore);
  }

  // Concurrent clients: each thread drives its own slice of the fleet.
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c]() {
      for (int d = c; d < kDevices; d += 2) {
        server.SubmitInference(devices[d], f->target.test.x());
        server.SubmitCalibration(devices[d], f->batches[0], f->slices[0]);
        server.SubmitInference(devices[d], f->target.test.x());
      }
    });
  }
  for (auto& t : clients) t.join();
  server.Drain();
  std::vector<uint64_t> versions;
  for (const auto& d : devices) {
    versions.push_back(server.PublishSnapshot(d).get());
  }

  const WhiteboardImage image = server.whiteboard().Read();
  ASSERT_EQ(image.shards.size(), 4u);
  ASSERT_EQ(image.devices.size(), static_cast<size_t>(kDevices));

  // Shard rows match the router's placement view.
  uint64_t sessions_total = 0;
  for (const auto& row : image.shards) {
    EXPECT_FALSE(row.retired);
    EXPECT_EQ(row.sessions,
              static_cast<uint64_t>(server.SessionCountOnShard(row.shard)));
    sessions_total += row.sessions;
  }
  EXPECT_EQ(sessions_total, static_cast<uint64_t>(kDevices));

  // Every device row holds exactly what was submitted for it: two
  // inferences, one calibration, one snapshot — all admitted, all run,
  // nothing outstanding after Drain.
  for (const auto& row : image.devices) {
    EXPECT_EQ(row.counters.accepted_inference, 2u) << row.device_id;
    EXPECT_EQ(row.counters.inference_requests, 2u) << row.device_id;
    EXPECT_EQ(row.counters.accepted_calibration, 1u) << row.device_id;
    EXPECT_EQ(row.counters.calibration_batches, 1u) << row.device_id;
    EXPECT_EQ(row.counters.snapshots_published, 1u) << row.device_id;
    EXPECT_EQ(row.counters.shed_inference + row.counters.shed_calibration +
                  row.counters.shed_deadline,
              0u);
    EXPECT_EQ(row.counters.queued_inference(), 0u);
    EXPECT_EQ(row.counters.queued_calibration(), 0u);
    EXPECT_TRUE(row.last_error.ok());
    EXPECT_EQ(row.activity, SessionActivity::kIdle);  // drained
  }

  // Shard totals derive from the devices placed on each shard and add up
  // to the fleet total.
  ServingCounters shard_sum;
  for (const auto& row : image.shards) {
    const ServingCounters shard = image.ShardTotals(row.shard);
    EXPECT_EQ(shard.calibration_batches, row.sessions) << row.shard;
    shard_sum += shard;
  }
  const ServingCounters fleet = image.FleetTotals();
  EXPECT_TRUE(shard_sum == fleet);
  EXPECT_EQ(fleet.accepted_inference, static_cast<uint64_t>(2 * kDevices));
  EXPECT_EQ(fleet.inference_requests, static_cast<uint64_t>(2 * kDevices));
  EXPECT_EQ(fleet.calibration_batches, static_cast<uint64_t>(kDevices));
  EXPECT_EQ(fleet.snapshots_published, static_cast<uint64_t>(kDevices));

  // Each device row carries the registry's latest version for it.
  for (int d = 0; d < kDevices; ++d) {
    const DeviceRow* row = FindDevice(image, devices[d]);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->shard, server.ShardOf(devices[d]));
    EXPECT_EQ(row->snapshot_version,
              server.snapshots().LatestFor(devices[d])->version);
    EXPECT_EQ(row->snapshot_version, versions[d]);
  }

  // Human rendering mentions every shard and device; truncation works.
  const std::string table = image.ToTable();
  for (const auto& d : devices) {
    EXPECT_NE(table.find(d), std::string::npos) << table;
  }
  const std::string truncated = image.ToTable(/*max_devices=*/2);
  EXPECT_NE(truncated.find("more devices"), std::string::npos);
}

TEST(WhiteboardTest, RowsSurviveMoveRebalanceAndRetirement) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions sopts;
  sopts.num_shards = 2;
  sopts.shard = ServerOptions(2);
  ShardedFleetServer server(*f->base, *f->bf, sopts);
  for (int d = 0; d < 4; ++d) {
    server.RegisterDevice("mig-" + std::to_string(d), f->qcore);
  }
  server.SubmitCalibration("mig-0", f->batches[0], f->slices[0]).get();
  server.Drain();

  const DeviceRow before = *FindDevice(server.whiteboard().Read(), "mig-0");
  EXPECT_EQ(before.counters.accepted_calibration, 1u);
  EXPECT_EQ(before.counters.calibration_batches, 1u);

  // MoveDevice: the row follows the session to the target shard with its
  // history intact.
  const int target = 1 - server.ShardOf("mig-0");
  server.MoveDevice("mig-0", target);
  {
    const WhiteboardImage image = server.whiteboard().Read();
    const DeviceRow* row = FindDevice(image, "mig-0");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->shard, target);
    EXPECT_EQ(row->activity, SessionActivity::kIdle);  // move completed
    EXPECT_EQ(row->counters.accepted_calibration,
              before.counters.accepted_calibration);
    EXPECT_EQ(row->counters.calibration_batches,
              before.counters.calibration_batches);
    // The migration barrier published a snapshot; the row tracks it.
    EXPECT_EQ(row->snapshot_version,
              server.snapshots().LatestFor("mig-0")->version);
  }

  // Shrink to one shard: every device rehomes to shard 0, shard 1's row is
  // flagged retired (not erased), and no device history is lost.
  server.Rebalance(1);
  {
    const WhiteboardImage image = server.whiteboard().Read();
    ASSERT_EQ(image.shards.size(), 2u);
    EXPECT_FALSE(FindShard(image, 0)->retired);
    EXPECT_TRUE(FindShard(image, 1)->retired);
    EXPECT_EQ(FindShard(image, 0)->sessions, 4u);
    EXPECT_EQ(image.devices.size(), 4u);
    for (const auto& row : image.devices) {
      EXPECT_EQ(row.shard, 0);
    }
    const DeviceRow* row = FindDevice(image, "mig-0");
    EXPECT_EQ(row->counters.accepted_calibration,
              before.counters.accepted_calibration);
  }

  // Grow again: shard index 1 is reused and its row un-retires.
  server.Rebalance(2);
  {
    const WhiteboardImage image = server.whiteboard().Read();
    EXPECT_FALSE(FindShard(image, 1)->retired);
  }
  // The fleet still serves after the churn (rows didn't dangle).
  server.SubmitCalibration("mig-0", f->batches[1], f->slices[1]).get();
  server.Drain();
  EXPECT_EQ(FindDevice(server.whiteboard().Read(), "mig-0")
                ->counters.accepted_calibration,
            before.counters.accepted_calibration + 1);
}

TEST(WhiteboardTest, ShedRecordsLastErrorAndCountsMatchSubmissions) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts = ServerOptions(2);
  opts.max_inference_queue_per_session = 1;
  opts.simulated_device_rtt_ms = 30.0;  // keep the one slot occupied
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("bounded", f->qcore);

  std::vector<std::future<InferenceResult>> accepted;
  uint64_t shed = 0;
  for (int i = 0; i < 6; ++i) {
    auto r = server.TrySubmitInference("bounded", f->target.test.x());
    if (r.ok()) {
      accepted.push_back(std::move(r).value());
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  ASSERT_GT(shed, 0u);  // the bound actually bit
  server.Drain();

  const WhiteboardImage image = server.whiteboard().Read();
  const DeviceRow* row = FindDevice(image, "bounded");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->counters.shed_inference, shed);
  EXPECT_EQ(row->counters.shed_queue_full, shed);  // a session-cap shed
  EXPECT_EQ(row->counters.accepted_inference, accepted.size());
  // The concrete status landed on both the device and its shard row.
  EXPECT_EQ(row->last_error.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(row->last_error.message().find("bounded"), std::string::npos);
  EXPECT_GT(row->last_error_ns, 0u);
  EXPECT_EQ(image.ShardTotals(0).shed_inference, shed);
  EXPECT_EQ(FindShard(image, 0)->last_error.code(),
            StatusCode::kResourceExhausted);
  // And it renders in the dump.
  EXPECT_NE(image.ToTable().find("ResourceExhausted"), std::string::npos);
}

TEST(WhiteboardTest, BarrierFlushCountedOnDeviceRow) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts = ServerOptions(2);
  opts.enable_batching = true;
  opts.batching.max_batch = 8;
  opts.batching.max_delay_us = 1e6;  // only a barrier can flush the group
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("dev", f->qcore);

  auto i1 = server.SubmitInference("dev", f->target.test.x());
  auto i2 = server.SubmitInference("dev", f->target.test.x());
  // Model-mutating submission: must force the parked group out first.
  server.SubmitCalibration("dev", f->batches[0], f->slices[0]).get();
  i1.get();
  i2.get();
  server.Drain();

  const WhiteboardImage image = server.whiteboard().Read();
  const DeviceRow* row = FindDevice(image, "dev");
  EXPECT_GE(row->counters.barrier_flushes, 1u);
  EXPECT_EQ(image.ShardTotals(0).barrier_flushes,
            row->counters.barrier_flushes);
  EXPECT_EQ(row->last_batch_occupancy, 2u);  // the barrier-flushed group
}

TEST(WhiteboardTest, WarmStartOriginReported) {
  FleetFixture* f = GetFixture();
  SnapshotRegistry shared;
  {
    ShardedFleetServer seeder(*f->base, *f->bf, OneShard(ServerOptions(1)),
                              &shared);
    seeder.RegisterDevice("veteran", f->qcore);
    seeder.SubmitCalibration("veteran", f->batches[0], f->slices[0]).get();
    seeder.PublishSnapshot("veteran").get();
    seeder.Drain();
  }

  FleetServerOptions opts = ServerOptions(1);
  opts.warm_start_from_registry = true;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts), &shared);
  server.RegisterDevice("veteran", f->qcore);   // own snapshot exists
  server.RegisterDevice("newcomer", f->qcore);  // cohort snapshot only
  const WhiteboardImage image = server.whiteboard().Read();
  EXPECT_EQ(FindDevice(image, "veteran")->warm_start,
            WarmStartOrigin::kOwnSnapshot);
  EXPECT_EQ(FindDevice(image, "newcomer")->warm_start,
            WarmStartOrigin::kCohortSnapshot);

  ShardedFleetServer cold(*f->base, *f->bf, OneShard(ServerOptions(1)));
  cold.RegisterDevice("fresh", f->qcore);
  EXPECT_EQ(FindDevice(cold.whiteboard().Read(), "fresh")->warm_start,
            WarmStartOrigin::kCold);
}

TEST(WhiteboardTest, WalStatsPopulatedOverLoggedStore) {
  FleetFixture* f = GetFixture();
  const std::string path = "/tmp/qcore_obs_test_snapshots.wal";
  std::remove(path.c_str());
  {
    SnapshotLogOptions dopts;
    dopts.path = path;
    dopts.fsync_on_publish = true;
    auto store = SnapshotStore::Open(std::move(dopts));
    ASSERT_TRUE(store.ok());
    SnapshotRegistry durable(std::move(store).value());

    ShardedFleetServer server(*f->base, *f->bf, OneShard(ServerOptions(1)),
                              &durable);
    server.RegisterDevice("dev", f->qcore);
    server.PublishSnapshot("dev").get();
    server.PublishSnapshot("dev").get();
    server.Drain();

    const WhiteboardImage image = server.whiteboard().Read();
    EXPECT_EQ(image.wal.appends, 2u);
    EXPECT_GT(image.wal.appended_bytes, 0u);
    EXPECT_EQ(image.wal.fsyncs, 2u);
    // The one-line WAL summary renders in the dump.
    EXPECT_NE(image.ToTable().find("wal:"), std::string::npos);
  }
  std::remove(path.c_str());
}

// A torn WAL tail recovered at reopen surfaces on the whiteboard's WAL
// row (satellite of the chaos plane: recovery is observable, not silent).
TEST(WhiteboardTest, WalStatsCountTornTailRecovery) {
  FleetFixture* f = GetFixture();
  const std::string path = "/tmp/qcore_obs_torn_snapshots.wal";
  std::remove(path.c_str());
  {
    SnapshotLogOptions dopts;
    dopts.path = path;
    auto store = SnapshotStore::Open(std::move(dopts));
    ASSERT_TRUE(store.ok());
    SnapshotRegistry durable(std::move(store).value());
    ShardedFleetServer server(*f->base, *f->bf, OneShard(ServerOptions(1)),
                              &durable);
    server.RegisterDevice("dev", f->qcore);
    server.PublishSnapshot("dev").get();
    server.PublishSnapshot("dev").get();
    server.Drain();
  }
  {
    // Kill the last record mid-write: chop bytes off the tail.
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fclose(file);
    ASSERT_EQ(truncate(path.c_str(), size - 5), 0);
  }
  {
    SnapshotLogOptions dopts;
    dopts.path = path;
    auto store = SnapshotStore::Open(std::move(dopts));
    ASSERT_TRUE(store.ok());
    SnapshotRegistry recovered(std::move(store).value());
    ShardedFleetServer server(*f->base, *f->bf, OneShard(ServerOptions(1)),
                              &recovered);
    const WhiteboardImage image = server.whiteboard().Read();
    EXPECT_EQ(image.wal.torn_tails_recovered, 1u);
    EXPECT_NE(image.ToTable().find("torn_tails=1"), std::string::npos);
    // And it survives the binary round trip (format v2).
    auto round = WhiteboardImage::Deserialize(image.Serialize());
    ASSERT_TRUE(round.ok());
    EXPECT_EQ(round.value().wal.torn_tails_recovered, 1u);
  }
  std::remove(path.c_str());
}

// An injected fault is observable on BOTH planes: a kFaultInjected trace
// event riding the migration span, and last-error rows on the whiteboard
// for the device and the shard that "crashed".
TEST(WhiteboardTest, FaultFiringRecordsTraceEventAndLastErrorRows) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions sopts;
  sopts.num_shards = 2;
  sopts.shard = ServerOptions(1);
  ShardedFleetServer server(*f->base, *f->bf, sopts);
  server.RegisterDevice("mover", f->qcore);

  TraceRing::Global().Clear();
  FaultInjector injector(0x0B5);
  FaultScript script;
  script.arg = 99;
  injector.Arm(FaultPoint::kShardCrashDuringMigration, script);
  injector.Install();
  const int source = server.ShardOf("mover");
  const int target = 1 - source;
  server.MoveDevice("mover", target);
  FaultInjector::Uninstall();
  ASSERT_EQ(injector.fired(FaultPoint::kShardCrashDuringMigration), 1u);

  // Trace plane: the firing rides the migration span — the post-mortem
  // timeline shows a detach with no matching attach, explained by the
  // faultInjected event in between.
  uint64_t span = 0;
  for (const auto& e : TraceRing::Global().Collect()) {
    if (e.kind == TraceKind::kDetach) span = e.span;
  }
  ASSERT_NE(span, 0u);
  const std::vector<TraceEvent> timeline =
      TraceRing::Global().CollectSpan(span);
  const int detach = IndexOf(timeline, TraceKind::kDetach);
  const int fault = IndexOf(timeline, TraceKind::kFaultInjected);
  ASSERT_GE(detach, 0);
  ASSERT_GE(fault, 0);
  EXPECT_LT(detach, fault);
  EXPECT_EQ(IndexOf(timeline, TraceKind::kAttach), -1);
  const TraceEvent& fired = timeline[static_cast<size_t>(fault)];
  EXPECT_EQ(TraceRing::Global().NameOf(fired.arg0),
            "fault:shardCrashDuringMigration");
  EXPECT_EQ(fired.arg1, 99u);

  // Whiteboard plane: device and target-shard rows carry the injected
  // error, and it renders in the dump.
  const WhiteboardImage image = server.whiteboard().Read();
  const DeviceRow* device = FindDevice(image, "mover");
  ASSERT_NE(device, nullptr);
  EXPECT_EQ(device->last_error.code(), StatusCode::kIoError);
  EXPECT_NE(device->last_error.message().find("injected"),
            std::string::npos);
  const ShardRow* shard = FindShard(image, target);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->last_error.code(), StatusCode::kIoError);
  // The table renders error codes only (messages stay on the row), so
  // the dump flags the fault as an IoError cell.
  EXPECT_NE(image.ToTable().find("IoError"), std::string::npos);
}

TEST(WhiteboardTest, ImageSerializeRoundTrips) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts = ServerOptions(2);
  opts.max_inference_queue_per_session = 1;
  opts.simulated_device_rtt_ms = 20.0;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("a", f->qcore);
  server.RegisterDevice("b", f->qcore);
  // Mixed history including a shed, so the optional error fields serialize.
  // The later submissions shed on the per-class cap by design; the futures
  // (when admitted) are resolved by Drain below.
  for (int i = 0; i < 4; ++i) {
    auto submitted = server.TrySubmitInference("a", f->target.test.x());
    (void)submitted;
  }
  // And a deadline shed, so every v3 per-reason counter is non-trivially
  // populated: a sub-microsecond budget is already expired by the exec
  // check (its deadline rounds to "now"), deterministically.
  InferenceSubmitOptions budget;
  budget.latency_budget_us = 0.001;
  auto doomed = server.TrySubmitInference("b", f->target.test.x(), budget);
  server.SubmitCalibration("b", f->batches[0], f->slices[0]);
  server.Drain();
  if (doomed.ok()) std::move(doomed).value().get();
  server.PublishSnapshot("a").get();

  const WhiteboardImage image = server.whiteboard().Read();
  // The per-reason counters being round-tripped actually carry history.
  EXPECT_GT(image.FleetTotals().shed_queue_full, 0u);
  EXPECT_GT(image.FleetTotals().shed_deadline, 0u);
  const std::vector<uint8_t> bytes = image.Serialize();
  auto round = WhiteboardImage::Deserialize(bytes);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  const WhiteboardImage& got = round.value();

  ASSERT_EQ(got.shards.size(), image.shards.size());
  for (size_t i = 0; i < image.shards.size(); ++i) {
    const ShardRow& a = image.shards[i];
    const ShardRow& b = got.shards[i];
    EXPECT_EQ(a.shard, b.shard);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.sessions, b.sessions);
    EXPECT_EQ(a.last_error.code(), b.last_error.code());
    EXPECT_EQ(a.last_error.message(), b.last_error.message());
    EXPECT_EQ(a.last_error_ns, b.last_error_ns);
    EXPECT_TRUE(image.ShardTotals(a.shard) == got.ShardTotals(b.shard));
  }
  ASSERT_EQ(got.devices.size(), image.devices.size());
  for (size_t i = 0; i < image.devices.size(); ++i) {
    const DeviceRow& a = image.devices[i];
    const DeviceRow& b = got.devices[i];
    EXPECT_EQ(a.device_id, b.device_id);
    EXPECT_EQ(a.shard, b.shard);
    EXPECT_EQ(a.activity, b.activity);
    EXPECT_EQ(a.warm_start, b.warm_start);
    // Every counter, and with them the derived queue depths.
    EXPECT_TRUE(a.counters == b.counters) << a.device_id;
    EXPECT_EQ(a.last_batch_occupancy, b.last_batch_occupancy);
    EXPECT_EQ(a.snapshot_version, b.snapshot_version);
    EXPECT_EQ(a.last_error.code(), b.last_error.code());
    EXPECT_EQ(a.last_error.message(), b.last_error.message());
    EXPECT_EQ(a.last_error_ns, b.last_error_ns);
  }
  EXPECT_TRUE(image.FleetTotals() == got.FleetTotals());
  EXPECT_EQ(got.wal.appends, image.wal.appends);
  EXPECT_EQ(got.wal.appended_bytes, image.wal.appended_bytes);
  EXPECT_EQ(got.wal.fsyncs, image.wal.fsyncs);
  EXPECT_EQ(got.wal.compactions, image.wal.compactions);
  EXPECT_EQ(got.wal.torn_tails_recovered, image.wal.torn_tails_recovered);

  // Corruption is a Status, not a crash.
  std::vector<uint8_t> truncated(bytes.begin(),
                                 bytes.begin() + bytes.size() / 2);
  EXPECT_FALSE(WhiteboardImage::Deserialize(truncated).ok());
  // Out-of-range enum values inside otherwise valid frames (correct CRCs:
  // the encoder writes whatever the row holds) are Corruption too, not a
  // cast into an enum the rest of the code cannot name.
  const auto corrupt_with = [&image](const auto& mutate) {
    WhiteboardImage bad = image;
    mutate(&bad);
    return WhiteboardImage::Deserialize(bad.Serialize()).status().code();
  };
  EXPECT_EQ(corrupt_with([](WhiteboardImage* bad) {
              bad->devices[0].activity = static_cast<SessionActivity>(3);
            }),
            StatusCode::kCorruption);
  EXPECT_EQ(corrupt_with([](WhiteboardImage* bad) {
              bad->devices[0].warm_start = static_cast<WarmStartOrigin>(3);
            }),
            StatusCode::kCorruption);
  const Status bad_status(
      static_cast<StatusCode>(static_cast<int>(kMaxStatusCode) + 1), "?");
  EXPECT_EQ(corrupt_with([&bad_status](WhiteboardImage* bad) {
              bad->devices[0].last_error = bad_status;
            }),
            StatusCode::kCorruption);
  EXPECT_EQ(corrupt_with([&bad_status](WhiteboardImage* bad) {
              bad->shards[0].last_error = bad_status;
            }),
            StatusCode::kCorruption);
}

// Queue depths and activity are derived from the row's own counters, so
// an idle device reads idle however its last completions interleaved: a
// batched flood with short latency budgets (deadline sheds release from
// the flusher and from submitters' barrier flushes while the pump
// completes groups) plus calibration barriers must leave every row at
// zero depth after Drain.
TEST(WhiteboardTest, DrainLeavesEveryRowIdleAfterDeadlineFlood) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts = ServerOptions(2);
  opts.enable_batching = true;
  opts.batching.max_batch = 4;
  opts.batching.max_delay_us = 200.0;
  opts.simulated_device_rtt_ms = 1.0;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("hot", f->qcore);

  InferenceSubmitOptions budget;
  budget.latency_budget_us = 300.0;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t]() {
      for (int i = 0; i < 24; ++i) {
        auto r = server.TrySubmitInference("hot", f->target.test.x(), budget);
        ASSERT_TRUE(r.ok());
        if (i % 8 == 7 && t == 0) {
          server.SubmitCalibration("hot", f->batches[0], Dataset());
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  server.Drain();

  const WhiteboardImage image = server.whiteboard().Read();
  const ServingCounters totals = image.FleetTotals();
  EXPECT_EQ(totals.accepted_inference, 72u);
  EXPECT_EQ(totals.accepted_inference,
            totals.inference_requests + totals.shed_deadline);
  EXPECT_EQ(totals.calibration_batches, 3u);
  ASSERT_EQ(image.devices.size(), 1u);
  for (const DeviceRow& row : image.devices) {
    EXPECT_EQ(row.counters.queued_inference(), 0u);
    EXPECT_EQ(row.counters.queued_calibration(), 0u);
    EXPECT_EQ(row.activity, SessionActivity::kIdle);
  }
}

// ------------------------------------------------------------- trace ring

TEST(TraceTest, UnbatchedInferenceLifecycleReconstructs) {
  FleetFixture* f = GetFixture();
  TraceRing::Global().Clear();
  ShardedFleetServer server(*f->base, *f->bf, OneShard(ServerOptions(2)));
  server.RegisterDevice("dev", f->qcore);
  const InferenceResult result =
      server.SubmitInference("dev", f->target.test.x()).get();
  server.Drain();
  ASSERT_NE(result.trace_span, 0u);

  const std::vector<TraceEvent> timeline =
      TraceRing::Global().CollectSpan(result.trace_span);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0].kind, TraceKind::kSubmitInference);
  EXPECT_EQ(timeline[1].kind, TraceKind::kExecStart);
  EXPECT_EQ(timeline[2].kind, TraceKind::kExecEnd);
  EXPECT_EQ(timeline[3].kind, TraceKind::kComplete);
  for (size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].ts_ns, timeline[i - 1].ts_ns);
  }
  // Every event names the device via the interned id.
  for (const auto& e : timeline) {
    EXPECT_EQ(TraceRing::Global().NameOf(e.arg0), "dev");
  }
}

TEST(TraceTest, BatchedLifecycleReconstructsFullSpanChain) {
  FleetFixture* f = GetFixture();
  TraceRing::Global().Clear();
  FleetServerOptions opts = ServerOptions(2);
  opts.enable_batching = true;
  opts.batching.max_batch = 2;  // size-triggered flush, deterministic
  opts.batching.max_delay_us = 1e6;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("dev", f->qcore);

  auto f1 = server.SubmitInference("dev", f->target.test.x());
  auto f2 = server.SubmitInference("dev", f->target.test.x());
  const InferenceResult r1 = f1.get();
  const InferenceResult r2 = f2.get();
  server.Drain();
  ASSERT_NE(r1.trace_span, 0u);
  ASSERT_NE(r2.trace_span, 0u);
  EXPECT_NE(r1.trace_span, r2.trace_span);

  // Each request's own span: submit -> enqueue -> flush -> complete.
  const std::vector<TraceEvent> timeline =
      TraceRing::Global().CollectSpan(r1.trace_span);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0].kind, TraceKind::kSubmitInference);
  EXPECT_EQ(timeline[1].kind, TraceKind::kBatchEnqueue);
  EXPECT_EQ(timeline[2].kind, TraceKind::kBatchFlush);
  EXPECT_EQ(timeline[3].kind, TraceKind::kComplete);

  // The flush and complete events both point at the group's span, which
  // carries the shared forward pass (exec start/end, occupancy = 2).
  const uint64_t group_span = timeline[2].arg1;
  ASSERT_NE(group_span, 0u);
  EXPECT_EQ(timeline[3].arg1, group_span);
  const std::vector<TraceEvent> group =
      TraceRing::Global().CollectSpan(group_span);
  const int start = IndexOf(group, TraceKind::kExecStart);
  const int end = IndexOf(group, TraceKind::kExecEnd);
  ASSERT_GE(start, 0);
  ASSERT_GE(end, 0);
  EXPECT_LT(start, end);
  EXPECT_EQ(group[static_cast<size_t>(start)].arg1, 2u);  // group size

  // The second request's chain lands on the SAME group.
  const std::vector<TraceEvent> timeline2 =
      TraceRing::Global().CollectSpan(r2.trace_span);
  ASSERT_EQ(timeline2.size(), 4u);
  EXPECT_EQ(timeline2[2].arg1, group_span);
}

TEST(TraceTest, SnapshotPublishChainsThroughWalAppend) {
  FleetFixture* f = GetFixture();
  const std::string path = "/tmp/qcore_obs_trace_snapshots.wal";
  std::remove(path.c_str());
  {
    SnapshotLogOptions dopts;
    dopts.path = path;
    auto store = SnapshotStore::Open(std::move(dopts));
    ASSERT_TRUE(store.ok());
    SnapshotRegistry durable(std::move(store).value());

    TraceRing::Global().Clear();
    ShardedFleetServer server(*f->base, *f->bf, OneShard(ServerOptions(2)),
                              &durable);
    server.RegisterDevice("dev", f->qcore);
    server.PublishSnapshot("dev").get();
    server.Drain();

    // Find the publish span among collected events (PublishSnapshot does
    // not return its span; the publish event identifies it).
    uint64_t span = 0;
    for (const auto& e : TraceRing::Global().Collect()) {
      if (e.kind == TraceKind::kSnapshotPublish &&
          TraceRing::Global().NameOf(e.arg0) == "dev") {
        span = e.span;
      }
    }
    ASSERT_NE(span, 0u);
    const std::vector<TraceEvent> timeline =
        TraceRing::Global().CollectSpan(span);
    // publish -> WAL append (inherited via the thread-local span) ->
    // complete, in timestamp order.
    const int publish = IndexOf(timeline, TraceKind::kSnapshotPublish);
    const int wal = IndexOf(timeline, TraceKind::kWalAppend);
    const int complete = IndexOf(timeline, TraceKind::kComplete);
    ASSERT_GE(publish, 0);
    ASSERT_GE(wal, 0);
    ASSERT_GE(complete, 0);
    EXPECT_LT(publish, wal);
    EXPECT_LT(wal, complete);
    EXPECT_GT(timeline[static_cast<size_t>(wal)].arg1, 0u);  // bytes
  }
  std::remove(path.c_str());
}

TEST(TraceTest, MigrationSpanLinksDetachAndAttach) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions sopts;
  sopts.num_shards = 2;
  sopts.shard = ServerOptions(1);
  ShardedFleetServer server(*f->base, *f->bf, sopts);
  server.RegisterDevice("mover", f->qcore);

  TraceRing::Global().Clear();
  const int source = server.ShardOf("mover");
  server.MoveDevice("mover", 1 - source);

  uint64_t span = 0;
  for (const auto& e : TraceRing::Global().Collect()) {
    if (e.kind == TraceKind::kDetach) span = e.span;
  }
  ASSERT_NE(span, 0u);
  const std::vector<TraceEvent> timeline =
      TraceRing::Global().CollectSpan(span);
  const int detach = IndexOf(timeline, TraceKind::kDetach);
  const int attach = IndexOf(timeline, TraceKind::kAttach);
  ASSERT_GE(detach, 0);
  ASSERT_GE(attach, 0);
  EXPECT_LT(detach, attach);
  EXPECT_EQ(timeline[static_cast<size_t>(detach)].arg1,
            static_cast<uint64_t>(source));
  EXPECT_EQ(timeline[static_cast<size_t>(attach)].arg1,
            static_cast<uint64_t>(1 - source));
}

TEST(TraceTest, WraparoundDropsOldestEventsOnly) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  ring.SetCapacityPerThread(4);
  const uint64_t span = TraceRing::NextSpan();
  // A fresh thread gets a fresh ring at the shrunken capacity (capacity
  // applies to rings created after the call).
  std::thread recorder([&]() {
    for (uint64_t i = 0; i < 10; ++i) {
      ring.Record(TraceKind::kComplete, span, 0, i);
    }
  });
  recorder.join();
  ring.SetCapacityPerThread(8192);  // restore for later tests

  const std::vector<TraceEvent> events = ring.CollectSpan(span);
  ASSERT_EQ(events.size(), 4u);
  // Oldest dropped, newest kept, order preserved.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].arg1, 6 + i);
  }
  EXPECT_GE(ring.dropped_events(), 6u);
}

// A thread that dies mid-span — the chaos shard-crash shape: events
// recorded, then the recorder gone without closing its span — must leave
// the ring collectable and the export well-formed. Dead threads' rings
// stay registered, so the orphaned events remain part of the post-mortem.
TEST(TraceTest, RingStaysConsistentWhenFaultedThreadDiesMidSpan) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  const uint64_t span = TraceRing::NextSpan();
  std::thread victim([&]() {
    ScopedTraceSpan scope(span);
    ring.Record(TraceKind::kExecStart, span, 0, 1);
    // The "crash": the thread exits without ever recording kExecEnd.
  });
  victim.join();

  const std::vector<TraceEvent> events = ring.CollectSpan(span);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceKind::kExecStart);
  // The export stays valid JSON with the unmatched "B" phase present —
  // chrome://tracing renders it as an unterminated slice, which is the
  // truthful picture of a span whose thread died.
  const std::string json = ring.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
  // Live threads keep recording unharmed alongside the dead ring.
  ring.Record(TraceKind::kComplete, span);
  EXPECT_EQ(ring.CollectSpan(span).size(), 2u);
}

TEST(TraceTest, ChromeJsonExportContainsLifecycleEvents) {
  FleetFixture* f = GetFixture();
  TraceRing::Global().Clear();
  FleetServerOptions opts = ServerOptions(2);
  opts.enable_batching = true;
  opts.batching.max_batch = 2;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("dev", f->qcore);
  auto f1 = server.SubmitInference("dev", f->target.test.x());
  auto f2 = server.SubmitInference("dev", f->target.test.x());
  f1.get();
  f2.get();
  server.Drain();

  const std::string json = TraceRing::Global().ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"submitInference\""), std::string::npos);
  EXPECT_NE(json.find("\"batchFlush\""), std::string::npos);
  // The forward pass exports as a paired duration event.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"dev\""), std::string::npos);
}

TEST(TraceTest, DisabledRecordsNothing) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  ring.SetEnabled(false);
  const uint64_t span = TraceRing::NextSpan();
  ring.Record(TraceKind::kComplete, span);
  ring.SetEnabled(true);
  EXPECT_TRUE(ring.CollectSpan(span).empty());
  ring.Record(TraceKind::kComplete, span);
  EXPECT_EQ(ring.CollectSpan(span).size(), 1u);
}

}  // namespace
}  // namespace qcore
