// Tests for the fleet serving runtime: thread-pool semantics, per-session
// determinism (bit-identical to the single-threaded ContinualDriver),
// session isolation, concurrent correctness under a multi-threaded pool,
// snapshot copy-on-write, unknown-device submissions, and metrics
// accounting. The server-level tests run on a two-shard fleet server, so
// the contract is pinned through the router's routing. (Shard-count
// bit-identity and rebalancing live in tests/sharding_test.cc.)
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "common/serialize.h"

#include "core/pipeline.h"
#include "runtime/thread_pool.h"
#include "serving/router.h"
#include "serving/server.h"
#include "serving/session.h"
#include "serving/snapshot.h"
#include "tests/fleet_fixture.h"

namespace qcore {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllScheduledTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter]() { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  std::future<int> f = pool.Submit([]() { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  int value = 0;
  pool.Schedule([&value]() { value = 1; });
  EXPECT_EQ(value, 1);  // already ran, no WaitIdle needed
  pool.WaitIdle();
}

TEST(ThreadPoolTest, TasksCanScheduleMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Schedule([&]() {
    counter.fetch_add(1);
    pool.Schedule([&]() { counter.fetch_add(1); });
  });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsTasksScheduledByTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.Schedule([&]() {
        counter.fetch_add(1);
        pool.Schedule([&]() { counter.fetch_add(1); });
      });
    }
    // No WaitIdle: the destructor itself must drain, including the tasks
    // the queued tasks schedule while shutdown is already in progress.
  }
  EXPECT_EQ(counter.load(), 16);
}

// ------------------------------------------------------------ fleet fixture

FleetFixture* GetFixture() {
  static FleetFixture* fixture = MakeFleetFixture(20240901, 777, 8);
  return fixture;
}

ContinualOptions TestContinualOptions() {
  ContinualOptions opts;
  opts.iterations = 2;
  return opts;
}

// The server the FleetServerTest bodies run on: two shards by default, so
// every contract is exercised through the router's routing too.
std::unique_ptr<ShardedFleetServer> MakeServer(FleetFixture* f,
                                               const FleetServerOptions& opts,
                                               int num_shards = 2) {
  ShardedFleetServerOptions sopts;
  sopts.num_shards = num_shards;
  sopts.shard = opts;
  return std::make_unique<ShardedFleetServer>(*f->base, *f->bf, sopts);
}

std::vector<std::vector<int32_t>> CodesOf(ShardedFleetServer* server,
                                          const std::string& device_id) {
  std::vector<std::vector<int32_t>> codes;
  server->WithSessionQuiesced(device_id, [&](CalibrationSession& session) {
    codes = session.model()->AllCodes();
  });
  return codes;
}

// ----------------------------------------------------- session determinism

TEST(CalibrationSessionTest, MatchesSingleThreadedContinualDriver) {
  FleetFixture* f = GetFixture();
  const uint64_t seed = DeviceSeed(0x5EED, "device-0");

  // Reference: the single-threaded pipeline loop, driven directly.
  auto ref_model = f->base->Clone();
  BitFlipNet ref_bf = f->bf->Clone();
  Rng ref_rng(seed);
  ContinualDriver driver(ref_model.get(), &ref_bf, f->qcore,
                         TestContinualOptions(), &ref_rng);
  std::vector<BatchStats> ref_stats =
      driver.RunStream(f->batches, f->slices);

  // Session: the serving wrapper over the same loop.
  CalibrationSession session("device-0", *f->base, *f->bf, f->qcore,
                             TestContinualOptions(), seed);
  std::vector<BatchStats> session_stats;
  for (size_t i = 0; i < f->batches.size(); ++i) {
    session_stats.push_back(session.Calibrate(f->batches[i], f->slices[i]));
  }

  ASSERT_EQ(session_stats.size(), ref_stats.size());
  for (size_t i = 0; i < ref_stats.size(); ++i) {
    EXPECT_FLOAT_EQ(session_stats[i].accuracy, ref_stats[i].accuracy);
    EXPECT_EQ(session_stats[i].qcore_changed, ref_stats[i].qcore_changed);
  }
  EXPECT_EQ(session.model()->AllCodes(), ref_model->AllCodes());
}

TEST(CalibrationSessionTest, PredictDoesNotPerturbCalibration) {
  FleetFixture* f = GetFixture();
  const uint64_t seed = DeviceSeed(1, "d");

  CalibrationSession plain("d", *f->base, *f->bf, f->qcore,
                           TestContinualOptions(), seed);
  plain.Calibrate(f->batches[0], f->slices[0]);

  CalibrationSession interleaved("d", *f->base, *f->bf, f->qcore,
                                 TestContinualOptions(), seed);
  interleaved.Predict(f->target.test.x());  // extra inference between steps
  interleaved.Calibrate(f->batches[0], f->slices[0]);
  interleaved.Predict(f->target.test.x());

  EXPECT_EQ(plain.model()->AllCodes(), interleaved.model()->AllCodes());
}

// A session serialized mid-stream and restored from its snapshot +
// continuation blob must continue bit-identically — the primitive behind
// shard rebalancing (end-to-end coverage in sharding_test.cc).
TEST(CalibrationSessionTest, ContinuationRoundTripResumesBitIdentically) {
  FleetFixture* f = GetFixture();
  const uint64_t seed = DeviceSeed(0xABCD, "migrant");

  CalibrationSession original("migrant", *f->base, *f->bf, f->qcore,
                              TestContinualOptions(), seed);
  original.Calibrate(f->batches[0], f->slices[0]);

  // Capture: model snapshot (registry blob) + continuation state.
  SnapshotRegistry registry;
  const uint64_t version =
      registry.Publish(*original.model(), "migrant",
                       original.batches_processed());
  BinaryWriter w;
  original.SerializeContinuation(&w);
  std::vector<uint8_t> continuation = w.TakeBuffer();

  BinaryReader r(std::move(continuation));
  CalibrationSession restored("migrant", *f->base, *f->bf,
                              TestContinualOptions(), *registry.Get(version),
                              &r);
  EXPECT_EQ(restored.batches_processed(), original.batches_processed());
  EXPECT_EQ(restored.model()->AllCodes(), original.model()->AllCodes());

  // Both must now evolve identically: same stats, same codes, same
  // predictions — the restored Rng stream position is what makes this hold.
  for (size_t b = 1; b < f->batches.size(); ++b) {
    const BatchStats s0 = original.Calibrate(f->batches[b], f->slices[b]);
    const BatchStats s1 = restored.Calibrate(f->batches[b], f->slices[b]);
    EXPECT_FLOAT_EQ(s0.accuracy, s1.accuracy);
    EXPECT_EQ(s0.qcore_changed, s1.qcore_changed);
  }
  EXPECT_EQ(restored.model()->AllCodes(), original.model()->AllCodes());
  EXPECT_EQ(restored.Predict(f->target.test.x()),
            original.Predict(f->target.test.x()));
}

// ------------------------------------------------------------- FleetServer

FleetServerOptions ServerOptions(int threads) {
  FleetServerOptions opts;
  opts.num_threads = threads;
  opts.continual = TestContinualOptions();
  opts.seed = 0x5EED;
  return opts;
}

TEST(FleetServerTest, ThreadCountDoesNotChangeSessionResults) {
  FleetFixture* f = GetFixture();
  const std::vector<std::string> devices = {"dev-a", "dev-b", "dev-c"};

  auto run = [&](int threads) {
    auto stats = std::vector<std::vector<BatchStats>>(devices.size());
    std::vector<std::vector<std::vector<int32_t>>> codes;
    auto server = MakeServer(f, ServerOptions(threads));
    for (const auto& d : devices) server->RegisterDevice(d, f->qcore);
    std::vector<std::future<BatchStats>> futures;
    for (size_t b = 0; b < f->batches.size(); ++b) {
      for (const auto& d : devices) {
        futures.push_back(
            server->SubmitCalibration(d, f->batches[b], f->slices[b]));
      }
    }
    size_t fi = 0;
    for (size_t b = 0; b < f->batches.size(); ++b) {
      for (size_t d = 0; d < devices.size(); ++d) {
        stats[d].push_back(futures[fi++].get());
      }
    }
    server->Drain();
    for (const auto& d : devices) {
      codes.push_back(CodesOf(server.get(), d));
    }
    return std::make_pair(stats, codes);
  };

  auto [stats0, codes0] = run(0);  // inline reference execution
  auto [stats4, codes4] = run(4);  // multi-threaded pool(s)

  for (size_t d = 0; d < devices.size(); ++d) {
    ASSERT_EQ(stats0[d].size(), stats4[d].size());
    for (size_t b = 0; b < stats0[d].size(); ++b) {
      EXPECT_FLOAT_EQ(stats0[d][b].accuracy, stats4[d][b].accuracy);
      EXPECT_EQ(stats0[d][b].qcore_changed, stats4[d][b].qcore_changed);
    }
    EXPECT_EQ(codes0[d], codes4[d]);
  }
}

TEST(FleetServerTest, SessionsAreIsolated) {
  FleetFixture* f = GetFixture();
  auto server = MakeServer(f, ServerOptions(2));
  server->RegisterDevice("calibrating", f->qcore);
  server->RegisterDevice("idle", f->qcore);

  server->SubmitCalibration("calibrating", f->batches[0], f->slices[0])
      .get();
  server->Drain();

  // The idle device still serves the untouched base model.
  EXPECT_EQ(CodesOf(server.get(), "idle"), f->base->AllCodes());
  // And the calibrating device diverged from it (codes actually moved).
  EXPECT_NE(CodesOf(server.get(), "calibrating"), f->base->AllCodes());
}

TEST(FleetServerTest, WithSessionQuiescedWaitsOutQueuedWork) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts = ServerOptions(2);
  opts.simulated_device_rtt_ms = 10.0;  // keep work in flight
  auto server = MakeServer(f, opts);
  server->RegisterDevice("dev", f->qcore);

  // No Drain: the accessor itself must wait for the queued calibration
  // and inference to finish before granting access.
  auto calib = server->SubmitCalibration("dev", f->batches[0], f->slices[0]);
  auto inf = server->SubmitInference("dev", f->target.test.x());
  uint64_t seen_batches = 0;
  std::vector<std::vector<int32_t>> codes;
  server->WithSessionQuiesced("dev", [&](CalibrationSession& session) {
    seen_batches = session.batches_processed();
    codes = session.model()->AllCodes();
  });
  EXPECT_EQ(seen_batches, 1u);
  // Both futures must already be resolved — quiescing ran the queue dry.
  EXPECT_EQ(calib.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(inf.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_NE(codes, f->base->AllCodes());
  server->Drain();
}

TEST(FleetServerTest, WithSessionQuiescedExcludesConcurrentSubmissions) {
  // Regression for the QuiesceSession redesign: the old API returned a
  // std::unique_lock from a helper (invisible to thread-safety analysis);
  // the new contract is an annotated acquire with an explicit release in
  // every caller. This pins both halves at runtime: work submitted WHILE
  // the quiesced callback runs must not complete until it returns
  // (exclusion), and must then complete promptly (the release actually
  // happens — a leaked lock deadlocks this test instead of passing).
  FleetFixture* f = GetFixture();
  auto server = MakeServer(f, ServerOptions(2));
  server->RegisterDevice("dev", f->qcore);

  std::atomic<bool> submitter_started{false};
  std::atomic<bool> inference_done{false};
  std::thread submitter;
  server->WithSessionQuiesced("dev", [&](CalibrationSession& session) {
    (void)session;
    submitter = std::thread([&]() {
      submitter_started = true;
      // Blocks on the session lock held by the quiesce until released.
      auto fut = server->SubmitInference("dev", f->target.test.x());
      fut.get();
      inference_done = true;
    });
    while (!submitter_started.load()) std::this_thread::yield();
    // Give the submitter real time to race; it must stay excluded.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(inference_done.load());
  });
  submitter.join();  // hangs here if the quiesce leaked the session lock
  EXPECT_TRUE(inference_done.load());
  server->Drain();
}

TEST(FleetServerTest, ConcurrentInferenceAndCalibration) {
  FleetFixture* f = GetFixture();
  auto server = MakeServer(f, ServerOptions(4));
  const int kDevices = 6;
  for (int d = 0; d < kDevices; ++d) {
    server->RegisterDevice("dev-" + std::to_string(d), f->qcore);
  }

  std::vector<std::future<InferenceResult>> inferences;
  std::vector<std::future<BatchStats>> calibrations;
  for (int d = 0; d < kDevices; ++d) {
    const std::string id = "dev-" + std::to_string(d);
    inferences.push_back(server->SubmitInference(id, f->target.test.x()));
    calibrations.push_back(
        server->SubmitCalibration(id, f->batches[0], f->slices[0]));
    inferences.push_back(server->SubmitInference(id, f->target.test.x()));
  }
  for (auto& fu : inferences) {
    InferenceResult r = fu.get();
    EXPECT_EQ(static_cast<int>(r.predictions.size()),
              f->target.test.size());
  }
  for (auto& fu : calibrations) {
    BatchStats s = fu.get();
    EXPECT_GE(s.accuracy, 0.0f);
    EXPECT_LE(s.accuracy, 1.0f);
  }
  server->Drain();

  const ServingCounters totals = server->whiteboard().Read().FleetTotals();
  EXPECT_EQ(totals.inference_requests, static_cast<uint64_t>(2 * kDevices));
  EXPECT_EQ(totals.calibration_batches, static_cast<uint64_t>(kDevices));
  EXPECT_EQ(server->metrics().inference_latency().count(),
            static_cast<uint64_t>(2 * kDevices));
  EXPECT_GT(totals.mean_accuracy(), 0.0f);
}

// A calibration whose test slice is empty is never evaluated, so it must
// not count toward the accuracy mean: one unmeasured step plus one
// measured step average to exactly the measured accuracy.
TEST(FleetServerTest, AccuracyMeanSkipsUnmeasuredCalibrations) {
  FleetFixture* f = GetFixture();
  auto server = MakeServer(f, ServerOptions(2));
  server->RegisterDevice("dev", f->qcore);
  server->SubmitCalibration("dev", f->batches[0], Dataset()).get();
  const BatchStats measured =
      server->SubmitCalibration("dev", f->batches[1], f->slices[1]).get();
  server->Drain();
  ASSERT_GT(measured.accuracy, 0.0f);

  const ServingCounters totals = server->whiteboard().Read().FleetTotals();
  EXPECT_EQ(totals.calibration_batches, 2u);
  EXPECT_EQ(totals.accuracy_samples, 1u);
  // Equal up to the counters' fixed-point micro-unit.
  EXPECT_NEAR(totals.mean_accuracy(), measured.accuracy, 1e-6);
}

TEST(FleetServerTest, SnapshotsAreCopyOnWriteAndRestorable) {
  FleetFixture* f = GetFixture();
  auto server = MakeServer(f, ServerOptions(2));
  server->RegisterDevice("dev", f->qcore);

  const uint64_t v1 = server->PublishSnapshot("dev").get();
  server->SubmitCalibration("dev", f->batches[0], f->slices[0]).get();
  const uint64_t v2 = server->PublishSnapshot("dev").get();
  server->Drain();

  EXPECT_LT(v1, v2);
  auto snap1 = server->snapshots().Get(v1);
  auto snap2 = server->snapshots().Get(v2);
  ASSERT_NE(snap1, nullptr);
  ASSERT_NE(snap2, nullptr);
  EXPECT_EQ(server->snapshots().LatestFor("dev")->version, v2);
  EXPECT_NE(snap1->bytes, snap2->bytes);  // calibration changed the model

  // Restoring v1 into a fresh clone reproduces the pre-calibration codes.
  auto restored = f->base->Clone();
  ASSERT_TRUE(SnapshotRegistry::RestoreInto(*snap1, restored.get()).ok());
  EXPECT_EQ(restored->AllCodes(), f->base->AllCodes());

  // Restoring v2 reproduces the session's current codes.
  auto restored2 = f->base->Clone();
  ASSERT_TRUE(SnapshotRegistry::RestoreInto(*snap2, restored2.get()).ok());
  EXPECT_EQ(restored2->AllCodes(), CodesOf(server.get(), "dev"));
}

// A submission for a device the router does not know is the caller's
// error, not the fleet's: both TrySubmit forms answer kNotFound and count
// nothing (there is no device row to count on), and the known device keeps
// serving.
TEST(FleetServerTest, UnknownDeviceSubmissionIsNotFound) {
  FleetFixture* f = GetFixture();
  auto server = MakeServer(f, ServerOptions(2), /*num_shards=*/1);
  server->RegisterDevice("dev", f->qcore);

  auto inference =
      server->TrySubmitInference("never-registered", f->target.test.x());
  ASSERT_FALSE(inference.ok());
  EXPECT_EQ(inference.status().code(), StatusCode::kNotFound);
  EXPECT_NE(inference.status().message().find("never-registered"),
            std::string::npos);
  auto calibration = server->TrySubmitCalibration(
      "never-registered", f->batches[0], f->slices[0]);
  ASSERT_FALSE(calibration.ok());
  EXPECT_EQ(calibration.status().code(), StatusCode::kNotFound);

  EXPECT_EQ(static_cast<int>(server->SubmitInference("dev", f->target.test.x())
                                 .get()
                                 .predictions.size()),
            f->target.test.size());
  server->Drain();
  const WhiteboardImage image = server->whiteboard().Read();
  ASSERT_EQ(image.devices.size(), 1u);
  EXPECT_EQ(image.devices[0].device_id, "dev");
  const ServingCounters totals = image.FleetTotals();
  EXPECT_EQ(totals.accepted_inference, 1u);
  EXPECT_EQ(totals.accepted_calibration, 0u);
  EXPECT_EQ(totals.shed_inference + totals.shed_calibration, 0u);
}

TEST(FleetServerTest, FailedRestoreLeavesModelUntouched) {
  FleetFixture* f = GetFixture();
  SnapshotRegistry registry;
  registry.Publish(*f->base, "dev", 0);
  ModelSnapshot truncated = *registry.Latest();
  truncated.bytes.resize(truncated.bytes.size() / 2);

  auto target = f->base->Clone();
  const auto before = target->AllCodes();
  EXPECT_FALSE(
      SnapshotRegistry::RestoreInto(truncated, target.get()).ok());
  // Atomicity: the failed restore must not leave a half-written model.
  EXPECT_EQ(target->AllCodes(), before);
}

TEST(FleetServerTest, PeriodicSnapshotsAndTrim) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts = ServerOptions(2);
  opts.snapshot_every = 1;  // snapshot after every calibration batch
  auto server = MakeServer(f, opts);
  server->RegisterDevice("dev", f->qcore);
  for (size_t b = 0; b < f->batches.size(); ++b) {
    server->SubmitCalibration("dev", f->batches[b], f->slices[b]);
  }
  server->Drain();
  EXPECT_EQ(server->snapshots().size(), f->batches.size());
  const uint64_t latest = server->snapshots().Latest()->version;
  // Trimming keeps the device's latest version even when below the floor.
  server->snapshots().TrimBelow(latest + 1);
  EXPECT_EQ(server->snapshots().size(), 1u);
  EXPECT_EQ(server->snapshots().Latest()->version, latest);
}

// ---------------------------------------- randomized interleaving property

// Property-style determinism harness: a seeded Rng generates a random
// interleaving of calibration and inference submissions over several
// devices; replaying the SAME interleaving at 1, 2, and 8 pool threads
// (batching enabled) — and on two shards — must yield identical
// per-device calibration stats, identical per-request predictions,
// identical final codes, and identical snapshot versions/bytes. Catches
// any scheduling path where concurrency leaks into results.
struct InterleavingOutcome {
  std::vector<std::vector<std::pair<float, int>>> calib_stats;  // per device
  std::vector<std::vector<std::vector<int>>> predictions;       // per device
  std::vector<std::vector<std::vector<int32_t>>> codes;         // per device
  std::vector<uint64_t> snapshot_versions;                      // per device
  std::vector<std::vector<uint8_t>> snapshot_bytes;             // per device

  bool operator==(const InterleavingOutcome& o) const {
    return calib_stats == o.calib_stats && predictions == o.predictions &&
           codes == o.codes && snapshot_versions == o.snapshot_versions &&
           snapshot_bytes == o.snapshot_bytes;
  }
};

InterleavingOutcome ReplayInterleaving(FleetFixture* f, uint64_t op_seed,
                                       int num_shards, int threads) {
  const std::vector<std::string> devices = {"p0", "p1", "p2"};
  FleetServerOptions opts;
  opts.num_threads = threads;
  opts.continual = TestContinualOptions();
  opts.seed = 0x5EED;
  opts.enable_batching = true;  // the batcher must not break determinism
  opts.batching.max_batch = 3;
  opts.batching.max_delay_us = 50.0;
  auto server = MakeServer(f, opts, num_shards);
  for (const auto& d : devices) server->RegisterDevice(d, f->qcore);

  // The op stream depends only on op_seed, never on execution timing, so
  // every replay submits the exact same sequence.
  Rng op_rng(op_seed);
  std::vector<std::vector<std::future<BatchStats>>> cal(devices.size());
  std::vector<std::vector<std::future<InferenceResult>>> inf(devices.size());
  std::vector<size_t> next_batch(devices.size(), 0);
  for (int step = 0; step < 40; ++step) {
    const size_t d =
        static_cast<size_t>(op_rng.NextInt(0, static_cast<int>(
                                                  devices.size()) -
                                                  1));
    if (op_rng.NextBool(0.4)) {
      const size_t b = next_batch[d]++ % f->batches.size();
      cal[d].push_back(
          server->SubmitCalibration(devices[d], f->batches[b], f->slices[b]));
    } else {
      const int row = op_rng.NextInt(0, f->target.test.size() - 1);
      inf[d].push_back(
          server->SubmitInference(devices[d],
                                  f->target.test.x().GatherRows({row})));
    }
  }
  server->Drain();
  // Snapshot publication order is forced (sequential .get()) so version
  // numbers are comparable across replays.
  InterleavingOutcome out;
  for (const auto& d : devices) {
    out.snapshot_versions.push_back(server->PublishSnapshot(d).get());
    out.snapshot_bytes.push_back(
        server->snapshots().LatestFor(d)->bytes);
  }
  for (size_t d = 0; d < devices.size(); ++d) {
    out.calib_stats.emplace_back();
    for (auto& fu : cal[d]) {
      const BatchStats s = fu.get();
      out.calib_stats.back().emplace_back(s.accuracy, s.qcore_changed);
    }
    out.predictions.emplace_back();
    for (auto& fu : inf[d]) {
      out.predictions.back().push_back(fu.get().predictions);
    }
    out.codes.push_back(CodesOf(server.get(), devices[d]));
  }
  return out;
}

TEST(FleetServerPropertyTest, SeededInterleavingsDeterministicAcrossThreads) {
  FleetFixture* f = GetFixture();
  for (uint64_t op_seed : {1001u, 1002u, 1003u}) {
    const InterleavingOutcome ref =
        ReplayInterleaving(f, op_seed, /*num_shards=*/1, /*threads=*/1);
    EXPECT_FALSE(ref.codes.empty());
    for (int threads : {2, 8}) {
      const InterleavingOutcome got =
          ReplayInterleaving(f, op_seed, /*num_shards=*/1, threads);
      EXPECT_TRUE(got == ref)
          << "op_seed=" << op_seed << " threads=" << threads;
    }
    // Two shards must replay the same interleaving to the same outcome —
    // including snapshot versions, which the shards assign from one
    // federated registry.
    const InterleavingOutcome sharded =
        ReplayInterleaving(f, op_seed, /*num_shards=*/2, /*threads=*/2);
    EXPECT_TRUE(sharded == ref) << "op_seed=" << op_seed << " sharded";
  }
}

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, HistogramQuantilesAreOrdered) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i * 1e-4);  // 0.1ms .. 100ms
  EXPECT_EQ(h.count(), 1000u);
  const double p50 = h.QuantileSeconds(0.5);
  const double p95 = h.QuantileSeconds(0.95);
  const double p99 = h.QuantileSeconds(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_NEAR(h.mean_seconds(), 0.050, 0.005);
}

TEST(MetricsTest, CountHistogramExactBucketsAndOverflow) {
  CountHistogram h;
  h.Record(1);
  h.Record(1);
  h.Record(3);
  h.Record(500);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.CountAt(1), 2u);
  EXPECT_EQ(h.CountAt(3), 1u);
  EXPECT_EQ(h.CountAt(2), 0u);
  EXPECT_EQ(h.CountAt(CountHistogram::kMaxTracked), 1u);
  EXPECT_EQ(h.CountAtLeast(2), 2u);
  EXPECT_EQ(h.max(), 500);
  EXPECT_NEAR(h.mean(), (1 + 1 + 3 + 500) / 4.0, 1e-9);
  EXPECT_FALSE(h.Summary().empty());
}

TEST(MetricsTest, AccuracyMeanIsExact) {
  ServingCounters c;
  c.AddAccuracySample(0.25f);
  c.AddAccuracySample(0.75f);
  EXPECT_FLOAT_EQ(c.mean_accuracy(), 0.5f);
  EXPECT_FALSE(ServingMetrics().Report().empty());
}

}  // namespace
}  // namespace qcore
