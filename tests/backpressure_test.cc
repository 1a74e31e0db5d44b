// Overload-control tests: bounded per-session queues must shed with
// kResourceExhausted instead of queueing unboundedly (and never deadlock),
// per-class bounds must cap inference and calibration independently,
// inference must be prioritized over background calibration at the pool,
// and the shed/accepted counters must reconcile exactly with what callers
// observed. Runs under ThreadSanitizer in CI alongside serving_test.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"
#include "serving/router.h"
#include "serving/server.h"
#include "testing/fault_injector.h"
#include "tests/fleet_fixture.h"

namespace qcore {
namespace {

// ------------------------------------------------ pool-level priorities

TEST(ThreadPoolPriorityTest, HighDrainsBeforeLowWithSingleWorker) {
  ThreadPool pool(1);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  // Park the worker so every subsequent Schedule lands in the queues.
  pool.Schedule([&]() {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&]() { return gate_open; });
  });

  std::mutex order_mu;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    pool.Schedule(
        [&order, &order_mu, i]() {
          std::lock_guard<std::mutex> lock(order_mu);
          order.push_back(100 + i);  // low tasks, scheduled FIRST
        },
        TaskPriority::kLow);
  }
  for (int i = 0; i < 4; ++i) {
    pool.Schedule(
        [&order, &order_mu, i]() {
          std::lock_guard<std::mutex> lock(order_mu);
          order.push_back(i);  // high tasks, scheduled SECOND
        },
        TaskPriority::kHigh);
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  pool.WaitIdle();

  // Strict priority: all high tasks ran before any low task, FIFO within
  // each level.
  const std::vector<int> expected = {0, 1, 2, 3, 100, 101, 102, 103};
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolPriorityTest, LowTasksStillDrainOnShutdown) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.Schedule([&ran]() { ran.fetch_add(1); }, TaskPriority::kLow);
    }
  }
  EXPECT_EQ(ran.load(), 16);
}

// ------------------------------------------------------ fleet fixture

FleetFixture* GetFixture() {
  static FleetFixture* fixture = MakeFleetFixture(20250602, 11, 6);
  return fixture;
}

ContinualOptions FastContinualOptions() {
  ContinualOptions opts;
  opts.iterations = 1;
  return opts;
}

// Two shards: bounds apply per session regardless of placement.
ShardedFleetServerOptions TwoShards(FleetServerOptions opts) {
  ShardedFleetServerOptions sopts;
  sopts.num_shards = 2;
  sopts.shard = std::move(opts);
  return sopts;
}

// ------------------------------------------------------- load shedding

TEST(BackpressureTest, ShedsWithResourceExhaustedWhenQueueFull) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts;
  opts.num_threads = 1;
  opts.continual = FastContinualOptions();
  opts.max_queue_per_session = 1;
  // Slow the admitted task down so the second submission deterministically
  // finds the queue full.
  opts.simulated_device_rtt_ms = 50.0;
  ShardedFleetServer server(*f->base, *f->bf, TwoShards(opts));
  server.RegisterDevice("dev", f->qcore);

  auto first = server.TrySubmitInference("dev", f->target.test.x());
  ASSERT_TRUE(first.ok());
  auto second = server.TrySubmitInference("dev", f->target.test.x());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("dev"), std::string::npos);
  auto third =
      server.TrySubmitCalibration("dev", f->batches[0], f->slices[0]);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);

  // The shed request's slot was released: after the first completes, the
  // session accepts again.
  std::move(first).value().get();
  server.Drain();
  auto fourth = server.TrySubmitInference("dev", f->target.test.x());
  EXPECT_TRUE(fourth.ok());
  server.Drain();

  const ServingCounters totals = server.whiteboard().Read().FleetTotals();
  EXPECT_EQ(totals.shed_inference, 1u);
  EXPECT_EQ(totals.shed_calibration, 1u);
  EXPECT_EQ(totals.accepted_inference, 2u);
  EXPECT_EQ(server.metrics().queue_depth().max(), 1);
}

// Per-class bounds: a calibration backlog must not consume inference's
// admission budget, and vice versa — each class sheds against its own cap.
TEST(BackpressureTest, PerClassBoundsShedIndependently) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts;
  opts.num_threads = 1;
  opts.continual = FastContinualOptions();
  opts.max_inference_queue_per_session = 1;
  opts.max_calibration_queue_per_session = 2;
  // No shared bound: only the per-class caps act.
  opts.max_queue_per_session = 0;
  opts.simulated_device_rtt_ms = 50.0;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("dev", f->qcore);

  // Inference cap 1: the second submission sheds...
  auto inf1 = server.TrySubmitInference("dev", f->target.test.x());
  ASSERT_TRUE(inf1.ok());
  auto inf2 = server.TrySubmitInference("dev", f->target.test.x());
  ASSERT_FALSE(inf2.ok());
  EXPECT_EQ(inf2.status().code(), StatusCode::kResourceExhausted);
  // ...but calibration admission is untouched by the inference backlog:
  // cap 2 admits two and sheds the third.
  auto cal1 = server.TrySubmitCalibration("dev", f->batches[0], f->slices[0]);
  auto cal2 = server.TrySubmitCalibration("dev", f->batches[1], f->slices[1]);
  ASSERT_TRUE(cal1.ok());
  ASSERT_TRUE(cal2.ok());
  auto cal3 = server.TrySubmitCalibration("dev", f->batches[2], f->slices[2]);
  ASSERT_FALSE(cal3.ok());
  EXPECT_EQ(cal3.status().code(), StatusCode::kResourceExhausted);

  server.Drain();
  const ServingCounters totals = server.whiteboard().Read().FleetTotals();
  EXPECT_EQ(totals.shed_inference, 1u);
  EXPECT_EQ(totals.shed_calibration, 1u);
  EXPECT_EQ(totals.accepted_inference, 1u);
  EXPECT_EQ(totals.accepted_calibration, 2u);
  // Completion counters reconcile with admission.
  EXPECT_EQ(totals.inference_requests, 1u);
  EXPECT_EQ(totals.calibration_batches, 2u);
}

// The legacy shared bound composes with per-class caps: admission requires
// every configured bound to hold.
TEST(BackpressureTest, SharedBoundComposesWithPerClassBounds) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts;
  opts.num_threads = 1;
  opts.continual = FastContinualOptions();
  opts.max_queue_per_session = 2;             // total cap
  opts.max_calibration_queue_per_session = 8;  // loose class cap
  opts.simulated_device_rtt_ms = 50.0;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("dev", f->qcore);

  // Two calibrations fill the SHARED bound even though the class cap (8)
  // has room — the third sheds on the total.
  auto cal1 = server.TrySubmitCalibration("dev", f->batches[0], f->slices[0]);
  auto cal2 = server.TrySubmitCalibration("dev", f->batches[1], f->slices[1]);
  ASSERT_TRUE(cal1.ok());
  ASSERT_TRUE(cal2.ok());
  auto cal3 = server.TrySubmitCalibration("dev", f->batches[2], f->slices[2]);
  ASSERT_FALSE(cal3.ok());
  // And inference (no class cap at all) sheds on the shared bound too.
  auto inf = server.TrySubmitInference("dev", f->target.test.x());
  ASSERT_FALSE(inf.ok());
  EXPECT_EQ(inf.status().code(), StatusCode::kResourceExhausted);
  server.Drain();
  EXPECT_LE(server.metrics().queue_depth().max(), 2);
}

// Floods a bounded server from several submitter threads at once; every
// accepted future must resolve (no deadlock), and afterwards
// accepted + shed must equal submissions exactly, with completion counters
// matching acceptance.
TEST(BackpressureTest, FloodReconcilesAcceptedPlusShed) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts;
  opts.num_threads = 2;
  opts.continual = FastContinualOptions();
  opts.max_queue_per_session = 3;
  opts.simulated_device_rtt_ms = 1.0;  // enough to build a backlog
  opts.enable_batching = true;         // flood through the batcher too
  opts.batching.max_batch = 4;
  opts.batching.max_delay_us = 100.0;
  ShardedFleetServer server(*f->base, *f->bf, TwoShards(opts));
  const int kDevices = 4;
  for (int d = 0; d < kDevices; ++d) {
    server.RegisterDevice("dev-" + std::to_string(d), f->qcore);
  }

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 40;
  std::atomic<uint64_t> accepted_inf{0}, shed_inf{0};
  std::atomic<uint64_t> accepted_cal{0}, shed_cal{0};
  std::vector<std::thread> submitters;
  std::mutex futures_mu;
  std::vector<std::future<InferenceResult>> inf_futures;
  std::vector<std::future<BatchStats>> cal_futures;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s]() {
      for (int i = 0; i < kPerSubmitter; ++i) {
        const std::string id =
            "dev-" + std::to_string((s + i) % kDevices);
        if (i % 5 == 4) {
          auto r = server.TrySubmitCalibration(
              id, f->batches[i % f->batches.size()],
              f->slices[i % f->slices.size()]);
          if (r.ok()) {
            accepted_cal.fetch_add(1);
            std::lock_guard<std::mutex> lock(futures_mu);
            cal_futures.push_back(std::move(r).value());
          } else {
            ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted);
            shed_cal.fetch_add(1);
          }
        } else {
          auto r = server.TrySubmitInference(id, f->target.test.x());
          if (r.ok()) {
            accepted_inf.fetch_add(1);
            std::lock_guard<std::mutex> lock(futures_mu);
            inf_futures.push_back(std::move(r).value());
          } else {
            ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted);
            shed_inf.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : submitters) t.join();

  // No deadlock: every accepted request resolves.
  for (auto& fu : inf_futures) {
    EXPECT_EQ(static_cast<int>(fu.get().predictions.size()),
              f->target.test.size());
  }
  for (auto& fu : cal_futures) {
    const BatchStats stats = fu.get();
    EXPECT_GE(stats.accuracy, 0.0f);
    EXPECT_LE(stats.accuracy, 1.0f);
  }
  server.Drain();

  const ServingCounters totals = server.whiteboard().Read().FleetTotals();
  const uint64_t inf_submissions =
      static_cast<uint64_t>(kSubmitters) * kPerSubmitter * 4 / 5;
  const uint64_t cal_submissions =
      static_cast<uint64_t>(kSubmitters) * kPerSubmitter / 5;
  EXPECT_EQ(totals.accepted_inference, accepted_inf.load());
  EXPECT_EQ(totals.shed_inference, shed_inf.load());
  EXPECT_EQ(totals.accepted_calibration, accepted_cal.load());
  EXPECT_EQ(totals.shed_calibration, shed_cal.load());
  EXPECT_EQ(totals.accepted_inference + totals.shed_inference, inf_submissions);
  EXPECT_EQ(totals.accepted_calibration + totals.shed_calibration,
            cal_submissions);
  // Completion counters reconcile with admission.
  EXPECT_EQ(totals.inference_requests, totals.accepted_inference);
  EXPECT_EQ(totals.calibration_batches, totals.accepted_calibration);
  // The bound was actually exercised and never exceeded.
  EXPECT_LE(server.metrics().queue_depth().max(), 3);
  EXPECT_FALSE(server.metrics().Report().empty());
}

// Under overload, the pool must serve inference before the calibration
// backlog: with one worker and a fleet-wide calibration flood, a single
// inference submission jumps every still-queued calibration pump.
TEST(BackpressureTest, CalibrationYieldsToInferenceUnderOverload) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts;
  opts.num_threads = 1;
  opts.continual = FastContinualOptions();
  opts.simulated_device_rtt_ms = 30.0;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  const int kDevices = 5;
  for (int d = 0; d < kDevices; ++d) {
    server.RegisterDevice("cal-" + std::to_string(d), f->qcore);
  }
  server.RegisterDevice("hot", f->qcore);

  // Flood: 2 calibration batches on each of 5 devices = 10 low tasks.
  std::vector<std::future<BatchStats>> calibs;
  for (int d = 0; d < kDevices; ++d) {
    for (int b = 0; b < 2; ++b) {
      calibs.push_back(server.SubmitCalibration(
          "cal-" + std::to_string(d), f->batches[b], f->slices[b]));
    }
  }
  // Submitted while the worker is still inside the first (30ms+) pump:
  // the high-priority inference pump overtakes every queued low pump.
  auto inference = server.TrySubmitInference("hot", f->target.test.x());
  ASSERT_TRUE(inference.ok());
  std::move(inference).value().get();
  const uint64_t done_at_inference =
      server.whiteboard().Read().FleetTotals().calibration_batches;
  server.Drain();

  EXPECT_LT(done_at_inference, static_cast<uint64_t>(calibs.size()));
  EXPECT_EQ(server.whiteboard().Read().FleetTotals().calibration_batches,
            static_cast<uint64_t>(calibs.size()));
  for (auto& fu : calibs) fu.get();  // the backlog still completes
}

// Seeded latency chaos (device RTT spikes + batcher flusher stalls) on a
// bounded, batched server under a multi-threaded flood with per-request
// latency budgets: every shed is LOUD (a kResourceExhausted refusal or a
// future resolving to kDeadlineExceeded — never silence, never a hang),
// the ledger reconciles exactly, and every DELIVERED prediction is
// bit-identical to an unloaded, unfaulted reference run. Latency faults
// may change WHETHER a request is delivered, never WHAT it says.
TEST(BackpressureChaosTest, LatencyChaosFloodShedsLoudAndDeliversExactBits) {
  FleetFixture* f = GetFixture();
  std::vector<int> reference;
  {
    FleetServerOptions opts;
    opts.num_threads = 2;
    opts.continual = FastContinualOptions();
    ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
    server.RegisterDevice("ref", f->qcore);
    reference =
        server.SubmitInference("ref", f->target.test.x()).get().predictions;
  }

  FaultInjector injector(/*seed=*/1234);
  FaultScript spike;
  spike.sticky = true;
  spike.probability = 0.25;
  spike.arg = 3000;  // 3ms RTT spike on a quarter of device round trips
  injector.Arm(FaultPoint::kDeviceRttSpike, spike);
  FaultScript stall;
  stall.sticky = true;
  stall.probability = 0.25;
  stall.arg = 2000;  // 2ms stall in the deadline flusher
  injector.Arm(FaultPoint::kBatcherFlusherStall, stall);
  injector.Install();

  FleetServerOptions opts;
  opts.num_threads = 2;
  opts.continual = FastContinualOptions();
  opts.max_queue_per_session = 3;
  opts.enable_batching = true;
  opts.batching.max_batch = 4;
  opts.batching.max_delay_us = 100.0;
  opts.simulated_device_rtt_ms = 1.0;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  constexpr int kDevices = 3;
  for (int d = 0; d < kDevices; ++d) {
    server.RegisterDevice("dev-" + std::to_string(d), f->qcore);
  }

  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 30;
  std::atomic<uint64_t> admission_sheds{0};
  std::mutex futures_mu;
  std::vector<std::future<InferenceResult>> futures;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s]() {
      for (int i = 0; i < kPerSubmitter; ++i) {
        InferenceSubmitOptions sub;
        // Every third request carries a budget tight enough for the chaos
        // delays to blow through — those shed with kDeadlineExceeded.
        if (i % 3 == 0) sub.latency_budget_us = 2000.0;
        auto r = server.TrySubmitInference(
            "dev-" + std::to_string((s + i) % kDevices), f->target.test.x(),
            sub);
        if (r.ok()) {
          std::lock_guard<std::mutex> lock(futures_mu);
          futures.push_back(std::move(r).value());
        } else {
          ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted);
          admission_sheds.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();

  uint64_t delivered = 0, deadline_shed = 0;
  for (auto& fu : futures) {
    const InferenceResult r = fu.get();  // every admitted future resolves
    if (r.status.ok()) {
      ++delivered;
      EXPECT_EQ(r.predictions, reference);  // exact bits or nothing
    } else {
      ASSERT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
      EXPECT_TRUE(r.predictions.empty());
      ++deadline_shed;
    }
  }
  server.Drain();
  FaultInjector::Uninstall();

  const ServingCounters totals = server.whiteboard().Read().FleetTotals();
  const uint64_t submissions =
      static_cast<uint64_t>(kSubmitters) * kPerSubmitter;
  EXPECT_EQ(totals.accepted_inference + totals.shed_inference, submissions);
  EXPECT_EQ(totals.shed_inference, admission_sheds.load());
  EXPECT_EQ(totals.shed_deadline, deadline_shed);
  // The acceptance split: executed == delivered, and an admitted request
  // either executed or deadline-shed — nothing leaks.
  EXPECT_EQ(totals.inference_requests, delivered);
  EXPECT_EQ(totals.accepted_inference, delivered + deadline_shed);
  // The per-reason breakdown partitions the admission sheds exactly,
  // chaos or no chaos.
  EXPECT_EQ(totals.shed_inference + totals.shed_calibration,
            totals.shed_queue_full + totals.shed_limiter);
  EXPECT_LE(server.metrics().queue_depth().max(), 3);
}

}  // namespace
}  // namespace qcore
