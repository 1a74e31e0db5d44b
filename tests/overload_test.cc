// Overload-control plane tests (serving/overload.h): deadline shedding
// keeps delivered results bit-identical while expired work never reaches a
// forward pass; priority aging guarantees calibration progress under an
// inference flood; the hierarchical admission tree refuses at the right
// level with exact per-reason accounting; migration is non-blocking for
// unrelated devices; and the chaos points (poolSaturation,
// deadlineClockSkew, limiterRefuse) fault the plane without breaking any
// of those invariants. Runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/whiteboard.h"
#include "runtime/thread_pool.h"
#include "serving/overload.h"
#include "serving/router.h"
#include "serving/server.h"
#include "testing/fault_injector.h"
#include "tests/fleet_fixture.h"

namespace qcore {
namespace {

// ----------------------------------------------------------- clock + policy

TEST(OverloadClockTest, ZeroBudgetNeverExpires) {
  EXPECT_EQ(OverloadClock::DeadlineFor(0.0), OverloadClock::NoDeadline());
  EXPECT_EQ(OverloadClock::DeadlineFor(-5.0), OverloadClock::NoDeadline());
  EXPECT_FALSE(OverloadClock::Expired(OverloadClock::NoDeadline()));
}

TEST(OverloadClockTest, PositiveBudgetExpires) {
  const auto deadline = OverloadClock::DeadlineFor(100.0);  // 100us
  EXPECT_NE(deadline, OverloadClock::NoDeadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(OverloadClock::Expired(deadline));
}

TEST(RetryPolicyTest, BackoffIsDeterministicAndJitterBounded) {
  RetryPolicy policy;
  policy.base_backoff_us = 1000;
  policy.multiplier = 2.0;
  policy.jitter = 0.25;
  Rng rng_a(7), rng_b(7);
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const uint64_t a = ComputeBackoffUs(policy, attempt, &rng_a);
    const uint64_t b = ComputeBackoffUs(policy, attempt, &rng_b);
    EXPECT_EQ(a, b);  // same seed, same schedule
    const double nominal = 1000.0 * std::pow(2.0, attempt - 1);
    EXPECT_GE(static_cast<double>(a), nominal * 0.75 - 1.0);
    EXPECT_LE(static_cast<double>(a), nominal * 1.25 + 1.0);
  }
  // Different seeds de-synchronize retries (the thundering-herd fix).
  Rng rng_c(8);
  bool any_different = false;
  Rng rng_d(7);
  for (int attempt = 1; attempt <= 5; ++attempt) {
    if (ComputeBackoffUs(policy, attempt, &rng_c) !=
        ComputeBackoffUs(policy, attempt, &rng_d)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(RetryPolicyTest, RetriesResourceExhaustedButNotDeadlineExceeded) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_us = 1;  // keep the test fast
  int shed_calls = 0;
  Status out = RetryWithBackoff(policy, [&]() {
    ++shed_calls;
    return shed_calls < 3 ? Status::ResourceExhausted("shed")
                          : Status::OK();
  });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(shed_calls, 3);

  int deadline_calls = 0;
  out = RetryWithBackoff(policy, [&]() {
    ++deadline_calls;
    return Status::DeadlineExceeded("budget gone");
  });
  EXPECT_EQ(out.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline_calls, 1);  // never retried

  int always_shed = 0;
  out = RetryWithBackoff(policy, [&]() {
    ++always_shed;
    return Status::ResourceExhausted("still full");
  });
  EXPECT_EQ(out.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(always_shed, policy.max_attempts);
}

// -------------------------------------------------------- admission tree

TEST(AdmissionLimiterTest, RefusesAtTheTightestLevelAndRollsBack) {
  AdmissionLimiter limiter(AdmissionCaps{/*total=*/3, 0, 0});
  AdmissionNode* shard = limiter.AddShard(AdmissionCaps{/*total=*/2, 0, 0});
  AdmissionNode* s1 = limiter.AddSession(shard, AdmissionCaps{0, 0, 0});
  AdmissionNode* s2 = limiter.AddSession(shard, AdmissionCaps{0, 0, 0});

  EXPECT_EQ(limiter.TryAcquire(s1, true), AdmissionLevel::kNone);
  EXPECT_EQ(limiter.TryAcquire(s2, true), AdmissionLevel::kNone);
  // Third acquisition: the session is unbounded, the SHARD cap (2) refuses
  // — and the session slot taken optimistically must be rolled back.
  EXPECT_EQ(limiter.TryAcquire(s1, true), AdmissionLevel::kShard);
  EXPECT_EQ(s1->total_depth(), 1);
  EXPECT_EQ(shard->total_depth(), 2);
  EXPECT_EQ(limiter.fleet()->total_depth(), 2);
  EXPECT_EQ(limiter.refusals(AdmissionLevel::kShard), 1u);
  EXPECT_EQ(limiter.refusals(AdmissionLevel::kFleet), 0u);

  // A second shard is refused by the FLEET cap (3) once it holds one.
  AdmissionNode* shard2 = limiter.AddShard(AdmissionCaps{0, 0, 0});
  AdmissionNode* s3 = limiter.AddSession(shard2, AdmissionCaps{0, 0, 0});
  EXPECT_EQ(limiter.TryAcquire(s3, true), AdmissionLevel::kNone);
  EXPECT_EQ(limiter.TryAcquire(s3, true), AdmissionLevel::kFleet);
  EXPECT_EQ(shard2->total_depth(), 1);  // rolled back to the held one
  EXPECT_EQ(limiter.refusals(AdmissionLevel::kFleet), 1u);

  // Releases unwind every level.
  limiter.Release(s1, true);
  limiter.Release(s2, true);
  limiter.Release(s3, true);
  EXPECT_EQ(limiter.fleet()->total_depth(), 0);
  EXPECT_EQ(shard->total_depth(), 0);
  EXPECT_EQ(s1->total_depth(), 0);
}

TEST(AdmissionLimiterTest, PerClassCapsAreIndependent) {
  AdmissionLimiter limiter(AdmissionCaps{0, 0, 0});
  AdmissionNode* shard = limiter.AddShard(AdmissionCaps{0, 0, 0});
  AdmissionNode* s =
      limiter.AddSession(shard, AdmissionCaps{0, /*inference=*/1,
                                              /*calibration=*/2});
  EXPECT_EQ(limiter.TryAcquire(s, true), AdmissionLevel::kNone);
  EXPECT_EQ(limiter.TryAcquire(s, true), AdmissionLevel::kSession);
  EXPECT_EQ(limiter.TryAcquire(s, false), AdmissionLevel::kNone);
  EXPECT_EQ(limiter.TryAcquire(s, false), AdmissionLevel::kNone);
  EXPECT_EQ(limiter.TryAcquire(s, false), AdmissionLevel::kSession);
  EXPECT_EQ(s->inference_depth(), 1);
  EXPECT_EQ(s->calibration_depth(), 2);
  EXPECT_EQ(s->refusals(), 2u);
}

// ------------------------------------------------------------ pool aging

TEST(ThreadPoolAgingTest, AgedLowTaskOvertakesQueuedHighWork) {
  ThreadPoolOptions opts;
  opts.num_threads = 1;
  opts.aging_us = 1000;  // 1ms
  ThreadPool pool(opts);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  pool.Schedule([&]() {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&]() { return gate_open; });
  });

  std::mutex order_mu;
  std::vector<int> order;
  pool.Schedule(
      [&]() {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(100);  // the starving low task
      },
      TaskPriority::kLow);
  // Let the low task age past the promotion threshold while high work
  // keeps arriving — without aging it would run dead last.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (int i = 0; i < 4; ++i) {
    pool.Schedule(
        [&, i]() {
          std::lock_guard<std::mutex> lock(order_mu);
          order.push_back(i);
        },
        TaskPriority::kHigh);
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  pool.WaitIdle();

  // The aged low task was promoted over the queued high work.
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 100);
  EXPECT_GE(pool.aged_promotions(), 1u);
}

TEST(ThreadPoolAgingTest, ZeroAgingKeepsStrictPriority) {
  ThreadPoolOptions opts;
  opts.num_threads = 1;
  opts.aging_us = 0;  // aging disabled: the historical strict order
  ThreadPool pool(opts);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  pool.Schedule([&]() {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&]() { return gate_open; });
  });
  std::mutex order_mu;
  std::vector<int> order;
  pool.Schedule(
      [&]() {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(100);
      },
      TaskPriority::kLow);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  pool.Schedule([&]() {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(0);
  });
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  pool.WaitIdle();
  const std::vector<int> expected = {0, 100};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(pool.aged_promotions(), 0u);
}

// --------------------------------------------------------- fleet fixture

FleetFixture* GetFixture() {
  static FleetFixture* fixture = MakeFleetFixture(20250602, 11, 6);
  return fixture;
}

ContinualOptions FastContinualOptions() {
  ContinualOptions opts;
  opts.iterations = 1;
  return opts;
}

const DeviceRow* FindDevice(const WhiteboardImage& image,
                            const std::string& id) {
  for (const auto& row : image.devices) {
    if (row.device_id == id) return &row;
  }
  return nullptr;
}

// ------------------------------------------------------ deadline shedding

// A budgeted request stuck behind a slow task resolves (never hangs) with
// kDeadlineExceeded and empty predictions; the accounting stays exact:
// accepted == executed + deadline-shed, and the whiteboard rows carry the
// per-reason breakdown.
TEST(DeadlineShedTest, ExpiredRequestResolvesWithoutExecuting) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts;
  opts.num_threads = 1;
  opts.continual = FastContinualOptions();
  opts.simulated_device_rtt_ms = 30.0;  // the blocker holds the worker
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("dev", f->qcore);

  auto blocker = server.TrySubmitInference("dev", f->target.test.x());
  ASSERT_TRUE(blocker.ok());
  InferenceSubmitOptions doomed_opts;
  doomed_opts.latency_budget_us = 1.0;  // expires while queued
  auto doomed =
      server.TrySubmitInference("dev", f->target.test.x(), doomed_opts);
  ASSERT_TRUE(doomed.ok());  // ADMITTED — the deadline strikes later

  const InferenceResult shed = std::move(doomed).value().get();
  EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(shed.predictions.empty());
  const InferenceResult delivered = std::move(blocker).value().get();
  EXPECT_TRUE(delivered.status.ok());
  EXPECT_EQ(static_cast<int>(delivered.predictions.size()),
            f->target.test.size());
  server.Drain();

  const WhiteboardImage image = server.whiteboard().Read();
  const ServingCounters totals = image.FleetTotals();
  EXPECT_EQ(totals.accepted_inference, 2u);
  EXPECT_EQ(totals.shed_deadline, 1u);
  EXPECT_EQ(totals.inference_requests, 1u);  // the doomed one never executed
  EXPECT_EQ(totals.accepted_inference,
            totals.inference_requests + totals.shed_deadline);
  EXPECT_EQ(totals.shed_inference, 0u);  // deadline sheds are post-admission

  const DeviceRow* row = FindDevice(image, "dev");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->counters.shed_deadline, 1u);
  EXPECT_EQ(image.ShardTotals(0).shed_deadline, 1u);
}

// Under a batched flood where some requests carry impossible budgets, the
// doomed ones shed, every survivor's predictions are bit-identical to an
// unloaded reference run, and ZERO expired requests reach a forward pass
// (inference_requests counts exactly the survivors).
TEST(DeadlineShedTest, BatchedShedKeepsSurvivorsBitIdentical) {
  FleetFixture* f = GetFixture();
  // Reference: same model, no budgets, no load.
  std::vector<std::vector<int>> reference;
  {
    FleetServerOptions opts;
    opts.num_threads = 2;
    opts.continual = FastContinualOptions();
    ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
    server.RegisterDevice("dev", f->qcore);
    for (int i = 0; i < 8; ++i) {
      reference.push_back(
          server.SubmitInference("dev", f->target.test.x()).get().predictions);
    }
  }

  FleetServerOptions opts;
  opts.num_threads = 1;
  opts.continual = FastContinualOptions();
  opts.enable_batching = true;
  opts.batching.max_batch = 4;
  opts.batching.max_delay_us = 200.0;
  opts.simulated_device_rtt_ms = 10.0;  // builds queue wait for the doomed
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("dev", f->qcore);

  std::vector<std::future<InferenceResult>> survivors;
  std::vector<std::future<InferenceResult>> doomed;
  InferenceSubmitOptions tiny;
  tiny.latency_budget_us = 0.001;  // expired by the first flush check
  for (int i = 0; i < 8; ++i) {
    auto s = server.TrySubmitInference("dev", f->target.test.x());
    ASSERT_TRUE(s.ok());
    survivors.push_back(std::move(s).value());
    auto d = server.TrySubmitInference("dev", f->target.test.x(), tiny);
    ASSERT_TRUE(d.ok());
    doomed.push_back(std::move(d).value());
  }
  for (size_t i = 0; i < survivors.size(); ++i) {
    const InferenceResult r = survivors[i].get();
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.predictions, reference[i])
        << "survivor " << i << " diverged from the unloaded reference";
  }
  for (auto& fu : doomed) {
    const InferenceResult r = fu.get();
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(r.predictions.empty());
  }
  server.Drain();

  const ServingCounters totals = server.whiteboard().Read().FleetTotals();
  EXPECT_EQ(totals.accepted_inference, 16u);
  EXPECT_EQ(totals.shed_deadline, 8u);
  // The acceptance criterion: no expired request ever reached a forward
  // pass — the executed count is exactly the survivor count.
  EXPECT_EQ(totals.inference_requests, 8u);
}

// --------------------------------------------- hierarchical fleet bounds

TEST(HierarchicalAdmissionTest, FleetCapShedsAcrossShards) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions sopts;
  sopts.num_shards = 2;
  sopts.shard.num_threads = 1;
  sopts.shard.continual = FastContinualOptions();
  sopts.shard.simulated_device_rtt_ms = 50.0;
  sopts.max_queue_per_fleet = 2;  // the only bound: fleet-wide
  ShardedFleetServer server(*f->base, *f->bf, sopts);
  for (int d = 0; d < 4; ++d) {
    server.RegisterDevice("dev-" + std::to_string(d), f->qcore);
  }

  // Two admissions fill the fleet root no matter which shard they land on.
  std::vector<std::future<InferenceResult>> held;
  int sheds = 0;
  for (int d = 0; d < 4; ++d) {
    auto r = server.TrySubmitInference("dev-" + std::to_string(d),
                                       f->target.test.x());
    if (r.ok()) {
      held.push_back(std::move(r).value());
    } else {
      ++sheds;
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      EXPECT_NE(r.status().message().find("fleet level"), std::string::npos)
          << r.status().message();
    }
  }
  EXPECT_EQ(held.size(), 2u);
  EXPECT_EQ(sheds, 2);
  for (auto& fu : held) fu.get();
  server.Drain();

  const ServingCounters totals = server.whiteboard().Read().FleetTotals();
  EXPECT_EQ(totals.shed_inference, 2u);
  EXPECT_EQ(totals.shed_limiter, 2u);  // fleet refusals are limiter sheds
  EXPECT_EQ(totals.shed_queue_full, 0u);
  // The reason split partitions the admission sheds exactly.
  EXPECT_EQ(totals.shed_inference + totals.shed_calibration,
            totals.shed_queue_full + totals.shed_limiter);
}

TEST(HierarchicalAdmissionTest, ShardCapComposesWithSessionCap) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts;
  opts.num_threads = 1;
  opts.continual = FastContinualOptions();
  opts.max_queue_per_session = 3;  // loose
  opts.max_queue_per_shard = 2;    // tight: refuses first
  opts.simulated_device_rtt_ms = 50.0;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("a", f->qcore);
  server.RegisterDevice("b", f->qcore);

  auto r1 = server.TrySubmitInference("a", f->target.test.x());
  auto r2 = server.TrySubmitInference("b", f->target.test.x());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Session "a" holds 1 < 3, but the SHARD holds 2 — refused at shard.
  auto r3 = server.TrySubmitInference("a", f->target.test.x());
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().message().find("shard level"), std::string::npos);
  std::move(r1).value().get();
  std::move(r2).value().get();
  server.Drain();
  EXPECT_EQ(server.whiteboard().Read().FleetTotals().shed_limiter, 1u);
  // Released capacity is reusable at every level.
  auto r4 = server.TrySubmitInference("a", f->target.test.x());
  ASSERT_TRUE(r4.ok());
  std::move(r4).value().get();
  server.Drain();
}

// ------------------------------------------- calibration progress (aging)

// With one worker, aging enabled, and a sustained inference flood on a hot
// device, a calibration step must complete long before the flood drains —
// the progress guarantee the promotion clock buys.
TEST(AgingProgressTest, CalibrationCompletesMidFlood) {
  FleetFixture* f = GetFixture();
  FleetServerOptions opts;
  opts.num_threads = 1;
  opts.continual = FastContinualOptions();
  opts.simulated_device_rtt_ms = 5.0;
  opts.calibration_aging_us = 2000;  // promote after 2ms of waiting
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  // Many hot devices: each device's work drains in its own session pump,
  // so the pool dispatches between pumps — the seams where an aged
  // calibration pump can overtake the queued high pumps. (One device would
  // be a single uninterruptible pump; aging is a cross-session guarantee.)
  constexpr int kHotDevices = 8;
  constexpr int kPerDevice = 5;
  constexpr int kFlood = kHotDevices * kPerDevice;  // ~200ms queued work
  for (int d = 0; d < kHotDevices; ++d) {
    server.RegisterDevice("hot-" + std::to_string(d), f->qcore);
  }
  server.RegisterDevice("cal", f->qcore);

  std::vector<std::future<InferenceResult>> flood;
  flood.reserve(kFlood);
  for (int i = 0; i < kFlood; ++i) {
    flood.push_back(server.SubmitInference(
        "hot-" + std::to_string(i % kHotDevices), f->target.test.x()));
  }
  auto calibration =
      server.SubmitCalibration("cal", f->batches[0], f->slices[0]);
  const BatchStats stats = calibration.get();
  EXPECT_GE(stats.accuracy, 0.0f);
  // Progress: the calibration finished while most of the flood was still
  // queued (without aging it runs strictly last).
  const uint64_t done_at_calibration =
      server.whiteboard().Read().FleetTotals().inference_requests;
  EXPECT_LT(done_at_calibration, static_cast<uint64_t>(kFlood));
  server.Drain();
  for (auto& fu : flood) fu.get();
  EXPECT_EQ(server.whiteboard().Read().FleetTotals().inference_requests,
            static_cast<uint64_t>(kFlood));
}

// ------------------------------------------------ non-blocking migration

// While one device's deep backlog is being drained for migration,
// submissions for OTHER devices keep completing — and a submission for the
// migrating device parks, re-routes, and succeeds on the new shard.
TEST(MigrationTest, UnrelatedDevicesFlowDuringMigration) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions sopts;
  sopts.num_shards = 2;
  sopts.shard.num_threads = 1;
  sopts.shard.continual = FastContinualOptions();
  sopts.shard.simulated_device_rtt_ms = 20.0;
  ShardedFleetServer server(*f->base, *f->bf, sopts);
  server.RegisterDevice("mover", f->qcore);
  server.RegisterDevice("bystander", f->qcore);
  // Place them on DIFFERENT shards so the bystander's worker is free.
  const int mover_shard = server.ShardOf("mover");
  if (server.ShardOf("bystander") == mover_shard) {
    server.MoveDevice("bystander", 1 - mover_shard);
  }

  // Deep backlog on the mover: ~10 x 20ms the migration drain must wait out.
  std::vector<std::future<InferenceResult>> backlog;
  for (int i = 0; i < 10; ++i) {
    backlog.push_back(server.SubmitInference("mover", f->target.test.x()));
  }

  std::atomic<bool> migration_done{false};
  std::thread migrator([&]() {
    server.MoveDevice("mover", 1 - mover_shard);
    migration_done.store(true);
  });
  // Give the migrator time to pin the device and enter the drain phase.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // The liveness assertion: bystander submissions complete WHILE the
  // migration is still draining (under the old exclusive-lock protocol
  // they would block until the whole backlog finished).
  int completed_mid_migration = 0;
  for (int i = 0; i < 5; ++i) {
    auto r = server.TrySubmitInference("bystander", f->target.test.x());
    ASSERT_TRUE(r.ok());
    std::move(r).value().get();
    if (!migration_done.load()) ++completed_mid_migration;
  }
  EXPECT_GE(completed_mid_migration, 1);

  migrator.join();
  EXPECT_EQ(server.ShardOf("mover"), 1 - mover_shard);
  for (auto& fu : backlog) {
    EXPECT_TRUE(fu.get().status.ok());  // the drained backlog all delivered
  }

  // A post-migration submission routes to the new shard and still delivers
  // (determinism across the move is pinned exhaustively in sharding_test).
  auto after = server.TrySubmitInference("mover", f->target.test.x());
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(std::move(after).value().get().status.ok());
  server.Drain();
}

// A submission racing the migration of ITS OWN device parks on the pin and
// completes after the move — never lost, never crashed, routed to wherever
// the device landed.
TEST(MigrationTest, SubmissionToMigratingDeviceParksAndCompletes) {
  FleetFixture* f = GetFixture();
  ShardedFleetServerOptions sopts;
  sopts.num_shards = 2;
  sopts.shard.num_threads = 1;
  sopts.shard.continual = FastContinualOptions();
  sopts.shard.simulated_device_rtt_ms = 10.0;
  ShardedFleetServer server(*f->base, *f->bf, sopts);
  server.RegisterDevice("mover", f->qcore);
  const int source = server.ShardOf("mover");

  // Backlog so the drain takes long enough for the racing submission to
  // observe the pin.
  std::vector<std::future<InferenceResult>> backlog;
  for (int i = 0; i < 8; ++i) {
    backlog.push_back(server.SubmitInference("mover", f->target.test.x()));
  }
  std::thread migrator([&]() { server.MoveDevice("mover", 1 - source); });
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  // Likely lands mid-drain: must park on the migration pin, then re-route.
  auto racing = server.TrySubmitInference("mover", f->target.test.x());
  migrator.join();
  ASSERT_TRUE(racing.ok());
  EXPECT_TRUE(std::move(racing).value().get().status.ok());
  for (auto& fu : backlog) EXPECT_TRUE(fu.get().status.ok());
  EXPECT_EQ(server.ShardOf("mover"), 1 - source);
  server.Drain();
}

// --------------------------------------------------------- chaos coverage

// Saturate every pool worker (seeded stall after each task pop): all
// futures still resolve, accounting still reconciles exactly, and the
// injector confirms the fault actually fired.
TEST(OverloadChaosTest, PoolSaturationKeepsAccountingExact) {
  FleetFixture* f = GetFixture();
  FaultInjector injector(/*seed=*/41);
  FaultScript stall;
  stall.sticky = true;
  stall.arg = 2000;  // 2ms stall on every pump the pool dispatches
  injector.Arm(FaultPoint::kPoolSaturation, stall);
  injector.Install();

  FleetServerOptions opts;
  opts.num_threads = 2;
  opts.continual = FastContinualOptions();
  opts.max_queue_per_session = 4;
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  // Several devices: each session pump is its own pool task, so the stall
  // hook is hit once per pump, not once for the whole flood.
  constexpr int kDevices = 4;
  for (int d = 0; d < kDevices; ++d) {
    server.RegisterDevice("dev-" + std::to_string(d), f->qcore);
  }

  uint64_t accepted = 0, shed = 0;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 32; ++i) {
    auto r = server.TrySubmitInference("dev-" + std::to_string(i % kDevices),
                                       f->target.test.x());
    if (r.ok()) {
      ++accepted;
      futures.push_back(std::move(r).value());
    } else {
      ++shed;
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    }
  }
  for (auto& fu : futures) EXPECT_TRUE(fu.get().status.ok());
  server.Drain();
  FaultInjector::Uninstall();

  EXPECT_GT(injector.fired(FaultPoint::kPoolSaturation), 0u);
  const ServingCounters totals = server.whiteboard().Read().FleetTotals();
  EXPECT_EQ(totals.accepted_inference, accepted);
  EXPECT_EQ(totals.shed_inference, shed);
  EXPECT_EQ(totals.accepted_inference + totals.shed_inference, 32u);
  EXPECT_EQ(totals.inference_requests, accepted);
}

// Skew the deadline clock forward (hit 1 = the submission's DeadlineFor is
// honest; every later expiry check leaps 10s ahead): the budgeted request
// sheds early, while budget-less requests — whose expiry check
// short-circuits without reading the clock — stay bit-identical to an
// unfaulted run. A latency-only fault, exactly as catalogued.
TEST(OverloadChaosTest, ClockSkewShedsBudgetedWorkOnly) {
  FleetFixture* f = GetFixture();
  std::vector<int> reference;
  {
    FleetServerOptions opts;
    opts.num_threads = 1;
    opts.continual = FastContinualOptions();
    ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
    server.RegisterDevice("dev", f->qcore);
    reference = server.SubmitInference("dev", f->target.test.x())
                    .get().predictions;
  }

  FaultInjector injector(/*seed=*/43);
  FaultScript skew;
  skew.fire_on_hit = 2;  // spare the submission's DeadlineFor read
  skew.sticky = true;
  skew.arg = 10'000'000;  // 10s leap: any sane budget is instantly expired
  injector.Arm(FaultPoint::kDeadlineClockSkew, skew);
  injector.Install();

  FleetServerOptions opts;
  opts.num_threads = 1;
  opts.continual = FastContinualOptions();
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("dev", f->qcore);
  InferenceSubmitOptions budgeted;
  budgeted.latency_budget_us = 1'000'000.0;  // a generous 1s budget
  auto doomed =
      server.TrySubmitInference("dev", f->target.test.x(), budgeted);
  ASSERT_TRUE(doomed.ok());
  const InferenceResult shed = std::move(doomed).value().get();
  EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);

  // Budget-less traffic never consults the skewed clock and delivers the
  // exact unfaulted bits.
  const InferenceResult ok =
      server.SubmitInference("dev", f->target.test.x()).get();
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.predictions, reference);
  server.Drain();
  FaultInjector::Uninstall();
  EXPECT_GT(injector.fired(FaultPoint::kDeadlineClockSkew), 0u);
  EXPECT_EQ(server.whiteboard().Read().FleetTotals().shed_deadline, 1u);
}

// A spurious fleet-level refusal (capacity exists, the limiter lies) must
// look to callers exactly like a real shed: kResourceExhausted, counted as
// a limiter shed, and the very next submission admitted.
TEST(OverloadChaosTest, SpuriousLimiterRefusalShedsCleanly) {
  FleetFixture* f = GetFixture();
  FaultInjector injector(/*seed=*/47);
  FaultScript refuse;
  refuse.fire_on_hit = 1;  // one-shot: refuse the first fleet check only
  injector.Arm(FaultPoint::kLimiterRefuse, refuse);
  injector.Install();

  FleetServerOptions opts;
  opts.num_threads = 1;
  opts.continual = FastContinualOptions();
  // NO bounds set.
  ShardedFleetServer server(*f->base, *f->bf, OneShard(opts));
  server.RegisterDevice("dev", f->qcore);

  auto refused = server.TrySubmitInference("dev", f->target.test.x());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("fleet level"),
            std::string::npos);
  auto admitted = server.TrySubmitInference("dev", f->target.test.x());
  ASSERT_TRUE(admitted.ok());
  EXPECT_TRUE(std::move(admitted).value().get().status.ok());
  server.Drain();
  FaultInjector::Uninstall();

  EXPECT_EQ(injector.fired(FaultPoint::kLimiterRefuse), 1u);
  const ServingCounters totals = server.whiteboard().Read().FleetTotals();
  EXPECT_EQ(totals.shed_inference, 1u);
  EXPECT_EQ(totals.shed_limiter, 1u);
  EXPECT_EQ(totals.shed_queue_full, 0u);
  EXPECT_EQ(totals.accepted_inference, 1u);
}

}  // namespace
}  // namespace qcore
