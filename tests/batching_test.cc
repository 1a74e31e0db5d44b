// Tests for cross-device inference batching: the batched path must be
// bit-identical to the unbatched request-at-a-time path — same per-request
// predictions (in the same per-device delivery order) and same final model
// codes — across batch sizes, thread counts, and shard counts (each shard
// has its own batcher). Also covers the flush triggers: size (max_batch),
// deadline (max_delay_us), explicit barriers (calibration/snapshot/drain),
// and the degenerate single-request batch.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "serving/router.h"
#include "serving/server.h"
#include "tensor/tensor_ops.h"
#include "tests/fleet_fixture.h"

namespace qcore {
namespace {

FleetFixture* GetFixture() {
  static FleetFixture* fixture = MakeFleetFixture(20250601, 404, 8);
  return fixture;
}

ContinualOptions TestContinualOptions() {
  ContinualOptions opts;
  opts.iterations = 2;
  return opts;
}

// -------------------------------------------- model-level batched forward

TEST(PredictBatchedTest, BitIdenticalToPerInputForward) {
  FleetFixture* f = GetFixture();
  auto model = f->base->Clone();
  // Inputs of different row counts, including a full batch and single rows.
  std::vector<Tensor> inputs;
  inputs.push_back(f->target.test.x());
  inputs.push_back(f->probes[0]);
  inputs.push_back(f->target.test.x().SliceRows(2, 7));
  inputs.push_back(f->probes[3]);

  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : inputs) ptrs.push_back(&t);
  const std::vector<std::vector<int>> batched = model->PredictBatched(ptrs);

  ASSERT_EQ(batched.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::vector<int> alone =
        ArgMaxRows(model->Forward(inputs[i], /*training=*/false));
    EXPECT_EQ(batched[i], alone) << "input " << i;
  }
}

// ------------------------------------------------- server-level workloads

struct WorkloadResult {
  // Per device, predictions of every inference request in submission order.
  std::vector<std::vector<std::vector<int>>> predictions;
  std::vector<std::vector<std::vector<int32_t>>> codes;
};

FleetServerOptions BatchedOptions(int threads, int max_batch,
                                  double max_delay_us) {
  FleetServerOptions opts;
  opts.num_threads = threads;
  opts.continual = TestContinualOptions();
  opts.seed = 0x5EED;
  opts.enable_batching = max_batch > 0;
  opts.batching.max_batch = max_batch > 0 ? max_batch : 1;
  opts.batching.max_delay_us = max_delay_us;
  return opts;
}

// Interleaved workload: per stream batch and device, a burst of distinct
// inference probes, one calibration step, one more probe. Exercises
// size-trigger flushes (bursts), barrier flushes (calibration), and the
// drain flush (trailing probes).
WorkloadResult RunWorkload(const FleetServerOptions& opts,
                           int num_shards = 1) {
  FleetFixture* f = GetFixture();
  const std::vector<std::string> devices = {"dev-a", "dev-b"};
  ShardedFleetServerOptions sopts;
  sopts.num_shards = num_shards;
  sopts.shard = opts;
  ShardedFleetServer server(*f->base, *f->bf, sopts);
  for (const auto& d : devices) server.RegisterDevice(d, f->qcore);

  std::vector<std::vector<std::future<InferenceResult>>> futures(
      devices.size());
  for (size_t b = 0; b < f->batches.size(); ++b) {
    for (size_t d = 0; d < devices.size(); ++d) {
      for (size_t p = 0; p < 3; ++p) {
        futures[d].push_back(server.SubmitInference(
            devices[d], f->probes[(b + d + p) % f->probes.size()]));
      }
      server.SubmitCalibration(devices[d], f->batches[b], f->slices[b]);
      futures[d].push_back(server.SubmitInference(
          devices[d], f->probes[(b + d) % f->probes.size()]));
    }
  }
  server.Drain();

  WorkloadResult result;
  for (size_t d = 0; d < devices.size(); ++d) {
    result.predictions.emplace_back();
    for (auto& fu : futures[d]) {
      result.predictions.back().push_back(fu.get().predictions);
    }
    server.WithSessionQuiesced(devices[d], [&](CalibrationSession& s) {
      result.codes.push_back(s.model()->AllCodes());
    });
  }
  return result;
}

TEST(InferenceBatchingTest, BitIdenticalAcrossBatchSizesAndThreadCounts) {
  // Reference: unbatched, inline execution (the single-threaded pipeline
  // equivalence is already covered by serving_test).
  const WorkloadResult reference = RunWorkload(BatchedOptions(0, 0, 0.0));
  ASSERT_FALSE(reference.predictions[0].empty());

  for (int max_batch : {2, 4, 8}) {
    for (int threads : {1, 8}) {
      const WorkloadResult batched =
          RunWorkload(BatchedOptions(threads, max_batch, 0.0));
      EXPECT_EQ(batched.predictions, reference.predictions)
          << "max_batch=" << max_batch << " threads=" << threads;
      EXPECT_EQ(batched.codes, reference.codes)
          << "max_batch=" << max_batch << " threads=" << threads;
    }
  }
}

TEST(InferenceBatchingTest, ShardedBatchersStayBitIdentical) {
  // Per-shard batchers must not change anything either: the same workload
  // through the sharded router (batched, multi-threaded shards) equals the
  // unbatched inline reference.
  const WorkloadResult reference = RunWorkload(BatchedOptions(0, 0, 0.0));
  for (int num_shards : {2, 3}) {
    const WorkloadResult sharded =
        RunWorkload(BatchedOptions(2, 4, 0.0), num_shards);
    EXPECT_EQ(sharded.predictions, reference.predictions)
        << "num_shards=" << num_shards;
    EXPECT_EQ(sharded.codes, reference.codes)
        << "num_shards=" << num_shards;
  }
}

TEST(InferenceBatchingTest, DeadlineFlushTimingDoesNotChangeResults) {
  // A live deadline makes flush points timing-dependent; results must not
  // be. 200us deadline with a multi-threaded pool races the flusher
  // against barriers on purpose.
  const WorkloadResult reference = RunWorkload(BatchedOptions(0, 0, 0.0));
  const WorkloadResult batched = RunWorkload(BatchedOptions(2, 4, 200.0));
  EXPECT_EQ(batched.predictions, reference.predictions);
  EXPECT_EQ(batched.codes, reference.codes);
}

TEST(InferenceBatchingTest, DegenerateSingleRequestBatches) {
  // max_batch=1: every request flushes by itself through the batched
  // machinery; must equal the unbatched path and record occupancy-1
  // batches only.
  FleetFixture* f = GetFixture();
  ShardedFleetServer server(*f->base, *f->bf,
                            OneShard(BatchedOptions(2, 1, 0.0)));
  server.RegisterDevice("dev", f->qcore);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(server.SubmitInference("dev", f->probes[i]));
  }
  server.Drain();
  auto single_model = f->base->Clone();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(futures[i].get().predictions,
              ArgMaxRows(single_model->Forward(f->probes[i], false)));
  }
  EXPECT_EQ(server.metrics().batch_occupancy().CountAt(1), 5u);
  EXPECT_EQ(server.metrics().batch_occupancy().CountAtLeast(2), 0u);
}

TEST(InferenceBatchingTest, SizeTriggerFlushesWithoutDrain) {
  FleetFixture* f = GetFixture();
  // No deadline, no barrier: only the size trigger can flush.
  ShardedFleetServer server(*f->base, *f->bf,
                            OneShard(BatchedOptions(2, 3, 0.0)));
  server.RegisterDevice("dev", f->qcore);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.SubmitInference("dev", f->probes[i]));
  }
  for (auto& fu : futures) {
    ASSERT_EQ(fu.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
  }
  EXPECT_EQ(server.metrics().batch_occupancy().CountAt(3), 1u);

  // Two stragglers stay pending (below max_batch, nothing to flush them)…
  auto s1 = server.SubmitInference("dev", f->probes[3]);
  auto s2 = server.SubmitInference("dev", f->probes[4]);
  EXPECT_EQ(s1.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  // …until Drain acts as the barrier.
  server.Drain();
  EXPECT_EQ(s1.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(s2.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(server.metrics().batch_occupancy().CountAt(2), 1u);
}

TEST(InferenceBatchingTest, DeadlineFlushResolvesASubMaxBatch) {
  FleetFixture* f = GetFixture();
  // Huge max_batch, 2ms deadline: only the flusher thread can resolve it.
  ShardedFleetServer server(*f->base, *f->bf,
                            OneShard(BatchedOptions(2, 64, 2000.0)));
  server.RegisterDevice("dev", f->qcore);
  auto fu = server.SubmitInference("dev", f->probes[0]);
  ASSERT_EQ(fu.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  auto model = f->base->Clone();
  EXPECT_EQ(fu.get().predictions,
            ArgMaxRows(model->Forward(f->probes[0], false)));
  EXPECT_EQ(server.metrics().batch_occupancy().CountAt(1), 1u);
}

TEST(InferenceBatchingTest, CalibrationBarrierPreservesModelVisibility) {
  FleetFixture* f = GetFixture();
  // No deadline: the inference submitted before calibration must be
  // flushed BY the calibration barrier and see the pre-calibration model.
  ShardedFleetServer server(*f->base, *f->bf,
                            OneShard(BatchedOptions(1, 64, 0.0)));
  server.RegisterDevice("dev", f->qcore);
  auto before = server.SubmitInference("dev", f->probes[0]);
  auto calib = server.SubmitCalibration("dev", f->batches[0], f->slices[0]);
  auto after = server.SubmitInference("dev", f->probes[0]);
  server.Drain();

  auto pre_model = f->base->Clone();
  EXPECT_EQ(before.get().predictions,
            ArgMaxRows(pre_model->Forward(f->probes[0], false)));
  calib.get();
  // The post-calibration prediction must come from the calibrated model.
  std::vector<int> calibrated_prediction;
  server.WithSessionQuiesced("dev", [&](CalibrationSession& s) {
    calibrated_prediction = ArgMaxRows(s.model()->Forward(f->probes[0], false));
  });
  EXPECT_EQ(after.get().predictions, calibrated_prediction);
}

}  // namespace
}  // namespace qcore
