#include "serving/session.h"

#include <utility>

#include "common/serialize.h"
#include "nn/training.h"
#include "tensor/tensor_ops.h"

namespace qcore {

CalibrationSession::CalibrationSession(std::string device_id,
                                       const QuantizedModel& base_model,
                                       const BitFlipNet& base_bf,
                                       Dataset qcore,
                                       const ContinualOptions& options,
                                       uint64_t seed)
    : device_id_(std::move(device_id)),
      options_(options),
      model_(base_model.Clone()),
      bitflip_(options_.use_bitflip ? &base_bf : nullptr),
      rng_(seed) {
  BuildDriver(std::move(qcore));
}

CalibrationSession::CalibrationSession(std::string device_id,
                                       const QuantizedModel& base_model,
                                       const BitFlipNet& base_bf,
                                       const ContinualOptions& options,
                                       const ModelSnapshot& snapshot,
                                       BinaryReader* continuation)
    : device_id_(std::move(device_id)),
      options_(options),
      model_(base_model.Clone()),
      bitflip_(options_.use_bitflip ? &base_bf : nullptr),
      rng_(0) {  // placeholder; the restored state below replaces it
  QCORE_CHECK(continuation != nullptr);
  const Status restored = SnapshotRegistry::RestoreInto(snapshot, model_.get());
  QCORE_CHECK_MSG(restored.ok(), "session restore: bad model snapshot");

  auto batches = continuation->ReadU64();
  QCORE_CHECK_MSG(batches.ok(), "session restore: truncated continuation");
  batches_processed_ = batches.value();
  Rng::State state;
  for (uint64_t& word : state.s) {
    auto s = continuation->ReadU64();
    QCORE_CHECK_MSG(s.ok(), "session restore: truncated Rng state");
    word = s.value();
  }
  auto has_cached = continuation->ReadU32();
  auto cached = continuation->ReadF64();
  QCORE_CHECK_MSG(has_cached.ok() && cached.ok(),
                  "session restore: truncated Rng state");
  state.has_cached_gaussian = has_cached.value() != 0;
  state.cached_gaussian = cached.value();
  rng_.RestoreState(state);

  auto qcore = Dataset::DeserializeFrom(continuation);
  QCORE_CHECK_MSG(qcore.ok(), "session restore: bad QCore record");
  BuildDriver(std::move(qcore).value());
}

void CalibrationSession::BuildDriver(Dataset qcore) {
  driver_ = std::make_unique<ContinualDriver>(model_.get(), bitflip_,
                                              std::move(qcore), options_,
                                              &rng_);
}

void CalibrationSession::SerializeContinuation(BinaryWriter* w) const {
  w->WriteU64(batches_processed_);
  const Rng::State state = rng_.SaveState();
  for (uint64_t word : state.s) w->WriteU64(word);
  w->WriteU32(state.has_cached_gaussian ? 1 : 0);
  w->WriteF64(state.cached_gaussian);
  driver_->qcore().SerializeTo(w);
}

std::vector<int> CalibrationSession::Predict(const Tensor& x) {
  Tensor logits = model_->Forward(x, /*training=*/false);
  return ArgMaxRows(logits);
}

std::vector<std::vector<int>> CalibrationSession::PredictBatch(
    const std::vector<const Tensor*>& inputs) {
  return model_->PredictBatched(inputs);
}

BatchStats CalibrationSession::Calibrate(const Dataset& batch,
                                         const Dataset& test_slice) {
  BatchStats stats = driver_->ProcessBatch(batch, test_slice);
  ++batches_processed_;
  return stats;
}

float CalibrationSession::Evaluate(const Tensor& x,
                                   const std::vector<int>& labels) {
  return EvaluateAccuracy(model_->model(), x, labels);
}

uint64_t DeviceSeed(uint64_t fleet_seed, const std::string& device_id) {
  uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  for (unsigned char c : device_id) {
    h ^= c;
    h *= 1099511628211ULL;  // FNV prime
  }
  // Full-avalanche mix so fleet seeds differing in any single bit give
  // unrelated per-device streams. Any value (including 0) is a valid Rng
  // seed; Rng's constructor handles state expansion.
  return SplitMix64Mix(h ^ fleet_seed);
}

}  // namespace qcore
