// Per-device calibration session: the unit of state in the fleet serving
// runtime. Each session owns an edge-form QuantizedModel clone, its own QCore
// and its own Rng substream, predicts with the server's shared BitFlipNet
// (the net is frozen on the edge), and applies Algorithm 3+4 (bit-flip
// calibration interleaved with QCore resampling) incrementally as that
// device's stream batches arrive — exactly the loop ContinualDriver runs in
// the single-threaded pipeline, which is what makes per-session results
// bit-identical to the offline pipeline under a fixed seed.
//
// Sessions are NOT internally synchronized. The FleetServer guarantees that
// at most one task (inference or calibration) runs per session at a time;
// anyone driving a session directly must do the same.
#ifndef QCORE_SERVING_SESSION_H_
#define QCORE_SERVING_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/continual.h"
#include "core/bitflip.h"
#include "data/dataset.h"
#include "quant/quantized_model.h"
#include "serving/snapshot.h"

namespace qcore {

class BinaryReader;
class BinaryWriter;

class CalibrationSession {
 public:
  // Clones `base_model` (deployed/edge form) for exclusive ownership and
  // predicts with `base_bf`, which must outlive the session (the server
  // holds it for its lifetime) and may be shared by any number of sessions:
  // BitFlipNet::Predict writes no state. `seed` fixes the session's Rng: two
  // sessions constructed from the same inputs and fed the same batches
  // produce identical models.
  CalibrationSession(std::string device_id, const QuantizedModel& base_model,
                     const BitFlipNet& base_bf, Dataset qcore,
                     const ContinualOptions& options, uint64_t seed);

  // Restore constructor: resumes a session elsewhere (e.g. on another shard)
  // from a published model snapshot plus a continuation blob written by
  // SerializeContinuation. The restored session is bit-identical to the one
  // that was serialized: same model codes (from the snapshot), same QCore
  // contents, same Rng stream position, same batch counter — so the streams
  // it processes next produce exactly the results the original would have.
  // Malformed inputs are programming errors (checked), not statuses: the
  // blob never leaves the process.
  CalibrationSession(std::string device_id, const QuantizedModel& base_model,
                     const BitFlipNet& base_bf,
                     const ContinualOptions& options,
                     const ModelSnapshot& snapshot,
                     BinaryReader* continuation);

  CalibrationSession(const CalibrationSession&) = delete;
  CalibrationSession& operator=(const CalibrationSession&) = delete;

  const std::string& device_id() const { return device_id_; }

  // Quantized inference over a batch [N, ...]; returns per-row argmax
  // labels. Does not consume the session Rng, so interleaving inference
  // requests never perturbs calibration determinism.
  std::vector<int> Predict(const Tensor& x);

  // Coalesced form of Predict: one forward pass over every input's rows,
  // scattered back to one label vector per input (bit-identical to calling
  // Predict per input — see QuantizedModel::PredictBatched). Same no-Rng
  // guarantee as Predict.
  std::vector<std::vector<int>> PredictBatch(
      const std::vector<const Tensor*>& inputs);

  // One continual-calibration step (Algorithms 3+4) on a stream batch,
  // evaluated on `test_slice`. Updates the model codes and resamples the
  // QCore in place.
  BatchStats Calibrate(const Dataset& batch, const Dataset& test_slice);

  // Accuracy of the current model on (x, labels), eval mode.
  float Evaluate(const Tensor& x, const std::vector<int>& labels);

  uint64_t batches_processed() const { return batches_processed_; }
  QuantizedModel* model() { return model_.get(); }
  const QuantizedModel& model() const { return *model_; }
  const Dataset& qcore() const { return driver_->qcore(); }

  // Writes the continuation state that is NOT captured by a model snapshot:
  // the batch counter, the Rng stream position, and the current (resampled)
  // QCore. Together with a snapshot of the model, this is everything a
  // restore constructor needs to continue the session bit-identically. The
  // caller must guarantee the session is quiescent (no task running).
  void SerializeContinuation(BinaryWriter* w) const;

 private:
  void BuildDriver(Dataset qcore);

  std::string device_id_;
  ContinualOptions options_;
  std::unique_ptr<QuantizedModel> model_;
  // The server's net, or null when the continual options do not use
  // bit-flipping (the NoBF ablation).
  const BitFlipNet* bitflip_;
  Rng rng_;
  std::unique_ptr<ContinualDriver> driver_;
  uint64_t batches_processed_ = 0;
};

// Stable 64-bit device-id hash (FNV-1a), mixed with the fleet seed to derive
// per-session Rng seeds that do not depend on registration order.
uint64_t DeviceSeed(uint64_t fleet_seed, const std::string& device_id);

}  // namespace qcore

#endif  // QCORE_SERVING_SESSION_H_
