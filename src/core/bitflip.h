// The bit-flipping network (paper Sec. 3.3): a compact auxiliary model that
// replaces back-propagation for on-edge calibration. It is trained
// server-side (Algorithm 2) by observing, during STE calibration of the main
// quantized model, the relationship between per-parameter activation
// features (delta-a) and the integer code delta the BP step actually applied
// (clipped to {-1, 0, +1}). On the edge (Algorithm 3) it runs inference only:
// features are computed from the current forward pass and predicted deltas
// are applied directly to the quantized codes.
#ifndef QCORE_CORE_BITFLIP_H_
#define QCORE_CORE_BITFLIP_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "nn/composite.h"
#include "nn/training.h"
#include "quant/quantized_model.h"
#include "quant/ste_calibrator.h"

namespace qcore {

// Per-parameter feature vector (Sec. 3.3.2): the activation difference
// delta-a = (w * a_mean - a_mean), the normalized input activation mean and
// spread, the current integer code (normalized by qmax), the weighted
// activation, and the activation magnitude.
inline constexpr int kBitFlipFeatureDim = 6;

// Computes the [num_elements, kBitFlipFeatureDim] feature matrix for one
// quantized tensor. Requires the owner layer to hold a cached input from a
// training-mode forward pass. If `code_override` is non-null it supplies the
// codes to featurize (used during supervision collection, where features
// must reflect the pre-update weights).
Tensor ComputeBitFlipFeatures(const QuantizedModel::QuantizedTensor& qt,
                              const std::vector<int32_t>* code_override);

// The auxiliary network itself: Conv1d over the feature vector + dense head
// with 3 outputs (delta in {-1, 0, +1}). Kept deliberately tiny (~100
// parameters) and quantized at the same bit-width as the main model.
class BitFlipNet {
 public:
  BitFlipNet(int bits, Rng* rng);

  BitFlipNet(const BitFlipNet&) = delete;
  BitFlipNet& operator=(const BitFlipNet&) = delete;
  BitFlipNet(BitFlipNet&&) = default;
  BitFlipNet& operator=(BitFlipNet&&) = default;

  int bits() const { return bits_; }
  bool is_quantized() const { return quantized_ != nullptr; }
  int64_t ParamCount();

  // Deep copy (weights and, if quantized, the code tables). Each serving
  // session owns its own copy because Predict's forward pass mutates layer
  // caches — a shared net would race across pool workers.
  BitFlipNet Clone() const;

  // Trains the full-precision form on features [M, kBitFlipFeatureDim] with
  // labels in {0, 1, 2} (= delta + 1). Returns final epoch loss.
  float Train(const Tensor& features, const std::vector<int>& labels,
              const TrainOptions& options, Rng* rng);

  // Quantizes the net at bits() for edge deployment; subsequent Predict
  // calls run the quantized form (inference only).
  void Quantize();

  // Predicted code delta in {-1, 0, +1} and the softmax confidence of that
  // prediction, per feature row.
  void Predict(const Tensor& features, std::vector<int>* deltas,
               std::vector<float>* confidences);

 private:
  BitFlipNet() = default;

  int bits_ = 0;
  std::unique_ptr<Sequential> float_net_;
  std::unique_ptr<QuantizedModel> quantized_;
};

// Algorithm 2: runs STE calibration of `qm` on the QCore while recording
// (feature, code-delta) pairs, then trains and quantizes a BitFlipNet.
struct BitFlipTrainOptions {
  SteOptions ste;                    // supervision-generating calibration
  int max_samples_per_step = 2000;   // feature rows kept per BP step
  float zero_keep_ratio = 2.0f;      // cap on "no change" rows vs flips
  // Extra supervision episodes: fresh copies of the *pre-calibration*
  // quantized model are calibrated on domain-augmented views of the QCore
  // (per-channel gain/bias jitter), so the network observes how BP repairs a
  // model whose input distribution has shifted — the situation it will face
  // on the edge. Episode 0 is always the real (clean) initial calibration.
  int augment_episodes = 3;
  float augment_strength = 1.0f;
  TrainOptions bf_train = {
      .epochs = 15,
      .batch_size = 128,
      .sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f},
      .on_epoch = nullptr};
};

BitFlipNet TrainBitFlipNet(QuantizedModel* qm, const Dataset& qcore,
                           const BitFlipTrainOptions& options, Rng* rng);

// Algorithm 3: inference-only calibration of the deployed model. Each
// per-tensor flip proposal from the bit-flipping network is validated with a
// forward pass over the calibration data (QCore ∪ stream batch, whose labels
// are available per Sec. 2.1.3) and reverted if it does not reduce the
// cross-entropy — "the process undergoes few iterations to ensure model
// stability" (Sec. 3.3.3). Everything here is inference; no gradients are
// ever computed. A proposal edits one tensor, so its validation pass reruns
// only the layers downstream of that tensor (nn/incremental_forward); the
// loss is bit-identical to a full forward's.
struct BitFlipCalibrateOptions {
  int iterations = 3;                 // E in Algorithm 3 (converges fast)
  float confidence_threshold = 0.5f;  // only act on confident predictions
  float max_flip_fraction = 0.3f;     // per-tensor cap per iteration
  // BF candidates are applied in at most this many chunks per tensor, each
  // validated (and possibly reverted) independently — finer acceptance
  // granularity finds improving moves a monolithic proposal misses.
  int proposal_chunks = 2;
  // Additional random-exploration chunks per tensor (random elements with
  // random ±1), which keep calibration progressing where the BF net is
  // uninformative. Set 0 to use pure BF proposals.
  int explore_chunks = 2;
  int explore_chunk_size = 32;
  // Proposals are validated on at most this many calibration rows (sampled
  // per round); 0 = always the full pool. Subsampling saves time but lets
  // accepted flips drift away from the full-pool optimum, so the cap should
  // cover most of the pool (QCore 30 + stream batch).
  int trial_rows = 64;

  // Step applied per predicted flip direction. A single code step at fine
  // precisions (1/127 of the range at 8 bits) moves the loss by less than
  // the acceptance test can resolve, so the ternary {-1,0,+1} *direction*
  // is scaled to roughly a 4-bit-equivalent magnitude. Documented deviation
  // (DESIGN.md): the paper fixes updates to one unit at every bit-width.
  static int StepFor(const QuantParams& qp) {
    return std::max(1, (qp.qmax + 3) / 7);
  }
};

// Applies one flip round using the activation caches left by the most recent
// training-mode forward pass of qm->model(). Proposals are validated against
// (x, labels), or a per-round sample of trial_rows of its rows; returns the
// cross-entropy of the resulting model on those rows. `rng` drives the
// sample and the exploration proposals.
float BitFlipIterationFromCaches(QuantizedModel* qm, BitFlipNet* bf,
                                 const Tensor& x,
                                 const std::vector<int>& labels,
                                 const BitFlipCalibrateOptions& options,
                                 Rng* rng);

// Full loop: for each iteration, forwards `x` (training mode, BatchNorm
// frozen) to populate caches, then proposes and validates flips.
void BitFlipCalibrate(QuantizedModel* qm, BitFlipNet* bf, const Tensor& x,
                      const std::vector<int>& labels,
                      const BitFlipCalibrateOptions& options, Rng* rng);

}  // namespace qcore

#endif  // QCORE_CORE_BITFLIP_H_
