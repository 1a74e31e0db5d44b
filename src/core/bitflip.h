// The bit-flipping network (paper Sec. 3.3): a compact auxiliary model that
// replaces back-propagation for on-edge calibration. It is trained
// server-side (Algorithm 2) by observing, during STE calibration of the main
// quantized model, the relationship between per-parameter activation
// features (delta-a) and the integer code delta the BP step actually applied
// (clipped to {-1, 0, +1}). On the edge (Algorithm 3) it runs inference only:
// features are computed from the current forward pass and predicted deltas
// are applied directly to the quantized codes, one round per
// BitFlipIteration call; ContinualDriver (core/continual.h) runs the
// rounds. The features read each quantized layer's input over the
// calibration rows, which the pass opening each round (TrialForward under
// the frozen-training formula) keeps; the two-argument
// ComputeBitFlipFeatures (Alg. 2's STE observer) and
// BitFlipIterationFromCaches read it from the layers' training-mode caches
// instead.
#ifndef QCORE_CORE_BITFLIP_H_
#define QCORE_CORE_BITFLIP_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "nn/composite.h"
#include "nn/incremental_forward.h"
#include "nn/training.h"
#include "quant/quantized_model.h"
#include "quant/ste_calibrator.h"

namespace qcore {

// Per-parameter feature vector (Sec. 3.3.2): the activation difference
// delta-a = (w * a_mean - a_mean), the normalized input activation mean and
// spread, the current integer code (normalized by qmax), the weighted
// activation, and the activation magnitude.
inline constexpr int kBitFlipFeatureDim = 6;

// A layer's input over a set of rows, as contiguous row slices in row
// order (TrialForward::Inputs).
using RowSlices = std::vector<const Tensor*>;

// Computes the [num_elements, kBitFlipFeatureDim] feature matrix for one
// quantized tensor from its owner layer's input over the calibration rows.
// The activation statistics visit the rows in order, slice after slice, so
// the features do not depend on how the rows are sliced. If
// `code_override` is non-null it supplies the codes to featurize (used
// during supervision collection, where features must reflect the
// pre-update weights).
Tensor ComputeBitFlipFeatures(const QuantizedModel::QuantizedTensor& qt,
                              const RowSlices& input,
                              const std::vector<int32_t>* code_override);

// The same over the input the owner layer cached in the last training-mode
// forward pass, which it must hold (Alg. 2's STE steps leave one).
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

  // Deep copy (weights and, if quantized, the code tables).
  BitFlipNet Clone() const;

  // Trains the full-precision form on features [M, kBitFlipFeatureDim] with
  // labels in {0, 1, 2} (= delta + 1). Returns final epoch loss.
  float Train(const Tensor& features, const std::vector<int>& labels,
              const TrainOptions& options, Rng* rng);

  // Quantizes the net at bits() for edge deployment; subsequent Predict
  // calls run the quantized form (inference only).
  void Quantize();

  // Predicted code delta in {-1, 0, +1} and the softmax confidence of that
  // prediction, per feature row. An eval-mode forward, which writes no layer
  // state, so threads may predict with one net at once: the serving
  // sessions of a fleet share their server's net.
  void Predict(const Tensor& features, std::vector<int>* deltas,
               std::vector<float>* confidences) const;

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
// only the layers downstream of that tensor (nn/incremental_forward), with
// the trial rows split over the kernel threads of the budget
// (gemm_threads()) that are free when the round starts
// (FreeParallelThreads); the loss is bit-identical to a single-thread full
// forward's whatever the split. These options shape one round
// (BitFlipIteration); the loop of E rounds per stream batch is
// ContinualDriver::ProcessBatch's (core/continual.h), and E is
// ContinualOptions::iterations.
struct BitFlipCalibrateOptions {
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
  // is scaled to roughly a 4-bit-equivalent magnitude. A deviation (README,
  // "Deviations from the paper"): the paper fixes updates to one unit at
  // every bit-width.
  static int StepFor(const QuantParams& qp) {
    return std::max(1, (qp.qmax + 3) / 7);
  }
};

// The plan (nn/incremental_forward) over a set of rows, on `threads` kernel
// threads (a round passes the count free when it starts): the rows are cut
// into min(threads, rows) contiguous slices, each with its own walker, and an
// evaluation runs the slices through ParallelFor with the caller taking
// part (GEMMs inside a slice stay narrow; a worker set that became busy
// runs the slices in turn). Started while the worker set is busy, or while
// serving-pool workers hold every CPU, it is one slice: splitting it would
// only take CPUs from other sessions. The GEMMs helper threads run are
// credited to the caller's counters (kernels::ThreadGemmDispatchCounters),
// as if it had run them all. It runs both forwards of a calibration round:
// the pass over the update pool that opens it (frozen-training formula;
// its logits feed Alg. 4's miss tracker and its owners' inputs Alg. 3's
// features) and the validation of each flip proposal (eval formula, rerun
// incrementally downstream of the changed tensor).
//
// Exact: rows are independent (conv lowers per sample, BatchNorm and
// pooling work per row) and every GEMM element keeps its ascending-k chain
// whatever the row count, so a slice's logits are those rows of the full
// forward bit for bit, and their concatenation in row order is the full
// forward's logits. One slice is the single walker itself.
class TrialForward {
 public:
  // `root` and `x` must outlive this object; `owners` are the mutable
  // leaves (IncrementalForward).
  TrialForward(Layer* root, const Tensor& x, const std::vector<Layer*>& owners,
               int threads,
               IncrementalForward::Formula formula =
                   IncrementalForward::Formula::kEval);
  // The walkers hold references into slice_x_.
  TrialForward(const TrialForward&) = delete;
  TrialForward& operator=(const TrialForward&) = delete;

  void MarkDirty(Layer* leaf);

  // The logits of every row, in row order. Valid until the next call.
  const Tensor& Evaluate();

  // The input `owner` saw in the last Evaluate(), one tensor per slice in
  // row order (IncrementalForward::Input). Valid until the next call.
  RowSlices Inputs(const Layer* owner) const;

 private:
  std::vector<Tensor> slice_x_;  // each walker's rows, when there are several
  std::vector<IncrementalForward> walkers_;
  Tensor logits_;
};

// Applies one flip round. `owner_inputs[t]` is quantized tensor t's owner
// layer's input over the rows of x under the current codes, as row slices
// (the pass that opens the round keeps it); the round runs on `threads`
// kernel threads. Proposals are validated against (x, labels), or a
// per-round sample of trial_rows of its rows; returns the cross-entropy of
// the resulting model on those rows. `rng` drives the sample and the
// exploration proposals.
//
// The round scores every tensor up front (ComputeBitFlipFeatures, then
// bf->Predict), one task per tensor on the threads, and then runs each
// tensor's trials in turn on the same threads (TrialForward). Scoring
// first is exact: a tensor's features read only its own codes, which only
// its own trials change, and its owner's input under the codes the round
// started with; scoring draws nothing from `rng`. The GEMMs helper threads
// run are credited to the caller's counters.
float BitFlipIteration(QuantizedModel* qm, const BitFlipNet* bf,
                       const std::vector<RowSlices>& owner_inputs,
                       const Tensor& x, const std::vector<int>& labels,
                       const BitFlipCalibrateOptions& options, int threads,
                       Rng* rng);

// BitFlipIteration with the owner inputs the most recent training-mode
// forward pass of qm->model() cached, on the kernel threads of the budget
// (gemm_threads()) free when it starts (FreeParallelThreads).
float BitFlipIterationFromCaches(QuantizedModel* qm, const BitFlipNet* bf,
                                 const Tensor& x,
                                 const std::vector<int>& labels,
                                 const BitFlipCalibrateOptions& options,
                                 Rng* rng);

}  // namespace qcore

#endif  // QCORE_CORE_BITFLIP_H_
