#include "core/bitflip.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <thread>

#include "nn/conv.h"
#include "nn/incremental_forward.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "runtime/parallel_for.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace qcore {

namespace {

// Mean and standard deviation of the activation per input unit of the layer
// owning `qt`: per input feature for Dense, per input channel for
// convolutions. Also returns the mean absolute activation as a normalizer.
// The sums run over the rows in order, slice after slice.
void InputActivationStats(const QuantizedModel::QuantizedTensor& qt,
                          const RowSlices& input, std::vector<float>* a_mean,
                          std::vector<float>* a_std, float* a_scale) {
  QCORE_CHECK(!input.empty());
  const Tensor& first = *input[0];
  if (qt.param->value.ndim() == 2) {
    // Dense weight [out, in], input [N, in].
    QCORE_CHECK_EQ(first.ndim(), 2);
  } else {
    // Conv weight [F, C, K(, K)], input [N, C, spatial...].
    QCORE_CHECK_GE(first.ndim(), 3);
  }
  const int64_t units = first.dim(1);
  int64_t spatial = 1;
  for (int d = 2; d < first.ndim(); ++d) spatial *= first.dim(d);
  a_mean->assign(static_cast<size_t>(units), 0.0f);
  a_std->assign(static_cast<size_t>(units), 0.0f);
  std::vector<double> sum(static_cast<size_t>(units), 0.0);
  std::vector<double> sum_sq(static_cast<size_t>(units), 0.0);
  int64_t n = 0;
  double abs_sum = 0.0;
  for (const Tensor* slice : input) {
    QCORE_CHECK(slice->ndim() == first.ndim() &&
                slice->size() == slice->dim(0) * units * spatial);
    const float* px = slice->data();
    for (int64_t i = 0; i < slice->dim(0); ++i) {
      for (int64_t u = 0; u < units; ++u) {
        const float* row = px + (i * units + u) * spatial;
        for (int64_t t = 0; t < spatial; ++t) {
          sum[static_cast<size_t>(u)] += row[t];
          sum_sq[static_cast<size_t>(u)] +=
              static_cast<double>(row[t]) * row[t];
          abs_sum += std::fabs(row[t]);
        }
      }
    }
    n += slice->dim(0);
  }
  const double count = static_cast<double>(n * spatial);
  for (int64_t u = 0; u < units; ++u) {
    const double mean = sum[static_cast<size_t>(u)] / count;
    const double var =
        std::max(0.0, sum_sq[static_cast<size_t>(u)] / count - mean * mean);
    (*a_mean)[static_cast<size_t>(u)] = static_cast<float>(mean);
    (*a_std)[static_cast<size_t>(u)] = static_cast<float>(std::sqrt(var));
  }
  const int64_t elements = n * units * spatial;
  *a_scale =
      static_cast<float>(abs_sum / static_cast<double>(elements)) + 1e-6f;
}

// Input unit (feature/channel) of weight element `e`.
int64_t InputUnitOfElement(const Tensor& weight, int64_t e) {
  if (weight.ndim() == 2) {
    return e % weight.dim(1);
  }
  // [F, C, K] or [F, C, K, K]: strip the kernel dims, take the C axis.
  int64_t kernel = 1;
  for (int d = 2; d < weight.ndim(); ++d) kernel *= weight.dim(d);
  return (e / kernel) % weight.dim(1);
}

}  // namespace

Tensor ComputeBitFlipFeatures(const QuantizedModel::QuantizedTensor& qt,
                              const RowSlices& input,
                              const std::vector<int32_t>* code_override) {
  const std::vector<int32_t>& codes =
      code_override != nullptr ? *code_override : qt.codes;
  QCORE_CHECK_EQ(codes.size(), qt.codes.size());

  std::vector<float> a_mean, a_std;
  float a_scale = 1.0f;
  InputActivationStats(qt, input, &a_mean, &a_std, &a_scale);

  const int64_t count = static_cast<int64_t>(codes.size());
  Tensor features({count, kBitFlipFeatureDim});
  float* pf = features.data();
  const float inv_qmax = 1.0f / static_cast<float>(qt.qp.qmax);
  const float inv_scale = 1.0f / a_scale;
  for (int64_t e = 0; e < count; ++e) {
    const int64_t unit = InputUnitOfElement(qt.param->value, e);
    const float am = a_mean[static_cast<size_t>(unit)];
    const float as = a_std[static_cast<size_t>(unit)];
    const float w = DequantizeValue(codes[static_cast<size_t>(e)], qt.qp);
    float* row = pf + e * kBitFlipFeatureDim;
    row[0] = (w * am - am) * inv_scale;         // delta-a (Alg. 2 line 9)
    row[1] = am * inv_scale;                    // normalized activation mean
    row[2] = as * inv_scale;                    // normalized activation spread
    row[3] = static_cast<float>(codes[static_cast<size_t>(e)]) * inv_qmax;
    row[4] = w * am * inv_scale;                // weighted activation
    row[5] = std::fabs(am) * inv_scale;         // activation magnitude
  }
  return features;
}

namespace {

// The input the owner of `qt` cached in the last training-mode forward.
RowSlices CachedInput(const QuantizedModel::QuantizedTensor& qt) {
  const Tensor* input = qt.owner->cached_input();
  QCORE_CHECK_MSG(input != nullptr,
                  "bit-flip features require a training-mode forward pass");
  return {input};
}

}  // namespace

Tensor ComputeBitFlipFeatures(const QuantizedModel::QuantizedTensor& qt,
                              const std::vector<int32_t>* code_override) {
  return ComputeBitFlipFeatures(qt, CachedInput(qt), code_override);
}

// ---------------------------------------------------------------------------
// BitFlipNet
// ---------------------------------------------------------------------------

BitFlipNet::BitFlipNet(int bits, Rng* rng) : bits_(bits) {
  QCORE_CHECK(rng != nullptr);
  QCORE_CHECK_GE(bits, 2);
  float_net_ = std::make_unique<Sequential>();
  // [N, 1, kFeatureDim] -> conv -> [N, 4, kFeatureDim] -> dense head.
  float_net_->Add(std::make_unique<Conv1d>(1, 4, 3, 1, 1, rng));
  float_net_->Add(std::make_unique<Relu>());
  float_net_->Add(std::make_unique<Flatten>());
  float_net_->Add(
      std::make_unique<Dense>(4 * kBitFlipFeatureDim, 3, rng));
}

int64_t BitFlipNet::ParamCount() { return CountParams(float_net_.get()); }

BitFlipNet BitFlipNet::Clone() const {
  BitFlipNet copy;
  copy.bits_ = bits_;
  if (float_net_ != nullptr) {
    copy.float_net_ = std::unique_ptr<Sequential>(
        static_cast<Sequential*>(float_net_->Clone().release()));
  }
  if (quantized_ != nullptr) copy.quantized_ = quantized_->Clone();
  return copy;
}

float BitFlipNet::Train(const Tensor& features, const std::vector<int>& labels,
                        const TrainOptions& options, Rng* rng) {
  QCORE_CHECK_EQ(features.ndim(), 2);
  QCORE_CHECK_EQ(features.dim(1), kBitFlipFeatureDim);
  QCORE_CHECK_MSG(quantized_ == nullptr, "Train after Quantize");
  Tensor x = features.Reshape({features.dim(0), 1, kBitFlipFeatureDim});
  return TrainClassifier(float_net_.get(), x, labels, options, rng);
}

void BitFlipNet::Quantize() {
  QCORE_CHECK_MSG(quantized_ == nullptr, "already quantized");
  quantized_ = std::make_unique<QuantizedModel>(*float_net_, bits_);
  quantized_->DropShadows();  // edge form: inference only
}

void BitFlipNet::Predict(const Tensor& features, std::vector<int>* deltas,
                         std::vector<float>* confidences) const {
  QCORE_CHECK(deltas != nullptr && confidences != nullptr);
  QCORE_CHECK_EQ(features.ndim(), 2);
  QCORE_CHECK_EQ(features.dim(1), kBitFlipFeatureDim);
  Layer* net =
      quantized_ != nullptr ? quantized_->model() : float_net_.get();
  Tensor x = features.Reshape({features.dim(0), 1, kBitFlipFeatureDim});
  Tensor logits = net->Forward(x, /*training=*/false);
  Tensor probs = SoftmaxRows(logits);
  const int64_t n = probs.dim(0);
  deltas->resize(static_cast<size_t>(n));
  confidences->resize(static_cast<size_t>(n));
  const float* pp = probs.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* row = pp + i * 3;
    int best = 0;
    for (int k = 1; k < 3; ++k) {
      if (row[k] > row[best]) best = k;
    }
    (*deltas)[static_cast<size_t>(i)] = best - 1;
    (*confidences)[static_cast<size_t>(i)] = row[best];
  }
}

// ---------------------------------------------------------------------------
// Algorithm 2: supervision collection + training
// ---------------------------------------------------------------------------

BitFlipNet TrainBitFlipNet(QuantizedModel* qm, const Dataset& qcore,
                           const BitFlipTrainOptions& options, Rng* rng) {
  QCORE_CHECK(qm != nullptr && rng != nullptr);
  QCORE_CHECK(!qcore.empty());

  std::vector<std::vector<float>> rows;   // feature rows
  std::vector<int> labels;                // delta + 1

  Rng sample_rng = rng->Split();
  SteStepObserver observer = [&](const SteStepInfo& info) {
    // Features are computed at the *pre-update* codes; the label is the code
    // delta the BP step produced (Alg. 2 lines 9-11).
    for (int t = 0; t < info.model->num_quantized(); ++t) {
      const auto& qt = info.model->quantized(t);
      const std::vector<int32_t>& prev =
          (*info.prev_codes)[static_cast<size_t>(t)];
      Tensor features = ComputeBitFlipFeatures(qt, &prev);
      const int64_t count = features.dim(0);
      // Subsample rows to bound the training set size.
      const int keep = static_cast<int>(std::min<int64_t>(
          count, std::max<int64_t>(
                     1, options.max_samples_per_step /
                            std::max(1, info.model->num_quantized()))));
      std::vector<int> pick = sample_rng.SampleWithoutReplacement(
          static_cast<int>(count), keep);
      const float* pf = features.data();
      for (int e : pick) {
        int delta = qt.codes[static_cast<size_t>(e)] -
                    prev[static_cast<size_t>(e)];
        delta = std::clamp(delta, -1, 1);
        rows.emplace_back(pf + e * kBitFlipFeatureDim,
                          pf + (e + 1) * kBitFlipFeatureDim);
        labels.push_back(delta + 1);
      }
    }
  };

  // Snapshot the pre-calibration state so augmented episodes re-experience
  // the repair of a freshly perturbed model.
  std::unique_ptr<QuantizedModel> snapshot =
      options.augment_episodes > 0 ? qm->Clone() : nullptr;

  // Episode 0: the real initial calibration of the deployed model.
  SteCalibrate(qm, qcore.x(), qcore.labels(), options.ste, rng, observer);

  // Augmented episodes: BP repairing the model under synthetic domain shift.
  for (int ep = 0; ep < options.augment_episodes; ++ep) {
    std::unique_ptr<QuantizedModel> episode_model = snapshot->Clone();
    Dataset shifted = AugmentDomain(qcore, options.augment_strength, rng);
    SteCalibrate(episode_model.get(), shifted.x(), shifted.labels(),
                 options.ste, rng, observer);
  }
  QCORE_CHECK(!rows.empty());

  // Rebalance: "no change" dominates; keep at most zero_keep_ratio x the
  // number of actual flips (but never fewer than the flips themselves).
  std::vector<size_t> zero_rows, flip_rows;
  for (size_t i = 0; i < labels.size(); ++i) {
    (labels[i] == 1 ? zero_rows : flip_rows).push_back(i);
  }
  size_t keep_zeros = static_cast<size_t>(
      options.zero_keep_ratio * static_cast<float>(flip_rows.size()));
  keep_zeros = std::max<size_t>(keep_zeros, 16);
  keep_zeros = std::min(keep_zeros, zero_rows.size());
  std::vector<size_t> selected = flip_rows;
  {
    std::vector<int> pick = sample_rng.SampleWithoutReplacement(
        static_cast<int>(zero_rows.size()), static_cast<int>(keep_zeros));
    for (int p : pick) selected.push_back(zero_rows[static_cast<size_t>(p)]);
  }

  Tensor features({static_cast<int64_t>(selected.size()),
                   kBitFlipFeatureDim});
  std::vector<int> selected_labels(selected.size());
  float* pf = features.data();
  for (size_t i = 0; i < selected.size(); ++i) {
    const std::vector<float>& row = rows[selected[i]];
    std::copy(row.begin(), row.end(), pf + i * kBitFlipFeatureDim);
    selected_labels[i] = labels[selected[i]];
  }

  BitFlipNet bf(qm->bits(), rng);
  bf.Train(features, selected_labels, options.bf_train, rng);
  bf.Quantize();
  return bf;
}

// ---------------------------------------------------------------------------
// Algorithm 3: inference-only calibration
// ---------------------------------------------------------------------------

namespace {

// ParallelFor(n, threads, body) that also credits the GEMMs and lowerings
// helper threads ran in it to the caller. The GEMM counters are per
// thread, so the caller's before/after delta then counts the whole region,
// whichever threads ran its tasks.
void ParallelForCreditingCaller(int64_t n, int threads,
                                const std::function<void(int64_t)>& body) {
  std::vector<kernels::GemmDispatchCounters> helper_work(
      static_cast<size_t>(n));
  const auto caller = std::this_thread::get_id();
  ParallelFor(n, threads, [&](int64_t i) {
    const kernels::GemmDispatchCounters before =
        kernels::ThreadGemmDispatchCounters();
    body(i);
    if (std::this_thread::get_id() != caller) {
      helper_work[static_cast<size_t>(i)] =
          kernels::ThreadGemmDispatchCounters() - before;
    }
  });
  for (const kernels::GemmDispatchCounters& work : helper_work) {
    kernels::CreditGemmDispatch(work);
  }
}

// The bit-flip net's prediction for each element of one tensor.
struct TensorScores {
  std::vector<int> deltas;
  std::vector<float> confidences;
};

}  // namespace

TrialForward::TrialForward(Layer* root, const Tensor& x,
                           const std::vector<Layer*>& owners, int threads,
                           IncrementalForward::Formula formula) {
  const int64_t rows = x.dim(0);
  const int64_t slices = std::min<int64_t>(threads, rows);
  // Reserved, so the walkers' references into slice_x_ stay valid.
  slice_x_.reserve(static_cast<size_t>(slices));
  walkers_.reserve(static_cast<size_t>(slices));
  for (int64_t s = 0; s < slices; ++s) {
    if (slices > 1) {
      slice_x_.push_back(
          x.SliceRows(s * rows / slices, (s + 1) * rows / slices));
    }
    walkers_.emplace_back(root, slices > 1 ? slice_x_.back() : x, owners,
                          formula);
  }
}

void TrialForward::MarkDirty(Layer* leaf) {
  for (IncrementalForward& walker : walkers_) walker.MarkDirty(leaf);
}

const Tensor& TrialForward::Evaluate() {
  const int64_t slices = static_cast<int64_t>(walkers_.size());
  std::vector<const Tensor*> parts(walkers_.size());
  ParallelForCreditingCaller(slices, static_cast<int>(slices),
                             [&](int64_t s) {
                               const size_t i = static_cast<size_t>(s);
                               parts[i] = &walkers_[i].Evaluate();
                             });
  if (slices == 1) return *parts[0];
  logits_ = ConcatRows(parts);
  return logits_;
}

RowSlices TrialForward::Inputs(const Layer* owner) const {
  RowSlices inputs;
  inputs.reserve(walkers_.size());
  for (const IncrementalForward& walker : walkers_) {
    inputs.push_back(&walker.Input(owner));
  }
  return inputs;
}

float BitFlipIteration(QuantizedModel* qm, const BitFlipNet* bf,
                       const std::vector<RowSlices>& owner_inputs,
                       const Tensor& x, const std::vector<int>& labels,
                       const BitFlipCalibrateOptions& options, int threads,
                       Rng* rng) {
  QCORE_CHECK(qm != nullptr && bf != nullptr && rng != nullptr);
  Rng& explore_rng = *rng;
  const int num_tensors = qm->num_quantized();
  QCORE_CHECK_EQ(owner_inputs.size(), static_cast<size_t>(num_tensors));

  // Every tensor is scored before the first trial, one task per tensor on
  // the threads. Exact: a tensor's features read its own codes, which only
  // its own trials change, and its owner's input under the codes the round
  // started with; scoring draws no randomness.
  std::vector<TensorScores> scores(static_cast<size_t>(num_tensors));
  ParallelForCreditingCaller(num_tensors, threads, [&](int64_t t) {
    const size_t i = static_cast<size_t>(t);
    bf->Predict(ComputeBitFlipFeatures(qm->quantized(static_cast<int>(t)),
                                       owner_inputs[i], nullptr),
                &scores[i].deltas, &scores[i].confidences);
  });

  // Bound the trial-evaluation cost: validate proposals on a per-round
  // subsample of the calibration rows, or else on the caller's rows.
  const Tensor* eval_x = &x;
  const std::vector<int>* eval_labels = &labels;
  Tensor sample_x;
  std::vector<int> sample_labels;
  if (options.trial_rows > 0 &&
      x.dim(0) > static_cast<int64_t>(options.trial_rows)) {
    const std::vector<int> pick = explore_rng.SampleWithoutReplacement(
        static_cast<int>(x.dim(0)), options.trial_rows);
    sample_x = x.GatherRows(pick);
    sample_labels.reserve(pick.size());
    for (int row : pick) {
      sample_labels.push_back(labels[static_cast<size_t>(row)]);
    }
    eval_x = &sample_x;
    eval_labels = &sample_labels;
  }

  // A proposal edits one tensor's codes, so each trial reruns only the
  // layers downstream of that tensor's owner (nn/incremental_forward), on
  // the free kernel threads (TrialForward).
  std::vector<Layer*> owners;
  for (int t = 0; t < num_tensors; ++t) {
    owners.push_back(qm->quantized(t).owner);
  }
  TrialForward trials(qm->model(), *eval_x, owners, threads);
  SoftmaxCrossEntropy ce;
  float current_loss = ce.Forward(trials.Evaluate(), *eval_labels);

  // Applies one proposal (element -> delta) to tensor t and keeps it if it
  // lowers the loss on the evaluation rows; otherwise reverts it.
  auto try_proposal =
      [&](int t, const std::vector<std::pair<int64_t, int>>& proposal) {
        if (proposal.empty()) return;
        Layer* owner = qm->quantized(t).owner;
        const std::vector<int32_t> saved_codes = qm->quantized(t).codes;
        for (const auto& [e, delta] : proposal) {
          qm->ApplyCodeDelta(t, e, delta);
        }
        trials.MarkDirty(owner);
        const float trial_loss = ce.Forward(trials.Evaluate(), *eval_labels);
        if (trial_loss < current_loss) {
          current_loss = trial_loss;
          return;
        }
        qm->quantized(t).codes = saved_codes;
        qm->SyncParamFromCodes(t);
        // The outputs kept on the owner's path are the rejected trial's.
        trials.MarkDirty(owner);
      };

  for (int t = 0; t < num_tensors; ++t) {
    const auto& qt = qm->quantized(t);
    const int64_t num_elements = static_cast<int64_t>(qt.codes.size());
    const std::vector<int>& deltas = scores[static_cast<size_t>(t)].deltas;
    const std::vector<float>& confidences =
        scores[static_cast<size_t>(t)].confidences;

    // Confident non-zero predictions, strongest first, capped per tensor.
    std::vector<int64_t> candidates;
    for (int64_t e = 0; e < num_elements; ++e) {
      if (deltas[static_cast<size_t>(e)] != 0 &&
          confidences[static_cast<size_t>(e)] >=
              options.confidence_threshold) {
        candidates.push_back(e);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](int64_t a, int64_t b) {
                return confidences[static_cast<size_t>(a)] >
                       confidences[static_cast<size_t>(b)];
              });
    const size_t cap = static_cast<size_t>(
        options.max_flip_fraction * static_cast<float>(num_elements));
    if (candidates.size() > cap) candidates.resize(cap);

    // BF-guided proposals, validated chunk by chunk. The ternary direction
    // is scaled to a precision-appropriate step (see StepFor).
    const int step = BitFlipCalibrateOptions::StepFor(qt.qp);
    if (!candidates.empty() && options.proposal_chunks > 0) {
      const size_t chunk_size =
          (candidates.size() + options.proposal_chunks - 1) /
          options.proposal_chunks;
      for (size_t start = 0; start < candidates.size(); start += chunk_size) {
        const size_t end =
            std::min(candidates.size(), start + chunk_size);
        std::vector<std::pair<int64_t, int>> proposal;
        proposal.reserve(end - start);
        for (size_t i = start; i < end; ++i) {
          proposal.push_back(
              {candidates[i],
               step * deltas[static_cast<size_t>(candidates[i])]});
        }
        try_proposal(t, proposal);
      }
    }

    // Exploration proposals: random elements, random direction. These keep
    // the inference-only search progressing when the learned predictor is
    // uninformative for the current domain shift.
    for (int p = 0; p < options.explore_chunks; ++p) {
      const int take = static_cast<int>(std::min<int64_t>(
          options.explore_chunk_size, num_elements));
      std::vector<int> pick = explore_rng.SampleWithoutReplacement(
          static_cast<int>(num_elements), take);
      std::vector<std::pair<int64_t, int>> proposal;
      proposal.reserve(pick.size());
      for (int e : pick) {
        proposal.push_back({e, explore_rng.NextBool(0.5) ? step : -step});
      }
      try_proposal(t, proposal);
    }
  }
  return current_loss;
}

float BitFlipIterationFromCaches(QuantizedModel* qm, const BitFlipNet* bf,
                                 const Tensor& x,
                                 const std::vector<int>& labels,
                                 const BitFlipCalibrateOptions& options,
                                 Rng* rng) {
  QCORE_CHECK(qm != nullptr);
  std::vector<RowSlices> owner_inputs;
  for (int t = 0; t < qm->num_quantized(); ++t) {
    owner_inputs.push_back(CachedInput(qm->quantized(t)));
  }
  return BitFlipIteration(qm, bf, owner_inputs, x, labels, options,
                          FreeParallelThreads(kernels::gemm_threads()), rng);
}

}  // namespace qcore
