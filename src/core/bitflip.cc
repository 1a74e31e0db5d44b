#include "core/bitflip.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/incremental_forward.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "tensor/tensor_ops.h"

namespace qcore {

namespace {

// Mean and standard deviation of the activation per input unit of the layer
// owning `qt`: per input feature for Dense, per input channel for
// convolutions. Also returns the mean absolute activation as a normalizer.
void InputActivationStats(const QuantizedModel::QuantizedTensor& qt,
                          std::vector<float>* a_mean, std::vector<float>* a_std,
                          float* a_scale) {
  const Tensor* input = qt.owner->cached_input();
  QCORE_CHECK_MSG(input != nullptr,
                  "bit-flip features require a training-mode forward pass");
  const Tensor& x = *input;
  const int weight_ndim = qt.param->value.ndim();
  int64_t units = 0;
  if (weight_ndim == 2) {
    // Dense weight [out, in], input [N, in].
    QCORE_CHECK_EQ(x.ndim(), 2);
    units = x.dim(1);
  } else {
    // Conv weight [F, C, K(, K)], input [N, C, spatial...].
    QCORE_CHECK_GE(x.ndim(), 3);
    units = x.dim(1);
  }
  a_mean->assign(static_cast<size_t>(units), 0.0f);
  a_std->assign(static_cast<size_t>(units), 0.0f);
  std::vector<double> sum(static_cast<size_t>(units), 0.0);
  std::vector<double> sum_sq(static_cast<size_t>(units), 0.0);
  const int64_t n = x.dim(0);
  double abs_sum = 0.0;
  int64_t spatial = 1;
  if (weight_ndim != 2) {
    for (int d = 2; d < x.ndim(); ++d) spatial *= x.dim(d);
  }
  const float* px = x.data();
  for (int64_t i = 0; i < n; ++i) {
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
  const double count = static_cast<double>(n * spatial);
  for (int64_t u = 0; u < units; ++u) {
    const double mean = sum[static_cast<size_t>(u)] / count;
    const double var =
        std::max(0.0, sum_sq[static_cast<size_t>(u)] / count - mean * mean);
    (*a_mean)[static_cast<size_t>(u)] = static_cast<float>(mean);
    (*a_std)[static_cast<size_t>(u)] = static_cast<float>(std::sqrt(var));
  }
  *a_scale = static_cast<float>(abs_sum / static_cast<double>(x.size())) +
             1e-6f;
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
                              const std::vector<int32_t>* code_override) {
  const std::vector<int32_t>& codes =
      code_override != nullptr ? *code_override : qt.codes;
  QCORE_CHECK_EQ(codes.size(), qt.codes.size());

  std::vector<float> a_mean, a_std;
  float a_scale = 1.0f;
  InputActivationStats(qt, &a_mean, &a_std, &a_scale);

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
                         std::vector<float>* confidences) {
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

float BitFlipIterationFromCaches(QuantizedModel* qm, BitFlipNet* bf,
                                 const Tensor& x,
                                 const std::vector<int>& labels,
                                 const BitFlipCalibrateOptions& options,
                                 Rng* rng) {
  QCORE_CHECK(qm != nullptr && bf != nullptr && rng != nullptr);
  Rng& explore_rng = *rng;

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
  // layers downstream of that tensor's owner (nn/incremental_forward).
  std::vector<Layer*> owners;
  for (int t = 0; t < qm->num_quantized(); ++t) {
    owners.push_back(qm->quantized(t).owner);
  }
  IncrementalForward trials(qm->model(), *eval_x, owners);
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

  for (int t = 0; t < qm->num_quantized(); ++t) {
    const auto& qt = qm->quantized(t);
    const int64_t num_elements = static_cast<int64_t>(qt.codes.size());
    Tensor features = ComputeBitFlipFeatures(qt, nullptr);
    std::vector<int> deltas;
    std::vector<float> confidences;
    bf->Predict(features, &deltas, &confidences);

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

void BitFlipCalibrate(QuantizedModel* qm, BitFlipNet* bf, const Tensor& x,
                      const std::vector<int>& labels,
                      const BitFlipCalibrateOptions& options, Rng* rng) {
  QCORE_CHECK(qm != nullptr && bf != nullptr && rng != nullptr);
  QCORE_CHECK_GT(options.iterations, 0);
  SetBatchNormFrozen(qm->model(), true);
  for (int it = 0; it < options.iterations; ++it) {
    // Training-mode forward populates the activation caches the features
    // need; with BN frozen the outputs equal eval-mode outputs.
    (void)qm->model()->Forward(x, /*training=*/true);
    BitFlipIterationFromCaches(qm, bf, x, labels, options, rng);
  }
  SetBatchNormFrozen(qm->model(), false);
}

}  // namespace qcore
