#include "nn/batchnorm.h"

#include <cmath>

#include "nn/epilogue.h"

namespace qcore {

namespace {

// Decomposes an input of rank 2/3/4 as [N, C, S]: S spatial elements per
// channel (1 for rank-2).
struct NcsView {
  int64_t n;
  int64_t c;
  int64_t s;
};

NcsView ViewOf(const Tensor& x) {
  QCORE_CHECK_GE(x.ndim(), 2);
  QCORE_CHECK_LE(x.ndim(), 4);
  NcsView v{x.dim(0), x.dim(1), 1};
  for (int i = 2; i < x.ndim(); ++i) v.s *= x.dim(i);
  return v;
}

}  // namespace

BatchNorm::BatchNorm(int64_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  QCORE_CHECK_GT(channels, 0);
  gamma_ = Parameter("bn.gamma", Tensor::Full({channels}, 1.0f));
  beta_ = Parameter("bn.beta", Tensor::Zeros({channels}));
  running_mean_ = Tensor::Zeros({channels});
  running_var_ = Tensor::Full({channels}, 1.0f);
}

float BatchNorm::InvStd(int64_t ch) const {
  return 1.0f / std::sqrt(running_var_[ch] + eps_);
}

void BatchNorm::EvalScaleShift(float* scale, float* shift) const {
  for (int64_t ch = 0; ch < channels_; ++ch) {
    scale[ch] = gamma_.value[ch] * InvStd(ch);
    shift[ch] = beta_.value[ch] - scale[ch] * running_mean_[ch];
  }
}

void BatchNorm::FrozenTerms(float* mean, float* inv_std, float* gamma,
                            float* beta) const {
  for (int64_t ch = 0; ch < channels_; ++ch) {
    mean[ch] = running_mean_[ch];
    inv_std[ch] = InvStd(ch);
    gamma[ch] = gamma_.value[ch];
    beta[ch] = beta_.value[ch];
  }
}

std::vector<float> BatchNorm::NormalizeFrozen(const Tensor& x, float* xhat,
                                              float* out) const {
  const NcsView v = ViewOf(x);
  QCORE_CHECK_EQ(v.c, channels_);
  std::vector<float> terms(static_cast<size_t>(4 * channels_));
  float* mean = terms.data();
  float* inv_std = mean + channels_;
  float* gamma = inv_std + channels_;
  float* beta = gamma + channels_;
  FrozenTerms(mean, inv_std, gamma, beta);
  const int64_t block = v.c * v.s;
  for (int64_t i = 0; i < v.n; ++i) {
    NormalizeRows(x.data() + i * block, mean, inv_std, gamma, beta, v.c, v.s,
                  xhat != nullptr ? xhat + i * block : nullptr,
                  out + i * block);
  }
  return std::vector<float>(inv_std, inv_std + channels_);
}

Tensor BatchNorm::FrozenForward(const Tensor& x) const {
  Tensor out(x.shape());
  (void)NormalizeFrozen(x, /*xhat=*/nullptr, out.data());
  return out;
}

Tensor BatchNorm::Forward(const Tensor& x, bool training) {
  const NcsView v = ViewOf(x);
  QCORE_CHECK_EQ(v.c, channels_);
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();

  if (training && frozen_) {
    // Normalize with running statistics, caching x-hat so Backward can treat
    // the normalization as a fixed per-channel affine transform.
    cached_shape_ = x.shape();
    cached_frozen_ = true;
    cached_xhat_ = Tensor(x.shape());
    cached_inv_std_ = NormalizeFrozen(x, cached_xhat_.data(), po);
  } else if (training) {
    // Normalize with the batch statistics, which move the running ones.
    cached_shape_ = x.shape();
    cached_frozen_ = false;
    cached_xhat_ = Tensor(x.shape());
    cached_inv_std_.assign(static_cast<size_t>(channels_), 0.0f);
    std::vector<float> batch_mean(static_cast<size_t>(channels_));
    const double count = static_cast<double>(v.n * v.s);
    for (int64_t ch = 0; ch < channels_; ++ch) {
      double mean = 0.0;
      for (int64_t i = 0; i < v.n; ++i) {
        const float* row = px + (i * v.c + ch) * v.s;
        for (int64_t t = 0; t < v.s; ++t) mean += row[t];
      }
      mean /= count;
      double var = 0.0;
      for (int64_t i = 0; i < v.n; ++i) {
        const float* row = px + (i * v.c + ch) * v.s;
        for (int64_t t = 0; t < v.s; ++t) {
          const double d = row[t] - mean;
          var += d * d;
        }
      }
      var /= count;
      batch_mean[static_cast<size_t>(ch)] = static_cast<float>(mean);
      cached_inv_std_[static_cast<size_t>(ch)] =
          1.0f / std::sqrt(static_cast<float>(var) + eps_);
      running_mean_[ch] =
          (1.0f - momentum_) * running_mean_[ch] +
          momentum_ * static_cast<float>(mean);
      running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                         momentum_ * static_cast<float>(var);
    }
    const int64_t block = v.c * v.s;
    for (int64_t i = 0; i < v.n; ++i) {
      NormalizeRows(px + i * block, batch_mean.data(), cached_inv_std_.data(),
                    gamma_.value.data(), beta_.value.data(), v.c, v.s,
                    cached_xhat_.data() + i * block, po + i * block);
    }
  } else {
    std::vector<float> affine(static_cast<size_t>(2 * channels_));
    float* scale = affine.data();
    float* shift = scale + channels_;
    EvalScaleShift(scale, shift);
    for (int64_t i = 0; i < v.n; ++i) {
      ScaleShiftRows(px + i * v.c * v.s, scale, shift, v.c, v.s,
                     po + i * v.c * v.s);
    }
  }
  return out;
}

Tensor BatchNorm::Backward(const Tensor& grad_out) {
  QCORE_CHECK_MSG(!cached_shape_.empty(), "Backward before training Forward");
  QCORE_CHECK(grad_out.shape() == cached_shape_);
  const NcsView v = ViewOf(grad_out);
  Tensor grad_in(cached_shape_);
  const float* pg = grad_out.data();
  const float* pxh = cached_xhat_.data();
  float* pgi = grad_in.data();
  float* pdg = gamma_.grad.data();
  float* pdb = beta_.grad.data();
  const double count = static_cast<double>(v.n * v.s);

  for (int64_t ch = 0; ch < channels_; ++ch) {
    // Reductions over the channel slice.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int64_t i = 0; i < v.n; ++i) {
      const float* grow = pg + (i * v.c + ch) * v.s;
      const float* xhrow = pxh + (i * v.c + ch) * v.s;
      for (int64_t t = 0; t < v.s; ++t) {
        sum_dy += grow[t];
        sum_dy_xhat += static_cast<double>(grow[t]) * xhrow[t];
      }
    }
    pdg[ch] += static_cast<float>(sum_dy_xhat);
    pdb[ch] += static_cast<float>(sum_dy);

    const float gamma = gamma_.value[ch];
    const float inv_std = cached_inv_std_[static_cast<size_t>(ch)];
    if (cached_frozen_) {
      // Running stats are constants: dL/dx = gamma * inv_std * dy.
      const float scale = gamma * inv_std;
      for (int64_t i = 0; i < v.n; ++i) {
        const float* grow = pg + (i * v.c + ch) * v.s;
        float* girow = pgi + (i * v.c + ch) * v.s;
        for (int64_t t = 0; t < v.s; ++t) girow[t] = scale * grow[t];
      }
      continue;
    }
    const float mean_dy = static_cast<float>(sum_dy / count);
    const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / count);
    for (int64_t i = 0; i < v.n; ++i) {
      const float* grow = pg + (i * v.c + ch) * v.s;
      const float* xhrow = pxh + (i * v.c + ch) * v.s;
      float* girow = pgi + (i * v.c + ch) * v.s;
      for (int64_t t = 0; t < v.s; ++t) {
        girow[t] =
            gamma * inv_std * (grow[t] - mean_dy - xhrow[t] * mean_dy_xhat);
      }
    }
  }
  return grad_in;
}

std::unique_ptr<Layer> BatchNorm::Clone() const {
  auto copy = std::make_unique<BatchNorm>(channels_, momentum_, eps_);
  copy->gamma_ = Parameter(gamma_.name, gamma_.value);
  copy->beta_ = Parameter(beta_.name, beta_.value);
  copy->running_mean_ = running_mean_;
  copy->running_var_ = running_var_;
  copy->frozen_ = frozen_;
  return copy;
}

void SetBatchNormFrozen(Layer* root, bool frozen) {
  QCORE_CHECK(root != nullptr);
  for (Layer* leaf : FlattenLeafLayers(root)) {
    if (auto* bn = dynamic_cast<BatchNorm*>(leaf)) bn->set_frozen(frozen);
  }
}

std::string BatchNorm::name() const {
  return "batchnorm(" + std::to_string(channels_) + ")";
}

}  // namespace qcore
