// Batch normalization over the channel axis. Supports [N, C] (dense),
// [N, C, L] (temporal), and [N, C, H, W] (spatial) inputs: statistics are
// computed per channel over all remaining axes. Eval mode applies the
// folded per-channel affine scale * x + shift (EvalScaleShift); a frozen
// BatchNorm's training mode applies gamma * ((x - mean) * inv_std) + beta
// with the running statistics (FrozenTerms, nn/epilogue's NormalizeRows),
// which rounds differently. The fused plan (nn/incremental_forward) runs
// either formula inside the epilogue of the conv before the BatchNorm, and
// FrozenForward where it cannot fuse one.
#ifndef QCORE_NN_BATCHNORM_H_
#define QCORE_NN_BATCHNORM_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace qcore {

class BatchNorm : public Layer {
 public:
  explicit BatchNorm(int64_t channels, float momentum = 0.1f,
                     float eps = 1e-5f);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> Buffers() override {
    return {&running_mean_, &running_var_};
  }
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;

  int64_t channels() const { return channels_; }

  // The eval-mode affine per channel, into channels() floats each:
  // scale = gamma / sqrt(var + eps) and shift = beta - scale * mean, from
  // the running statistics.
  void EvalScaleShift(float* scale, float* shift) const;

  // The frozen training formula's terms per channel, into channels() floats
  // each: the running mean, inv_std = 1 / sqrt(var + eps), gamma and beta.
  void FrozenTerms(float* mean, float* inv_std, float* gamma,
                   float* beta) const;

  // Forward(x, /*training=*/true) of a frozen BatchNorm, bit for bit, but
  // writing no layer state (no x-hat for Backward), so threads may run it
  // on one layer at once.
  Tensor FrozenForward(const Tensor& x) const;

  // Freeze mode: training-mode Forward normalizes with the *running*
  // statistics (treated as constants in Backward) and does not update them.
  // Used during calibration, where batches are tiny (e.g. a 30-example
  // QCore) and batch statistics would be destructively noisy.
  void set_frozen(bool frozen) { frozen_ = frozen; }
  bool frozen() const { return frozen_; }

 private:
  float InvStd(int64_t ch) const;
  // The frozen training formula over x into out, and x-hat into xhat when
  // it is non-null. Returns inv_std per channel.
  std::vector<float> NormalizeFrozen(const Tensor& x, float* xhat,
                                     float* out) const;

  int64_t channels_;
  float momentum_;
  float eps_;
  bool frozen_ = false;
  bool cached_frozen_ = false;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;

  // Backward caches (training forward only).
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
  std::vector<int64_t> cached_shape_;
};

// Sets freeze mode on every BatchNorm in the layer tree under `root`.
void SetBatchNormFrozen(Layer* root, bool frozen);

}  // namespace qcore

#endif  // QCORE_NN_BATCHNORM_H_
