// 1-D and 2-D convolution layers on the blocked GEMM substrate
// (tensor/kernels.h): forward reads each sample's (padded) input plane as
// the GEMM's B through a row table, backward lowers per sample via
// im2col/col2im. The scalar direct-loop implementations survive as
// qcore::naive::Conv{1,2}dForward/Backward — the oracle for kernels_test
// and the baseline for the perf CI gate.
#ifndef QCORE_NN_CONV_H_
#define QCORE_NN_CONV_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace qcore {

// Temporal convolution: x [N, C, L] -> [N, F, Lo] with
// Lo = (L + 2*pad - kernel) / stride + 1. Weight is [F, C, K], bias [F].
class Conv1d : public Layer {
 public:
  Conv1d(int64_t in_channels, int64_t out_channels, int kernel, int stride,
         int pad, Rng* rng);

  // Padding that preserves length for stride 1 and odd kernels.
  static int SamePad(int kernel) { return (kernel - 1) / 2; }

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  const Tensor* cached_input() const override {
    return cached_input_.size() > 0 ? &cached_input_ : nullptr;
  }

 private:
  Conv1d(int64_t ic, int64_t oc, int k, int s, int p)
      : in_channels_(ic), out_channels_(oc), kernel_(k), stride_(s), pad_(p) {}

  int64_t in_channels_;
  int64_t out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  Parameter weight_;
  Parameter bias_;
  // Training-mode Forward's input, for Backward. Eval-mode Forward writes
  // no member: its padded planes and row tables live in the calling
  // thread's kernels::PadScratch / ConvRowTable buffers, so threads may
  // evaluate one layer at once.
  Tensor cached_input_;
};

// Spatial convolution with square kernels: x [N, C, H, W] -> [N, F, Ho, Wo].
// Weight is [F, C, K, K], bias [F].
class Conv2d : public Layer {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int kernel, int stride,
         int pad, Rng* rng);

  static int SamePad(int kernel) { return (kernel - 1) / 2; }

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;
  const Tensor* cached_input() const override {
    return cached_input_.size() > 0 ? &cached_input_ : nullptr;
  }

 private:
  Conv2d(int64_t ic, int64_t oc, int k, int s, int p)
      : in_channels_(ic), out_channels_(oc), kernel_(k), stride_(s), pad_(p) {}

  int64_t in_channels_;
  int64_t out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;  // as in Conv1d
};

}  // namespace qcore

#endif  // QCORE_NN_CONV_H_
