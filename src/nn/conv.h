// Convolution on the blocked GEMM substrate (tensor/kernels.h), one layer
// for both spatial ranks: a 1-D conv runs as a 2-D one over a one-row
// plane (kernel height 1, no vertical pad). The forward is one function,
// ForwardInto: it reads each sample's (padded) input plane as the GEMM's B
// through a row table, can write the sample's channels into a slice of a
// wider output (a ParallelConcat branch), and can run an Epilogue (the
// BatchNorm/ReLU after the conv) on each sample's block right after its
// GEMM. Forward calls it with no epilogue; the fused eval plan
// (nn/incremental_forward) calls it with both. A conv with one input
// channel over one-row planes (the bit-flip net's) runs all its samples as
// one GEMM over the samples stacked as the rows of one plane, with the
// bits, multiply-adds and padded floats of the per-sample GEMMs; every
// other conv runs one GEMM per sample. Backward lowers each sample
// with kernels::Im2Col/Col2Im. The scalar direct-loop implementations
// survive as qcore::naive::Conv{1,2}dForward/Backward — the oracle for
// kernels_test and the baseline for the perf CI gate.
#ifndef QCORE_NN_CONV_H_
#define QCORE_NN_CONV_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/epilogue.h"
#include "nn/layer.h"

namespace qcore {

// The conv of either rank, as the eval plan drives it.
class ConvLayer : public Layer {
 public:
  virtual int64_t out_channels() const = 0;
  // The [N, F, spatial...] output for x; checks x against the layer.
  virtual std::vector<int64_t> OutputShape(const Tensor& x) const = 0;
  // The forward: writes sample i's F output channels at channels
  // [offset, offset + F) of `out`, an [N, total_channels, spatial...]
  // buffer, then runs `epilogue` (may be null) on that [F, spatial] block.
  // Writes every element of the slice and no layer state.
  virtual void ForwardInto(const Tensor& x, int64_t channel_offset,
                           int64_t total_channels, const Epilogue* epilogue,
                           float* out) const = 0;
};

// Convolution over kRank spatial axes with square kernels:
//   Conv<1>: x [N, C, L]    -> [N, F, Lo],      weight [F, C, K];
//   Conv<2>: x [N, C, H, W] -> [N, F, Ho, Wo],  weight [F, C, K, K];
// each output extent (in + 2*pad - kernel) / stride + 1, bias [F].
// Parameters are named conv1d.* / conv2d.*, the names snapshots carry.
template <int kRank>
class Conv : public ConvLayer {
  static_assert(kRank == 1 || kRank == 2, "Conv is 1-D or 2-D");

 public:
  Conv(int64_t in_channels, int64_t out_channels, int kernel, int stride,
       int pad, Rng* rng);

  // Padding that preserves the extent for stride 1 and odd kernels.
  static int SamePad(int kernel) { return (kernel - 1) / 2; }

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;
  const Tensor* cached_input() const override {
    return cached_input_.size() > 0 ? &cached_input_ : nullptr;
  }

  int64_t out_channels() const override { return out_channels_; }
  std::vector<int64_t> OutputShape(const Tensor& x) const override;
  void ForwardInto(const Tensor& x, int64_t channel_offset,
                   int64_t total_channels, const Epilogue* epilogue,
                   float* out) const override;

 private:
  Conv(int64_t ic, int64_t oc, int k, int s, int p)
      : in_channels_(ic), out_channels_(oc), kernel_(k), stride_(s), pad_(p) {}

  // The kernel height and vertical pad: a 1-D kernel is one row.
  int kh() const { return kRank == 2 ? kernel_ : 1; }
  int pad_h() const { return kRank == 2 ? pad_ : 0; }

  int64_t in_channels_;
  int64_t out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  Parameter weight_;
  Parameter bias_;
  // Training-mode Forward's input, for Backward. Eval-mode Forward writes
  // no member: its padded planes, row tables and one-GEMM output block
  // live in per-thread buffers (kernels::PadScratch / ConvRowTable, and
  // conv.cc's), so threads may evaluate one layer at once.
  Tensor cached_input_;
};

extern template class Conv<1>;
extern template class Conv<2>;

using Conv1d = Conv<1>;
using Conv2d = Conv<2>;

}  // namespace qcore

#endif  // QCORE_NN_CONV_H_
