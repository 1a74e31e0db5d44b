// The elementwise passes of the plan's forwards, written once: BatchNorm's
// folded eval affine and its frozen training formula, ReLU, and the
// residual add. The layers' own Forwards call them, and the fused plan
// (nn/incremental_forward) calls the same loops on each sample's block
// right after the conv GEMM that wrote it, while the block is still in
// cache.
//
// Bits: every element sees the same operations in the same order as the
// layer-by-layer forward. These loops live in a baseline-ISA translation
// unit on purpose: inside tensor/kernels.cc's target_clones functions the
// compiler contracts scale * x + shift into one fused multiply-add, which
// rounds once instead of twice and changes the bits. Each pass is a plain
// vectorizable loop (a data-dependent branch inside a reduction compiled
// to a branch and ran several times slower).
#ifndef QCORE_NN_EPILOGUE_H_
#define QCORE_NN_EPILOGUE_H_

#include <cstdint>

namespace qcore {

// out[c, t] = scale[c] * x[c, t] + shift[c] over a [channels, len] block
// (BatchNorm's eval formula). out may be x.
void ScaleShiftRows(const float* x, const float* scale, const float* shift,
                    int64_t channels, int64_t len, float* out);

// out[c, t] = gamma[c] * xh + beta[c] with xh = (x[c, t] - mean[c]) *
// inv_std[c], over a [channels, len] block: a frozen BatchNorm's training
// formula, which rounds differently from the folded eval affine. Also
// writes xh to xhat[c, t] when xhat is non-null (Backward's cache). out may
// be x.
void NormalizeRows(const float* x, const float* mean, const float* inv_std,
                   const float* gamma, const float* beta, int64_t channels,
                   int64_t len, float* xhat, float* out);

// out[i] = x[i] > 0 ? x[i] : 0. out may be x.
void ReluInto(const float* x, int64_t n, float* out);

// out[i] = a[i] + b[i], through ReLU when `relu` is set: a residual join and
// the ReLU after it in one pass. out may be a.
void AddInto(const float* a, const float* b, int64_t n, bool relu,
             float* out);

// The BatchNorm/ReLU layers that follow a conv, as passes over one sample's
// [channels, spatial] output block, applied in layer order. A BatchNorm
// step points at per-channel arrays its owner keeps alive, so an epilogue
// allocates nothing.
class Epilogue {
 public:
  static constexpr int kMaxSteps = 4;

  // A BatchNorm in eval form: scale[c] and shift[c] for each channel c of
  // the block (ScaleShiftRows).
  void AddScaleShift(const float* scale, const float* shift);
  // A BatchNorm in frozen training form (NormalizeRows).
  void AddNormalize(const float* mean, const float* inv_std,
                    const float* gamma, const float* beta);
  void AddRelu();
  bool empty() const { return count_ == 0; }

  // Runs every step in place on block [channels, spatial].
  void Apply(float* block, int64_t channels, int64_t spatial) const;

 private:
  enum class Kind { kRelu, kScaleShift, kNormalize };
  struct Step {
    Kind kind = Kind::kRelu;
    // kScaleShift: scale, shift; kNormalize: mean, inv_std, gamma, beta.
    const float* terms[4] = {};
  };
  Step steps_[kMaxSteps];
  int count_ = 0;
};

}  // namespace qcore

#endif  // QCORE_NN_EPILOGUE_H_
