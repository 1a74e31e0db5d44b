#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/aligned.h"
#include "tensor/kernels.h"

namespace qcore {

// Forward runs one path for every kernel, stride and pad: W is packed once
// per call, and each sample's GEMM reads its B straight from the sample's
// input plane through a row table (kernels::PlaneB), so no im2col column
// matrix is written. A padded conv first copies the sample into the
// interior of a per-thread plane whose borders are zeroed once per call;
// an unpadded one reads the input itself. B's entries are the column
// matrix's, zeros included, so every output element keeps the same FMA
// chain over the same operands: the forward's bits are the lowered path's.
//
// Backward lowers each sample via im2col onto the same GEMM substrate: dW
// and the column gradient are two GEMM calls, and col2im folds the column
// gradient back. Samples are processed independently in batch order, so
// per-sample results are bit-identical regardless of how rows were batched
// (the serving batcher's bit-identity property), and gradient accumulation
// order is fixed.
//
// Both ranks run these two functions over [c, h, w] planes with a kh x kw
// kernel; a 1-D conv is one output row (h = ho = 1, kh = 1, pad_h = 0).
//
// A conv with one input channel over one-row planes (c = h = 1, no
// vertical pad: the bit-flip net's conv) runs its n samples as one GEMM
// instead of n: the samples are the n rows of one plane [1, n, wp], and B's
// column i*wo + ox is sample i's output ox, so W[f, kw] * B fills the
// [f, n*wo] block of every sample's outputs. Each element keeps its
// operands and its bias-first, ascending-k chain, and the epilogue runs the
// same op on each element of the block, so the bits, multiply-adds and
// padded floats are those of the per-sample GEMMs. Only the GEMM count
// falls.

namespace {

// The [f, n*wo] output block of a one-GEMM forward, per thread like the
// kernels' scratch: sessions sharing a net evaluate it at once.
float* BlockScratch(size_t floats) {
  thread_local AlignedFloatVec block;
  if (block.size() < floats) block.resize(floats);
  return block.data();
}

// The one-GEMM forward: x [n, 1, 1, w] read as the plane [1, n, w]
// (padded: [1, n, w + 2*pad_w]). The epilogue runs on the [f, n*wo] block,
// then each sample's [f, wo] part is copied to channels
// [offset, offset + f) of out [n, total, wo].
void StackedRowsConvForward(const float* x, int64_t n, int64_t w,
                            const float* packed_w, const float* bias,
                            int64_t f, int kw, int stride, int pad_w,
                            int64_t wo, int64_t offset, int64_t total,
                            const Epilogue* epilogue, float* out) {
  const int64_t wp = w + 2 * pad_w;
  const float* plane = x;
  if (pad_w > 0) {
    float* padded = kernels::PadScratch(static_cast<size_t>(n * wp));
    kernels::PadPlane(x, 1, n, w, 0, pad_w, padded);
    plane = padded;
  }
  const kernels::PlaneB b{plane, kernels::ConvRowTable(1, n, wp, 1, kw), wo,
                          wp, stride};
  const int64_t cols = n * wo;
  float* block = BlockScratch(static_cast<size_t>(f * cols));
  for (int64_t fo = 0; fo < f; ++fo) {
    std::fill(block + fo * cols, block + (fo + 1) * cols, bias[fo]);
  }
  kernels::GemmPackedA(f, cols, kw, packed_w, b, block, cols);
  if (epilogue != nullptr) epilogue->Apply(block, f, cols);
  for (int64_t i = 0; i < n; ++i) {
    float* oplane = out + (i * total + offset) * wo;
    for (int64_t fo = 0; fo < f; ++fo) {
      const float* src = block + fo * cols + i * wo;
      std::copy(src, src + wo, oplane + fo * wo);
    }
  }
}

// The forward over x [n, c, h, w]: sample i's [f, ho*wo] block, channels
// [offset, offset + f) of out [n, total, ho*wo], gets the bias, then
// W[f, c*kh*kw] * B_i, then the epilogue (if any) while it is in cache.
void PlaneConvForward(const float* x, int64_t n, int64_t c, int64_t h,
                      int64_t w, const float* weight, const float* bias,
                      int64_t f, int kh, int kw, int stride, int pad_h,
                      int pad_w, int64_t ho, int64_t wo, int64_t offset,
                      int64_t total, const Epilogue* epilogue, float* out) {
  const int64_t ck = c * kh * kw;
  const int64_t hp = h + 2 * pad_h, wp = w + 2 * pad_w;
  const int64_t howo = ho * wo;
  const float* packed_w = kernels::PackA(f, ck, weight, ck);
  if (c == 1 && hp == 1) {
    StackedRowsConvForward(x, n, w, packed_w, bias, f, kw, stride, pad_w, wo,
                           offset, total, epilogue, out);
    return;
  }
  const bool padded = pad_h > 0 || pad_w > 0;
  float* plane =
      padded ? kernels::PadScratch(static_cast<size_t>(c * hp * wp)) : nullptr;
  kernels::PlaneB b{nullptr, kernels::ConvRowTable(c, hp, wp, kh, kw), wo,
                    stride * wp, stride};
  for (int64_t i = 0; i < n; ++i) {
    float* oplane = out + (i * total + offset) * howo;
    for (int64_t fo = 0; fo < f; ++fo) {
      std::fill(oplane + fo * howo, oplane + (fo + 1) * howo, bias[fo]);
    }
    const float* xi = x + i * c * h * w;
    if (padded) kernels::PadPlane(xi, c, h, w, pad_h, pad_w, plane);
    b.plane = padded ? plane : xi;
    // out_i[F, Ho*Wo] (+)= W[F, C*kh*kw] * B_i[C*kh*kw, Ho*Wo].
    kernels::GemmPackedA(f, howo, ck, packed_w, b, oplane, howo);
    if (epilogue != nullptr) epilogue->Apply(oplane, f, howo);
  }
}

// The backward over x [n, c, h, w] and grad_out [n, f, ho*wo]: writes
// grad_in [n, c, h, w] (zeroed by the caller) and adds to dw [f, c*kh*kw]
// and db [f].
void PlaneConvBackward(const float* x, int64_t n, int64_t c, int64_t h,
                       int64_t w, const float* weight, const float* grad_out,
                       int64_t f, int kh, int kw, int stride, int pad_h,
                       int pad_w, int64_t ho, int64_t wo, float* grad_in,
                       float* dw, float* db) {
  const int64_t ck = c * kh * kw;
  const int64_t howo = ho * wo;
  const size_t pack_size = static_cast<size_t>(ck * howo);
  float* col = kernels::ColScratch(pack_size);
  float* dcol = kernels::DcolScratch(pack_size);
  for (int64_t i = 0; i < n; ++i) {
    const float* gplane = grad_out + i * f * howo;
    // Bias gradient: plain row sums, double accumulator (reduction policy).
    for (int64_t fo = 0; fo < f; ++fo) {
      double s = 0.0;
      for (int64_t o = 0; o < howo; ++o) s += gplane[fo * howo + o];
      db[fo] += static_cast<float>(s);
    }
    kernels::Im2Col(x + i * c * h * w, c, h, w, kh, kw, stride, pad_h, pad_w,
                    ho, wo, col);
    // dW[F, C*kh*kw] += dY_i[F, Ho*Wo] * col[C*kh*kw, Ho*Wo]^T, on top of
    // the running gradient.
    kernels::Gemm(f, ck, howo, gplane, howo, /*trans_a=*/false, col, howo,
                  /*trans_b=*/true, dw, ck);
    // dcol = W^T * dY_i, folded back into dX_i by col2im.
    std::fill(dcol, dcol + pack_size, 0.0f);
    kernels::Gemm(ck, howo, f, weight, ck, /*trans_a=*/true, gplane, howo,
                  /*trans_b=*/false, dcol, howo);
    kernels::Col2Im(dcol, c, h, w, kh, kw, stride, pad_h, pad_w, ho, wo,
                    grad_in + i * c * h * w);
  }
}

// The [h, w] plane of an [N, C, spatial...] tensor; a 1-D one is one row.
template <int kRank>
std::pair<int64_t, int64_t> PlaneOf(const Tensor& t) {
  return {kRank == 2 ? t.dim(2) : 1, t.dim(kRank + 1)};
}

}  // namespace

template <int kRank>
Conv<kRank>::Conv(int64_t in_channels, int64_t out_channels, int kernel,
                  int stride, int pad, Rng* rng)
    : Conv(in_channels, out_channels, kernel, stride, pad) {
  QCORE_CHECK_GT(in_channels, 0);
  QCORE_CHECK_GT(out_channels, 0);
  QCORE_CHECK_GT(kernel, 0);
  QCORE_CHECK_GT(stride, 0);
  QCORE_CHECK_GE(pad, 0);
  QCORE_CHECK(rng != nullptr);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_channels * kh() * kernel));
  const std::string prefix = "conv" + std::to_string(kRank) + "d";
  weight_ = Parameter(
      prefix + ".weight",
      Tensor::Randn(kRank == 2 ? std::vector<int64_t>{out_channels,
                                                      in_channels, kernel,
                                                      kernel}
                               : std::vector<int64_t>{out_channels,
                                                      in_channels, kernel},
                    rng, stddev));
  bias_ = Parameter(prefix + ".bias", Tensor::Zeros({out_channels}));
}

template <int kRank>
std::vector<int64_t> Conv<kRank>::OutputShape(const Tensor& x) const {
  QCORE_CHECK_EQ(x.ndim(), kRank + 2);
  QCORE_CHECK_EQ(x.dim(1), in_channels_);
  const auto [h, w] = PlaneOf<kRank>(x);
  QCORE_CHECK_MSG(h + 2 * pad_h() >= kh() && w + 2 * pad_ >= kernel_,
                  "conv kernel is larger than the padded input");
  const int64_t ho = (h + 2 * pad_h() - kh()) / stride_ + 1;
  const int64_t wo = (w + 2 * pad_ - kernel_) / stride_ + 1;
  if (kRank == 2) return {x.dim(0), out_channels_, ho, wo};
  return {x.dim(0), out_channels_, wo};
}

template <int kRank>
void Conv<kRank>::ForwardInto(const Tensor& x, int64_t channel_offset,
                              int64_t total_channels,
                              const Epilogue* epilogue, float* out) const {
  const std::vector<int64_t> shape = OutputShape(x);
  QCORE_CHECK(channel_offset >= 0 &&
              channel_offset + out_channels_ <= total_channels);
  const auto [h, w] = PlaneOf<kRank>(x);
  const int64_t ho = kRank == 2 ? shape[2] : 1;
  PlaneConvForward(x.data(), x.dim(0), in_channels_, h, w,
                   weight_.value.data(), bias_.value.data(), out_channels_,
                   kh(), kernel_, stride_, pad_h(), pad_, ho, shape.back(),
                   channel_offset, total_channels, epilogue, out);
}

template <int kRank>
Tensor Conv<kRank>::Forward(const Tensor& x, bool training) {
  Tensor out(OutputShape(x));
  if (training) cached_input_ = x;
  ForwardInto(x, 0, out_channels_, /*epilogue=*/nullptr, out.data());
  return out;
}

template <int kRank>
Tensor Conv<kRank>::Backward(const Tensor& grad_out) {
  QCORE_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  const Tensor& x = cached_input_;
  const auto [h, w] = PlaneOf<kRank>(x);
  const auto [ho, wo] = PlaneOf<kRank>(grad_out);
  QCORE_CHECK_EQ(grad_out.dim(0), x.dim(0));
  QCORE_CHECK_EQ(grad_out.dim(1), out_channels_);
  Tensor grad_in(x.shape());
  PlaneConvBackward(x.data(), x.dim(0), in_channels_, h, w,
                    weight_.value.data(), grad_out.data(), out_channels_,
                    kh(), kernel_, stride_, pad_h(), pad_, ho, wo,
                    grad_in.data(), weight_.grad.data(), bias_.grad.data());
  return grad_in;
}

template <int kRank>
std::unique_ptr<Layer> Conv<kRank>::Clone() const {
  auto copy = std::unique_ptr<Conv>(
      new Conv(in_channels_, out_channels_, kernel_, stride_, pad_));
  copy->weight_ = Parameter(weight_.name, weight_.value);
  copy->bias_ = Parameter(bias_.name, bias_.value);
  return copy;
}

template <int kRank>
std::string Conv<kRank>::name() const {
  return "conv" + std::to_string(kRank) + "d(" +
         std::to_string(in_channels_) + "->" + std::to_string(out_channels_) +
         ",k=" + std::to_string(kernel_) + ")";
}

template class Conv<1>;
template class Conv<2>;

}  // namespace qcore
