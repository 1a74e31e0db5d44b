#include "nn/conv.h"

#include <algorithm>
#include <cmath>

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
// Backward lowers each sample via im2col onto the same GEMM substrate: the
// three backward products become packed GEMM calls, with col2im folding
// the column gradient back. Samples are processed independently in batch
// order, so per-sample results are bit-identical regardless of how rows
// were batched (the serving batcher's bit-identity property), and gradient
// accumulation order is fixed.

namespace {

// The forward of both conv layers over x [n, c, h, w] with a kh x kw
// kernel; a 1-D conv is one output row (h = ho = 1, kh = 1, pad_h = 0).
// out [n, f, ho*wo] gets the bias, then W[f, c*kh*kw] * B_i per sample.
void PlaneConvForward(const float* x, int64_t n, int64_t c, int64_t h,
                      int64_t w, const float* weight, const float* bias,
                      int64_t f, int kh, int kw, int stride, int pad_h,
                      int pad_w, int64_t ho, int64_t wo, float* out) {
  const int64_t ck = c * kh * kw;
  const int64_t hp = h + 2 * pad_h, wp = w + 2 * pad_w;
  const int64_t howo = ho * wo;
  const float* packed_w = kernels::PackA(f, ck, weight, ck);
  const bool padded = pad_h > 0 || pad_w > 0;
  float* plane =
      padded ? kernels::PadScratch(static_cast<size_t>(c * hp * wp)) : nullptr;
  kernels::PlaneB b{nullptr, kernels::ConvRowTable(c, hp, wp, kh, kw), wo,
                    stride * wp, stride};
  for (int64_t i = 0; i < n; ++i) {
    float* oplane = out + i * f * howo;
    for (int64_t fo = 0; fo < f; ++fo) {
      std::fill(oplane + fo * howo, oplane + (fo + 1) * howo, bias[fo]);
    }
    const float* xi = x + i * c * h * w;
    if (padded) kernels::PadPlane(xi, c, h, w, pad_h, pad_w, plane);
    b.plane = padded ? plane : xi;
    // out_i[F, Ho*Wo] (+)= W[F, C*kh*kw] * B_i[C*kh*kw, Ho*Wo].
    kernels::GemmPackedA(f, howo, ck, packed_w, b, oplane, howo);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Conv1d
// ---------------------------------------------------------------------------

Conv1d::Conv1d(int64_t in_channels, int64_t out_channels, int kernel,
               int stride, int pad, Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  QCORE_CHECK_GT(in_channels, 0);
  QCORE_CHECK_GT(out_channels, 0);
  QCORE_CHECK_GT(kernel, 0);
  QCORE_CHECK_GT(stride, 0);
  QCORE_CHECK_GE(pad, 0);
  QCORE_CHECK(rng != nullptr);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_channels * kernel));
  weight_ = Parameter(
      "conv1d.weight",
      Tensor::Randn({out_channels, in_channels, kernel}, rng, stddev));
  bias_ = Parameter("conv1d.bias", Tensor::Zeros({out_channels}));
}

Tensor Conv1d::Forward(const Tensor& x, bool training) {
  QCORE_CHECK_EQ(x.ndim(), 3);
  QCORE_CHECK_EQ(x.dim(1), in_channels_);
  const int64_t n = x.dim(0), l = x.dim(2);
  QCORE_CHECK_MSG(l + 2 * pad_ >= kernel_,
                  "conv1d kernel is longer than the padded input");
  const int64_t lo = (l + 2 * pad_ - kernel_) / stride_ + 1;
  if (training) cached_input_ = x;
  Tensor out({n, out_channels_, lo});
  PlaneConvForward(x.data(), n, in_channels_, 1, l, weight_.value.data(),
                   bias_.value.data(), out_channels_, 1, kernel_, stride_, 0,
                   pad_, 1, lo, out.data());
  return out;
}

Tensor Conv1d::Backward(const Tensor& grad_out) {
  QCORE_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  const Tensor& x = cached_input_;
  const int64_t n = x.dim(0), c = in_channels_, l = x.dim(2);
  const int64_t lo = grad_out.dim(2);
  QCORE_CHECK_EQ(grad_out.dim(0), n);
  QCORE_CHECK_EQ(grad_out.dim(1), out_channels_);

  Tensor grad_in(x.shape());
  const float* px = x.data();
  const float* pw = weight_.value.data();
  const float* pg = grad_out.data();
  float* pgi = grad_in.data();
  float* pdw = weight_.grad.data();
  float* pdb = bias_.grad.data();

  const int64_t ck = c * kernel_;
  const size_t pack_size = static_cast<size_t>(ck * lo);
  float* col = kernels::ColScratch(pack_size);
  float* dcol = kernels::DcolScratch(pack_size);
  for (int64_t i = 0; i < n; ++i) {
    const float* gplane = pg + i * out_channels_ * lo;
    // Bias gradient: plain row sums, double accumulator (reduction policy).
    for (int64_t f = 0; f < out_channels_; ++f) {
      double db = 0.0;
      for (int64_t o = 0; o < lo; ++o) db += gplane[f * lo + o];
      pdb[f] += static_cast<float>(db);
    }
    kernels::Im2Col1d(px + i * c * l, c, l, kernel_, stride_, pad_, lo, col);
    // dW[F, C*K] += dY_i[F, lo] * col[C*K, lo]^T, on top of running grads.
    kernels::Gemm(out_channels_, ck, lo, gplane, lo, /*trans_a=*/false,
                  col, lo, /*trans_b=*/true, pdw, ck);
    // dcol[C*K, lo] = W[F, C*K]^T * dY_i[F, lo], then fold back into dX_i.
    std::fill(dcol, dcol + pack_size, 0.0f);
    kernels::Gemm(ck, lo, out_channels_, pw, ck, /*trans_a=*/true, gplane,
                  lo, /*trans_b=*/false, dcol, lo);
    kernels::Col2Im1d(dcol, c, l, kernel_, stride_, pad_, lo,
                      pgi + i * c * l);
  }
  return grad_in;
}

std::unique_ptr<Layer> Conv1d::Clone() const {
  auto copy = std::unique_ptr<Conv1d>(
      new Conv1d(in_channels_, out_channels_, kernel_, stride_, pad_));
  copy->weight_ = Parameter(weight_.name, weight_.value);
  copy->bias_ = Parameter(bias_.name, bias_.value);
  return copy;
}

std::string Conv1d::name() const {
  return "conv1d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ",k=" + std::to_string(kernel_) + ")";
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int kernel,
               int stride, int pad, Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  QCORE_CHECK_GT(in_channels, 0);
  QCORE_CHECK_GT(out_channels, 0);
  QCORE_CHECK_GT(kernel, 0);
  QCORE_CHECK_GT(stride, 0);
  QCORE_CHECK_GE(pad, 0);
  QCORE_CHECK(rng != nullptr);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_channels * kernel * kernel));
  weight_ = Parameter(
      "conv2d.weight",
      Tensor::Randn({out_channels, in_channels, kernel, kernel}, rng, stddev));
  bias_ = Parameter("conv2d.bias", Tensor::Zeros({out_channels}));
}

Tensor Conv2d::Forward(const Tensor& x, bool training) {
  QCORE_CHECK_EQ(x.ndim(), 4);
  QCORE_CHECK_EQ(x.dim(1), in_channels_);
  const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  QCORE_CHECK_MSG(h + 2 * pad_ >= kernel_ && w + 2 * pad_ >= kernel_,
                  "conv2d kernel is larger than the padded input");
  const int64_t ho = (h + 2 * pad_ - kernel_) / stride_ + 1;
  const int64_t wo = (w + 2 * pad_ - kernel_) / stride_ + 1;
  if (training) cached_input_ = x;
  Tensor out({n, out_channels_, ho, wo});
  PlaneConvForward(x.data(), n, in_channels_, h, w, weight_.value.data(),
                   bias_.value.data(), out_channels_, kernel_, kernel_,
                   stride_, pad_, pad_, ho, wo, out.data());
  return out;
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  QCORE_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  const Tensor& x = cached_input_;
  const int64_t n = x.dim(0), c = in_channels_, h = x.dim(2), w = x.dim(3);
  const int64_t ho = grad_out.dim(2), wo = grad_out.dim(3);
  QCORE_CHECK_EQ(grad_out.dim(0), n);
  QCORE_CHECK_EQ(grad_out.dim(1), out_channels_);

  Tensor grad_in(x.shape());
  const float* px = x.data();
  const float* pw = weight_.value.data();
  const float* pg = grad_out.data();
  float* pgi = grad_in.data();
  float* pdw = weight_.grad.data();
  float* pdb = bias_.grad.data();

  const int64_t ckk = c * kernel_ * kernel_;
  const int64_t howo = ho * wo;
  const size_t pack_size = static_cast<size_t>(ckk * howo);
  float* col = kernels::ColScratch(pack_size);
  float* dcol = kernels::DcolScratch(pack_size);
  for (int64_t i = 0; i < n; ++i) {
    const float* gplane = pg + i * out_channels_ * howo;
    for (int64_t f = 0; f < out_channels_; ++f) {
      double db = 0.0;
      for (int64_t o = 0; o < howo; ++o) db += gplane[f * howo + o];
      pdb[f] += static_cast<float>(db);
    }
    kernels::Im2Col2d(px + i * c * h * w, c, h, w, kernel_, stride_, pad_, ho,
                      wo, col);
    // dW[F, C*K*K] += dY_i[F, Ho*Wo] * col[C*K*K, Ho*Wo]^T.
    kernels::Gemm(out_channels_, ckk, howo, gplane, howo, /*trans_a=*/false,
                  col, howo, /*trans_b=*/true, pdw, ckk);
    // dcol = W^T * dY_i, folded back into dX_i by col2im.
    std::fill(dcol, dcol + pack_size, 0.0f);
    kernels::Gemm(ckk, howo, out_channels_, pw, ckk, /*trans_a=*/true,
                  gplane, howo, /*trans_b=*/false, dcol, howo);
    kernels::Col2Im2d(dcol, c, h, w, kernel_, stride_, pad_, ho, wo,
                      pgi + i * c * h * w);
  }
  return grad_in;
}

std::unique_ptr<Layer> Conv2d::Clone() const {
  auto copy = std::unique_ptr<Conv2d>(
      new Conv2d(in_channels_, out_channels_, kernel_, stride_, pad_));
  copy->weight_ = Parameter(weight_.name, weight_.value);
  copy->bias_ = Parameter(bias_.name, bias_.value);
  return copy;
}

std::string Conv2d::name() const {
  return "conv2d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ",k=" + std::to_string(kernel_) + ")";
}

}  // namespace qcore
