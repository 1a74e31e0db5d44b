#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "nn/epilogue.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace qcore {

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

Dense::Dense(int64_t in_features, int64_t out_features, Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  QCORE_CHECK_GT(in_features, 0);
  QCORE_CHECK_GT(out_features, 0);
  QCORE_CHECK(rng != nullptr);
  // He initialization, appropriate for ReLU networks.
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  weight_ = Parameter("dense.weight",
                      Tensor::Randn({out_features, in_features}, rng, stddev));
  bias_ = Parameter("dense.bias", Tensor::Zeros({out_features}));
}

Tensor Dense::Forward(const Tensor& x, bool training) {
  QCORE_CHECK_EQ(x.ndim(), 2);
  QCORE_CHECK_EQ(x.dim(1), in_features_);
  if (training) cached_input_ = x;
  const int64_t n = x.dim(0);
  // Broadcast the bias into the output and let the packed GEMM accumulate
  // x * W^T on top — one pass, no separate bias-add sweep.
  Tensor out({n, out_features_});
  float* po = out.data();
  const float* pb = bias_.value.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < out_features_; ++j) {
      po[i * out_features_ + j] = pb[j];
    }
  }
  kernels::Gemm(n, out_features_, in_features_, x.data(), in_features_,
                /*trans_a=*/false, weight_.value.data(), in_features_,
                /*trans_b=*/true, po, out_features_);
  return out;
}

Tensor Dense::Backward(const Tensor& grad_out) {
  QCORE_CHECK_EQ(grad_out.ndim(), 2);
  QCORE_CHECK_EQ(grad_out.dim(1), out_features_);
  QCORE_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  // dW[o,i] = sum_n grad_out[n,o] * x[n,i] => grad_out^T * x, accumulated
  // straight into the running gradient (it is the GEMM's preloaded C).
  kernels::Gemm(out_features_, in_features_, grad_out.dim(0),
                grad_out.data(), out_features_, /*trans_a=*/true,
                cached_input_.data(), in_features_, /*trans_b=*/false,
                weight_.grad.data(), in_features_);
  // db[o] = sum_n grad_out[n,o]
  const float* pg = grad_out.data();
  float* pdb = bias_.grad.data();
  const int64_t n = grad_out.dim(0);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < out_features_; ++j) pdb[j] += pg[i * out_features_ + j];
  }
  // dX = grad_out * W
  return MatMul(grad_out, weight_.value);
}

std::unique_ptr<Layer> Dense::Clone() const {
  auto copy =
      std::unique_ptr<Dense>(new Dense(in_features_, out_features_));
  copy->weight_ = Parameter(weight_.name, weight_.value);
  copy->bias_ = Parameter(bias_.name, bias_.value);
  return copy;
}

std::string Dense::name() const {
  return "dense(" + std::to_string(in_features_) + "->" +
         std::to_string(out_features_) + ")";
}

// ---------------------------------------------------------------------------
// Relu
// ---------------------------------------------------------------------------

Tensor Relu::Forward(const Tensor& x, bool training) {
  if (training) cached_input_ = x;
  Tensor out = x;
  ReluInto(out.data(), out.size(), out.data());
  return out;
}

Tensor Relu::Backward(const Tensor& grad_out) {
  QCORE_CHECK(grad_out.SameShape(cached_input_));
  Tensor grad_in = grad_out;
  float* pg = grad_in.data();
  const float* px = cached_input_.data();
  const int64_t n = grad_in.size();
  for (int64_t i = 0; i < n; ++i) {
    if (px[i] <= 0.0f) pg[i] = 0.0f;
  }
  return grad_in;
}

std::unique_ptr<Layer> Relu::Clone() const { return std::make_unique<Relu>(); }

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

Tensor Flatten::Forward(const Tensor& x, bool training) {
  QCORE_CHECK_GE(x.ndim(), 2);
  if (training) cached_shape_ = x.shape();
  return x.Reshape({x.dim(0), x.size() / x.dim(0)});
}

Tensor Flatten::Backward(const Tensor& grad_out) {
  QCORE_CHECK(!cached_shape_.empty());
  return grad_out.Reshape(cached_shape_);
}

std::unique_ptr<Layer> Flatten::Clone() const {
  return std::make_unique<Flatten>();
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

MaxPool2d::MaxPool2d(int kernel, int stride) : kernel_(kernel), stride_(stride) {
  QCORE_CHECK_GT(kernel, 0);
  QCORE_CHECK_GT(stride, 0);
}

Tensor MaxPool2d::Forward(const Tensor& x, bool training) {
  QCORE_CHECK_EQ(x.ndim(), 4);
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  QCORE_CHECK_GE(h, kernel_);
  QCORE_CHECK_GE(w, kernel_);
  const int64_t ho = (h - kernel_) / stride_ + 1;
  const int64_t wo = (w - kernel_) / stride_ + 1;
  Tensor out({n, c, ho, wo});
  if (training) {
    cached_shape_ = x.shape();
    argmax_.assign(static_cast<size_t>(out.size()), 0);
  }
  const float* px = x.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = px + (i * c + ch) * h * w;
      for (int64_t oy = 0; oy < ho; ++oy) {
        for (int64_t ox = 0; ox < wo; ++ox) {
          const int64_t sy = oy * stride_, sx = ox * stride_;
          int64_t best = sy * w + sx;
          float best_v = plane[best];
          for (int ky = 0; ky < kernel_; ++ky) {
            for (int kx = 0; kx < kernel_; ++kx) {
              const int64_t idx = (sy + ky) * w + (sx + kx);
              if (plane[idx] > best_v) {
                best_v = plane[idx];
                best = idx;
              }
            }
          }
          const int64_t out_idx = ((i * c + ch) * ho + oy) * wo + ox;
          po[out_idx] = best_v;
          if (training) {
            argmax_[static_cast<size_t>(out_idx)] = (i * c + ch) * h * w + best;
          }
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::Backward(const Tensor& grad_out) {
  QCORE_CHECK(!cached_shape_.empty());
  Tensor grad_in(cached_shape_);
  float* pg = grad_in.data();
  const float* po = grad_out.data();
  QCORE_CHECK_EQ(static_cast<size_t>(grad_out.size()), argmax_.size());
  for (size_t i = 0; i < argmax_.size(); ++i) {
    pg[argmax_[i]] += po[i];
  }
  return grad_in;
}

std::unique_ptr<Layer> MaxPool2d::Clone() const {
  return std::make_unique<MaxPool2d>(kernel_, stride_);
}

std::string MaxPool2d::name() const {
  return "maxpool2d(k=" + std::to_string(kernel_) +
         ",s=" + std::to_string(stride_) + ")";
}

// ---------------------------------------------------------------------------
// GlobalAvgPool
// ---------------------------------------------------------------------------

namespace {

// out[i] = the mean of row i of x [rows, len], summed in double. Four rows
// are summed at once, each in its own ascending chain, so every sum is the
// one-row loop's bit for bit while four adds are in flight instead of one
// dependent chain.
void RowMeans(const float* x, int64_t rows, int64_t len, float* out) {
  const float inv = 1.0f / static_cast<float>(len);
  int64_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const float* r = x + i * len;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (int64_t t = 0; t < len; ++t) {
      s0 += r[t];
      s1 += r[len + t];
      s2 += r[2 * len + t];
      s3 += r[3 * len + t];
    }
    out[i] = static_cast<float>(s0) * inv;
    out[i + 1] = static_cast<float>(s1) * inv;
    out[i + 2] = static_cast<float>(s2) * inv;
    out[i + 3] = static_cast<float>(s3) * inv;
  }
  for (; i < rows; ++i) {
    double s = 0.0;
    for (int64_t t = 0; t < len; ++t) s += x[i * len + t];
    out[i] = static_cast<float>(s) * inv;
  }
}

// The extent each channel's mean runs over: the product of the axes past
// the channel axis of [N, C, spatial...].
int64_t SpatialSize(const std::vector<int64_t>& shape) {
  return std::accumulate(shape.begin() + 2, shape.end(), int64_t{1},
                         std::multiplies<>());
}

}  // namespace

Tensor GlobalAvgPool::Forward(const Tensor& x, bool training) {
  QCORE_CHECK_GE(x.ndim(), 3);
  if (training) cached_shape_ = x.shape();
  Tensor out({x.dim(0), x.dim(1)});
  RowMeans(x.data(), out.size(), SpatialSize(x.shape()), out.data());
  return out;
}

Tensor GlobalAvgPool::Backward(const Tensor& grad_out) {
  QCORE_CHECK(!cached_shape_.empty());
  const int64_t len = SpatialSize(cached_shape_);
  Tensor grad_in(cached_shape_);
  float* pg = grad_in.data();
  const float* po = grad_out.data();
  const float inv = 1.0f / static_cast<float>(len);
  const int64_t rows = grad_out.size();
  for (int64_t i = 0; i < rows; ++i) {
    const float g = po[i] * inv;
    for (int64_t t = 0; t < len; ++t) pg[i * len + t] = g;
  }
  return grad_in;
}

std::unique_ptr<Layer> GlobalAvgPool::Clone() const {
  return std::make_unique<GlobalAvgPool>();
}

}  // namespace qcore
