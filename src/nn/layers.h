// Basic layers: Dense, ReLU, Flatten, 2-D max pooling and global average
// pooling (one layer for both spatial ranks).
#ifndef QCORE_NN_LAYERS_H_
#define QCORE_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace qcore {

// Fully connected layer: x [N, in] -> [N, out]. Weight is [out, in]
// (row-major per output unit), bias is [out].
class Dense : public Layer {
 public:
  Dense(int64_t in_features, int64_t out_features, Rng* rng);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  const Tensor* cached_input() const override {
    return cached_input_.size() > 0 ? &cached_input_ : nullptr;
  }

 private:
  Dense(int64_t in, int64_t out) : in_features_(in), out_features_(out) {}

  int64_t in_features_;
  int64_t out_features_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

class Relu : public Layer {
 public:
  Relu() = default;
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override { return "relu"; }

 private:
  Tensor cached_input_;
};

// [N, d1, d2, ...] -> [N, d1*d2*...].
class Flatten : public Layer {
 public:
  Flatten() = default;
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override { return "flatten"; }

 private:
  std::vector<int64_t> cached_shape_;
};

// Max pooling over the spatial axes of [N, C, H, W] (square kernel).
class MaxPool2d : public Layer {
 public:
  MaxPool2d(int kernel, int stride);
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;

 private:
  int kernel_;
  int stride_;
  std::vector<int64_t> cached_shape_;
  std::vector<int64_t> argmax_;
};

// [N, C, spatial...] -> [N, C]: the mean over every axis past the channel
// axis (time for [N, C, L], space for [N, C, H, W]), as BatchNorm's
// statistics are per channel over all remaining axes.
class GlobalAvgPool : public Layer {
 public:
  GlobalAvgPool() = default;
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override { return "gap"; }

 private:
  std::vector<int64_t> cached_shape_;
};

}  // namespace qcore

#endif  // QCORE_NN_LAYERS_H_
