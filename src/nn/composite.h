// Composite layers: Sequential (the model container), Residual (skip
// connections for ResNet/InceptionTime), and ParallelConcat (multi-branch
// blocks with channel concatenation, used by InceptionTime/OmniScaleCNN).
//
// Their training-mode Forward runs the children one layer at a time and
// keeps what Backward needs. Their eval-mode Forward is the fused eval plan
// (nn/incremental_forward.h), the one eval forward: a conv writes its
// output once with the BatchNorm/ReLU after it applied, a ParallelConcat
// branch writes straight into its channel slice, and a Residual's add and
// the ReLU after it are one pass. LayeredEvalForward keeps the layer-by-
// layer eval as the reference the plan is tested and benchmarked against.
#ifndef QCORE_NN_COMPOSITE_H_
#define QCORE_NN_COMPOSITE_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace qcore {

class Sequential : public Layer {
 public:
  Sequential() = default;

  // Appends a layer; returns *this for fluent building.
  Sequential& Add(std::unique_ptr<Layer> layer);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override;
  std::vector<Tensor*> Buffers() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;
  void ForEachChild(const std::function<void(Layer*)>& fn) override {
    for (auto& l : layers_) fn(l.get());
  }

  size_t size() const { return layers_.size(); }
  Layer* layer(size_t i) {
    QCORE_CHECK_LT(i, layers_.size());
    return layers_[i].get();
  }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

// y = body(x) + shortcut(x); shortcut may be null (identity — requires the
// body to preserve shape). The classic pre-activation-free residual block:
// any inner ReLU/BN lives inside `body`.
class Residual : public Layer {
 public:
  Residual(std::unique_ptr<Layer> body, std::unique_ptr<Layer> shortcut);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override;
  std::vector<Tensor*> Buffers() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override { return "residual"; }
  void ForEachChild(const std::function<void(Layer*)>& fn) override {
    fn(body_.get());
    if (shortcut_) fn(shortcut_.get());
  }

  Layer* body() { return body_.get(); }
  Layer* shortcut() { return shortcut_.get(); }  // null = identity

 private:
  std::unique_ptr<Layer> body_;
  std::unique_ptr<Layer> shortcut_;  // may be null
};

// Concatenates `parts` in order along the channel axis (axis 1). Every part
// has rank >= 3, and the parts agree on every axis except channels.
Tensor ConcatChannels(const std::vector<const Tensor*>& parts);

// Runs each branch on the same input and concatenates branch outputs along
// the channel axis (axis 1). All branches must produce outputs that agree on
// every axis except channels. Works for [N, C, L] and [N, C, H, W]. In eval
// mode each branch must end in a Conv (optionally followed by BatchNorm or
// ReLU layers): the plan writes that conv's output into the branch's slice.
class ParallelConcat : public Layer {
 public:
  explicit ParallelConcat(std::vector<std::unique_ptr<Layer>> branches);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override;
  std::vector<Tensor*> Buffers() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;
  void ForEachChild(const std::function<void(Layer*)>& fn) override {
    for (auto& b : branches_) fn(b.get());
  }

 private:
  std::vector<std::unique_ptr<Layer>> branches_;
  std::vector<int64_t> branch_channels_;  // channels of each branch output
};

// root->Forward(x, /*training=*/false) computed layer by layer: each leaf's
// own eval Forward, ConcatChannels for a ParallelConcat and an add for a
// Residual, one pass and one fresh tensor per layer. The fused eval plan
// must equal it bit for bit; tests and the perf gate compare against it.
Tensor LayeredEvalForward(Layer* root, const Tensor& x);

}  // namespace qcore

#endif  // QCORE_NN_COMPOSITE_H_
