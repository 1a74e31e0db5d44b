// Layer abstraction for the from-scratch NN substrate. Rather than a taped
// autograd, each layer implements an explicit Forward/Backward pair and owns
// its parameters. This keeps per-parameter gradients and update deltas
// directly observable, which the bit-flipping trainer (core/bitflip) relies
// on (Algorithm 2 of the paper records the code delta of every parameter
// after each back-propagation step).
#ifndef QCORE_NN_LAYER_H_
#define QCORE_NN_LAYER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace qcore {

// A learnable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void ZeroGrad() { grad.SetZero(); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Computes the layer output. `training` toggles batch-statistics layers
  // (BatchNorm). Implementations cache whatever Backward needs. An eval
  // forward (training == false) writes no layer state; a composite's runs
  // the fused eval plan (nn/incremental_forward.h).
  virtual Tensor Forward(const Tensor& x, bool training) = 0;

  // Given dLoss/dOutput, accumulates parameter gradients and returns
  // dLoss/dInput. Must be called after a Forward with training=true on the
  // same input.
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  // All learnable parameters (empty for stateless layers). Pointers remain
  // valid for the lifetime of the layer.
  virtual std::vector<Parameter*> Params() { return {}; }

  // Non-learnable persistent state (e.g. BatchNorm running statistics).
  // Copied by CopyParams alongside parameters.
  virtual std::vector<Tensor*> Buffers() { return {}; }

  // Deep copy including parameter values (not gradients/caches).
  virtual std::unique_ptr<Layer> Clone() const = 0;

  // Diagnostic name, e.g. "conv1d(8->16,k=3)".
  virtual std::string name() const = 0;

  // Invokes `fn` on each direct child (composites only; leaves are no-ops).
  virtual void ForEachChild(const std::function<void(Layer*)>& fn) {
    (void)fn;
  }

  // The input tensor cached by the last training-mode Forward, for layers
  // that keep one (Dense/Conv). Used by the bit-flip feature extractor to
  // observe per-layer activations without changing the forward API.
  virtual const Tensor* cached_input() const { return nullptr; }

  void ZeroGrad() {
    for (Parameter* p : Params()) p->ZeroGrad();
  }
};

// Total number of scalar parameters across a layer tree.
int64_t CountParams(Layer* layer);

// Depth-first list of leaf (non-composite) layers under `root`, in forward
// order. Includes `root` itself if it has no children.
std::vector<Layer*> FlattenLeafLayers(Layer* root);

// Copies parameter values from `src` to `dst`; layer trees must have
// identical structure (names and shapes are checked).
void CopyParams(Layer* dst, const Layer& src);

}  // namespace qcore

#endif  // QCORE_NN_LAYER_H_
