#include "nn/composite.h"

#include "nn/incremental_forward.h"
#include "tensor/tensor_ops.h"

namespace qcore {

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------

Sequential& Sequential::Add(std::unique_ptr<Layer> layer) {
  QCORE_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::Forward(const Tensor& x, bool training) {
  // An empty Sequential is the identity, a leaf to the eval plan.
  if (!training && !layers_.empty()) return EvalForward(this, x);
  Tensor h = x;
  for (auto& layer : layers_) h = layer->Forward(h, training);
  return h;
}

Tensor Sequential::Backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

std::vector<Parameter*> Sequential::Params() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::Buffers() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* b : layer->Buffers()) out.push_back(b);
  }
  return out;
}

std::unique_ptr<Layer> Sequential::Clone() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& layer : layers_) copy->Add(layer->Clone());
  return copy;
}

std::string Sequential::name() const {
  return "sequential[" + std::to_string(layers_.size()) + "]";
}

// ---------------------------------------------------------------------------
// Residual
// ---------------------------------------------------------------------------

Residual::Residual(std::unique_ptr<Layer> body,
                   std::unique_ptr<Layer> shortcut)
    : body_(std::move(body)), shortcut_(std::move(shortcut)) {
  QCORE_CHECK(body_ != nullptr);
}

Tensor Residual::Forward(const Tensor& x, bool training) {
  if (!training) return EvalForward(this, x);
  Tensor main = body_->Forward(x, training);
  Tensor skip = shortcut_ ? shortcut_->Forward(x, training) : x;
  QCORE_CHECK_MSG(main.SameShape(skip),
                  "residual body/shortcut shape mismatch");
  AddInPlace(&main, skip);
  return main;
}

Tensor Residual::Backward(const Tensor& grad_out) {
  Tensor grad_in = body_->Backward(grad_out);
  if (shortcut_) {
    AddInPlace(&grad_in, shortcut_->Backward(grad_out));
  } else {
    AddInPlace(&grad_in, grad_out);
  }
  return grad_in;
}

std::vector<Parameter*> Residual::Params() {
  std::vector<Parameter*> out = body_->Params();
  if (shortcut_) {
    for (Parameter* p : shortcut_->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Residual::Buffers() {
  std::vector<Tensor*> out = body_->Buffers();
  if (shortcut_) {
    for (Tensor* b : shortcut_->Buffers()) out.push_back(b);
  }
  return out;
}

std::unique_ptr<Layer> Residual::Clone() const {
  return std::make_unique<Residual>(body_->Clone(),
                                    shortcut_ ? shortcut_->Clone() : nullptr);
}

// ---------------------------------------------------------------------------
// ParallelConcat
// ---------------------------------------------------------------------------

ParallelConcat::ParallelConcat(std::vector<std::unique_ptr<Layer>> branches)
    : branches_(std::move(branches)) {
  QCORE_CHECK(!branches_.empty());
  for (const auto& b : branches_) QCORE_CHECK(b != nullptr);
}

Tensor ConcatChannels(const std::vector<const Tensor*>& parts) {
  QCORE_CHECK(!parts.empty());
  const Tensor& first = *parts[0];
  QCORE_CHECK_GE(first.ndim(), 3);
  int64_t total_channels = 0;
  for (const Tensor* part : parts) {
    // Validate non-channel axes agree.
    QCORE_CHECK_EQ(part->ndim(), first.ndim());
    QCORE_CHECK_EQ(part->dim(0), first.dim(0));
    for (int d = 2; d < first.ndim(); ++d) {
      QCORE_CHECK_EQ(part->dim(d), first.dim(d));
    }
    total_channels += part->dim(1);
  }

  std::vector<int64_t> out_shape = first.shape();
  out_shape[1] = total_channels;
  Tensor out(out_shape);
  const int64_t n = out_shape[0];
  int64_t spatial = 1;
  for (size_t d = 2; d < out_shape.size(); ++d) spatial *= out_shape[d];

  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    int64_t ch_off = 0;
    for (const Tensor* part : parts) {
      const int64_t bc = part->dim(1);
      const float* src = part->data() + i * bc * spatial;
      float* dst = po + (i * total_channels + ch_off) * spatial;
      std::copy(src, src + bc * spatial, dst);
      ch_off += bc;
    }
  }
  return out;
}

Tensor ParallelConcat::Forward(const Tensor& x, bool training) {
  if (!training) return EvalForward(this, x);
  std::vector<Tensor> outs;
  outs.reserve(branches_.size());  // keeps the pointers in `parts` valid
  std::vector<const Tensor*> parts;
  for (auto& branch : branches_) {
    outs.push_back(branch->Forward(x, training));
    parts.push_back(&outs.back());
  }
  branch_channels_.clear();  // Backward's split
  for (const Tensor* part : parts) branch_channels_.push_back(part->dim(1));
  return ConcatChannels(parts);
}

Tensor ParallelConcat::Backward(const Tensor& grad_out) {
  QCORE_CHECK_MSG(!branch_channels_.empty(), "Backward before Forward");
  const int64_t n = grad_out.dim(0);
  const int64_t total_channels = grad_out.dim(1);
  int64_t spatial = 1;
  for (int d = 2; d < grad_out.ndim(); ++d) spatial *= grad_out.dim(d);

  Tensor grad_in;
  int64_t ch_off = 0;
  for (size_t b = 0; b < branches_.size(); ++b) {
    const int64_t bc = branch_channels_[b];
    std::vector<int64_t> gshape = grad_out.shape();
    gshape[1] = bc;
    Tensor branch_grad(gshape);
    float* dst = branch_grad.data();
    const float* src = grad_out.data();
    for (int64_t i = 0; i < n; ++i) {
      const float* s = src + (i * total_channels + ch_off) * spatial;
      std::copy(s, s + bc * spatial, dst + i * bc * spatial);
    }
    Tensor g = branches_[b]->Backward(branch_grad);
    if (b == 0) {
      grad_in = std::move(g);
    } else {
      AddInPlace(&grad_in, g);
    }
    ch_off += bc;
  }
  QCORE_CHECK_EQ(ch_off, total_channels);
  return grad_in;
}

std::vector<Parameter*> ParallelConcat::Params() {
  std::vector<Parameter*> out;
  for (auto& b : branches_) {
    for (Parameter* p : b->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> ParallelConcat::Buffers() {
  std::vector<Tensor*> out;
  for (auto& b : branches_) {
    for (Tensor* t : b->Buffers()) out.push_back(t);
  }
  return out;
}

std::unique_ptr<Layer> ParallelConcat::Clone() const {
  std::vector<std::unique_ptr<Layer>> copies;
  copies.reserve(branches_.size());
  for (const auto& b : branches_) copies.push_back(b->Clone());
  return std::make_unique<ParallelConcat>(std::move(copies));
}

std::string ParallelConcat::name() const {
  return "parallel_concat[" + std::to_string(branches_.size()) + "]";
}

// ---------------------------------------------------------------------------
// LayeredEvalForward
// ---------------------------------------------------------------------------

Tensor LayeredEvalForward(Layer* root, const Tensor& x) {
  QCORE_CHECK(root != nullptr);
  if (auto* residual = dynamic_cast<Residual*>(root)) {
    Tensor main = LayeredEvalForward(residual->body(), x);
    const Tensor skip = residual->shortcut() != nullptr
                            ? LayeredEvalForward(residual->shortcut(), x)
                            : x;
    QCORE_CHECK_MSG(main.SameShape(skip),
                    "residual body/shortcut shape mismatch");
    AddInPlace(&main, skip);
    return main;
  }
  std::vector<Layer*> children;
  root->ForEachChild([&](Layer* child) { children.push_back(child); });
  if (dynamic_cast<ParallelConcat*>(root) != nullptr) {
    std::vector<Tensor> outs;
    outs.reserve(children.size());  // keeps the pointers in `parts` valid
    std::vector<const Tensor*> parts;
    for (Layer* branch : children) {
      outs.push_back(LayeredEvalForward(branch, x));
      parts.push_back(&outs.back());
    }
    return ConcatChannels(parts);
  }
  if (dynamic_cast<Sequential*>(root) != nullptr) {
    Tensor h = x;
    for (Layer* child : children) h = LayeredEvalForward(child, h);
    return h;
  }
  QCORE_CHECK_MSG(children.empty(), "LayeredEvalForward: unknown composite");
  return root->Forward(x, /*training=*/false);
}

}  // namespace qcore
