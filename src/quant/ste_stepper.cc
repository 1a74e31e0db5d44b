#include "quant/ste_stepper.h"

#include <algorithm>

namespace qcore {

SteStepper::SteStepper(QuantizedModel* qm, SgdOptions options, SteMode mode)
    : qm_(qm), options_(options), mode_(mode), other_sgd_(options) {
  QCORE_CHECK(qm_ != nullptr);
  QCORE_CHECK_MSG(qm_->has_shadows(),
                  "STE steps require shadow masters (server mode)");
  std::vector<Parameter*> quantized;
  for (int i = 0; i < qm_->num_quantized(); ++i) {
    quantized.push_back(qm_->quantized(i).param);
  }
  all_params_ = qm_->model()->Params();
  for (Parameter* p : all_params_) {
    if (std::find(quantized.begin(), quantized.end(), p) == quantized.end()) {
      other_params_.push_back(p);
    }
  }
  shadow_velocity_.reserve(quantized.size());
  for (int i = 0; i < qm_->num_quantized(); ++i) {
    shadow_velocity_.emplace_back(qm_->quantized(i).shadow.shape());
  }
}

Tensor SteStepper::ForwardTrain(const Tensor& x) {
  return qm_->model()->Forward(x, /*training=*/true);
}

void SteStepper::Backward(const Tensor& grad_logits) {
  qm_->model()->Backward(grad_logits);
}

std::vector<Tensor> SteStepper::SnapshotGrads() const {
  std::vector<Tensor> out;
  out.reserve(all_params_.size());
  for (Parameter* p : all_params_) out.push_back(p->grad);
  return out;
}

void SteStepper::SetGrads(const std::vector<Tensor>& grads) {
  QCORE_CHECK_EQ(grads.size(), all_params_.size());
  for (size_t i = 0; i < grads.size(); ++i) {
    QCORE_CHECK(grads[i].SameShape(all_params_[i]->grad));
    all_params_[i]->grad = grads[i];
  }
}

void SteStepper::ZeroGrads() {
  for (Parameter* p : all_params_) p->ZeroGrad();
}

void SteStepper::Step() {
  for (int t = 0; t < qm_->num_quantized(); ++t) {
    auto& qt = qm_->quantized(t);
    float* shadow = qt.shadow.data();
    float* pv = shadow_velocity_[static_cast<size_t>(t)].data();
    const float* grad = qt.param->grad.data();
    const int64_t count = qt.shadow.size();
    // Edge mode: no persistent master — the step starts from the current
    // de-quantized value, so updates smaller than half a quantization step
    // are rounded away by the re-quantization below.
    if (mode_ == SteMode::kEdgeRequantize) {
      const float* dequant = qt.param->value.data();
      std::copy(dequant, dequant + count, shadow);
    }
    for (int64_t e = 0; e < count; ++e) {
      const float g = grad[e] + options_.weight_decay * shadow[e];
      pv[e] = options_.momentum * pv[e] + g;
      shadow[e] -= options_.lr * pv[e];
    }
    qt.param->ZeroGrad();
  }
  if (mode_ == SteMode::kServerShadow) {
    other_sgd_.Step(other_params_);
  } else {
    // Edge mode: auxiliary full-precision parameters (biases, BN affine) are
    // fixed at deployment — only quantized codes can change on the device.
    for (Parameter* p : other_params_) p->ZeroGrad();
  }
  qm_->RequantizeFromShadow();
}

}  // namespace qcore
