// One STE update step (paper Sec. 2.3, Eq. 1): the one place quantized
// tensors update their shadow masters and re-quantize. SteCalibrate's
// server-side loop steps through it, and so do the BP-based
// continual-learning baselines. It exposes forward / custom-loss backward /
// step as separate operations so baselines can implement composite losses
// (DER's logit replay, ER-ACE's asymmetric cross-entropy) and gradient
// surgery (A-GEM's projection).
#ifndef QCORE_QUANT_STE_STEPPER_H_
#define QCORE_QUANT_STE_STEPPER_H_

#include <vector>

#include "nn/sgd.h"
#include "quant/quantized_model.h"

namespace qcore {

// How parameter updates interact with quantization.
enum class SteMode {
  // Server-side: a persistent full-precision master accumulates updates and
  // is re-quantized after each step (classic STE / QAT).
  kServerShadow,
  // On-edge: full-precision masters are unavailable after deployment (paper
  // Sec. 1, Sec. 2.3), so each step starts from the de-quantized codes and
  // the update is immediately re-quantized — sub-step-size updates are
  // rounded away, which is exactly why BP-based continual calibration
  // degrades on the edge. Optimizer momentum (transient state) stays float.
  kEdgeRequantize,
};

class SteStepper {
 public:
  // `qm` must outlive the stepper and keep its shadows.
  SteStepper(QuantizedModel* qm, SgdOptions options,
             SteMode mode = SteMode::kEdgeRequantize);

  QuantizedModel* model() { return qm_; }

  // Training-mode forward (caller controls BatchNorm freezing).
  Tensor ForwardTrain(const Tensor& x);

  // Accumulates gradients from dLoss/dLogits through the model.
  void Backward(const Tensor& grad_logits);

  // Copies of all parameter gradients, in Params() order.
  std::vector<Tensor> SnapshotGrads() const;

  // Overwrites all parameter gradients (shapes must match Params() order).
  void SetGrads(const std::vector<Tensor>& grads);

  void ZeroGrads();

  // Applies one STE update: quantized tensors update their shadow masters
  // (momentum SGD), other parameters take a plain SGD step (server mode)
  // or stay fixed (edge mode), then every quantized tensor re-quantizes
  // from its shadow. Gradients are cleared afterwards.
  void Step();

 private:
  QuantizedModel* qm_;
  SgdOptions options_;
  SteMode mode_;
  std::vector<Parameter*> all_params_;
  std::vector<Parameter*> other_params_;  // not quantized
  std::vector<Tensor> shadow_velocity_;   // per quantized tensor
  Sgd other_sgd_;
};

}  // namespace qcore

#endif  // QCORE_QUANT_STE_STEPPER_H_
