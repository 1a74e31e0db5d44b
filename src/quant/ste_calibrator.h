// Straight-through-estimator (STE) calibration: back-propagation-based
// calibration of a quantized model (paper Sec. 2.3, Eq. 1). The forward pass
// uses the quantized weights; the gradient "passes straight through" the
// quantization function and updates the full-precision shadow masters, which
// are then re-quantized. This is the server-side initial calibration in
// Fig. 1(b) and the mechanism every BP-based baseline (ER, DER, ...) uses to
// adjust a quantized model.
//
// The per-step observer exposes the integer code deltas produced by each BP
// step — exactly the training signal the bit-flipping network needs
// (Algorithm 2, line 11).
#ifndef QCORE_QUANT_STE_CALIBRATOR_H_
#define QCORE_QUANT_STE_CALIBRATOR_H_

#include <functional>
#include <vector>

#include "nn/sgd.h"
#include "quant/quantized_model.h"

namespace qcore {

struct SteOptions {
  int epochs = 20;
  int batch_size = 32;
  SgdOptions sgd = {.lr = 0.01f, .momentum = 0.9f, .weight_decay = 0.0f};
};

// Observation handed to the per-step callback after each BP step.
struct SteStepInfo {
  int epoch = 0;
  int step = 0;  // global step counter
  // Codes of every quantized tensor *before* this step. Indexed like
  // QuantizedModel::quantized(). After the callback returns, the model holds
  // the post-step codes.
  const std::vector<std::vector<int32_t>>* prev_codes = nullptr;
  QuantizedModel* model = nullptr;
  float batch_loss = 0.0f;
};

using SteStepObserver = std::function<void(const SteStepInfo&)>;

// Runs STE calibration of `qm` on (x, labels): per minibatch, a forward, a
// backward and one SteStepper step in SteMode::kServerShadow. BatchNorm
// running statistics stay frozen throughout (calibration sets are tiny, so
// batch statistics would be destructive). Requires shadows (server-side
// mode). Returns the mean loss of the final epoch.
float SteCalibrate(QuantizedModel* qm, const Tensor& x,
                   const std::vector<int>& labels, const SteOptions& options,
                   Rng* rng, const SteStepObserver& observer = nullptr);

}  // namespace qcore

#endif  // QCORE_QUANT_STE_CALIBRATOR_H_
