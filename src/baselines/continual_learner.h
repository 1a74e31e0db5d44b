// Common interface of the continual-learning baselines the paper compares
// against (Sec. 4.1.3). Every baseline adjusts a quantized model with
// BP-based (STE) calibration when a stream batch arrives — the expensive
// regime QCore's bit-flipping avoids — and manages rehearsal data to fight
// catastrophic forgetting.
#ifndef QCORE_BASELINES_CONTINUAL_LEARNER_H_
#define QCORE_BASELINES_CONTINUAL_LEARNER_H_

#include <memory>
#include <string>

#include "quant/ste_stepper.h"
#include "data/dataset.h"
#include "quant/quantized_model.h"

namespace qcore {

struct LearnerOptions {
  // Calibration epochs per incoming batch (baselines need many; Fig. 9(a)).
  int epochs = 60;
  int batch_size = 32;
  SgdOptions sgd = {.lr = 0.01f, .momentum = 0.9f, .weight_decay = 0.0f};
  // Rehearsal memory, kept equal to the QCore size for fair comparison.
  int buffer_capacity = 30;
  // Examples replayed from the buffer per epoch.
  int replay_sample = 32;
};

class ContinualLearner {
 public:
  // `qm` must outlive the learner and keep its shadows.
  ContinualLearner(QuantizedModel* qm, const LearnerOptions& options,
                   Rng* rng);
  virtual ~ContinualLearner() = default;

  // Adapts the model to one incoming stream batch.
  virtual void ObserveBatch(const Dataset& batch) = 0;

  virtual std::string name() const = 0;

  QuantizedModel* model() { return qm_; }

  // Eval-mode accuracy on a test set.
  float Evaluate(const Dataset& test);

 protected:
  QuantizedModel* qm_;
  LearnerOptions options_;
  Rng* rng_;
  SteStepper stepper_;
};

// Factory over baseline names: "A-GEM", "DER", "DER++", "ER", "ER-ACE",
// "Camel", "DeepC". Aborts on unknown names.
std::unique_ptr<ContinualLearner> MakeLearner(const std::string& name,
                                              QuantizedModel* qm,
                                              const LearnerOptions& options,
                                              Rng* rng);

// All baseline names, in the paper's table order.
const std::vector<std::string>& BaselineNames();

}  // namespace qcore

#endif  // QCORE_BASELINES_CONTINUAL_LEARNER_H_
