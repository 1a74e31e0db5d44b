// Averaged Gradient Episodic Memory (Chaudhry et al. 2019): before each
// update, the gradient on the incoming data is projected so it cannot
// increase the loss on a reference sample from episodic memory:
// if g·g_ref < 0, g <- g - (g·g_ref / ||g_ref||^2) g_ref.
#ifndef QCORE_BASELINES_AGEM_H_
#define QCORE_BASELINES_AGEM_H_

#include <vector>

#include "baselines/continual_learner.h"
#include "baselines/replay_buffer.h"

namespace qcore {

class AgemLearner : public ContinualLearner {
 public:
  AgemLearner(QuantizedModel* qm, const LearnerOptions& options, Rng* rng);

  void ObserveBatch(const Dataset& batch) override;
  std::string name() const override { return "A-GEM"; }

 private:
  ReplayBuffer buffer_;
};

// Flattens a gradient snapshot (SteStepper::SnapshotGrads) into one vector,
// the space the projection works in.
std::vector<float> FlattenGrads(const std::vector<Tensor>& grads);

// Writes a flat vector back into a gradient snapshot's shapes.
void UnflattenGrads(const std::vector<float>& flat,
                    std::vector<Tensor>* grads);

}  // namespace qcore

#endif  // QCORE_BASELINES_AGEM_H_
