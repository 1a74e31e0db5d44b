// The on-edge continual-calibration loop (paper Fig. 7): for every incoming
// stream batch, the quantized model is calibrated with the bit-flipping
// network on QCore ∪ batch while quantization misses are tracked, and the
// QCore is resampled to absorb the new domain without forgetting the old
// one. ProcessBatch is the one loop of E calibration rounds (Algorithms 3
// and 4 interleaved); the pipeline (core/pipeline.h) and the serving
// sessions step a ContinualDriver. A step is inference only: each round
// opens with one pass of the fused plan over the update pool (TrialForward
// under the frozen-training formula, core/bitflip.h), split over the free
// kernel threads, and no step runs a training-mode forward, so a
// calibrated model holds no layer caches between steps. The two ablation
// switches correspond to Table 7 (NoBF / NoUpda).
#ifndef QCORE_CORE_CONTINUAL_H_
#define QCORE_CORE_CONTINUAL_H_

#include <vector>

#include "core/bitflip.h"
#include "data/dataset.h"
#include "quant/quantized_model.h"

namespace qcore {

struct ContinualOptions {
  // E in Algorithms 3 and 4: rounds per stream batch, each one pass over
  // the update pool whose logits feed the miss tracker and whose kept
  // layer inputs feed one bit-flip round. The only knob for E.
  int iterations = 3;
  // Disable for the NoBF ablation: the model stays fixed (no BP on edge).
  bool use_bitflip = true;
  // Disable for the NoUpda ablation: QCore keeps its original contents.
  bool use_qcore_update = true;
  BitFlipCalibrateOptions bf;
};

struct BatchStats {
  float accuracy = 0.0f;       // on the batch's test slice, after calibration
  double calibration_seconds = 0.0;
  // Stream examples the QCore update took in: rows of the new QCore drawn
  // from the batch (0 without the update).
  int qcore_changed = 0;
};

class ContinualDriver {
 public:
  // `qm` and `bf` must outlive the driver; `bf` may be null iff
  // options.use_bitflip is false. The driver only predicts with `bf`, so
  // drivers may share one net.
  ContinualDriver(QuantizedModel* qm, const BitFlipNet* bf, Dataset qcore,
                  const ContinualOptions& options, Rng* rng);

  // Calibrates on one stream batch (Algorithms 3+4 interleaved), then
  // evaluates on the supplied test slice.
  BatchStats ProcessBatch(const Dataset& batch, const Dataset& test_slice);

  // Convenience: processes every batch in order against the matching test
  // slice. Sizes must agree.
  std::vector<BatchStats> RunStream(const std::vector<Dataset>& batches,
                                    const std::vector<Dataset>& test_slices);

  const Dataset& qcore() const { return qcore_; }
  QuantizedModel* model() { return qm_; }

 private:
  QuantizedModel* qm_;
  const BitFlipNet* bf_;
  Dataset qcore_;
  ContinualOptions options_;
  Rng* rng_;
};

// Mean accuracy across batch stats.
float AverageAccuracy(const std::vector<BatchStats>& stats);

}  // namespace qcore

#endif  // QCORE_CORE_CONTINUAL_H_
