#include "core/pipeline.h"

#include "nn/training.h"
#include "quant/ste_calibrator.h"

namespace qcore {

namespace {

PipelineResult StreamPhase(QuantizedModel* qm, const BitFlipNet* bf,
                           const Dataset& qcore, const Dataset& target_stream,
                           const Dataset& target_test,
                           const PipelineOptions& options, Rng* rng) {
  PipelineResult result;
  std::vector<Dataset> batches =
      SplitIntoStreamBatches(target_stream, options.stream_batches, rng);
  std::vector<Dataset> test_slices =
      SplitIntoStreamBatches(target_test, options.stream_batches, rng);

  ContinualDriver driver(qm, bf, qcore, options.continual, rng);
  result.per_batch = driver.RunStream(batches, test_slices);
  result.average_accuracy = AverageAccuracy(result.per_batch);
  for (const auto& s : result.per_batch) {
    result.total_calibration_seconds += s.calibration_seconds;
  }
  result.seconds_per_calibration =
      result.total_calibration_seconds /
      static_cast<double>(result.per_batch.size());
  return result;
}

}  // namespace

PipelineResult RunQCorePipeline(Sequential* fp_model,
                                const Dataset& source_train,
                                const Dataset& source_test,
                                const Dataset& target_stream,
                                const Dataset& target_test,
                                const PipelineOptions& options, Rng* rng) {
  QCORE_CHECK(fp_model != nullptr && rng != nullptr);

  // Phase 1 (server): FP training + QCore construction (Algorithm 1).
  QCoreBuildResult build =
      BuildQCore(fp_model, source_train, options.build, rng);

  // Phase 2 (server): quantization + initial calibration with BP, during
  // which the bit-flipping network is trained (Algorithm 2).
  QuantizedModel qm(*fp_model, options.bits);
  BitFlipNet bf = TrainBitFlipNet(&qm, build.qcore, options.bf_train, rng);

  float source_acc = 0.0f;
  if (!source_test.empty()) {
    source_acc =
        QuantizedAccuracy(&qm, source_test.x(), source_test.labels());
  }

  // Phase 3 (edge): drop full-precision masters and stream.
  qm.DropShadows();
  PipelineResult result = StreamPhase(&qm, &bf, build.qcore, target_stream,
                                      target_test, options, rng);
  result.qcore_indices = build.indices;
  result.info_loss = build.info_loss;
  result.post_calibration_source_accuracy = source_acc;
  return result;
}

PipelineResult RunPipelineWithSubset(Sequential* fp_model,
                                     const Dataset& subset,
                                     const Dataset& target_stream,
                                     const Dataset& target_test,
                                     const PipelineOptions& options,
                                     Rng* rng) {
  QCORE_CHECK(fp_model != nullptr && rng != nullptr);
  QuantizedModel qm(*fp_model, options.bits);
  BitFlipNet bf = TrainBitFlipNet(&qm, subset, options.bf_train, rng);
  qm.DropShadows();
  return StreamPhase(&qm, &bf, subset, target_stream, target_test, options,
                     rng);
}

}  // namespace qcore
