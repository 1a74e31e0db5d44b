#include "core/pipeline.h"

#include "nn/training.h"

namespace qcore {

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
  PipelineResult result =
      RunPipelineWithSubset(fp_model, build.qcore, source_test, target_stream,
                            target_test, options, rng);
  result.qcore_indices = build.indices;
  result.info_loss = build.info_loss;
  return result;
}

PipelineResult RunPipelineWithSubset(Sequential* fp_model,
                                     const Dataset& subset,
                                     const Dataset& source_test,
                                     const Dataset& target_stream,
                                     const Dataset& target_test,
                                     const PipelineOptions& options,
                                     Rng* rng) {
  QCORE_CHECK(fp_model != nullptr && rng != nullptr);
  PipelineResult result;

  // Phase 2 (server): quantization + initial calibration with BP, during
  // which the bit-flipping network is trained (Algorithm 2).
  QuantizedModel qm(*fp_model, options.bits);
  BitFlipNet bf = TrainBitFlipNet(&qm, subset, options.bf_train, rng);
  if (!source_test.empty()) {
    result.post_calibration_source_accuracy =
        EvaluateAccuracy(qm.model(), source_test.x(), source_test.labels());
  }

  // Phase 3 (edge): drop full-precision masters and stream.
  qm.DropShadows();
  std::vector<Dataset> batches =
      SplitIntoStreamBatches(target_stream, options.stream_batches, rng);
  std::vector<Dataset> test_slices =
      SplitIntoStreamBatches(target_test, options.stream_batches, rng);
  ContinualDriver driver(&qm, &bf, subset, options.continual, rng);
  result.per_batch = driver.RunStream(batches, test_slices);
  result.average_accuracy = AverageAccuracy(result.per_batch);
  double total_seconds = 0.0;
  for (const auto& s : result.per_batch) {
    total_seconds += s.calibration_seconds;
  }
  result.seconds_per_calibration =
      total_seconds / static_cast<double>(result.per_batch.size());
  return result;
}

}  // namespace qcore
