// End-to-end QCore pipeline (paper Fig. 1(b) / Fig. 3): train the
// full-precision model on the source domain while building the QCore,
// quantize at the requested bit-width, run the initial STE calibration on
// the QCore while training the bit-flipping network, then stream the target
// domain through the continual on-edge loop. RunPipelineWithSubset is the
// one "quantize -> Alg. 2 -> deploy -> stream" sequence: the examples reach
// it through RunQCorePipeline, and every QCore bench runs it through the
// bench harness (bench/harness.h).
#ifndef QCORE_CORE_PIPELINE_H_
#define QCORE_CORE_PIPELINE_H_

#include <memory>
#include <vector>

#include "core/bitflip.h"
#include "core/continual.h"
#include "core/qcore_builder.h"
#include "data/dataset.h"

namespace qcore {

struct PipelineOptions {
  int bits = 4;
  QCoreBuildOptions build;
  BitFlipTrainOptions bf_train;      // includes the initial STE calibration
  ContinualOptions continual;
  int stream_batches = 10;           // paper protocol: 10 batches
};

struct PipelineResult {
  std::vector<BatchStats> per_batch;
  float average_accuracy = 0.0f;
  double seconds_per_calibration = 0.0;
  // Subset construction diagnostics (RunQCorePipeline only).
  std::vector<int> qcore_indices;
  double info_loss = 0.0;
  // Accuracy of the quantized model right after initial calibration, on the
  // source test set (if provided).
  float post_calibration_source_accuracy = 0.0f;
};

// Runs the full pipeline: Algorithm 1 on `fp_model`, then
// RunPipelineWithSubset on the QCore it builds. `fp_model` is an
// *untrained* architecture; it is trained here on source_train (Algorithm 1
// trains and tracks misses in one pass).
PipelineResult RunQCorePipeline(Sequential* fp_model,
                                const Dataset& source_train,
                                const Dataset& source_test,
                                const Dataset& target_stream,
                                const Dataset& target_test,
                                const PipelineOptions& options, Rng* rng);

// Everything after Algorithm 1, with `subset` as the QCore (the QCore
// Algorithm 1 built, or an alternative coreset, Tables 4/8): quantizes the
// trained `fp_model` at options.bits and runs Algorithm 2 on `subset`,
// measures the source accuracy if `source_test` is non-empty, drops the
// full-precision masters, then splits `target_stream` into stream_batches
// batches and `target_test` into matching evaluation slices and streams
// them through a ContinualDriver.
PipelineResult RunPipelineWithSubset(Sequential* fp_model,
                                     const Dataset& subset,
                                     const Dataset& source_test,
                                     const Dataset& target_stream,
                                     const Dataset& target_test,
                                     const PipelineOptions& options, Rng* rng);

}  // namespace qcore

#endif  // QCORE_CORE_PIPELINE_H_
