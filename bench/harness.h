// Shared experiment harness for the paper-reproduction benches. One
// ExperimentLab per (dataset, architecture, source domain): it trains the
// full-precision model once while building the QCore (Algorithm 1), shares
// the initially calibrated quantized models across methods and bit-widths,
// and runs each method's continual-calibration stream. QCore runs go
// through RunPipelineWithSubset (core/pipeline.h), the pipeline the
// examples run too.
//
// Environment: set QCORE_FAST=1 to shrink every bench's grid for quick
// iteration (fewer bit-widths / scenarios); default settings reproduce the
// tables as reported in EXPERIMENTS.md.
#ifndef QCORE_BENCH_HARNESS_H_
#define QCORE_BENCH_HARNESS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/continual_learner.h"
#include "core/pipeline.h"
#include "data/har_generator.h"
#include "data/image_generator.h"
#include "models/model_zoo.h"

namespace qcore::bench {

// True when QCORE_FAST=1 is set.
bool FastMode();

// Prints one "[bench-env] ..." line with the settings that change what a
// bench's numbers mean across hosts — currently the GEMM thread budget
// (kernels::gemm_threads()), the host's default parallel worker count, and
// fast mode. Every paper-table/figure bench calls this right after its
// header so recorded runs are unambiguous: a table timed at gemm_threads=4
// is not comparable to one timed at 1.
void ReportRunEnvironment();

struct DomainData {
  Dataset train;
  Dataset test;
};

// Bit-widths exercised by the tables ({4} in fast mode).
std::vector<int> BenchBits();

// Default knobs, centralized so every bench reports a consistent setting.
struct BenchConfig {
  TrainOptions fp_train;            // full-precision source training
  QCoreBuildOptions build;          // Algorithm 1
  BitFlipTrainOptions bf_train;     // Algorithm 2 (+ initial calibration)
  ContinualOptions continual;       // Algorithms 3+4
  SteOptions baseline_initial;      // baselines' pre-deployment calibration
  LearnerOptions learner;           // baselines' on-edge BP calibration
  int stream_batches = 10;
  uint64_t seed = 20240422;

  static BenchConfig TimeSeries();
  static BenchConfig Image();
};

class ExperimentLab {
 public:
  // `model_factory_name` is resolved against the time-series or image model
  // registry depending on the input rank of `source.train`.
  ExperimentLab(std::string model_name, DomainData source, BenchConfig config);

  const BenchConfig& config() const { return config_; }
  const QCoreBuildResult& build() const { return build_; }
  Sequential* fp_model() { return fp_model_.get(); }
  const DomainData& source() const { return source_; }

  // Fresh quantized model from the trained FP model, STE-calibrated on the
  // full source training set (the baselines' pre-deployment state). Cached
  // per bit-width; callers receive an independent clone.
  std::unique_ptr<QuantizedModel> CalibratedBaselineModel(int bits);

  // QCore's end-to-end continual run (Fig. 1(b) pipeline) on `target`.
  PipelineResult RunQCore(const DomainData& target, int bits);

  // Ablation variants (Table 7): toggles for the QCore update and the
  // bit-flip calibration.
  PipelineResult RunQCoreAblation(const DomainData& target, int bits,
                                  bool use_bitflip, bool use_update);

  // QCore machinery driven by an externally constructed subset (Tables 4/8).
  PipelineResult RunWithSubset(const Dataset& subset,
                               const DomainData& target, int bits);

  // One of the BP baselines (by registry name) on `target`. Only
  // per_batch, average_accuracy and seconds_per_calibration are filled.
  PipelineResult RunBaseline(const std::string& method,
                             const DomainData& target, int bits);

  // Baseline run with an options override (Fig. 9 sweeps).
  PipelineResult RunBaseline(const std::string& method,
                             const DomainData& target, int bits,
                             const LearnerOptions& options);

  // QCore run with a subset-size override (Fig. 9(b)).
  PipelineResult RunQCoreWithSize(const DomainData& target, int bits,
                                  int qcore_size);

 private:
  std::unique_ptr<Sequential> MakeUntrained(Rng* rng) const;
  // The pipeline options BenchConfig gives a QCore run at `bits`.
  PipelineOptions QCorePipelineOptions(int bits) const;

  std::string model_name_;
  DomainData source_;
  BenchConfig config_;
  bool time_series_ = true;
  std::unique_ptr<Sequential> fp_model_;
  QCoreBuildResult build_;
  std::map<int, std::unique_ptr<QuantizedModel>> calibrated_;
};

// Convenience loaders.
DomainData LoadHar(const HarSpec& spec, int subject);
DomainData LoadImage(const ImageSpec& spec, int domain);

}  // namespace qcore::bench

#endif  // QCORE_BENCH_HARNESS_H_
