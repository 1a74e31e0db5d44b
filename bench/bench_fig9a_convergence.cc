// Figure 9(a): convergence analysis — accuracy on the shifted domain as a
// function of calibration epochs/iterations on the first stream batch, DSA
// Subj. 1 -> Subj. 2, 4-bit. QCore's bit-flip calibration stabilizes within
// a few iterations; BP baselines need many more epochs.
#include <cstdio>

#include "bench/harness.h"
#include "common/table_printer.h"
#include "core/continual.h"
#include "nn/training.h"

using namespace qcore;
using namespace qcore::bench;

int main() {
  std::printf("== Figure 9(a): convergence on the first stream batch "
              "(DSA Subj. 1 -> Subj. 2, 4-bit) ==\n\n");
  ReportRunEnvironment();
  HarSpec spec = HarSpec::Dsa();
  BenchConfig config = BenchConfig::TimeSeries();
  ExperimentLab lab("InceptionTime", LoadHar(spec, 0), config);
  DomainData target = LoadHar(spec, 1);

  const std::vector<int> checkpoints = {1, 2, 3, 5, 8, 12, 20, 30, 50};
  Rng rng(config.seed ^ 0xF19Au);
  Dataset batch = SplitIntoStreamBatches(target.train, 10, &rng)[0];

  TablePrinter table({"epochs/iters", "QCore", "ER", "DER++"});
  // QCore: run increasing iteration budgets from the same deployed state,
  // each one calibration step of a fresh ContinualDriver (E = e, no QCore
  // update).
  std::map<int, float> qcore_acc;
  for (int e : checkpoints) {
    Rng qrng(config.seed ^ 0xBF00u);
    QuantizedModel qm(*lab.fp_model(), 4);
    BitFlipNet bf =
        TrainBitFlipNet(&qm, lab.build().qcore, config.bf_train, &qrng);
    qm.DropShadows();
    ContinualOptions copt = config.continual;
    copt.iterations = e;
    copt.use_qcore_update = false;
    ContinualDriver driver(&qm, &bf, lab.build().qcore, copt, &qrng);
    qcore_acc[e] = driver.ProcessBatch(batch, target.test).accuracy;
  }
  // Baselines: one ObserveBatch with the epoch budget set per checkpoint.
  std::map<std::string, std::map<int, float>> base_acc;
  for (const std::string method : {"ER", "DER++"}) {
    for (int e : checkpoints) {
      LearnerOptions lopt = config.learner;
      lopt.epochs = e;
      Rng brng(config.seed ^ 0xBA5Eu);
      auto qm = lab.CalibratedBaselineModel(4);
      auto learner = MakeLearner(method, qm.get(), lopt, &brng);
      learner->ObserveBatch(batch);
      base_acc[method][e] = EvaluateAccuracy(
          qm->model(), target.test.x(), target.test.labels());
    }
  }
  for (int e : checkpoints) {
    table.AddRow({std::to_string(e), TablePrinter::Num(qcore_acc[e]),
                  TablePrinter::Num(base_acc["ER"][e]),
                  TablePrinter::Num(base_acc["DER++"][e])});
  }
  table.Print();
  std::printf(
      "Note: ER = DER++ in every row: each sees one batch with an empty "
      "rehearsal buffer, so DER++'s replay terms never run.\n");
  std::printf(
      "\nExpected shape: QCore is already stable within <10 iterations; the\n"
      "BP baselines climb slowly with their epoch budget (paper Fig. 9(a)).\n");
  return 0;
}
