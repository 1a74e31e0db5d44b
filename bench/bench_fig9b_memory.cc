// Figure 9(b): memory-consumption analysis — average accuracy as a function
// of the QCore/buffer size, DSA Subj. 1 -> Subj. 2, 4-bit.
#include <cstdio>

#include "bench/harness.h"
#include "common/table_printer.h"

using namespace qcore;
using namespace qcore::bench;

int main() {
  std::printf("== Figure 9(b): accuracy vs buffer/subset size "
              "(DSA Subj. 1 -> Subj. 2, 4-bit) ==\n\n");
  ReportRunEnvironment();
  HarSpec spec = HarSpec::Dsa();
  BenchConfig config = BenchConfig::TimeSeries();
  ExperimentLab lab("InceptionTime", LoadHar(spec, 0), config);
  DomainData target = LoadHar(spec, 1);

  const std::vector<int> sizes =
      FastMode() ? std::vector<int>{20, 60, 100}
                 : std::vector<int>{20, 40, 60, 80, 100};
  const std::vector<std::string> methods = {"ER", "DER++", "Camel"};

  std::vector<std::string> header = {"Size"};
  for (const auto& m : methods) header.push_back(m);
  header.push_back("QCore");
  TablePrinter table(header);

  for (int size : sizes) {
    std::vector<std::string> row = {std::to_string(size)};
    for (const auto& method : methods) {
      LearnerOptions lopt = config.learner;
      lopt.buffer_capacity = size;
      lopt.replay_sample = size;  // let learners actually use the memory
      row.push_back(TablePrinter::Num(
          lab.RunBaseline(method, target, 4, lopt).average_accuracy));
    }
    row.push_back(TablePrinter::Num(
        lab.RunQCoreWithSize(target, 4, size).average_accuracy));
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\nExpected shape: every method improves with memory; QCore dominates\n"
      "at small sizes because its subset targets calibration-relevant\n"
      "examples (paper Sec. 4.2.6).\n");
  return 0;
}
