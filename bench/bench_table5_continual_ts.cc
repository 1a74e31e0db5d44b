// Table 5: average accuracy of quantized models in the continual-learning
// setting on the time-series datasets (DSA and USC), QCore/buffer size 30,
// against the seven BP-based baselines, at 2/4/8 bits.
//
// Grid (wall-time scaled from the paper's 56/182 domain combinations): one
// source->target pair per (dataset, architecture), i.e. the structure of the
// paper's excerpt. QCORE_FAST=1 shrinks to one dataset and 4-bit only.
#include <cstdio>

#include "bench/harness.h"
#include "common/table_printer.h"

using namespace qcore;
using namespace qcore::bench;

namespace {

void RunScenario(const char* dataset, const HarSpec& spec,
                 const std::string& model, int source, int target) {
  std::printf("\n-- %s, %s, Subj. %d -> Subj. %d --\n", dataset,
              model.c_str(), source + 1, target + 1);
  BenchConfig config = BenchConfig::TimeSeries();
  ExperimentLab lab(model, LoadHar(spec, source), config);
  DomainData target_data = LoadHar(spec, target);

  const std::vector<int> bits = BenchBits();
  std::vector<std::string> header = {"Method"};
  for (int b : bits) header.push_back(std::to_string(b) + "-bit");
  TablePrinter table(header);

  for (const auto& method : BaselineNames()) {
    std::vector<std::string> row = {method};
    for (int b : bits) {
      row.push_back(TablePrinter::Num(
          lab.RunBaseline(method, target_data, b).average_accuracy));
    }
    table.AddRow(row);
  }
  {
    std::vector<std::string> row = {"QCore"};
    for (int b : bits) {
      row.push_back(
          TablePrinter::Num(lab.RunQCore(target_data, b).average_accuracy));
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace

int main() {
  std::printf("== Table 5: continual-learning accuracy, time series "
              "(QCore/buffer size 30) ==\n");
  ReportRunEnvironment();
  HarSpec dsa = HarSpec::Dsa();
  HarSpec usc = HarSpec::Usc();

  RunScenario("DSA", dsa, "InceptionTime", 0, 1);   // Subj. 1 -> Subj. 2
  if (!FastMode()) {
    RunScenario("DSA", dsa, "OmniScaleCNN", 3, 4);  // Subj. 4 -> Subj. 5
    RunScenario("USC", usc, "InceptionTime", 5, 6);  // Subj. 6 -> Subj. 7
    RunScenario("USC", usc, "OmniScaleCNN", 9, 10);  // Subj. 10 -> Subj. 11
  }
  std::printf(
      "\nExpected shape: accuracy rises with bit-width for every method;\n"
      "QCore leads or ties the best baseline in most cells (paper Sec.\n"
      "4.2.2), with occasional cells where a BP baseline edges ahead.\n");
  return 0;
}
