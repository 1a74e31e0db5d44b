// Table 9: average end-to-end running time per calibration (seconds), 4-bit,
// QCore/buffer size 30, across DSA, USC, and Caltech10. Baselines use a
// BP budget scaled from the paper's 200 epochs; QCore runs its inference-
// only bit-flip calibration.
//
// Shape check (paper Sec. 4.2.5): on every row, QCore is strictly faster
// than every BP baseline. The paper gives no factor, so none is asserted;
// the baseline/QCore ratios are printed. Exit 1 if the check fails — a
// timing property, so a noisy shared host may miss it.
#include <cstdio>

#include "bench/harness.h"
#include "common/table_printer.h"

using namespace qcore;
using namespace qcore::bench;

namespace {

// Seconds per calibration: every baseline in BaselineNames() order, then
// QCore last.
std::vector<double> RunRow(ExperimentLab* lab, const DomainData& target) {
  std::vector<double> times;
  for (const auto& method : BaselineNames()) {
    times.push_back(
        lab->RunBaseline(method, target, 4).seconds_per_calibration);
  }
  times.push_back(lab->RunQCore(target, 4).seconds_per_calibration);
  return times;
}

}  // namespace

int main() {
  std::printf("== Table 9: average running time per calibration "
              "(seconds, 4-bit) ==\n\n");
  ReportRunEnvironment();
  std::vector<std::pair<std::string, std::vector<double>>> rows;

  // The accuracy tables use a reduced BP budget for wall time; the runtime
  // comparison restores the paper-faithful protocol (scaled from 200 BP
  // epochs per calibration).
  const int runtime_epochs = 100;
  {
    BenchConfig config = BenchConfig::TimeSeries();
    config.learner.epochs = runtime_epochs;
    ExperimentLab lab("InceptionTime", LoadHar(HarSpec::Dsa(), 0), config);
    rows.emplace_back("DSA", RunRow(&lab, LoadHar(HarSpec::Dsa(), 1)));
  }
  if (!FastMode()) {
    {
      BenchConfig config = BenchConfig::TimeSeries();
      config.learner.epochs = runtime_epochs;
      ExperimentLab lab("InceptionTime", LoadHar(HarSpec::Usc(), 5), config);
      rows.emplace_back("USC", RunRow(&lab, LoadHar(HarSpec::Usc(), 6)));
    }
    {
      ImageSpec spec = ImageSpec::Caltech10();
      BenchConfig config = BenchConfig::Image();
      config.learner.epochs = runtime_epochs / 4;  // image convs are costly
      ExperimentLab lab("ResNet18", LoadImage(spec, spec.DomainIndex("DSLR")),
                        config);
      rows.emplace_back(
          "Calt10",
          RunRow(&lab, LoadImage(spec, spec.DomainIndex("Amazon"))));
    }
  }

  std::vector<std::string> header = {"Data"};
  for (const auto& m : BaselineNames()) header.push_back(m);
  TablePrinter ratios(header);
  header.push_back("QCore");
  TablePrinter table(header);
  bool shape_holds = true;
  for (const auto& [data, times] : rows) {
    const double qcore = times.back();
    std::vector<std::string> row = {data};
    std::vector<std::string> ratio_row = {data};
    for (size_t m = 0; m < times.size(); ++m) {
      row.push_back(TablePrinter::Num(times[m], 3));
      if (m + 1 == times.size()) continue;
      ratio_row.push_back(TablePrinter::Num(times[m] / qcore, 2) + "x");
      if (!(qcore < times[m])) {
        shape_holds = false;
        std::printf("[shape] FAILED %s: QCore %.3f s is not faster than %s "
                    "%.3f s\n",
                    data.c_str(), qcore, BaselineNames()[m].c_str(),
                    times[m]);
      }
    }
    table.AddRow(row);
    ratios.AddRow(ratio_row);
  }
  table.Print();
  std::printf("\nBaseline / QCore time per calibration:\n\n");
  ratios.Print();
  std::printf(
      "\nExpected shape: QCore's inference-only calibration is faster than\n"
      "every BP-based baseline on each dataset (paper Sec. 4.2.5; the paper\n"
      "calls it several times faster but gives no factor); absolute numbers\n"
      "differ from the paper's GPU testbed.\n"
      "[shape] QCore faster than every BP baseline on every row: %s\n",
      shape_holds ? "holds" : "FAILED");
  return shape_holds ? 0 : 1;
}
