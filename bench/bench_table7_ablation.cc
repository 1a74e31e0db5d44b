// Table 7: ablation of the two QCore components at 4 bits — NoUpda (no
// QCore update, Algorithm 4 off), NoBF (no bit-flip calibration, Algorithm 3
// off), and the full method — with per-batch accuracy and total calibration
// time.
#include <cstdio>

#include "bench/harness.h"
#include "common/table_printer.h"

using namespace qcore;
using namespace qcore::bench;

namespace {

void RunScenario(const char* dataset, const HarSpec& spec, int source,
                 int target) {
  std::printf("\n-- %s: Subj. %d -> Subj. %d (InceptionTime, 4-bit) --\n",
              dataset, source + 1, target + 1);
  BenchConfig config = BenchConfig::TimeSeries();
  ExperimentLab lab("InceptionTime", LoadHar(spec, source), config);
  DomainData target_data = LoadHar(spec, target);

  PipelineResult no_upda = lab.RunQCoreAblation(target_data, 4,
                                                /*use_bitflip=*/true,
                                                /*use_update=*/false);
  PipelineResult no_bf = lab.RunQCoreAblation(target_data, 4,
                                              /*use_bitflip=*/false,
                                              /*use_update=*/true);
  PipelineResult full = lab.RunQCore(target_data, 4);

  TablePrinter table({"Batch", "NoUpda", "NoBF", "QCore"});
  double su = 0, sb = 0, sq = 0;
  for (size_t b = 0; b < full.per_batch.size(); ++b) {
    table.AddRow({std::to_string(b + 1),
                  TablePrinter::Num(no_upda.per_batch[b].accuracy),
                  TablePrinter::Num(no_bf.per_batch[b].accuracy),
                  TablePrinter::Num(full.per_batch[b].accuracy)});
    su += no_upda.per_batch[b].accuracy;
    sb += no_bf.per_batch[b].accuracy;
    sq += full.per_batch[b].accuracy;
  }
  const double n = static_cast<double>(full.per_batch.size());
  table.AddRow({"Avg.", TablePrinter::Num(su / n), TablePrinter::Num(sb / n),
                TablePrinter::Num(sq / n)});
  table.AddRow({"Time (s)",
                TablePrinter::Num(no_upda.seconds_per_calibration * n, 3),
                TablePrinter::Num(no_bf.seconds_per_calibration * n, 3),
                TablePrinter::Num(full.seconds_per_calibration * n, 3)});
  table.Print();
}

}  // namespace

int main() {
  std::printf("== Table 7: ablation study (4-bit, subset size 30) ==\n");
  ReportRunEnvironment();
  RunScenario("DSA", HarSpec::Dsa(), 0, 1);
  if (!FastMode()) {
    RunScenario("USC", HarSpec::Usc(), 5, 6);
  }
  std::printf(
      "\nExpected shape: the full method beats both ablations on average;\n"
      "NoBF (frozen model) is flat, NoUpda adapts but retains less, and the\n"
      "runtime differences between variants are small (paper Sec. 4.2.3).\n");
  return 0;
}
