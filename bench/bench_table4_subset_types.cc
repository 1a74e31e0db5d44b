// Table 4: average accuracy of quantized models by subset type on DSA
// (Subj. 1 -> Subj. 2 and Subj. 1 -> Subj. 3), subset size 30. Subset types:
// Core j (miss distribution of the j-bit proxy only), Core 32 (full-
// precision misses), Random, and the combined-distribution QCore.
#include <cstdio>

#include "bench/harness.h"
#include "common/table_printer.h"
#include "core/quant_miss.h"

using namespace qcore;
using namespace qcore::bench;

int main() {
  std::printf("== Table 4: accuracy by subset type (DSA, InceptionTime, "
              "subset size 30) ==\n");
  ReportRunEnvironment();
  HarSpec spec = HarSpec::Dsa();
  BenchConfig config = BenchConfig::TimeSeries();
  ExperimentLab lab("InceptionTime", LoadHar(spec, 0), config);
  Rng rng(77);

  // This table's point is the average across bit-widths, so all three are
  // kept even in fast mode (fast mode trims the target list instead).
  const std::vector<int> bits = {2, 4, 8};
  const std::vector<int> targets = FastMode() ? std::vector<int>{1}
                                              : std::vector<int>{1, 2};

  // Build each subset once from the recorded miss distributions.
  struct SubsetCase {
    std::string name;
    Dataset subset;
  };
  std::vector<SubsetCase> cases;
  for (int level : {2, 4, 8, 32}) {
    std::vector<int> idx = SampleByMissDistribution(
        lab.build().per_level_misses.at(level), config.build.size, &rng);
    cases.push_back({"Core " + std::to_string(level),
                     lab.source().train.Subset(idx)});
  }
  cases.push_back({"Random",
                   lab.source().train.Subset(rng.SampleWithoutReplacement(
                       lab.source().train.size(), config.build.size))});
  cases.push_back({"QCore", lab.build().qcore});

  for (int target_subject : targets) {
    std::printf("\n-- Subj. 1 -> Subj. %d --\n", target_subject + 1);
    DomainData target = LoadHar(spec, target_subject);
    std::vector<std::string> header = {"Subset"};
    for (int b : bits) header.push_back(std::to_string(b) + "-bit");
    header.push_back("Avg.");
    TablePrinter table(header);
    for (const auto& c : cases) {
      std::vector<std::string> row = {c.name};
      double sum = 0.0;
      for (int b : bits) {
        PipelineResult res = lab.RunWithSubset(c.subset, target, b);
        row.push_back(TablePrinter::Num(res.average_accuracy));
        sum += res.average_accuracy;
      }
      row.push_back(TablePrinter::Num(sum / bits.size()));
      table.AddRow(row);
    }
    table.Print();
  }
  std::printf(
      "\nExpected shape: Core j is strong at j bits but weak elsewhere;\n"
      "Random and Core 32 trail; the combined QCore has the best average\n"
      "across bit-widths (paper Sec. 4.2.1).\n");
  return 0;
}
