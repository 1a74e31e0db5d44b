// Table 6: average accuracy of quantized models in the continual-learning
// setting on the Caltech10-like image data, ResNet18- and VGG16-style
// backbones, QCore/buffer size 30.
#include <cstdio>
#include <cstdlib>

#include "bench/harness.h"
#include "common/table_printer.h"

using namespace qcore;
using namespace qcore::bench;

namespace {

void RunScenario(const ImageSpec& spec, const std::string& model,
                 const std::string& source, const std::string& target) {
  std::printf("\n-- Caltech10, %s, %s -> %s --\n", model.c_str(),
              source.c_str(), target.c_str());
  BenchConfig config = BenchConfig::Image();
  ExperimentLab lab(model, LoadImage(spec, spec.DomainIndex(source)), config);
  DomainData target_data = LoadImage(spec, spec.DomainIndex(target));

  // 2-D convolutions are ~10x costlier per example than the 1-D models, so
  // the image table defaults to {4, 8}; set QCORE_IMG_FULL=1 for 2 bits too.
  std::vector<int> bits = FastMode() ? std::vector<int>{4}
                                     : std::vector<int>{4, 8};
  const char* full = std::getenv("QCORE_IMG_FULL");
  if (full != nullptr && full[0] == '1') bits = {2, 4, 8};
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
  std::printf("== Table 6: continual-learning accuracy, images "
              "(QCore/buffer size 30) ==\n");
  ReportRunEnvironment();
  ImageSpec spec = ImageSpec::Caltech10();
  RunScenario(spec, "ResNet18", "DSLR", "Amazon");
  if (!FastMode()) {
    RunScenario(spec, "VGG16", "Webcam", "Caltech");
  }
  std::printf(
      "\nExpected shape: same ordering as the time-series tables — QCore\n"
      "leads every column; VGG (no BatchNorm, dense head) is the weaker\n"
      "backbone overall, as in the paper's Table 6.\n");
  return 0;
}
