#include "models/model_zoo.h"

#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/layers.h"

namespace qcore {

namespace {

// One inception block: bottleneck 1x1 conv feeding parallel kernels
// {9, 5, 3} plus a direct 1x1 branch, concatenated and batch-normalized.
// Output channels: 4 * filters.
std::unique_ptr<Sequential> InceptionBlock(int in_channels, int bottleneck,
                                           int filters, Rng* rng) {
  std::vector<std::unique_ptr<Layer>> branches;
  for (int kernel : {9, 5, 3}) {
    auto branch = std::make_unique<Sequential>();
    branch->Add(std::make_unique<Conv1d>(in_channels, bottleneck, 1, 1, 0,
                                         rng));
    branch->Add(std::make_unique<Conv1d>(bottleneck, filters, kernel, 1,
                                         Conv1d::SamePad(kernel), rng));
    branches.push_back(std::move(branch));
  }
  // The pooling branch of the original is replaced by a 1x1 conv branch to
  // keep all branch lengths identical without padded pooling.
  branches.push_back(
      std::make_unique<Conv1d>(in_channels, filters, 1, 1, 0, rng));

  auto block = std::make_unique<Sequential>();
  block->Add(std::make_unique<ParallelConcat>(std::move(branches)));
  block->Add(std::make_unique<BatchNorm>(4 * filters));
  return block;
}

}  // namespace

std::unique_ptr<Sequential> MakeInceptionTime(int in_channels,
                                              int num_classes, Rng* rng) {
  QCORE_CHECK(rng != nullptr);
  constexpr int kBottleneck = 8;
  constexpr int kFilters = 6;
  constexpr int kBlockOut = 4 * kFilters;

  auto body = std::make_unique<Sequential>();
  auto block1 = InceptionBlock(in_channels, kBottleneck, kFilters, rng);
  block1->Add(std::make_unique<Relu>());
  body->Add(std::move(block1));
  body->Add(InceptionBlock(kBlockOut, kBottleneck, kFilters, rng));

  auto shortcut = std::make_unique<Sequential>();
  shortcut->Add(
      std::make_unique<Conv1d>(in_channels, kBlockOut, 1, 1, 0, rng));
  shortcut->Add(std::make_unique<BatchNorm>(kBlockOut));

  auto model = std::make_unique<Sequential>();
  model->Add(std::make_unique<Residual>(std::move(body), std::move(shortcut)));
  model->Add(std::make_unique<Relu>());
  model->Add(std::make_unique<GlobalAvgPool>());
  model->Add(std::make_unique<Dense>(kBlockOut, num_classes, rng));
  return model;
}

std::unique_ptr<Sequential> MakeOmniScaleCnn(int in_channels, int num_classes,
                                             Rng* rng) {
  QCORE_CHECK(rng != nullptr);
  constexpr int kFilters = 5;  // per branch
  const std::vector<int> kKernels = {1, 3, 5, 7};
  const int block_out = kFilters * static_cast<int>(kKernels.size());

  auto os_block = [&](int in_ch) {
    std::vector<std::unique_ptr<Layer>> branches;
    for (int kernel : kKernels) {
      branches.push_back(std::make_unique<Conv1d>(
          in_ch, kFilters, kernel, 1, Conv1d::SamePad(kernel), rng));
    }
    auto block = std::make_unique<Sequential>();
    block->Add(std::make_unique<ParallelConcat>(std::move(branches)));
    block->Add(std::make_unique<BatchNorm>(block_out));
    block->Add(std::make_unique<Relu>());
    return block;
  };

  auto model = std::make_unique<Sequential>();
  model->Add(os_block(in_channels));
  model->Add(os_block(block_out));
  model->Add(std::make_unique<GlobalAvgPool>());
  model->Add(std::make_unique<Dense>(block_out, num_classes, rng));
  return model;
}

std::unique_ptr<Sequential> MakeResNetTiny(int in_channels, int num_classes,
                                           Rng* rng) {
  QCORE_CHECK(rng != nullptr);
  constexpr int kStem = 8;
  constexpr int kStage2 = 16;

  auto model = std::make_unique<Sequential>();
  model->Add(std::make_unique<Conv2d>(in_channels, kStem, 3, 1, 1, rng));
  model->Add(std::make_unique<BatchNorm>(kStem));
  model->Add(std::make_unique<Relu>());

  // Identity residual stage.
  auto body1 = std::make_unique<Sequential>();
  body1->Add(std::make_unique<Conv2d>(kStem, kStem, 3, 1, 1, rng));
  body1->Add(std::make_unique<BatchNorm>(kStem));
  body1->Add(std::make_unique<Relu>());
  body1->Add(std::make_unique<Conv2d>(kStem, kStem, 3, 1, 1, rng));
  body1->Add(std::make_unique<BatchNorm>(kStem));
  model->Add(std::make_unique<Residual>(std::move(body1), nullptr));
  model->Add(std::make_unique<Relu>());
  model->Add(std::make_unique<MaxPool2d>(2, 2));

  // Widening residual stage with projection shortcut.
  auto body2 = std::make_unique<Sequential>();
  body2->Add(std::make_unique<Conv2d>(kStem, kStage2, 3, 1, 1, rng));
  body2->Add(std::make_unique<BatchNorm>(kStage2));
  body2->Add(std::make_unique<Relu>());
  body2->Add(std::make_unique<Conv2d>(kStage2, kStage2, 3, 1, 1, rng));
  body2->Add(std::make_unique<BatchNorm>(kStage2));
  auto shortcut2 = std::make_unique<Sequential>();
  shortcut2->Add(std::make_unique<Conv2d>(kStem, kStage2, 1, 1, 0, rng));
  shortcut2->Add(std::make_unique<BatchNorm>(kStage2));
  model->Add(
      std::make_unique<Residual>(std::move(body2), std::move(shortcut2)));
  model->Add(std::make_unique<Relu>());
  model->Add(std::make_unique<MaxPool2d>(2, 2));

  model->Add(std::make_unique<GlobalAvgPool>());
  model->Add(std::make_unique<Dense>(kStage2, num_classes, rng));
  return model;
}

std::unique_ptr<Sequential> MakeVggTiny(int in_channels, int height,
                                        int width, int num_classes, Rng* rng) {
  QCORE_CHECK(rng != nullptr);
  QCORE_CHECK_EQ(height % 4, 0);
  QCORE_CHECK_EQ(width % 4, 0);
  constexpr int kC1 = 8;
  constexpr int kC2 = 16;
  constexpr int kHidden = 32;

  auto model = std::make_unique<Sequential>();
  model->Add(std::make_unique<Conv2d>(in_channels, kC1, 3, 1, 1, rng));
  model->Add(std::make_unique<Relu>());
  model->Add(std::make_unique<Conv2d>(kC1, kC1, 3, 1, 1, rng));
  model->Add(std::make_unique<Relu>());
  model->Add(std::make_unique<MaxPool2d>(2, 2));
  model->Add(std::make_unique<Conv2d>(kC1, kC2, 3, 1, 1, rng));
  model->Add(std::make_unique<Relu>());
  model->Add(std::make_unique<Conv2d>(kC2, kC2, 3, 1, 1, rng));
  model->Add(std::make_unique<Relu>());
  model->Add(std::make_unique<MaxPool2d>(2, 2));
  model->Add(std::make_unique<Flatten>());
  model->Add(std::make_unique<Dense>(kC2 * (height / 4) * (width / 4),
                                     kHidden, rng));
  model->Add(std::make_unique<Relu>());
  model->Add(std::make_unique<Dense>(kHidden, num_classes, rng));
  return model;
}

std::unique_ptr<Sequential> MakeTimeSeriesModel(const std::string& name,
                                                int in_channels,
                                                int num_classes, Rng* rng) {
  if (name == "InceptionTime") {
    return MakeInceptionTime(in_channels, num_classes, rng);
  }
  if (name == "OmniScaleCNN") {
    return MakeOmniScaleCnn(in_channels, num_classes, rng);
  }
  QCORE_CHECK_MSG(false, "unknown time-series model");
  return nullptr;
}

std::unique_ptr<Sequential> MakeImageModel(const std::string& name,
                                           int in_channels, int height,
                                           int width, int num_classes,
                                           Rng* rng) {
  if (name == "ResNet18") {
    return MakeResNetTiny(in_channels, num_classes, rng);
  }
  if (name == "VGG16") {
    return MakeVggTiny(in_channels, height, width, num_classes, rng);
  }
  QCORE_CHECK_MSG(false, "unknown image model");
  return nullptr;
}

}  // namespace qcore
