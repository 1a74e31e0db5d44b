// The fleet fixture the serving suites share: one server-side preparation
// (train the FP model + QCore, quantize, train the bit-flipping net, drop
// shadows — the expensive part of every serving scenario) on a small
// USC-like HAR spec, plus the target domain's stream batches, test slices
// and single-row probes. Each suite builds its own instance once, from its
// own seeds and epoch count.
#ifndef QCORE_TESTS_FLEET_FIXTURE_H_
#define QCORE_TESTS_FLEET_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/bitflip.h"
#include "core/qcore_builder.h"
#include "data/dataset.h"
#include "data/har_generator.h"
#include "models/model_zoo.h"
#include "quant/quantized_model.h"
#include "serving/router.h"

namespace qcore {

struct FleetFixture {
  HarSpec spec;
  HarDomain source;
  HarDomain target;
  Dataset qcore;
  std::unique_ptr<QuantizedModel> base;  // deployed edge form
  std::unique_ptr<BitFlipNet> bf;
  std::vector<Dataset> batches;
  std::vector<Dataset> slices;
  // Distinct single-row inference inputs: request i carrying input
  // i % size must get back the prediction for that exact row, which is
  // what catches scatter mixups and delivery reordering.
  std::vector<Tensor> probes;
};

// `model_seed` drives model init, the QCore build and bit-flip-net
// training (`epochs` each); `split_seed` cuts the target domain into three
// stream batches and test slices.
inline FleetFixture* MakeFleetFixture(uint64_t model_seed,
                                      uint64_t split_seed, int epochs) {
  auto* f = new FleetFixture();
  f->spec = HarSpec::Usc();
  f->spec.num_classes = 5;
  f->spec.channels = 3;
  f->spec.length = 24;
  f->spec.train_per_class = 8;
  f->spec.test_per_class = 4;
  f->source = MakeHarDomain(f->spec, 0);
  f->target = MakeHarDomain(f->spec, 1);

  Rng rng(model_seed);
  auto model = MakeOmniScaleCnn(f->spec.channels, f->spec.num_classes, &rng);
  QCoreBuildOptions build;
  build.size = 15;
  build.train.epochs = epochs;
  build.train.sgd.lr = 0.03f;
  auto built = BuildQCore(model.get(), f->source.train, build, &rng);
  f->qcore = built.qcore;

  f->base = std::make_unique<QuantizedModel>(*model, 4);
  BitFlipTrainOptions bft;
  bft.ste.epochs = epochs;
  bft.ste.batch_size = 16;
  bft.augment_episodes = 1;
  f->bf = std::make_unique<BitFlipNet>(
      TrainBitFlipNet(f->base.get(), f->qcore, bft, &rng));
  f->base->DropShadows();

  Rng split_rng(split_seed);
  f->batches = SplitIntoStreamBatches(f->target.train, 3, &split_rng);
  f->slices = SplitIntoStreamBatches(f->target.test, 3, &split_rng);
  for (int i = 0; i < 6; ++i) {
    f->probes.push_back(f->target.test.x().GatherRows(
        {i % static_cast<int>(f->target.test.size())}));
  }
  return f;
}

// The single-pool configuration of the fleet server: one shard.
inline ShardedFleetServerOptions OneShard(FleetServerOptions shard) {
  ShardedFleetServerOptions opts;
  opts.num_shards = 1;
  opts.shard = std::move(shard);
  return opts;
}

}  // namespace qcore

#endif  // QCORE_TESTS_FLEET_FIXTURE_H_
