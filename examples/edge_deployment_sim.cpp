// Scenario: full server/edge separation through serialization — the
// "deployment" story of Fig. 1(b) as two phases that share nothing but
// files:
//
//   Phase 1 (server): train, build QCore, quantize, calibrate, train the
//     bit-flipping network; publish the quantized model (integer codes +
//     scales) into a SnapshotRegistry and persist a registry delta
//     (ExportDelta — CRC-framed snapshot records) plus the QCore to disk.
//   Phase 2 (edge): import the delta into its own registry, warm-start the
//     model from the cohort-nearest snapshot (the server's publish), never
//     touching full precision, and run continual calibration on a streamed
//     domain.
//
// Build & run:  ./build/examples/edge_deployment_sim
#include <cstdio>

#include "common/serialize.h"
#include "core/bitflip.h"
#include "core/continual.h"
#include "core/qcore_builder.h"
#include "data/har_generator.h"
#include "models/model_zoo.h"
#include "nn/training.h"
#include "serving/snapshot.h"

using namespace qcore;

namespace {

constexpr char kDeltaPath[] = "/tmp/qcore_edge_registry_delta.bin";
constexpr char kQCorePath[] = "/tmp/qcore_edge_subset.bin";
constexpr int kBits = 4;

// Datasets now serialize themselves (Dataset::SerializeTo/DeserializeFrom,
// shared with the serving layer's session migration); these wrappers just
// add the file framing.
Status SaveDataset(const Dataset& d, const std::string& path) {
  BinaryWriter w;
  d.SerializeTo(&w);
  return w.ToFile(path);
}

Result<Dataset> LoadDataset(const std::string& path) {
  auto reader = BinaryReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  return Dataset::DeserializeFrom(&reader.value());
}

}  // namespace

int main() {
  HarSpec spec = HarSpec::Usc();

  // ------------------------- Phase 1: server -------------------------
  {
    std::printf("[server] training FP model + building QCore...\n");
    HarDomain source = MakeHarDomain(spec, 0);
    Rng rng(501);
    auto model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
    QCoreBuildOptions build_opts;
    build_opts.size = 30;
    build_opts.train.epochs = 15;
    build_opts.train.sgd.lr = 0.02f;
    QCoreBuildResult build =
        BuildQCore(model.get(), source.train, build_opts, &rng);

    std::printf("[server] quantizing to %d bits + initial calibration...\n",
                kBits);
    QuantizedModel qm(*model, kBits);
    BitFlipTrainOptions bf_opts;
    bf_opts.ste.epochs = 25;
    bf_opts.ste.batch_size = 16;
    BitFlipNet bf = TrainBitFlipNet(&qm, build.qcore, bf_opts, &rng);
    (void)bf;  // the edge retrains its own copy below; see the note there

    // Publish into a registry and ship the registry itself: the delta file
    // is the same CRC-framed unit fleet servers exchange for cross-process
    // warm starts, so "deploy a model" and "replicate a registry" are one
    // mechanism.
    SnapshotRegistry registry;
    registry.Publish(qm, "server-rack-0", 0);
    BinaryWriter delta_writer;
    delta_writer.WriteBytes(registry.ExportDelta(0));
    Status s = delta_writer.ToFile(kDeltaPath);
    if (!s.ok()) {
      std::printf("save failed: %s\n", s.ToString().c_str());
      return 1;
    }
    s = SaveDataset(build.qcore, kQCorePath);
    if (!s.ok()) {
      std::printf("save failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("[server] published v1 (%lld quantized codes, %.1f KiB) as "
                "a registry delta, plus a %d-example QCore\n",
                static_cast<long long>(qm.TotalCodeCount()),
                static_cast<double>(qm.SizeBits()) / 8.0 / 1024.0,
                build.qcore.size());
  }

  // -------------------------- Phase 2: edge --------------------------
  {
    std::printf("\n[edge] importing registry delta + QCore from disk...\n");
    Rng rng(777);
    auto arch = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
    QuantizedModel qm(*arch, kBits);
    auto delta_reader = BinaryReader::FromFile(kDeltaPath);
    if (!delta_reader.ok()) {
      std::printf("load failed: %s\n",
                  delta_reader.status().ToString().c_str());
      return 1;
    }
    auto delta = delta_reader.value().ReadBytes();
    if (!delta.ok()) {
      std::printf("load failed: %s\n", delta.status().ToString().c_str());
      return 1;
    }
    // Merge the server's registry and warm-start from the cohort-nearest
    // snapshot — this edge device never published, so that resolves to the
    // server's v1.
    SnapshotRegistry registry;
    auto imported = registry.ImportDelta(delta.value());
    if (!imported.ok()) {
      std::printf("import failed: %s\n",
                  imported.status().ToString().c_str());
      return 1;
    }
    auto snapshot = registry.NearestFor("edge-device-7");
    if (snapshot == nullptr) {
      std::printf("import failed: empty registry\n");
      return 1;
    }
    Status s = SnapshotRegistry::RestoreInto(*snapshot, &qm);
    if (!s.ok()) {
      std::printf("restore failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("[edge] warm-started from %s v%llu (%zu snapshot(s) "
                "imported)\n",
                snapshot->device_id.c_str(),
                static_cast<unsigned long long>(snapshot->version),
                imported.value());
    auto qcore = LoadDataset(kQCorePath);
    if (!qcore.ok()) {
      std::printf("load failed: %s\n", qcore.status().ToString().c_str());
      return 1;
    }

    // The bit-flipping network is tiny (~hundred parameters); this demo
    // retrains it on the loaded QCore rather than shipping it — its
    // supervision (Algorithm 2) needs nothing but the quantized model and
    // the QCore, both of which just came off disk.
    BitFlipTrainOptions bf_opts;
    bf_opts.ste.epochs = 25;
    bf_opts.ste.batch_size = 16;
    BitFlipNet bf = TrainBitFlipNet(&qm, qcore.value(), bf_opts, &rng);
    qm.DropShadows();  // from here on: integer codes only

    HarDomain target = MakeHarDomain(spec, 3);
    ContinualOptions copts;
    ContinualDriver driver(&qm, &bf, qcore.value(), copts, &rng);
    auto batches = SplitIntoStreamBatches(target.train, 10, &rng);
    auto slices = SplitIntoStreamBatches(target.test, 10, &rng);
    auto stats = driver.RunStream(batches, slices);
    std::printf("[edge] streamed 10 batches of Subj. 4: average accuracy "
                "%.3f, %.3f s per calibration, no back-propagation, no "
                "full-precision weights\n",
                AverageAccuracy(stats), stats[0].calibration_seconds);
  }

  std::remove(kDeltaPath);
  std::remove(kQCorePath);
  return 0;
}
