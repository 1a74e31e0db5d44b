// Fleet simulation: one server-prepared quantized model deployed to a large
// fleet of simulated edge devices — HAR wearables (subject shift) and image
// sensors (visual-domain shift) — each cohort served by its own fleet
// server (ShardedFleetServer). The large HAR cohort runs on N
// consistent-hash shards, each with its own pool and batcher (mid-run it
// rebalances to a larger shard count live), the smaller image cohort on
// one shard. Each device streams its own shifted domain, interleaving
// inference traffic with continual calibration (Algorithms 3+4); the
// servers snapshot calibrated models into copy-on-write registries, and
// per-shard and fleet-wide counter totals are derived from the
// whiteboard's device rows.
//
// Observability: after each phase (registration, serving, kill-and-restart)
// the fleet whiteboard is dumped — one row per shard and per device,
// maintained write-through by the serving layers — and the mid-stream
// rebalance window is captured through the TraceRing and written as
// chrome://tracing JSON to /tmp/qcore_fleet_rebalance_trace.json (open it
// at chrome://tracing or ui.perfetto.dev).
//
// Build & run:  ./build/fleet_simulation
// Environment:  QCORE_FLEET_DEVICES (default 200; HAR cohort, plus 1/4 as
//               many image devices), QCORE_FLEET_THREADS (default 4, per
//               shard for the HAR cohort), QCORE_FLEET_SHARDS (default 2),
//               QCORE_FAST=1 shrinks everything for a quick smoke run.
// Arguments:    none (exit 2 on any). The fault, overload and wide-GEMM
//               verdicts this run does not stage are asserted by ctest:
//               chaos_test, overload_test and kernels_test.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/bitflip.h"
#include "core/qcore_builder.h"
#include "data/har_generator.h"
#include "data/image_generator.h"
#include "models/model_zoo.h"
#include "obs/trace.h"
#include "obs/whiteboard.h"
#include "quant/ste_calibrator.h"
#include "serving/router.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "serving/snapshot_store.h"

using namespace qcore;

namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::max(1, std::atoi(v)) : fallback;
}

bool Fast() {
  const char* v = std::getenv("QCORE_FAST");
  return v != nullptr && std::string(v) == "1";
}

// The fleet server's single-pool configuration: one shard.
ShardedFleetServerOptions OneShard(const FleetServerOptions& shard) {
  ShardedFleetServerOptions opts;
  opts.num_shards = 1;
  opts.shard = shard;
  return opts;
}

// One prepared deployment: base model + bit-flip net + QCore, ready to be
// cloned into sessions.
struct Deployment {
  std::unique_ptr<QuantizedModel> base;
  std::unique_ptr<BitFlipNet> bf;
  Dataset qcore;
};

Deployment Prepare(Sequential* model, const Dataset& train, Rng* rng) {
  QCoreBuildOptions build;
  build.size = Fast() ? 12 : 20;
  build.train.epochs = Fast() ? 6 : 10;
  build.train.sgd.lr = 0.03f;
  QCoreBuildResult built = BuildQCore(model, train, build, rng);

  Deployment dep;
  dep.qcore = built.qcore;
  dep.base = std::make_unique<QuantizedModel>(*model, 4);
  BitFlipTrainOptions bft;
  bft.ste.epochs = Fast() ? 6 : 10;
  bft.ste.batch_size = 16;
  bft.augment_episodes = 1;
  dep.bf = std::make_unique<BitFlipNet>(
      TrainBitFlipNet(dep.base.get(), dep.qcore, bft, rng));
  dep.base->DropShadows();
  return dep;
}

// A device's inference traffic between two calibrations: its test slice as
// up to `requests` row chunks, submitted back to back. A batch only groups
// one device's requests (each device has its own model), so this burst is
// what the batcher coalesces into one forward pass before the next
// calibration's ordering barrier flushes it.
void SubmitInferenceBurst(ShardedFleetServer* server, const std::string& id,
                          const Tensor& rows, int requests) {
  const int64_t n = rows.dim(0);
  const int64_t chunks = std::min<int64_t>(requests, n);
  for (int64_t c = 0; c < chunks; ++c) {
    server->SubmitInference(id, rows.SliceRows(c * n / chunks,
                                               (c + 1) * n / chunks));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr,
                 "%s takes no arguments (got %s); set QCORE_FLEET_DEVICES, "
                 "QCORE_FLEET_THREADS, QCORE_FLEET_SHARDS or QCORE_FAST\n",
                 argv[0], argv[1]);
    return 2;
  }
  const int har_devices = EnvInt("QCORE_FLEET_DEVICES", Fast() ? 24 : 200);
  const int img_devices = std::max(1, har_devices / 4);
  const int threads = EnvInt("QCORE_FLEET_THREADS", 4);
  const int shards = EnvInt("QCORE_FLEET_SHARDS", 2);
  const int stream_batches = 2;

  std::printf("== Fleet simulation: %d HAR devices on %d shards (x%d "
              "threads) + %d image devices ==\n\n",
              har_devices, shards, threads, img_devices);

  // --- Server-side preparation: one deployment per modality. -------------
  HarSpec har_spec = HarSpec::Usc();
  har_spec.num_classes = Fast() ? 5 : 8;
  har_spec.channels = 3;
  har_spec.length = Fast() ? 24 : 32;
  har_spec.train_per_class = 8;
  har_spec.test_per_class = 4;
  HarDomain har_source = MakeHarDomain(har_spec, 0);

  ImageSpec img_spec = ImageSpec::Caltech10();
  img_spec.num_classes = Fast() ? 4 : 6;
  img_spec.height = 12;
  img_spec.width = 12;
  img_spec.train_per_class = 8;
  img_spec.test_per_class = 4;
  ImageDomain img_source = MakeImageDomain(img_spec, 0);

  Rng rng(0xF1EE7);
  std::printf("preparing HAR deployment (OmniScaleCNN, 4-bit)...\n");
  auto har_model =
      MakeOmniScaleCnn(har_spec.channels, har_spec.num_classes, &rng);
  Deployment har = Prepare(har_model.get(), har_source.train, &rng);
  std::printf("preparing image deployment (ResNet-tiny, 4-bit)...\n");
  auto img_model =
      MakeResNetTiny(img_spec.channels, img_spec.num_classes, &rng);
  Deployment img = Prepare(img_model.get(), img_source.train, &rng);

  // --- Two fleet servers: the big HAR cohort is sharded (independent -----
  // pool + batcher per shard, consistent-hash placement), the small image
  // cohort runs on one shard.
  FleetServerOptions opts;
  opts.num_threads = threads;
  opts.continual.iterations = 1;
  opts.seed = 0xF1EE7;
  opts.snapshot_every = stream_batches;  // snapshot each device at the end
  // Serving-plane features: coalesce each device's inference burst into
  // one grouped forward pass (results stay bit-identical to the unbatched
  // path; the occupancy line shows the grouping) and bound
  // per-device queues — the report's occupancy/queue-depth/shed lines. The
  // inference and calibration caps are independent (per-class bounds), and
  // must stay above this example's per-device submission burst: the
  // unconditional Submit* calls below abort on a full queue
  // (overload-aware callers use TrySubmit* and handle the shed status).
  opts.enable_batching = true;
  opts.batching.max_batch = 4;
  opts.batching.max_delay_us = 500.0;
  opts.max_inference_queue_per_session = 48;
  opts.max_calibration_queue_per_session = 16;
  ShardedFleetServerOptions har_opts;
  har_opts.num_shards = shards;
  har_opts.shard = opts;
  ShardedFleetServer har_server(*har.base, *har.bf, har_opts);
  ShardedFleetServer img_server(*img.base, *img.bf, OneShard(opts));

  // --- Register the fleet: every device gets its own shifted domain. -----
  Stopwatch wall;
  for (int d = 0; d < har_devices; ++d) {
    har_server.RegisterDevice("har-" + std::to_string(d), har.qcore);
  }
  for (int d = 0; d < img_devices; ++d) {
    img_server.RegisterDevice("img-" + std::to_string(d), img.qcore);
  }
  std::printf("registered %d sessions in %.2fs (HAR shard occupancy:",
              har_devices + img_devices, wall.ElapsedSeconds());
  for (int s = 0; s < har_server.num_shards(); ++s) {
    std::printf(" %d", har_server.SessionCountOnShard(s));
  }
  std::printf(")\n\n");
  std::printf("-- whiteboard after registration (HAR cohort) --\n%s\n",
              har_server.whiteboard().Read().ToTable(8).c_str());

  // --- Drive the streams: per device, shifted batches + inference. -------
  // Pre/post accuracies come back through the calibration stats; device
  // domains are regenerated deterministically from the device index.
  wall.Restart();
  std::vector<std::future<BatchStats>> stats;
  for (int d = 0; d < har_devices; ++d) {
    if (d == har_devices / 2) {
      // Live rebalance mid-traffic: add a shard while futures are in
      // flight. Sessions whose ring position changes migrate via barrier
      // snapshot + continuation restore; results are bit-identical to
      // never having moved (see tests/sharding_test.cc). Clear() opens a
      // trace capture window here; it stays open until the stream drains,
      // so the exported timeline holds every migration's detach/attach
      // pair plus the request lifecycles that overlapped the rebalance.
      TraceRing::Global().Clear();
      har_server.Rebalance(shards + 1);
      std::printf("rebalanced HAR cohort to %d shards mid-stream\n",
                  har_server.num_shards());
    }
    const std::string id = "har-" + std::to_string(d);
    const int subject = 1 + d % (har_spec.num_subjects - 1);
    HarDomain target = MakeHarDomain(har_spec, subject);
    Rng split_rng(opts.seed ^ static_cast<uint64_t>(d));
    auto batches =
        SplitIntoStreamBatches(target.train, stream_batches, &split_rng);
    auto slices =
        SplitIntoStreamBatches(target.test, stream_batches, &split_rng);
    for (int b = 0; b < stream_batches; ++b) {
      SubmitInferenceBurst(&har_server, id, slices[b].x(),
                           opts.batching.max_batch);
      stats.push_back(
          har_server.SubmitCalibration(id, batches[b], slices[b]));
    }
  }
  for (int d = 0; d < img_devices; ++d) {
    const int domain = 1 + d % (img_spec.num_domains() - 1);
    ImageDomain target = MakeImageDomain(img_spec, domain);
    Rng split_rng(opts.seed ^ static_cast<uint64_t>(1000 + d));
    auto batches =
        SplitIntoStreamBatches(target.train, stream_batches, &split_rng);
    auto slices =
        SplitIntoStreamBatches(target.test, stream_batches, &split_rng);
    const std::string id = "img-" + std::to_string(d);
    for (int b = 0; b < stream_batches; ++b) {
      SubmitInferenceBurst(&img_server, id, slices[b].x(),
                           opts.batching.max_batch);
      stats.push_back(
          img_server.SubmitCalibration(id, batches[b], slices[b]));
    }
  }

  float first_batch_acc = 0.0f;
  float last_batch_acc = 0.0f;
  int n = 0;
  for (size_t i = 0; i < stats.size(); ++i) {
    BatchStats s = stats[i].get();
    if (i % stream_batches == 0) {
      first_batch_acc += s.accuracy;
      ++n;
    } else if (i % stream_batches == static_cast<size_t>(stream_batches - 1)) {
      last_batch_acc += s.accuracy;
    }
  }
  har_server.Drain();
  img_server.Drain();
  const double serve_seconds = wall.ElapsedSeconds();

  // Close the rebalance capture window: everything traced since the
  // Clear() above — migrations and the traffic that overlapped them —
  // exports as one chrome://tracing timeline.
  const std::string trace_path = "/tmp/qcore_fleet_rebalance_trace.json";
  {
    std::ofstream trace_out(trace_path);
    trace_out << TraceRing::Global().ToChromeJson();
  }
  std::printf("wrote rebalance-window trace to %s\n", trace_path.c_str());

  // --- Fleet report. -----------------------------------------------------
  std::printf("served %zu calibration batches + inference traffic for %d "
              "devices in %.2fs\n\n",
              stats.size(), har_devices + img_devices, serve_seconds);
  const WhiteboardImage har_board = har_server.whiteboard().Read();
  const WhiteboardImage img_board = img_server.whiteboard().Read();
  std::printf("-- HAR cohort (%d shards) --\n%s\n", har_server.num_shards(),
              har_server.metrics().Report().c_str());
  for (int s = 0; s < har_server.num_shards(); ++s) {
    const ServingCounters shard = har_board.ShardTotals(s);
    std::printf("   shard %d: %d sessions, %llu inferences, %llu "
                "calibrations\n",
                s, har_server.SessionCountOnShard(s),
                static_cast<unsigned long long>(shard.inference_requests),
                static_cast<unsigned long long>(shard.calibration_batches));
  }
  std::printf("\n-- image cohort --\n%s\n",
              img_server.metrics().Report().c_str());
  // Cross-cohort total: the two servers are independent (different base
  // models), so the fleet-wide view adds their two images' totals.
  ServingCounters fleet_total = har_board.FleetTotals();
  fleet_total += img_board.FleetTotals();
  std::printf("-- fleet total (both cohorts) --\n"
              "inferences=%llu examples=%llu calibrations=%llu "
              "snapshots=%llu mean_batch_accuracy=%.4f\n\n",
              static_cast<unsigned long long>(fleet_total.inference_requests),
              static_cast<unsigned long long>(fleet_total.inference_examples),
              static_cast<unsigned long long>(fleet_total.calibration_batches),
              static_cast<unsigned long long>(fleet_total.snapshots_published),
              fleet_total.mean_accuracy());
  std::printf("fleet mean accuracy, first stream batch: %.4f\n",
              first_batch_acc / static_cast<float>(n));
  std::printf("fleet mean accuracy, last stream batch:  %.4f\n",
              last_batch_acc / static_cast<float>(n));
  std::printf("snapshot registry: %zu HAR + %zu image versions "
              "(copy-on-write)\n",
              har_server.snapshots().size(), img_server.snapshots().size());
  std::printf("\n-- whiteboard after serving (HAR cohort; the shard added "
              "by the rebalance has its own row) --\n%s\n",
              har_board.ToTable(8).c_str());

  // --- Kill-and-restart: durable snapshots survive the server. -----------
  // A small HAR cohort serves over a registry backed by a CRC-framed
  // write-ahead log. The server is then destroyed ("killed") with its whole
  // in-memory world, and a second server is constructed over the same log:
  // the registry replays every device's latest calibrated snapshot
  // bit-identically, resumes the version counter monotonically, and
  // warm-starts the re-registered sessions from the recovered codes instead
  // of the factory base model.
  const std::string wal_path = "/tmp/qcore_fleet_snapshots.wal";
  std::remove(wal_path.c_str());
  const int wal_devices = std::min(6, har_devices);
  std::printf("\n== Kill-and-restart: %d devices over a WAL-backed "
              "registry ==\n",
              wal_devices);
  uint64_t pre_kill_latest = 0;
  size_t pre_kill_versions = 0;
  {
    auto store = SnapshotStore::Open({wal_path, false});
    if (!store.ok()) {
      std::printf("WAL open failed: %s\n", store.status().ToString().c_str());
      return 1;
    }
    SnapshotRegistry durable(std::move(store).value());
    FleetServerOptions wopts = opts;
    wopts.snapshot_every = 0;  // explicit publishes below
    ShardedFleetServer server(*har.base, *har.bf, OneShard(wopts), &durable);
    for (int d = 0; d < wal_devices; ++d) {
      const std::string id = "wal-" + std::to_string(d);
      server.RegisterDevice(id, har.qcore);
      const int subject = 1 + d % (har_spec.num_subjects - 1);
      HarDomain target = MakeHarDomain(har_spec, subject);
      Rng split_rng(opts.seed ^ static_cast<uint64_t>(5000 + d));
      auto batches = SplitIntoStreamBatches(target.train, 1, &split_rng);
      auto slices = SplitIntoStreamBatches(target.test, 1, &split_rng);
      server.SubmitCalibration(id, batches[0], slices[0]);
      server.PublishSnapshot(id);
    }
    server.Drain();
    pre_kill_latest = durable.Latest()->version;
    pre_kill_versions = durable.size();
    std::printf("calibrated + published %zu versions, then killed the "
                "server\n",
                pre_kill_versions);
  }  // server and registry destroyed: only the log file remains
  {
    auto store = SnapshotStore::Open({wal_path, false});
    if (!store.ok()) {
      std::printf("WAL reopen failed: %s\n",
                  store.status().ToString().c_str());
      return 1;
    }
    SnapshotRegistry recovered(std::move(store).value());
    auto latest = recovered.Latest();
    if (latest == nullptr) {
      std::printf("WAL reopen recovered nothing (log truncated to its "
                  "header?)\n");
      return 1;
    }
    std::printf("reopened the WAL: recovered %zu/%zu versions "
                "(latest v%llu)\n",
                recovered.size(), pre_kill_versions,
                static_cast<unsigned long long>(latest->version));
    FleetServerOptions wopts = opts;
    wopts.warm_start_from_registry = true;
    ShardedFleetServer server(*har.base, *har.bf, OneShard(wopts),
                              &recovered);
    int warm_started = 0;
    for (int d = 0; d < wal_devices; ++d) {
      const std::string id = "wal-" + std::to_string(d);
      server.RegisterDevice(id, har.qcore);
      auto snap = recovered.LatestFor(id);
      if (snap == nullptr) continue;  // e.g. its only record was the torn tail
      auto restored = har.base->Clone();
      if (SnapshotRegistry::RestoreInto(*snap, restored.get()).ok()) {
        server.WithSessionQuiesced(id, [&](CalibrationSession& s) {
          if (s.model()->AllCodes() == restored->AllCodes()) ++warm_started;
        });
      }
    }
    std::printf("%d/%d sessions warm-started from their recovered "
                "snapshots\n",
                warm_started, wal_devices);
    const uint64_t resumed =
        server.PublishSnapshot("wal-0").get();
    std::printf("publishing resumed at v%llu (> pre-kill v%llu: %s)\n",
                static_cast<unsigned long long>(resumed),
                static_cast<unsigned long long>(pre_kill_latest),
                resumed > pre_kill_latest ? "yes" : "NO");
    server.Drain();
    // The restarted server's whiteboard shows warm=ownSnapshot rows and the
    // WAL health line sourced from the durable registry.
    std::printf("\n-- whiteboard after kill-and-restart --\n%s\n",
                server.whiteboard().Read().ToTable(8).c_str());
  }
  std::remove(wal_path.c_str());
  return 0;
}
