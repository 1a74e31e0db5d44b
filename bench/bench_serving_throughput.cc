// Fleet serving throughput: one server-prepared model, a fleet of simulated
// devices each streaming target-domain batches with interleaved inference
// traffic, served through the fleet server (ShardedFleetServer). Reports
// the thread-scaling curve of one shard (aggregate calibration+inference
// throughput), a batched-vs-unbatched comparison at fixed thread count,
// and a shard-scaling section (1/2/4 shards — independent per-shard pools
// and batchers behind the consistent-hash router). Every configuration is
// verified bit-identical to the single-threaded pipeline (ContinualDriver
// driven directly with the same per-device seed) — thread counts,
// batching, and shard counts must change wall-clock only, never a result
// or the per-device delivery order.
//
// Each request carries a simulated device-link RTT (the
// FleetServerOptions::simulated_device_rtt_ms fleet knob): serving a fleet
// is compute + per-device network wait, and the pool's win is overlapping
// the two across sessions. A batched inference group pays the link ONCE for
// the whole group; a second shard brings a second pool whose workers
// overlap independently — which is why both curves are meaningful on any
// host, including single-core CI runners.
//
// QCORE_FAST=1 shrinks the fleet; QCORE_BENCH_THREADS caps the curve;
// QCORE_BENCH_RTT_MS overrides the simulated link RTT (default 25);
// QCORE_BENCH_JSON=<path> writes the macro serving numbers (tasks/s, p99,
// traced-vs-untraced throughput) as JSON for bench/check_perf_regression.py.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/bitflip.h"
#include "core/continual.h"
#include "core/qcore_builder.h"
#include "data/har_generator.h"
#include "models/model_zoo.h"
#include "obs/trace.h"
#include "serving/router.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "serving/snapshot_store.h"
#include "tensor/kernels.h"

using namespace qcore;
using namespace qcore::bench;

namespace {

constexpr uint64_t kFleetSeed = 20240422;
constexpr int kBurst = 4;  // inference requests per device per stream batch

struct FleetSetup {
  HarSpec spec;
  Dataset qcore;
  std::unique_ptr<QuantizedModel> base;
  std::unique_ptr<BitFlipNet> bf;
  // Per device: stream batches and matching test slices.
  std::vector<std::string> device_ids;
  std::vector<std::vector<Dataset>> batches;
  std::vector<std::vector<Dataset>> slices;
  // Distinct inference inputs; request k uses probes[k % size], so any
  // scatter mixup or delivery reordering shows up as a prediction diff.
  std::vector<Tensor> probes;
};

FleetSetup PrepareFleet(int num_devices, int batches_per_device) {
  FleetSetup setup;
  setup.spec = HarSpec::Usc();
  setup.spec.num_classes = 6;
  setup.spec.channels = 3;
  setup.spec.length = 32;
  setup.spec.train_per_class = 10;
  setup.spec.test_per_class = 4;

  HarDomain source = MakeHarDomain(setup.spec, 0);
  Rng rng(kFleetSeed);
  auto model =
      MakeOmniScaleCnn(setup.spec.channels, setup.spec.num_classes, &rng);
  QCoreBuildOptions build;
  build.size = 15;
  build.train.epochs = 8;
  build.train.sgd.lr = 0.03f;
  auto built = BuildQCore(model.get(), source.train, build, &rng);
  setup.qcore = built.qcore;

  setup.base = std::make_unique<QuantizedModel>(*model, 4);
  BitFlipTrainOptions bft;
  bft.ste.epochs = 8;
  bft.ste.batch_size = 16;
  bft.augment_episodes = 1;
  setup.bf = std::make_unique<BitFlipNet>(
      TrainBitFlipNet(setup.base.get(), setup.qcore, bft, &rng));
  setup.base->DropShadows();

  // Each device streams its own subject's shifted domain.
  for (int d = 0; d < num_devices; ++d) {
    const int subject = 1 + d % (setup.spec.num_subjects - 1);
    HarDomain target = MakeHarDomain(setup.spec, subject);
    Rng split_rng(kFleetSeed ^ static_cast<uint64_t>(d + 1));
    setup.device_ids.push_back("device-" + std::to_string(d));
    setup.batches.push_back(
        SplitIntoStreamBatches(target.train, batches_per_device, &split_rng));
    setup.slices.push_back(
        SplitIntoStreamBatches(target.test, batches_per_device, &split_rng));
    if (d == 0) {
      for (int p = 0; p < 2 * kBurst; ++p) {
        setup.probes.push_back(target.test.x().GatherRows(
            {p % static_cast<int>(target.test.size())}));
      }
    }
  }
  return setup;
}

ContinualOptions BenchContinualOptions() {
  ContinualOptions opts;
  opts.iterations = 1;
  return opts;
}

double BenchRttMs() {
  if (const char* env = std::getenv("QCORE_BENCH_RTT_MS")) {
    return std::atof(env);
  }
  return 25.0;
}

struct RunResult {
  double wall_seconds = 0.0;
  uint64_t calibrations = 0;
  uint64_t inferences = 0;
  double mean_batch_occupancy = 0.0;
  double p99_inference_seconds = 0.0;
  // Share of the fleet's GEMM calls that fanned out across kernel threads
  // (whiteboard panel dispatch totals).
  double gemm_wide_share = 0.0;
  std::vector<std::vector<std::vector<int32_t>>> final_codes;  // per device
  // Per device, every inference result in submission order — the delivery-
  // order regression signal for the batched path.
  std::vector<std::vector<std::vector<int>>> predictions;
};

FleetServerOptions MakeOptions(int threads, int max_batch) {
  FleetServerOptions opts;
  opts.num_threads = threads;
  opts.continual = BenchContinualOptions();
  opts.seed = kFleetSeed;
  opts.simulated_device_rtt_ms = BenchRttMs();
  if (max_batch > 0) {
    opts.enable_batching = true;
    opts.batching.max_batch = max_batch;
    opts.batching.max_delay_us = 500.0;
  }
  return opts;
}

// Drives the standard workload through a server: per device and stream
// batch, a burst of inference traffic, a calibration batch, one trailing
// inference — the arrival pattern that gives a batcher something to
// coalesce without starving calibration.
RunResult RunFleet(const FleetSetup& setup, ShardedFleetServer* server) {
  for (const auto& id : setup.device_ids) {
    server->RegisterDevice(id, setup.qcore);
  }

  RunResult result;
  std::vector<std::vector<std::future<InferenceResult>>> futures(
      setup.device_ids.size());
  Stopwatch timer;
  for (size_t d = 0; d < setup.device_ids.size(); ++d) {
    const std::string& id = setup.device_ids[d];
    for (size_t b = 0; b < setup.batches[d].size(); ++b) {
      for (int p = 0; p < kBurst; ++p) {
        futures[d].push_back(server->SubmitInference(
            id, setup.probes[(b + p) % setup.probes.size()]));
      }
      server->SubmitCalibration(id, setup.batches[d][b],
                                setup.slices[d][b]);
      futures[d].push_back(server->SubmitInference(
          id, setup.probes[b % setup.probes.size()]));
    }
  }
  server->Drain();
  result.wall_seconds = timer.ElapsedSeconds();
  const ServingCounters totals = server->whiteboard().Read().FleetTotals();
  result.calibrations = totals.calibration_batches;
  result.inferences = totals.inference_requests;
  result.mean_batch_occupancy = server->metrics().batch_occupancy().mean();
  result.p99_inference_seconds =
      server->metrics().inference_latency().QuantileSeconds(0.99);
  const uint64_t gemm_calls =
      totals.panel_wide_dispatches + totals.panel_narrow_dispatches;
  result.gemm_wide_share =
      gemm_calls == 0 ? 0.0
                      : static_cast<double>(totals.panel_wide_dispatches) /
                            static_cast<double>(gemm_calls);
  for (size_t d = 0; d < setup.device_ids.size(); ++d) {
    server->WithSessionQuiesced(
        setup.device_ids[d], [&](CalibrationSession& session) {
          result.final_codes.push_back(session.model()->AllCodes());
        });
    result.predictions.emplace_back();
    for (auto& fu : futures[d]) {
      result.predictions.back().push_back(fu.get().predictions);
    }
  }
  return result;
}

RunResult RunServer(const FleetSetup& setup, int threads_per_shard,
                    int max_batch, int shards = 1) {
  ShardedFleetServerOptions opts;
  opts.num_shards = shards;
  opts.shard = MakeOptions(threads_per_shard, max_batch);
  ShardedFleetServer server(*setup.base, *setup.bf, opts);
  return RunFleet(setup, &server);
}

// The single-threaded pipeline reference: ContinualDriver driven directly,
// seeded exactly like the device's serving session.
std::vector<std::vector<std::vector<int32_t>>> RunPipelineReference(
    const FleetSetup& setup) {
  std::vector<std::vector<std::vector<int32_t>>> codes;
  for (size_t d = 0; d < setup.device_ids.size(); ++d) {
    auto model = setup.base->Clone();
    BitFlipNet bf = setup.bf->Clone();
    Rng rng(DeviceSeed(kFleetSeed, setup.device_ids[d]));
    ContinualDriver driver(model.get(), &bf, setup.qcore,
                           BenchContinualOptions(), &rng);
    driver.RunStream(setup.batches[d], setup.slices[d]);
    codes.push_back(model->AllCodes());
  }
  return codes;
}

double TasksPerSec(const RunResult& r) {
  return static_cast<double>(r.calibrations + r.inferences) /
         r.wall_seconds;
}

}  // namespace

int main() {
  const int num_devices = FastMode() ? 4 : 8;
  const int batches_per_device = FastMode() ? 2 : 3;
  int max_threads = 4;
  if (const char* env = std::getenv("QCORE_BENCH_THREADS")) {
    max_threads = std::max(1, std::atoi(env));
  }

  std::printf("== Fleet serving throughput: %d devices x %d stream batches "
              "(4-bit, USC-like HAR, simulated link RTT %.0fms, burst %d) "
              "==\n\n",
              num_devices, batches_per_device, BenchRttMs(), kBurst);
  ReportRunEnvironment();
  FleetSetup setup = PrepareFleet(num_devices, batches_per_device);

  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  TablePrinter table({"Threads", "Wall (s)", "Calib/s", "Infer/s",
                      "Tasks/s", "p99 (ms)", "Wide", "Speedup"});
  std::vector<double> throughputs;
  double base_tasks_per_sec = 0.0;
  RunResult first_run;
  bool identical_across_threads = true;

  for (int threads : thread_counts) {
    RunResult r = RunServer(setup, threads, /*max_batch=*/0);
    const double tasks_per_sec = TasksPerSec(r);
    throughputs.push_back(tasks_per_sec);
    if (base_tasks_per_sec == 0.0) base_tasks_per_sec = tasks_per_sec;
    if (first_run.final_codes.empty()) {
      first_run = std::move(r);
    } else if (r.final_codes != first_run.final_codes ||
               r.predictions != first_run.predictions) {
      identical_across_threads = false;
    }
    table.AddRow({std::to_string(threads),
                  TablePrinter::Num(r.wall_seconds, 3),
                  TablePrinter::Num(static_cast<double>(r.calibrations) /
                                        r.wall_seconds, 1),
                  TablePrinter::Num(static_cast<double>(r.inferences) /
                                        r.wall_seconds, 1),
                  TablePrinter::Num(tasks_per_sec, 1),
                  TablePrinter::Num(r.p99_inference_seconds * 1e3, 1),
                  TablePrinter::Num(r.gemm_wide_share, 3),
                  TablePrinter::Num(tasks_per_sec / base_tasks_per_sec, 2)});
  }
  table.Print();

  bool monotonic = true;
  for (size_t i = 1; i < throughputs.size() && thread_counts[i] <= 4; ++i) {
    if (throughputs[i] <= throughputs[i - 1]) monotonic = false;
  }
  std::printf("\nthroughput monotonically increasing 1->4 threads: %s\n",
              monotonic ? "yes" : "NO");

  std::printf("per-session results identical across thread counts: %s\n",
              identical_across_threads ? "yes" : "NO");

  const auto reference = RunPipelineReference(setup);
  std::printf("bit-identical to single-threaded pipeline:           %s\n",
              first_run.final_codes == reference ? "yes" : "NO");

  // ---- batched vs unbatched at fixed thread count -----------------------
  const int cmp_threads = std::min(4, max_threads);
  std::printf("\n== Inference batching at %d threads ==\n\n", cmp_threads);
  TablePrinter btable({"MaxBatch", "Wall (s)", "Tasks/s", "Occupancy",
                       "Speedup"});
  RunResult unbatched = RunServer(setup, cmp_threads, /*max_batch=*/0);
  const double unbatched_tps = TasksPerSec(unbatched);
  btable.AddRow({"off", TablePrinter::Num(unbatched.wall_seconds, 3),
                 TablePrinter::Num(unbatched_tps, 1),
                 TablePrinter::Num(unbatched.mean_batch_occupancy, 2),
                 TablePrinter::Num(1.0, 2)});
  bool batched_identical = true;
  bool batched_ordered = true;
  double batched4_tps = 0.0;
  for (int max_batch : {2, 4, 8}) {
    RunResult r = RunServer(setup, cmp_threads, max_batch);
    const double tps = TasksPerSec(r);
    if (max_batch == 4) batched4_tps = tps;
    // Bit-identity: the batched path must change neither the calibrated
    // codes nor any prediction. Prediction-sequence equality doubles as
    // the per-device delivery-order regression check — a reorder would
    // surface as a mismatched sequence of per-request results.
    if (r.final_codes != unbatched.final_codes ||
        r.final_codes != reference) {
      batched_identical = false;
    }
    if (r.predictions != unbatched.predictions) batched_ordered = false;
    btable.AddRow({std::to_string(max_batch),
                   TablePrinter::Num(r.wall_seconds, 3),
                   TablePrinter::Num(tps, 1),
                   TablePrinter::Num(r.mean_batch_occupancy, 2),
                   TablePrinter::Num(tps / unbatched_tps, 2)});
  }
  btable.Print();

  const bool batched_faster = batched4_tps > unbatched_tps;
  std::printf("\nbatched codes bit-identical to unbatched + pipeline: %s\n",
              batched_identical ? "yes" : "NO");
  std::printf("batched per-device delivery order preserved:         %s\n",
              batched_ordered ? "yes" : "NO");
  std::printf("batching (max_batch=4) faster than unbatched:        %s\n",
              batched_faster ? "yes" : "NO");

  // ---- shard scaling: independent per-shard pools -----------------------
  // Fixed threads per shard, growing shard count: total workers grow with
  // the fleet of pools, and every pool overlaps its own devices' link RTT
  // independently (no shared mutex or queue between shards).
  const int shard_threads = std::max(1, std::min(2, max_threads));
  std::printf("\n== Shard scaling at %d threads per shard ==\n\n",
              shard_threads);
  TablePrinter stable({"Shards", "Wall (s)", "Tasks/s", "Speedup"});
  RunResult shard_base = RunServer(setup, shard_threads, /*max_batch=*/0);
  const double shard_base_tps = TasksPerSec(shard_base);
  stable.AddRow({"1", TablePrinter::Num(shard_base.wall_seconds, 3),
                 TablePrinter::Num(shard_base_tps, 1),
                 TablePrinter::Num(1.0, 2)});
  bool sharded_identical = shard_base.final_codes == reference;
  bool sharded_ordered = true;
  double sharded_tps_max = 0.0;
  for (int shards : {2, 4}) {
    RunResult r = RunServer(setup, shard_threads, /*max_batch=*/0, shards);
    const double tps = TasksPerSec(r);
    sharded_tps_max = std::max(sharded_tps_max, tps);
    // Exit-code-enforced bit-identity, exactly like the sections above:
    // shard count must never change codes or per-device delivery order.
    if (r.final_codes != shard_base.final_codes ||
        r.final_codes != reference) {
      sharded_identical = false;
    }
    if (r.predictions != shard_base.predictions) sharded_ordered = false;
    stable.AddRow({std::to_string(shards),
                   TablePrinter::Num(r.wall_seconds, 3),
                   TablePrinter::Num(tps, 1),
                   TablePrinter::Num(tps / shard_base_tps, 2)});
  }
  stable.Print();

  const bool sharding_scales = sharded_tps_max > shard_base_tps;
  std::printf("\nsharded codes bit-identical to 1 shard + pipeline:   %s\n",
              sharded_identical ? "yes" : "NO");
  std::printf("sharded per-device delivery order preserved:         %s\n",
              sharded_ordered ? "yes" : "NO");
  std::printf("best sharded throughput beats 1 shard:               %s\n",
              sharding_scales ? "yes" : "NO");

  // ---- durable snapshot publish overhead --------------------------------
  // Same Publish stream into three registry configurations: in-memory, a
  // CRC-framed WAL without fsync (survives process death), and the WAL
  // with fsync-on-publish (survives power loss). The delta between rows is
  // the price of each durability level; the recovered-bit-identical line
  // is exit-code-enforced like every other correctness property here.
  const int num_publishes = FastMode() ? 32 : 128;
  const double blob_kib = [&]() {
    SnapshotRegistry probe;
    probe.Publish(*setup.base, "probe", 0);
    return static_cast<double>(probe.Latest()->bytes.size()) / 1024.0;
  }();
  std::printf("\n== Durable snapshot publish: %d publishes of a %.1f KiB "
              "model blob ==\n\n",
              num_publishes, blob_kib);
  auto publish_stream = [&](SnapshotRegistry* registry) {
    Stopwatch timer;
    for (int i = 0; i < num_publishes; ++i) {
      registry->Publish(*setup.base,
                        "bench-dev-" + std::to_string(i % num_devices),
                        static_cast<uint64_t>(i));
    }
    return timer.ElapsedSeconds();
  };
  const std::string wal_path = "/tmp/qcore_bench_snapshots.wal";
  TablePrinter dtable({"Store", "Wall (s)", "Publish/s", "vs memory"});
  SnapshotRegistry memory_registry;
  const double memory_seconds = publish_stream(&memory_registry);
  dtable.AddRow({"memory", TablePrinter::Num(memory_seconds, 3),
                 TablePrinter::Num(num_publishes / memory_seconds, 1),
                 TablePrinter::Num(1.0, 2)});
  bool durable_recovers = true;
  for (bool fsync : {false, true}) {
    std::remove(wal_path.c_str());
    double seconds = 0.0;
    {
      DurableSnapshotStoreOptions dopts;
      dopts.path = wal_path;
      dopts.fsync_on_publish = fsync;
      auto store = DurableSnapshotStore::Open(std::move(dopts));
      if (!store.ok()) {
        std::printf("WAL open failed: %s\n",
                    store.status().ToString().c_str());
        return 2;
      }
      SnapshotRegistry durable(std::move(store).value());
      seconds = publish_stream(&durable);
    }
    // Recovery check: reopen the log and compare against the in-memory run.
    {
      DurableSnapshotStoreOptions dopts;
      dopts.path = wal_path;
      auto store = DurableSnapshotStore::Open(std::move(dopts));
      if (!store.ok()) {
        durable_recovers = false;
      } else {
        SnapshotRegistry recovered(std::move(store).value());
        if (recovered.size() != static_cast<size_t>(num_publishes) ||
            recovered.Latest()->bytes != memory_registry.Latest()->bytes) {
          durable_recovers = false;
        }
      }
    }
    dtable.AddRow({fsync ? "wal+fsync" : "wal",
                   TablePrinter::Num(seconds, 3),
                   TablePrinter::Num(num_publishes / seconds, 1),
                   TablePrinter::Num(memory_seconds / seconds, 2)});
  }
  std::remove(wal_path.c_str());
  dtable.Print();
  std::printf("\nWAL reopen recovers publishes bit-identically:       %s\n",
              durable_recovers ? "yes" : "NO");

  // ---- tracing overhead: the macro perf gate ----------------------------
  // TraceRing is always-on in production, so the macro numbers that gate
  // the serving path are measured WITH tracing enabled; the untraced run
  // exists to prove the instrumentation is overhead-neutral (per-thread
  // rings, relaxed-atomic enabled check — the gate keeps it honest).
  // Tracing must also never perturb results: both runs are bit-identity
  // checked like every other configuration axis in this bench.
  const int gate_threads = std::min(4, max_threads);
  std::printf("\n== Tracing overhead at %d threads, max_batch=4 ==\n\n",
              gate_threads);
  TraceRing::Global().SetEnabled(false);
  RunResult untraced = RunServer(setup, gate_threads, /*max_batch=*/4);
  TraceRing::Global().SetEnabled(true);
  TraceRing::Global().Clear();
  RunResult traced = RunServer(setup, gate_threads, /*max_batch=*/4);
  const double untraced_tps = TasksPerSec(untraced);
  const double traced_tps = TasksPerSec(traced);
  TablePrinter ttable({"Tracing", "Wall (s)", "Tasks/s", "p99 (ms)",
                       "vs off"});
  ttable.AddRow({"off", TablePrinter::Num(untraced.wall_seconds, 3),
                 TablePrinter::Num(untraced_tps, 1),
                 TablePrinter::Num(untraced.p99_inference_seconds * 1e3, 1),
                 TablePrinter::Num(1.0, 2)});
  ttable.AddRow({"on", TablePrinter::Num(traced.wall_seconds, 3),
                 TablePrinter::Num(traced_tps, 1),
                 TablePrinter::Num(traced.p99_inference_seconds * 1e3, 1),
                 TablePrinter::Num(traced_tps / untraced_tps, 2)});
  ttable.Print();

  const bool tracing_identical =
      traced.final_codes == untraced.final_codes &&
      traced.final_codes == reference &&
      traced.predictions == untraced.predictions;
  const bool tracing_cheap = traced_tps >= 0.85 * untraced_tps;
  std::printf("\ntraced codes bit-identical to untraced + pipeline:   %s\n",
              tracing_identical ? "yes" : "NO");
  std::printf("tracing overhead within gate (>=0.85x untraced):     %s\n",
              tracing_cheap ? "yes" : "NO");

  // Macro numbers for the perf CI gate (bench/check_perf_regression.py
  // compares them against the committed bench/baseline_serving.json). The
  // gated run is the traced one — tracing is the production configuration.
  if (const char* json_path = std::getenv("QCORE_BENCH_JSON")) {
    std::ofstream out(json_path);
    out << "{\n  \"serving\": {\n"
        << "    \"tasks_per_sec\": " << traced_tps << ",\n"
        << "    \"p99_inference_ms\": "
        << traced.p99_inference_seconds * 1e3 << ",\n"
        << "    \"traced_tasks_per_sec\": " << traced_tps << ",\n"
        << "    \"untraced_tasks_per_sec\": " << untraced_tps << ",\n"
        << "    \"devices\": " << num_devices << ",\n"
        << "    \"batches_per_device\": " << batches_per_device << ",\n"
        << "    \"threads\": " << gate_threads << ",\n"
        << "    \"max_batch\": 4,\n"
        << "    \"gemm_threads\": " << kernels::gemm_threads() << ",\n"
        << "    \"rtt_ms\": " << BenchRttMs() << "\n"
        << "  }\n}\n";
    if (!out.good()) {
      std::printf("failed to write QCORE_BENCH_JSON to %s\n", json_path);
      return 2;
    }
    std::printf("\nwrote macro serving numbers to %s\n", json_path);
  }

  // Exit codes separate correctness from timing: 2 = determinism or
  // ordering violated (always a bug), 1 = a timing property failed (the
  // scaling curves not improving, batching not faster, or tracing costing
  // more than the gate allows) — expected e.g. with QCORE_BENCH_RTT_MS=0
  // on a single-core host, and tolerated by CI on noisy shared runners
  // (the hard tracing-overhead gate lives in check_perf_regression.py,
  // fed by QCORE_BENCH_JSON).
  if (!identical_across_threads || first_run.final_codes != reference ||
      !batched_identical || !batched_ordered || !sharded_identical ||
      !sharded_ordered || !durable_recovers || !tracing_identical) {
    return 2;
  }
  return (monotonic && batched_faster && sharding_scales && tracing_cheap)
             ? 0
             : 1;
}
