// Fleet simulation: one server-prepared quantized model deployed to a large
// fleet of simulated edge devices — HAR wearables (subject shift) and image
// sensors (visual-domain shift) — served through the FleetBackend
// interface. The large HAR cohort runs on a ShardedFleetServer (N
// consistent-hash shards, each with its own pool and batcher; mid-run it
// rebalances to a larger shard count live), the smaller image cohort on a
// single FleetServer — the same driving code serves both, which is the
// point of the API. Each device streams its own shifted domain,
// interleaving inference traffic with continual calibration (Algorithms
// 3+4); the servers snapshot calibrated models into copy-on-write
// registries, and per-shard and fleet-wide counter totals are derived
// from the whiteboard's device rows.
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
// Chaos:        --chaos-seed=N installs a deterministic FaultInjector and
//               arms a shard crash on the first migration of the
//               mid-stream rebalance. The run must SURVIVE it: the lost
//               device leaves the routing maps loudly, the rest of the
//               fleet keeps serving, and the chaos report at the end warm
//               re-registers the victim from its barrier snapshot and
//               verifies the restored codes bit-identically (exit 1 if
//               recovery fails). Same seed, same schedule, every run.
// Overload:     --overload runs the overload drill instead of the full
//               simulation: a multi-threaded flood beyond fleet capacity
//               against the whole control plane (per-request latency
//               budgets, hierarchical session/shard/fleet admission,
//               client-side jittered retry, calibration aging, and one
//               non-blocking mid-flood migration). The report breaks sheds
//               down by reason (queue-full / deadline / limiter) and ends
//               with a calibration-progress verdict: every device must
//               complete at least one calibration step under the flood
//               (exit 1 on starvation). With --chaos-seed=N the drill also
//               runs under seeded device-RTT-spike chaos.
// Wide batch:   --wide-batch runs the panel-parallel kernel drill instead:
//               large multi-row inference requests batched into wide
//               forwards whose GEMMs fan out across the panel worker set
//               under the serving pool. Prints panel dispatch counts from
//               the whiteboard and exits 1 if any prediction or logit
//               differs from a single-threaded reference run, or if the
//               wide path never engaged. With --chaos-seed=N the wide pass
//               additionally runs under seeded latency faults (RTT spikes,
//               flusher stalls, pool saturation) — latency may move, bits
//               may not.
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
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
#include "serving/backend.h"
#include "serving/router.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "serving/snapshot_store.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"
#include "testing/fault_injector.h"

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

// --- The overload drill (--overload). ------------------------------------
// A deliberately over-subscribed sharded cohort: four submitter threads
// flood eight devices with more in-flight demand than the fleet-level
// admission cap allows, a third of the traffic carries a tight latency
// budget, every device's calibration stream competes with the flood (kLow
// at the pool — priority aging is what keeps it scheduled), and one device
// is migrated to the other shard mid-flood while a bystander keeps
// serving. Clients react to sheds the canonical way: RetryWithBackoff with
// per-thread jitter seeds. The report breaks the sheds down by reason and
// the drill verdicts on the property floods usually destroy silently —
// calibration progress (exit 1 if any device starves), plus bystander
// liveness through the migration.
int RunOverloadDrill(const Deployment& har, const HarSpec& har_spec,
                     int threads, bool chaos, uint64_t chaos_seed) {
  constexpr int kDevices = 8;
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 48;

  std::printf("\n== Overload drill: %d submitters flooding %d devices on 2 "
              "shards ==\n",
              kSubmitters, kDevices);

  // Optional chaos flavor: seeded device-RTT spikes make the flood's queue
  // waits erratic. The plane's accounting and the verdict below must hold
  // regardless — latency chaos may change WHICH requests shed, never the
  // ledger arithmetic.
  std::unique_ptr<FaultInjector> injector;
  if (chaos) {
    injector = std::make_unique<FaultInjector>(chaos_seed);
    FaultScript spike;
    spike.sticky = true;
    spike.probability = 0.25;
    spike.arg = 2000;  // each spike adds 2ms of device RTT
    injector->Arm(FaultPoint::kDeviceRttSpike, spike);
    injector->Install();
    std::printf("chaos: device-RTT-spike injector installed (seed %llu)\n",
                static_cast<unsigned long long>(chaos_seed));
  }

  FleetServerOptions opts;
  opts.num_threads = std::max(2, threads / 2);
  opts.continual.iterations = 1;
  opts.seed = 0xF1EE7;
  opts.enable_batching = true;
  opts.batching.max_batch = 4;
  opts.batching.max_delay_us = 200.0;
  opts.simulated_device_rtt_ms = 1.0;
  opts.max_inference_queue_per_session = 6;
  opts.max_calibration_queue_per_session = 2;
  opts.calibration_aging_us = 3000;  // starving calibration overtakes at 3ms
  ShardedFleetServerOptions sopts;
  sopts.num_shards = 2;
  sopts.shard = opts;
  // The fleet-level cap is what the flood is sized against: well below the
  // sum of per-session headroom, so limiter sheds show up in the breakdown
  // next to the hotspot's session queue-full sheds.
  sopts.max_queue_per_fleet = 24;
  ShardedFleetServer server(*har.base, *har.bf, sopts);

  for (int d = 0; d < kDevices; ++d) {
    server.RegisterDevice("ov-" + std::to_string(d), har.qcore);
  }

  // Per-device data: each device streams its own shifted subject.
  std::vector<Dataset> batches(kDevices), slices(kDevices);
  for (int d = 0; d < kDevices; ++d) {
    const int subject = 1 + d % (har_spec.num_subjects - 1);
    HarDomain target = MakeHarDomain(har_spec, subject);
    Rng split_rng(opts.seed ^ static_cast<uint64_t>(d));
    batches[d] = SplitIntoStreamBatches(target.train, 1, &split_rng)[0];
    slices[d] = SplitIntoStreamBatches(target.test, 1, &split_rng)[0];
  }

  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> deadline_shed{0};
  std::atomic<uint64_t> abandoned{0};  // admission-shed after all retries
  std::array<std::atomic<uint64_t>, kDevices> calibration_done{};

  Stopwatch wall;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      RetryPolicy retry;
      retry.max_attempts = 4;
      retry.base_backoff_us = 300;
      retry.seed = 0xD811 + static_cast<uint64_t>(s);  // de-synced jitter
      // Calibration is throughput work — it can afford to wait out the
      // flood, so its retry policy is far more persistent than the
      // latency-sensitive inference one.
      RetryPolicy cal_retry;
      cal_retry.max_attempts = 8;
      cal_retry.base_backoff_us = 500;
      cal_retry.seed = 0xCA11B + static_cast<uint64_t>(s);
      std::vector<std::future<InferenceResult>> inflight;
      std::vector<std::pair<int, std::future<BatchStats>>> cal_inflight;
      for (int r = 0; r < kRounds; ++r) {
        // Mostly round-robin, but every fifth round piles onto device 1 so
        // the hotspot's session cap refuses (queue-full sheds) while the
        // spread load hits the fleet cap (limiter sheds).
        const int d = (r % 5 == 0) ? 1 : (s + r) % kDevices;
        const std::string id = "ov-" + std::to_string(d);
        InferenceSubmitOptions sub;
        if (r % 3 == 0) sub.latency_budget_us = 4000.0;  // 1/3 on a budget
        bool admitted = false;
        (void)RetryWithBackoff(retry, [&]() -> Status {
          auto res = server.TrySubmitInference(id, slices[d].x(), sub);
          if (!res.ok()) return res.status();
          inflight.push_back(std::move(res).value());
          admitted = true;
          return Status::OK();
        });
        if (!admitted) abandoned.fetch_add(1, std::memory_order_relaxed);
        // Every sixth round, keep a device's calibration stream moving
        // under the flood; the stagger gives every device several chances
        // from different submitters.
        if (r % 6 == 0) {
          const int cd = (s * 2 + r / 6) % kDevices;
          const std::string cid = "ov-" + std::to_string(cd);
          (void)RetryWithBackoff(cal_retry, [&]() -> Status {
            auto res = server.TrySubmitCalibration(cid, batches[cd],
                                                   slices[cd]);
            if (!res.ok()) return res.status();
            cal_inflight.emplace_back(cd, std::move(res).value());
            return Status::OK();
          });
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      for (auto& fut : inflight) {
        const InferenceResult r = fut.get();
        if (r.status.ok()) {
          delivered.fetch_add(1, std::memory_order_relaxed);
        } else {
          deadline_shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      for (auto& [cd, fut] : cal_inflight) {
        fut.get();
        calibration_done[static_cast<size_t>(cd)].fetch_add(
            1, std::memory_order_relaxed);
      }
    });
  }

  // Mid-flood, migrate ov-0 to the other shard (non-blocking protocol:
  // drain under a shared routing lock) while the main thread probes a
  // bystander device — its budget-less submissions must keep delivering
  // while the mover drains.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int source_shard = server.ShardOf("ov-0");
  const int target_shard = (source_shard + 1) % server.num_shards();
  std::atomic<bool> migration_done{false};
  uint64_t moved_version = 0;
  std::thread migrator([&] {
    moved_version = server.MoveDevice("ov-0", target_shard);
    migration_done.store(true, std::memory_order_release);
  });
  uint64_t bystander_delivered = 0;
  RetryPolicy probe_retry;
  probe_retry.max_attempts = 6;
  probe_retry.seed = 0xB15;
  while (!migration_done.load(std::memory_order_acquire)) {
    std::future<InferenceResult> fut;
    bool admitted = false;
    (void)RetryWithBackoff(probe_retry, [&]() -> Status {
      auto res = server.TrySubmitInference("ov-3", slices[3].x());
      if (!res.ok()) return res.status();
      fut = std::move(res).value();
      admitted = true;
      return Status::OK();
    });
    if (admitted && fut.get().status.ok()) ++bystander_delivered;
  }
  migrator.join();
  for (auto& t : submitters) t.join();
  server.Drain();
  const double drill_seconds = wall.ElapsedSeconds();

  // --- Drill report. -----------------------------------------------------
  const WhiteboardImage board = server.whiteboard().Read();
  const ServingCounters totals = board.FleetTotals();
  const uint64_t submitted =
      static_cast<uint64_t>(kSubmitters) * static_cast<uint64_t>(kRounds);
  std::printf("\nflooded %llu inference submissions (plus retries and "
              "calibration) in %.2fs\n",
              static_cast<unsigned long long>(submitted), drill_seconds);
  std::printf("client view: %llu delivered, %llu deadline-shed, %llu "
              "abandoned after %d attempts\n",
              static_cast<unsigned long long>(delivered.load()),
              static_cast<unsigned long long>(deadline_shed.load()),
              static_cast<unsigned long long>(abandoned.load()), 4);
  std::printf("server view (every retry attempt counts): shed-by-reason "
              "queue-full=%llu limiter=%llu deadline=%llu\n",
              static_cast<unsigned long long>(totals.shed_queue_full),
              static_cast<unsigned long long>(totals.shed_limiter),
              static_cast<unsigned long long>(totals.shed_deadline));
  std::printf("migration: ov-0 shard %d -> %d (snapshot v%llu) with %llu "
              "bystander probes delivered during the drain\n",
              source_shard, target_shard,
              static_cast<unsigned long long>(moved_version),
              static_cast<unsigned long long>(bystander_delivered));
  if (chaos) {
    std::printf("chaos: rtt-spike fault %llu hit(s), %llu fired\n",
                static_cast<unsigned long long>(
                    injector->hits(FaultPoint::kDeviceRttSpike)),
                static_cast<unsigned long long>(
                    injector->fired(FaultPoint::kDeviceRttSpike)));
    FaultInjector::Uninstall();
  }
  std::printf("\n-- serving histograms (2 shards) --\n%s\n",
              server.metrics().Report().c_str());
  std::printf("-- whiteboard (per-reason shed columns) --\n%s\n",
              board.ToTable(kDevices).c_str());

  // --- Verdict: nobody starves. The whole point of priority aging + -------
  // hierarchical admission is that a flood of kHigh inference cannot
  // silently stop the fleet from calibrating.
  int starved = 0;
  std::printf("calibration progress under flood:");
  for (int d = 0; d < kDevices; ++d) {
    const uint64_t done = calibration_done[static_cast<size_t>(d)].load();
    std::printf(" ov-%d=%llu", d, static_cast<unsigned long long>(done));
    if (done == 0) ++starved;
  }
  std::printf("\n");
  const bool delivered_any = delivered.load() > 0;
  const bool migrated = server.ShardOf("ov-0") == target_shard;
  const bool ok = starved == 0 && delivered_any && migrated &&
                  bystander_delivered > 0;
  std::printf("verdict: %d starved device(s), mover %s, bystander %s -> "
              "%s\n",
              starved, migrated ? "relocated" : "LOST",
              bystander_delivered > 0 ? "stayed live" : "STALLED",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// --- The wide-batch drill (--wide-batch). ---------------------------------
// Panel-parallel kernels under the serving pool: large multi-row inference
// requests are coalesced by the batcher into wider forwards whose lowered
// GEMMs clear the (lowered) crossover, so pool workers' forwards fan out
// across the panel worker set — the nested case the ParallelFor contract
// exists for. The drill runs the same request stream twice, wide
// (gemm_threads=4) and as a single-threaded reference, and verdicts on the
// two properties the parallel substrate guarantees: every prediction
// bit-equal to the reference, and the wide run actually dispatching panel
// work (a drill that silently stayed narrow proves nothing). Raw logits of
// one large forward are also compared float-for-float — predictions alone
// would forgive sub-ULP drift that argmax happens to absorb.
// With --chaos-seed=N, sticky latency faults (device RTT spikes, batcher
// flusher stalls, pool-worker stalls) run under the wide pass: they may
// reshape batching and scheduling, never bits.
int RunWideBatchDrill(const Deployment& har, const HarSpec& har_spec,
                      bool chaos, uint64_t chaos_seed) {
  constexpr int kDevices = 2;
  constexpr int kRowsPerRequest = 16;
  constexpr int kRequests = 24;

  std::printf("== Wide-batch drill: deterministic panel-parallel GEMM "
              "under the serving pool ==\n\n");

  std::unique_ptr<FaultInjector> injector;
  if (chaos) {
    injector = std::make_unique<FaultInjector>(chaos_seed);
    FaultScript rtt;
    rtt.sticky = true;
    rtt.probability = 0.3;
    rtt.arg = 300;  // microseconds
    injector->Arm(FaultPoint::kDeviceRttSpike, rtt);
    FaultScript stall;
    stall.sticky = true;
    stall.probability = 0.3;
    stall.arg = 200;
    injector->Arm(FaultPoint::kBatcherFlusherStall, stall);
    FaultScript saturate;
    saturate.sticky = true;
    saturate.probability = 0.2;
    saturate.arg = 100;
    injector->Arm(FaultPoint::kPoolSaturation, saturate);
    injector->Install();
    std::printf("chaos: latency faults armed (seed %llu) — RTT spikes, "
                "flusher stalls, pool saturation; bits must not move\n\n",
                static_cast<unsigned long long>(chaos_seed));
  }

  // Deterministic multi-row requests sliced from the shifted target domain.
  HarDomain target = MakeHarDomain(har_spec, 1);
  const Tensor& tx = target.test.x();
  std::vector<Tensor> requests;
  for (int r = 0; r < kRequests; ++r) {
    const int64_t begin = (r * kRowsPerRequest) % (tx.dim(0) - 1);
    const int64_t end = std::min(begin + kRowsPerRequest, tx.dim(0));
    requests.push_back(tx.SliceRows(begin, end));
  }

  // Lower the crossover so this drill's model (small HAR forwards) takes
  // the wide path; production keeps the tuned default.
  kernels::set_gemm_parallel_min_work(int64_t{1} << 12);

  // Kernel-level check first: one large batched forward, compared
  // float-for-float between thread budgets.
  Tensor big = ConcatRows({&tx, &tx, &tx, &tx});
  kernels::set_gemm_threads(1);
  Tensor ref_logits = har.base->Clone()->Forward(big, /*training=*/false);
  kernels::set_gemm_threads(4);
  const kernels::GemmDispatchCounters before =
      kernels::ThreadGemmDispatchCounters();
  Tensor wide_logits = har.base->Clone()->Forward(big, /*training=*/false);
  const kernels::GemmDispatchCounters after =
      kernels::ThreadGemmDispatchCounters();
  bool logits_identical = wide_logits.SameShape(ref_logits);
  if (logits_identical) {
    for (int64_t i = 0; i < ref_logits.size(); ++i) {
      if (wide_logits[i] != ref_logits[i]) {
        logits_identical = false;
        break;
      }
    }
  }
  std::printf("direct forward (%lld rows): %llu wide GEMM dispatches, "
              "%llu panel tasks, logits %s\n",
              static_cast<long long>(big.dim(0)),
              static_cast<unsigned long long>(after.wide - before.wide),
              static_cast<unsigned long long>(after.panel_tasks -
                                              before.panel_tasks),
              logits_identical ? "bit-identical" : "DIVERGED");

  // Serving-path check: the same stream through a batching FleetServer at
  // each thread budget. Inference mutates nothing, so predictions must be
  // independent of grouping, scheduling, and the kernel thread budget.
  auto run_stream = [&](int gemm_budget, uint64_t* wide_dispatches,
                        uint64_t* panel_tasks,
                        std::string* board) -> std::vector<std::vector<int>> {
    kernels::set_gemm_threads(gemm_budget);
    FleetServerOptions opts;
    opts.num_threads = 2;
    opts.seed = 0xD0C5;
    opts.continual.iterations = 1;
    opts.enable_batching = true;
    opts.batching.max_batch = 4;
    opts.batching.max_delay_us = 400.0;
    FleetServer server(*har.base, *har.bf, opts);
    for (int d = 0; d < kDevices; ++d) {
      server.RegisterDevice("wide-" + std::to_string(d), har.qcore);
    }
    std::vector<std::future<InferenceResult>> futures;
    for (int r = 0; r < kRequests; ++r) {
      futures.push_back(server.SubmitInference(
          "wide-" + std::to_string(r % kDevices), requests[r]));
    }
    std::vector<std::vector<int>> preds;
    for (auto& f : futures) preds.push_back(f.get().predictions);
    server.Drain();
    const WhiteboardImage image = server.whiteboard().Read();
    *wide_dispatches = image.FleetTotals().panel_wide_dispatches;
    *panel_tasks = image.FleetTotals().panel_tasks;
    if (board != nullptr) *board = image.ToTable();
    return preds;
  };

  uint64_t ref_wide = 0, ref_tasks = 0;
  const std::vector<std::vector<int>> ref_preds =
      run_stream(1, &ref_wide, &ref_tasks, nullptr);
  uint64_t mt_wide = 0, mt_tasks = 0;
  std::string board;
  const std::vector<std::vector<int>> mt_preds =
      run_stream(4, &mt_wide, &mt_tasks, &board);

  std::printf("\nwide run whiteboard (panels column = wide/tasks):\n%s\n",
              board.c_str());
  std::printf("served stream: reference %llu wide dispatches (budget 1), "
              "wide run %llu wide dispatches / %llu panel tasks\n",
              static_cast<unsigned long long>(ref_wide),
              static_cast<unsigned long long>(mt_wide),
              static_cast<unsigned long long>(mt_tasks));

  const bool preds_identical = mt_preds == ref_preds;
  const bool went_wide = mt_wide > 0;
  std::printf("verdict: logits %s, predictions %s, panel dispatch %s\n",
              logits_identical ? "OK" : "FAIL",
              preds_identical ? "OK" : "FAIL",
              went_wide ? "OK" : "FAIL (wide path never engaged)");
  if (chaos) {
    std::printf("chaos: rtt_spikes=%llu flusher_stalls=%llu "
                "pool_stalls=%llu\n",
                static_cast<unsigned long long>(
                    injector->fired(FaultPoint::kDeviceRttSpike)),
                static_cast<unsigned long long>(
                    injector->fired(FaultPoint::kBatcherFlusherStall)),
                static_cast<unsigned long long>(
                    injector->fired(FaultPoint::kPoolSaturation)));
  }

  kernels::set_gemm_threads(1);
  kernels::set_gemm_parallel_min_work(kernels::kDefaultGemmParallelMinWork);
  return (logits_identical && preds_identical && went_wide) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const int har_devices = EnvInt("QCORE_FLEET_DEVICES", Fast() ? 24 : 200);
  const int img_devices = std::max(1, har_devices / 4);
  const int threads = EnvInt("QCORE_FLEET_THREADS", 4);
  const int shards = EnvInt("QCORE_FLEET_SHARDS", 2);
  const int stream_batches = 2;

  bool chaos = false;
  bool overload = false;
  bool wide_batch = false;
  uint64_t chaos_seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--chaos-seed=";
    if (arg.rfind(prefix, 0) == 0) {
      chaos = true;
      chaos_seed = std::strtoull(arg.c_str() + prefix.size(), nullptr, 10);
    } else if (arg == "--overload") {
      overload = true;
    } else if (arg == "--wide-batch") {
      wide_batch = true;
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s (try --chaos-seed=N, --overload, "
                   "or --wide-batch)\n",
                   arg.c_str());
      return 2;
    }
  }

  std::printf("== Fleet simulation: %d HAR devices on %d shards (x%d "
              "threads) + %d image devices ==\n\n",
              har_devices, shards, threads, img_devices);

  // Chaos mode: a deterministic injector, armed so the FIRST migration of
  // the mid-stream rebalance loses its target shard. Everything below must
  // tolerate the loss; the report at the end proves the recovery.
  std::unique_ptr<FaultInjector> injector;
  // The overload and wide-batch drills arm their own injectors.
  if (chaos && !overload && !wide_batch) {
    injector = std::make_unique<FaultInjector>(chaos_seed);
    FaultScript crash;
    crash.fire_on_hit = 1;  // one-shot on the rebalance's first migration
    injector->Arm(FaultPoint::kShardCrashDuringMigration, crash);
    injector->Install();
    std::printf("chaos: injector installed (seed %llu), shard crash armed "
                "for the mid-stream rebalance\n\n",
                static_cast<unsigned long long>(chaos_seed));
  }

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
  if (overload) {
    // Overload drill replaces the full simulation: it only needs the HAR
    // deployment, so the image cohort is never prepared.
    return RunOverloadDrill(har, har_spec, threads, chaos, chaos_seed);
  }
  if (wide_batch) {
    // Same shape as the overload drill: HAR deployment only.
    return RunWideBatchDrill(har, har_spec, chaos, chaos_seed);
  }
  std::printf("preparing image deployment (ResNet-tiny, 4-bit)...\n");
  auto img_model =
      MakeResNetTiny(img_spec.channels, img_spec.num_classes, &rng);
  Deployment img = Prepare(img_model.get(), img_source.train, &rng);

  // --- Two backends behind one interface: the big HAR cohort is sharded ---
  // (independent pool + batcher per shard, consistent-hash placement), the
  // small image cohort runs a single server. The driving code below only
  // sees FleetBackend&.
  FleetServerOptions opts;
  opts.num_threads = threads;
  opts.continual.iterations = 1;
  opts.seed = 0xF1EE7;
  opts.snapshot_every = stream_batches;  // snapshot each device at the end
  // Serving-plane features: coalesce inference bursts into grouped forward
  // passes (results stay bit-identical to the unbatched path) and bound
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
  // Chaos recovery path: a device lost to the injected shard crash is
  // re-registered after the stream, and must warm-start from the barrier
  // snapshot its crashed migration published.
  if (chaos) opts.warm_start_from_registry = true;
  ShardedFleetServerOptions har_opts;
  har_opts.num_shards = shards;
  har_opts.shard = opts;
  ShardedFleetServer har_server(*har.base, *har.bf, har_opts);
  FleetServer img_server(*img.base, *img.bf, opts);

  // --- Register the fleet: every device gets its own shifted domain. -----
  Stopwatch wall;
  std::vector<std::pair<FleetBackend*, std::string>> fleet;
  for (int d = 0; d < har_devices; ++d) {
    const std::string id = "har-" + std::to_string(d);
    har_server.RegisterDevice(id, har.qcore);
    fleet.emplace_back(&har_server, id);
  }
  for (int d = 0; d < img_devices; ++d) {
    const std::string id = "img-" + std::to_string(d);
    img_server.RegisterDevice(id, img.qcore);
    fleet.emplace_back(&img_server, id);
  }
  std::printf("registered %zu sessions in %.2fs (HAR shard occupancy:",
              fleet.size(), wall.ElapsedSeconds());
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
    if (chaos && !har_server.HasDevice(id)) {
      // This device's migration was hit by the injected shard crash: it
      // left the routing maps loudly. Skip its traffic (an overload-aware
      // client would see unknown-device errors); the chaos report below
      // re-registers it from its barrier snapshot.
      std::printf("chaos: %s lost to the injected shard crash; skipping "
                  "its stream\n",
                  id.c_str());
      continue;
    }
    const int subject = 1 + d % (har_spec.num_subjects - 1);
    HarDomain target = MakeHarDomain(har_spec, subject);
    Rng split_rng(opts.seed ^ static_cast<uint64_t>(d));
    auto batches =
        SplitIntoStreamBatches(target.train, stream_batches, &split_rng);
    auto slices =
        SplitIntoStreamBatches(target.test, stream_batches, &split_rng);
    for (int b = 0; b < stream_batches; ++b) {
      har_server.SubmitInference(id, slices[b].x());
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
      img_server.SubmitInference(id, slices[b].x());
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
  std::printf("served %zu calibration batches + inference traffic for %zu "
              "devices in %.2fs\n\n",
              stats.size(), fleet.size(), serve_seconds);
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
  // Cross-cohort total: the two backends are independent (different base
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

  // --- Chaos report: the fleet survived the injected shard crash. --------
  // The crashed migration lost its session's continuation but NOT its
  // barrier snapshot; re-registering the victim warm-starts it from that
  // snapshot, and the restored model codes must match bit-identically.
  if (chaos) {
    FaultInjector::Uninstall();
    std::printf("== Chaos report (seed %llu) ==\n",
                static_cast<unsigned long long>(chaos_seed));
    std::printf("shard-crash fault: %llu hit(s), %llu fired\n",
                static_cast<unsigned long long>(
                    injector->hits(FaultPoint::kShardCrashDuringMigration)),
                static_cast<unsigned long long>(
                    injector->fired(FaultPoint::kShardCrashDuringMigration)));
    std::vector<std::string> lost;
    for (int d = 0; d < har_devices; ++d) {
      const std::string id = "har-" + std::to_string(d);
      if (!har_server.HasDevice(id)) lost.push_back(id);
    }
    std::printf("devices lost to the crash: %zu / %d (fleet kept serving "
                "the rest)\n",
                lost.size(), har_devices);
    int recovered_devices = 0;
    for (const std::string& id : lost) {
      auto snap = har_server.snapshots().LatestFor(id);
      har_server.RegisterDevice(id, har.qcore);  // warm re-registration
      if (snap == nullptr) continue;
      auto restored = har.base->Clone();
      if (!SnapshotRegistry::RestoreInto(*snap, restored.get()).ok()) {
        continue;
      }
      har_server.WithSessionQuiesced(id, [&](CalibrationSession& s) {
        if (s.model()->AllCodes() == restored->AllCodes()) {
          std::printf("  %s: re-registered, codes bit-identical to barrier "
                      "snapshot v%llu\n",
                      id.c_str(),
                      static_cast<unsigned long long>(snap->version));
          ++recovered_devices;
        }
      });
    }
    har_server.Drain();
    const bool survived =
        injector->fired(FaultPoint::kShardCrashDuringMigration) > 0 &&
        recovered_devices == static_cast<int>(lost.size());
    std::printf("recovery: %d/%zu lost devices restored bit-identically "
                "-> %s\n\n",
                recovered_devices, lost.size(),
                survived ? "SURVIVED" : "FAILED");
    if (!survived) return 1;
  }

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
    auto store = DurableSnapshotStore::Open({wal_path, false});
    if (!store.ok()) {
      std::printf("WAL open failed: %s\n", store.status().ToString().c_str());
      return 1;
    }
    SnapshotRegistry durable(std::move(store).value());
    FleetServerOptions wopts = opts;
    wopts.snapshot_every = 0;  // explicit publishes below
    FleetServer server(*har.base, *har.bf, wopts, &durable);
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
    auto store = DurableSnapshotStore::Open({wal_path, false});
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
    FleetServer server(*har.base, *har.bf, wopts, &recovered);
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
