// End-to-end benchmark of one on-edge calibration step (Alg. 3 bit-flip
// pass plus the Alg. 4 QCore update), served through the fleet server. One
// process runs one workload (see README.md for why each exists):
//
//   calib_har    closed-loop calibration steps, DSA-like InceptionTime
//   calib_image  closed-loop calibration steps, Caltech10-like ResNet-tiny
//
// Every layer is measured from outside: the benchmark times calls into the
// public functions of core/, tensor/, serving/ and obs/, and reads the
// TraceRing events the serving plane already records. Nothing here changes
// the system under test.
//
// The binary drives the system and records raw samples; bench/e2e/run.py
// turns them into metrics. The split keeps the statistics in one place
// (and unit-testable) while the C++ side only measures.
//
// Usage: bench_e2e --workload W --seed N --seconds S --trace 0|1
//                  --raw FILE --setup-repeats K [--git-sha SHA]
//                  [--allow-small-host]
// Exit codes: 0 ok, 2 an output check failed, 3 the run environment is
// unfit for timing, 64 bad usage.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "common/stopwatch.h"
#include "core/bitflip.h"
#include "core/continual.h"
#include "core/qcore_update.h"
#include "core/quant_miss.h"
#include "nn/batchnorm.h"
#include "nn/training.h"
#include "obs/trace.h"
#include "serving/router.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

#ifndef QCORE_BENCH_BUILD_TYPE
#define QCORE_BENCH_BUILD_TYPE "unknown"
#endif

namespace qcore::e2e {
namespace {

using bench::BenchConfig;
using bench::DomainData;
using bench::LoadHar;
using bench::LoadImage;
using Clock = std::chrono::steady_clock;

// Fixed set-up shared by every workload.
constexpr int kBits = 4;
constexpr int kGemmThreads = 2;
constexpr int kPoolThreads = 2;
// Unscored steps before the measured window of a calibration loop.
constexpr int kWarmupSteps = 5;
// Served steps whose codes and QCore are checked against the reference
// pipeline on untraced runs.
constexpr int kCheckedSteps = 10;
// A traced step records a handful of events; this leaves room for hours.
constexpr size_t kTraceEventsPerThread = size_t{1} << 16;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

// The process's own peak resident set (VmHWM). getrusage's ru_maxrss is
// not used: it keeps the high-water mark of the image the process replaced
// at exec, which for a child of a large parent can be the parent's.
double PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kb = 0.0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kb;
      break;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return kb;
}

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

// ------------------------------------------------------------------ raw out

// Everything a run measured, as named scalars and sample series, plus the
// outcome of every output check. Serialized to JSON for run.py.
struct Raw {
  std::map<std::string, std::string> env;
  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<double>> series;
  std::vector<std::pair<std::string, std::string>> failures;  // name, detail

  void Add(const std::string& name, double v) { series[name].push_back(v); }
  void Set(const std::string& name, double v) { scalars[name] = v; }
  void Inc(const std::string& name, double v = 1.0) { scalars[name] += v; }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    if (!ok) {
      failures.emplace_back(name, detail);
      std::fprintf(stderr, "[check] FAILED %s: %s\n", name.c_str(),
                   detail.c_str());
    }
  }
};

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", static_cast<unsigned char>(c));
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

void WriteJsonNumber(std::FILE* f, double v) {
  if (std::isfinite(v)) {
    std::fprintf(f, "%.17g", v);
  } else {
    std::fputs("null", f);
  }
}

bool WriteRaw(const Raw& raw, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"env\":{", f);
  bool first = true;
  for (const auto& [k, v] : raw.env) {
    if (!first) std::fputc(',', f);
    first = false;
    WriteJsonString(f, k);
    std::fputc(':', f);
    WriteJsonString(f, v);
  }
  std::fputs("},\"scalars\":{", f);
  first = true;
  for (const auto& [k, v] : raw.scalars) {
    if (!first) std::fputc(',', f);
    first = false;
    WriteJsonString(f, k);
    std::fputc(':', f);
    WriteJsonNumber(f, v);
  }
  std::fputs("},\"series\":{", f);
  first = true;
  for (const auto& [k, vs] : raw.series) {
    if (!first) std::fputc(',', f);
    first = false;
    WriteJsonString(f, k);
    std::fputs(":[", f);
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) std::fputc(',', f);
      WriteJsonNumber(f, vs[i]);
    }
    std::fputc(']', f);
  }
  std::fputs("},\"failures\":[", f);
  for (size_t i = 0; i < raw.failures.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    std::fputc('[', f);
    WriteJsonString(f, raw.failures[i].first);
    std::fputc(',', f);
    WriteJsonString(f, raw.failures[i].second);
    std::fputc(']', f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------- set-up

// A trained, deployed model family and the stream it calibrates on.
struct Family {
  std::unique_ptr<QuantizedModel> base;  // 4-bit, shadows dropped
  std::unique_ptr<BitFlipNet> bf;
  Dataset qcore;
  ContinualOptions continual;
  uint64_t fleet_seed = 0;
  // The calibration stream, one cycle; step i uses entry i % size.
  std::vector<Dataset> batches;
  std::vector<Dataset> slices;

  const Dataset& batch(int64_t step) const {
    return batches[static_cast<size_t>(step) % batches.size()];
  }
  const Dataset& slice(int64_t step) const {
    return slices[static_cast<size_t>(step) % slices.size()];
  }
};

// The model family is the paper-default one: data generation and training
// use the spec's and BenchConfig's own seeds, so every run deploys the same
// model and a step costs the same work whatever `--seed` is. `--seed`
// drives what the deployed model meets: the stream split (which rows form
// each batch and test slice) and the device session's seed (the
// exploration draws of every calibration step).
Family PrepareFamily(bool image, uint64_t seed) {
  Family f;
  const BenchConfig config =
      image ? BenchConfig::Image() : BenchConfig::TimeSeries();
  Rng rng(config.seed);
  DomainData source;
  std::vector<DomainData> stream;
  std::unique_ptr<Sequential> fp;
  if (image) {
    const ImageSpec spec = ImageSpec::Caltech10();
    source = LoadImage(spec, spec.DomainIndex("DSLR"));
    for (const char* domain : {"Amazon", "Caltech", "Webcam"}) {
      stream.push_back(LoadImage(spec, spec.DomainIndex(domain)));
    }
    fp = MakeImageModel("ResNet18", spec.channels, spec.height, spec.width,
                        spec.num_classes, &rng);
  } else {
    const HarSpec spec = HarSpec::Dsa();
    source = LoadHar(spec, 0);
    for (int subject = 1; subject < spec.num_subjects; ++subject) {
      stream.push_back(LoadHar(spec, subject));
    }
    fp = MakeTimeSeriesModel("InceptionTime", spec.channels,
                             spec.num_classes, &rng);
  }
  QCoreBuildResult build = BuildQCore(fp.get(), source.train, config.build,
                                      &rng);
  f.base = std::make_unique<QuantizedModel>(*fp, kBits);
  f.bf = std::make_unique<BitFlipNet>(
      TrainBitFlipNet(f.base.get(), build.qcore, config.bf_train, &rng));
  f.base->DropShadows();
  f.qcore = std::move(build.qcore);
  f.continual = config.continual;
  f.fleet_seed = SplitMix64Mix(config.seed ^ seed);

  Rng split(SplitMix64Mix(seed ^ 0x57EAu));
  for (const DomainData& d : stream) {
    for (Dataset& b :
         SplitIntoStreamBatches(d.train, config.stream_batches, &split)) {
      f.batches.push_back(std::move(b));
    }
    for (Dataset& s :
         SplitIntoStreamBatches(d.test, config.stream_batches, &split)) {
      f.slices.push_back(std::move(s));
    }
  }
  return f;
}

// The serving plane the step is submitted through: one shard, two pool
// workers, batching on, no queue caps, no simulated link (compute-bound).
struct Fleet {
  std::unique_ptr<ShardedFleetServer> server;
  std::string device = "dev-0";
};

Fleet MakeFleet(const Family& f) {
  Fleet fleet;
  ShardedFleetServerOptions opts;
  opts.num_shards = 1;
  opts.shard.num_threads = kPoolThreads;
  opts.shard.continual = f.continual;
  opts.shard.seed = f.fleet_seed;
  opts.shard.simulated_device_rtt_ms = 0.0;
  opts.shard.enable_batching = true;
  opts.shard.batching.max_batch = 8;
  opts.shard.batching.max_delay_us = 500.0;
  fleet.server = std::make_unique<ShardedFleetServer>(*f.base, *f.bf, opts);
  fleet.server->RegisterDevice(fleet.device, f.qcore);
  return fleet;
}

// Family before fleet: the server holds references into the family.
struct Setup {
  Family family;
  Fleet fleet;
};

// ---------------------------------------------------------- session helpers

bool SameDataset(const Dataset& a, const Dataset& b) {
  return a.labels() == b.labels() && a.x().shape() == b.x().shape() &&
         std::memcmp(a.x().data(), b.x().data(),
                     sizeof(float) * static_cast<size_t>(a.x().size())) == 0;
}

struct SessionImage {
  std::vector<std::vector<int32_t>> codes;
  Dataset qcore;
};

SessionImage ReadSession(FleetBackend* server, const std::string& device) {
  SessionImage image;
  server->WithSessionQuiesced(device, [&](CalibrationSession& session) {
    image.codes = session.model()->AllCodes();
    image.qcore = session.qcore();
  });
  return image;
}

// ------------------------------------------------- calibration decomposition

// A copy of one device's calibration state, seeded exactly like its serving
// session, stepped through the same public calls ContinualDriver::
// ProcessBatch makes — each wrapped in a stopwatch. After every step its
// codes and QCore must equal the served session's, which keeps this
// decomposition honest if ProcessBatch changes.
struct Shadow {
  Shadow(const Family& f, const std::string& device)
      : model(f.base->Clone()),
        bf(f.bf->Clone()),
        rng(DeviceSeed(f.fleet_seed, device)),
        qcore(f.qcore),
        options(f.continual) {}

  std::unique_ptr<QuantizedModel> model;
  BitFlipNet bf;
  Rng rng;
  Dataset qcore;
  ContinualOptions options;
};

int64_t CodeDeltaL1(const std::vector<std::vector<int32_t>>& before,
                    const std::vector<std::vector<int32_t>>& after) {
  int64_t sum = 0;
  for (size_t t = 0; t < before.size(); ++t) {
    for (size_t e = 0; e < before[t].size(); ++e) {
      sum += std::abs(static_cast<int64_t>(after[t][e]) - before[t][e]);
    }
  }
  return sum;
}

// Rows of `updated` that are not byte-equal to any row of `old`: the
// examples the QCore update actually replaced.
int QCoreChurn(const Dataset& old, const Dataset& updated) {
  const int64_t row = old.x().size() / std::max(1, old.size());
  int churn = 0;
  for (int i = 0; i < updated.size(); ++i) {
    const float* u = updated.x().data() + i * row;
    bool found = false;
    for (int j = 0; j < old.size() && !found; ++j) {
      found = std::memcmp(u, old.x().data() + j * row,
                          sizeof(float) * static_cast<size_t>(row)) == 0;
    }
    if (!found) ++churn;
  }
  return churn;
}

// One decomposed calibration step. With `raw` set, records the stage
// times, counters and probes of this step.
void DecomposedStep(Shadow* s, const Dataset& batch, const Dataset& slice,
                    Raw* raw) {
  const std::vector<std::vector<int32_t>> codes_before =
      raw != nullptr ? s->model->AllCodes()
                     : std::vector<std::vector<int32_t>>{};
  const kernels::GemmDispatchCounters gemm_before =
      kernels::ThreadGemmDispatchCounters();
  const double cpu_before = ThreadCpuMs();
  double miss_forward_ms = 0.0, iteration_ms = 0.0;

  Stopwatch watch;
  const Dataset pool = MakeUpdatePool(s->qcore, batch, &s->rng);
  const double pool_ms = watch.ElapsedMillis();
  QuantMissTracker tracker(pool.size(), 1);
  SetBatchNormFrozen(s->model->model(), true);
  for (int it = 0; it < s->options.iterations; ++it) {
    watch.Restart();
    Tensor logits = s->model->model()->Forward(pool.x(), /*training=*/true);
    const std::vector<int> preds = ArgMaxRows(logits);
    std::vector<bool> correct(static_cast<size_t>(pool.size()));
    for (int i = 0; i < pool.size(); ++i) {
      correct[static_cast<size_t>(i)] =
          preds[static_cast<size_t>(i)] ==
          pool.labels()[static_cast<size_t>(i)];
    }
    tracker.ObserveAll(0, correct);
    miss_forward_ms += watch.ElapsedMillis();
    if (s->options.use_bitflip) {
      watch.Restart();
      BitFlipIterationFromCaches(s->model.get(), &s->bf, pool.x(),
                                 pool.labels(), s->options.bf, &s->rng);
      iteration_ms += watch.ElapsedMillis();
    }
  }
  SetBatchNormFrozen(s->model->model(), false);
  double resample_ms = 0.0;
  int churn = 0;
  if (s->options.use_qcore_update) {
    watch.Restart();
    Dataset updated =
        ResampleQCore(pool, tracker.misses(0), s->qcore.size(), &s->rng);
    resample_ms = watch.ElapsedMillis();
    if (raw != nullptr) churn = QCoreChurn(s->qcore, updated);
    s->qcore = std::move(updated);
  }
  watch.Restart();
  (void)EvaluateAccuracy(s->model->model(), slice.x(), slice.labels());
  const double eval_ms = watch.ElapsedMillis();
  const double cpu_ms = ThreadCpuMs() - cpu_before;
  const kernels::GemmDispatchCounters gemm_after =
      kernels::ThreadGemmDispatchCounters();
  if (raw == nullptr) return;

  raw->Add("stage.pool_ms", pool_ms);
  raw->Add("stage.miss_forward_ms", miss_forward_ms);
  raw->Add("stage.iteration_ms", iteration_ms);
  raw->Add("stage.resample_ms", resample_ms);
  raw->Add("stage.eval_ms", eval_ms);
  raw->Add("stage.cpu_ms", cpu_ms);
  raw->Add("stage.gemm_wide",
           static_cast<double>(gemm_after.wide - gemm_before.wide));
  raw->Add("stage.gemm_narrow",
           static_cast<double>(gemm_after.narrow - gemm_before.narrow));
  raw->Add("stage.churn", churn);
  raw->Add("stage.code_delta_l1",
           static_cast<double>(
               CodeDeltaL1(codes_before, s->model->AllCodes())));

  // Probes on clones, so the shadow's state is untouched. The bit-flip
  // net's share of an iteration: featurize + predict for every tensor off
  // one training-mode forward's caches.
  {
    std::unique_ptr<QuantizedModel> clone = s->model->Clone();
    BitFlipNet bf = s->bf.Clone();
    SetBatchNormFrozen(clone->model(), true);
    (void)clone->model()->Forward(pool.x(), /*training=*/true);
    watch.Restart();
    for (int t = 0; t < clone->num_quantized(); ++t) {
      Tensor features = ComputeBitFlipFeatures(clone->quantized(t), nullptr);
      std::vector<int> deltas;
      std::vector<float> confidences;
      bf.Predict(features, &deltas, &confidences);
    }
    raw->Add("stage.featurize_predict_ms", watch.ElapsedMillis());
    // The unit cost of validating one flip proposal: an eval forward over
    // trial_rows rows.
    const int rows = std::min(pool.size(), s->options.bf.trial_rows > 0
                                               ? s->options.bf.trial_rows
                                               : pool.size());
    std::vector<int> pick(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) pick[static_cast<size_t>(i)] = i;
    const Tensor trial = pool.x().GatherRows(pick);
    SetBatchNormFrozen(clone->model(), false);
    watch.Restart();
    (void)clone->model()->Forward(trial, /*training=*/false);
    raw->Add("stage.trial_forward_ms", watch.ElapsedMillis());
  }
}

// ------------------------------------------------------------ trace spans

// Collects the TraceRing, pairs each calibration's events by span into its
// queue and exec durations, and clears the ring.
void CollectCalibrationSpans(Raw* raw) {
  TraceRing& ring = TraceRing::Global();
  raw->Inc("trace.dropped_events", static_cast<double>(ring.dropped_events()));
  const std::vector<TraceEvent> events = ring.Collect();
  ring.Clear();
  struct Times {
    uint64_t submit = 0, exec_start = 0, exec_end = 0;
  };
  std::unordered_map<uint64_t, Times> spans;
  for (const TraceEvent& ev : events) {
    Times& t = spans[ev.span];
    if (ev.kind == TraceKind::kSubmitCalibration) t.submit = ev.ts_ns;
    if (ev.kind == TraceKind::kExecStart) t.exec_start = ev.ts_ns;
    if (ev.kind == TraceKind::kExecEnd) t.exec_end = ev.ts_ns;
  }
  auto ms = [](uint64_t a, uint64_t b) {
    return static_cast<double>(static_cast<int64_t>(b - a)) * 1e-6;
  };
  for (const auto& [span, t] : spans) {
    if (t.submit != 0 && t.exec_start != 0 && t.exec_end != 0) {
      raw->Add("span.calib_queue_ms", ms(t.submit, t.exec_start));
      raw->Add("span.calib_exec_ms", ms(t.exec_start, t.exec_end));
    }
  }
}

// -------------------------------------------------------- calibration loop

struct ServedStep {
  bool ok = false;
  double latency_ms = 0.0;
  float accuracy = 0.0f;
};

// Submit -> future, closed loop: the latency a calibrating caller sees.
ServedStep ServeCalibration(FleetBackend* server, const std::string& device,
                            const Family& f, int64_t step) {
  ServedStep out;
  Stopwatch watch;
  auto submitted =
      server->TrySubmitCalibration(device, f.batch(step), f.slice(step));
  if (!submitted.ok()) return out;
  const BatchStats stats = std::move(submitted).value().get();
  out.ok = true;
  out.latency_ms = watch.ElapsedMillis();
  out.accuracy = stats.accuracy;
  return out;
}

bool SameSession(const SessionImage& served, const Shadow& shadow) {
  return served.codes == shadow.model->AllCodes() &&
         SameDataset(served.qcore, shadow.qcore);
}

// Runs the workload's closed calibration loop: kWarmupSteps unscored steps,
// then scored steps until `seconds` elapse. Untraced, the first
// kCheckedSteps served steps are checked against a ContinualDriver
// reference, replayed after the loop so it costs the measured window
// nothing. Traced, every step is also replayed as a decomposed step on a
// shadow and checked against the served session, and tracing alternates
// per step so the trace's own overhead is measured.
void RunCalibrationLoop(Setup* setup, double seconds, bool traced,
                        Raw* raw) {
  const Family& f = setup->family;
  FleetBackend* server = setup->fleet.server.get();
  const std::string& device = setup->fleet.device;
  std::optional<Shadow> shadow;
  if (traced) shadow.emplace(f, device);
  std::vector<SessionImage> served_images;  // untraced: the checked steps
  bool matches = true;

  // After each served step: compare against the shadow, or keep the
  // session's state for the reference comparison.
  auto after_step = [&](int64_t step, Raw* record) {
    if (traced) {
      DecomposedStep(&*shadow, f.batch(step), f.slice(step), record);
      matches = matches && SameSession(ReadSession(server, device), *shadow);
    } else if (step < kCheckedSteps) {
      served_images.push_back(ReadSession(server, device));
    }
  };

  int64_t step = 0;
  for (; step < kWarmupSteps; ++step) {
    raw->Inc("attempted");
    if (!ServeCalibration(server, device, f, step).ok) raw->Inc("failed");
    after_step(step, nullptr);
  }

  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    const bool trace_on = traced && step % 2 == 1;
    TraceRing::Global().SetEnabled(trace_on);
    raw->Inc("attempted");
    const ServedStep served = ServeCalibration(server, device, f, step);
    TraceRing::Global().SetEnabled(false);
    if (!served.ok) {
      raw->Inc("failed");
    } else {
      raw->Add("calib.latency_ms", served.latency_ms);
      raw->Add("calib.accuracy", served.accuracy);
      raw->Add("calib.trace_on", trace_on ? 1.0 : 0.0);
    }
    after_step(step, raw);
    ++step;
  }

  if (traced) {
    raw->Check("calib.decomposed_matches_served", matches,
               "a decomposed step diverged from Calibrate()");
    CollectCalibrationSpans(raw);
    return;
  }
  std::unique_ptr<QuantizedModel> ref_model = f.base->Clone();
  BitFlipNet ref_bf = f.bf->Clone();
  Rng ref_rng(DeviceSeed(f.fleet_seed, device));
  ContinualDriver reference(ref_model.get(), &ref_bf, f.qcore, f.continual,
                            &ref_rng);
  for (size_t i = 0; i < served_images.size(); ++i) {
    reference.ProcessBatch(f.batch(static_cast<int64_t>(i)),
                           f.slice(static_cast<int64_t>(i)));
    matches = matches && served_images[i].codes == ref_model->AllCodes() &&
              SameDataset(served_images[i].qcore, reference.qcore());
  }
  raw->Check("calib.served_matches_pipeline",
             matches && !served_images.empty(),
             "codes or QCore diverged from the pipeline in the first " +
                 std::to_string(served_images.size()) + " steps");
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string raw_path;
  int setup_repeats = 0;
  std::string git_sha = "unknown";
  bool allow_small_host = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "--allow-small-host") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--raw") {
      args->raw_path = value;
    } else if (key == "--setup-repeats") {
      args->setup_repeats = std::atoi(value.c_str());
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--allow-small-host") {
      args->allow_small_host = true;
    } else {
      return false;
    }
  }
  const bool known =
      args->workload == "calib_har" || args->workload == "calib_image";
  return known && !args->raw_path.empty() && args->seconds > 0.0 &&
         args->setup_repeats > 0;
}

int Run(const Args& args) {
  Raw raw;
  const int nproc = HostCpus();
  const std::string build_type = QCORE_BENCH_BUILD_TYPE;
  kernels::set_gemm_threads(kGemmThreads);
  raw.env = {{"workload", args.workload},
             {"seed", std::to_string(args.seed)},
             {"seconds", std::to_string(args.seconds)},
             {"tracing", args.trace ? "1" : "0"},
             {"nproc", std::to_string(nproc)},
             {"gemm_threads", std::to_string(kernels::gemm_threads())},
             {"pool_threads", std::to_string(kPoolThreads)},
             {"git_sha", args.git_sha},
             {"build_type", build_type}};
  std::printf("[bench-env]");
  for (const auto& [k, v] : raw.env) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");
  std::fflush(stdout);
  if (build_type != "Release") {
    std::fprintf(stderr, "refusing to time a %s build; use Release\n",
                 build_type.c_str());
    return 3;
  }
  if (nproc < 4 && !args.allow_small_host) {
    std::fprintf(stderr,
                 "host has %d CPUs; the load needs 4 (--allow-small-host "
                 "overrides)\n",
                 nproc);
    return 3;
  }

  // Untraced runs record nothing; traced runs enable the ring per step.
  // Rings are sized before any thread records so no event is dropped.
  TraceRing::Global().SetEnabled(false);
  TraceRing::Global().SetCapacityPerThread(kTraceEventsPerThread);

  // Set-up, timed end to end and repeated: every repeat builds the same
  // family from the same seed, which is itself checked.
  const bool image = args.workload == "calib_image";
  const int repeats = args.trace ? 1 : args.setup_repeats;
  std::unique_ptr<Setup> setup;
  std::vector<std::vector<int32_t>> first_codes;
  bool deterministic = true;
  for (int r = 0; r < repeats; ++r) {
    setup.reset();
    Stopwatch watch;
    auto next = std::make_unique<Setup>();
    next->family = PrepareFamily(image, args.seed);
    next->fleet = MakeFleet(next->family);
    raw.Add("setup_s", watch.ElapsedSeconds());
    if (r == 0) {
      first_codes = next->family.base->AllCodes();
    } else {
      deterministic = deterministic &&
                      next->family.base->AllCodes() == first_codes;
    }
    setup = std::move(next);
  }
  raw.Check("setup.deterministic", deterministic,
            "repeated set-up from one seed built different models");

  RunCalibrationLoop(setup.get(), args.seconds, args.trace, &raw);
  setup.reset();

  raw.Set("peak_rss_kb", PeakRssKb());
  if (!WriteRaw(raw, args.raw_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.raw_path.c_str());
    return 64;
  }
  return raw.failures.empty() ? 0 : 2;
}

}  // namespace
}  // namespace qcore::e2e

int main(int argc, char** argv) {
  qcore::e2e::Args args;
  if (!qcore::e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload calib_har|calib_image --seed N "
                 "--seconds S --trace 0|1 --raw FILE --setup-repeats K "
                 "[--git-sha SHA] [--allow-small-host]\n");
    return 64;
  }
  return qcore::e2e::Run(args);
}
