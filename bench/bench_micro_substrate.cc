// Micro-benchmarks (google-benchmark) of the substrate primitives that
// dominate the paper experiments: GEMM, conv forward/backward, quantization,
// Huffman coding, bit-flip feature extraction, and the quantized forward
// pass of each model family.
//
// Every blocked kernel has a *Naive counterpart benchmarking the retained
// seed implementation (qcore::naive), so the substrate speedup is measured
// in-tree. bench/check_perf_regression.py consumes the JSON output
// (--benchmark_format=json) and gates CI on both the blocked-vs-naive
// speedup floors and regression against bench/baseline_micro.json.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "common/aligned.h"
#include "common/huffman.h"
#include "core/bitflip.h"
#include "models/model_zoo.h"
#include "nn/batchnorm.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "quant/quantized_model.h"
#include "quant/quantizer.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace qcore {
namespace {

// Every kernel entry reports the GEMM thread budget it ran under so
// baseline_micro.json rows are unambiguous across hosts: classic entries
// are pinned to 1 (main() below), the *Wide sections set their own. The
// checker refuses to compare entries whose thread counts differ.
void ReportThreads(benchmark::State& state, int threads) {
  state.counters["threads"] = static_cast<double>(threads);
}

// An entry whose forward allocates its activations afresh would time page
// faults as well: whether glibc hands a freed block back to the kernel
// depends on its dynamic trim threshold, which the entries run before it
// have raised or not. Freeing a 16 MiB block first raises the threshold
// past these working sets whatever ran before, so the entry times the
// forward alone. Call it before building the entry's inputs.
void RaiseTrimThreshold() {
  void* block = std::malloc(16 << 20);
  benchmark::DoNotOptimize(block);
  std::free(block);
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  ReportThreads(state, 1);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulNaive(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  ReportThreads(state, 1);
}
BENCHMARK(BM_MatMulNaive)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The backward-pass GEMM shapes (one transposed operand) share the packed
// microkernel; track one size each to catch lowering regressions.
void BM_MatMulTransposedB(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposedB(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  ReportThreads(state, 1);
}
BENCHMARK(BM_MatMulTransposedB)->Arg(128);

void BM_MatMulTransposedA(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposedA(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  ReportThreads(state, 1);
}
BENCHMARK(BM_MatMulTransposedA)->Arg(128);

void BM_Conv1dForward(benchmark::State& state) {
  Rng rng(2);
  Conv1d conv(8, 16, 5, 1, 2, &rng);
  Tensor x = Tensor::Randn({16, 8, 64}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, false));
  }
  ReportThreads(state, 1);
}
BENCHMARK(BM_Conv1dForward);

void BM_Conv1dForwardNaive(benchmark::State& state) {
  Rng rng(2);
  Conv1d conv(8, 16, 5, 1, 2, &rng);
  const Tensor& w = conv.Params()[0]->value;
  const Tensor& b = conv.Params()[1]->value;
  Tensor x = Tensor::Randn({16, 8, 64}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::Conv1dForward(x, w, b, 1, 2));
  }
  ReportThreads(state, 1);
}
BENCHMARK(BM_Conv1dForwardNaive);

void BM_Conv1dBackward(benchmark::State& state) {
  Rng rng(3);
  Conv1d conv(8, 16, 5, 1, 2, &rng);
  Tensor x = Tensor::Randn({16, 8, 64}, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor g = Tensor::Randn(y.shape(), &rng);
  for (auto _ : state) {
    conv.ZeroGrad();
    benchmark::DoNotOptimize(conv.Backward(g));
  }
  ReportThreads(state, 1);
}
BENCHMARK(BM_Conv1dBackward);

void BM_Conv1dBackwardNaive(benchmark::State& state) {
  Rng rng(3);
  Conv1d conv(8, 16, 5, 1, 2, &rng);
  const Tensor& w = conv.Params()[0]->value;
  Tensor x = Tensor::Randn({16, 8, 64}, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor g = Tensor::Randn(y.shape(), &rng);
  Tensor dw = Tensor::Zeros(w.shape());
  Tensor db = Tensor::Zeros({16});
  for (auto _ : state) {
    dw.SetZero();
    db.SetZero();
    benchmark::DoNotOptimize(naive::Conv1dBackward(x, w, g, 1, 2, &dw, &db));
  }
  ReportThreads(state, 1);
}
BENCHMARK(BM_Conv1dBackwardNaive);

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(21);
  Conv2d conv(8, 16, 3, 1, 1, &rng);
  Tensor x = Tensor::Randn({8, 8, 16, 16}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, false));
  }
  ReportThreads(state, 1);
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dForwardNaive(benchmark::State& state) {
  Rng rng(21);
  Conv2d conv(8, 16, 3, 1, 1, &rng);
  const Tensor& w = conv.Params()[0]->value;
  const Tensor& b = conv.Params()[1]->value;
  Tensor x = Tensor::Randn({8, 8, 16, 16}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::Conv2dForward(x, w, b, 1, 1));
  }
  ReportThreads(state, 1);
}
BENCHMARK(BM_Conv2dForwardNaive);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(22);
  Conv2d conv(8, 16, 3, 1, 1, &rng);
  Tensor x = Tensor::Randn({8, 8, 16, 16}, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor g = Tensor::Randn(y.shape(), &rng);
  for (auto _ : state) {
    conv.ZeroGrad();
    benchmark::DoNotOptimize(conv.Backward(g));
  }
  ReportThreads(state, 1);
}
BENCHMARK(BM_Conv2dBackward);

void BM_Conv2dBackwardNaive(benchmark::State& state) {
  Rng rng(22);
  Conv2d conv(8, 16, 3, 1, 1, &rng);
  const Tensor& w = conv.Params()[0]->value;
  Tensor x = Tensor::Randn({8, 8, 16, 16}, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor g = Tensor::Randn(y.shape(), &rng);
  Tensor dw = Tensor::Zeros(w.shape());
  Tensor db = Tensor::Zeros({16});
  for (auto _ : state) {
    dw.SetZero();
    db.SetZero();
    benchmark::DoNotOptimize(naive::Conv2dBackward(x, w, g, 1, 1, &dw, &db));
  }
  ReportThreads(state, 1);
}
BENCHMARK(BM_Conv2dBackwardNaive);

// Two per-sample GEMM shapes with a row remainder, the calibration
// workloads' own: InceptionTime's 24->8 1x1 bottleneck (F = 8 runs a 6-row
// and a 2-row tile; unpadded, so the GEMM reads the input plane itself) and
// a 3->8 3x3 stem on 16x16 images (a 27-deep reduction over a padded
// plane).
void RunConv1dBottleneck(benchmark::State& state, bool blocked) {
  Rng rng(25);
  Conv1d conv(24, 8, 1, 1, 0, &rng);
  const Tensor& w = conv.Params()[0]->value;
  const Tensor& b = conv.Params()[1]->value;
  Tensor x = Tensor::Randn({32, 24, 64}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blocked ? conv.Forward(x, false)
                                     : naive::Conv1dForward(x, w, b, 1, 0));
  }
  ReportThreads(state, 1);
}

void BM_Conv1dForwardBottleneck(benchmark::State& state) {
  RunConv1dBottleneck(state, true);
}
BENCHMARK(BM_Conv1dForwardBottleneck);

void BM_Conv1dForwardBottleneckNaive(benchmark::State& state) {
  RunConv1dBottleneck(state, false);
}
BENCHMARK(BM_Conv1dForwardBottleneckNaive);

void RunConv2dStem(benchmark::State& state, bool blocked) {
  Rng rng(26);
  Conv2d conv(3, 8, 3, 1, 1, &rng);
  const Tensor& w = conv.Params()[0]->value;
  const Tensor& b = conv.Params()[1]->value;
  Tensor x = Tensor::Randn({32, 3, 16, 16}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blocked ? conv.Forward(x, false)
                                     : naive::Conv2dForward(x, w, b, 1, 1));
  }
  ReportThreads(state, 1);
}

void BM_Conv2dForwardStem(benchmark::State& state) {
  RunConv2dStem(state, true);
}
BENCHMARK(BM_Conv2dForwardStem);

void BM_Conv2dForwardStemNaive(benchmark::State& state) {
  RunConv2dStem(state, false);
}
BENCHMARK(BM_Conv2dForwardStemNaive);

// The bit-flip net's conv (1 -> 4 channels, k = 3, pad 1) over the feature
// rows of the largest calib_image tensor: 2,304 samples of [1, 6]. With one
// input channel it runs every sample in one GEMM over the stacked rows; a
// GEMM per sample read 0.42-0.57x its naive side. 1 kernel thread; both
// sides allocate their output afresh.
void RunConv1dOneChannel(benchmark::State& state, bool blocked) {
  RaiseTrimThreshold();
  Rng rng(27);
  Conv1d conv(1, 4, 3, 1, 1, &rng);
  const Tensor& w = conv.Params()[0]->value;
  const Tensor& b = conv.Params()[1]->value;
  Tensor x = Tensor::Randn({2304, 1, kBitFlipFeatureDim}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blocked ? conv.Forward(x, false)
                                     : naive::Conv1dForward(x, w, b, 1, 1));
  }
  ReportThreads(state, 1);
}

void BM_Conv1dForwardOneChannel(benchmark::State& state) {
  RunConv1dOneChannel(state, true);
}
BENCHMARK(BM_Conv1dForwardOneChannel);

void BM_Conv1dForwardOneChannelNaive(benchmark::State& state) {
  RunConv1dOneChannel(state, false);
}
BENCHMARK(BM_Conv1dForwardOneChannelNaive);

// The im2col pack on its own — conv backward's lowering — against the
// per-element naive loop it replaced. The 2-D shape is a ResNet-tiny 3x3
// layer, the 1-D one InceptionTime's k=9 Conv1d, which the one lowering
// kernel runs as a one-row plane.
void RunIm2Col2d(benchmark::State& state, bool blocked) {
  Rng rng(23);
  const int64_t c = 8, h = 16, w = 16;
  const int kernel = 3, stride = 1, pad = 1;
  const int64_t ho = (h + 2 * pad - kernel) / stride + 1;
  const int64_t wo = (w + 2 * pad - kernel) / stride + 1;
  Tensor x = Tensor::Randn({c, h, w}, &rng);
  AlignedFloatVec col(static_cast<size_t>(c * kernel * kernel * ho * wo));
  for (auto _ : state) {
    if (blocked) {
      kernels::Im2Col(x.data(), c, h, w, kernel, kernel, stride, pad, pad, ho,
                      wo, col.data());
    } else {
      naive::Im2Col2d(x.data(), c, h, w, kernel, stride, pad, ho, wo,
                      col.data());
    }
    benchmark::DoNotOptimize(col.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(col.size()));
  ReportThreads(state, 1);
}

void RunIm2Col1d(benchmark::State& state, bool blocked) {
  Rng rng(24);
  const int64_t c = 8, l = 64;
  const int kernel = 9, stride = 1, pad = 4;
  const int64_t lo = (l + 2 * pad - kernel) / stride + 1;
  Tensor x = Tensor::Randn({c, l}, &rng);
  AlignedFloatVec col(static_cast<size_t>(c * kernel * lo));
  for (auto _ : state) {
    if (blocked) {
      kernels::Im2Col(x.data(), c, 1, l, 1, kernel, stride, 0, pad, 1, lo,
                      col.data());
    } else {
      naive::Im2Col1d(x.data(), c, l, kernel, stride, pad, lo, col.data());
    }
    benchmark::DoNotOptimize(col.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(col.size()));
  ReportThreads(state, 1);
}

void BM_Im2ColPack(benchmark::State& state) {
  RunIm2Col2d(state, true);
}
BENCHMARK(BM_Im2ColPack);

void BM_Im2ColPackNaive(benchmark::State& state) {
  RunIm2Col2d(state, false);
}
BENCHMARK(BM_Im2ColPackNaive);

void BM_Im2Col1dPack(benchmark::State& state) {
  RunIm2Col1d(state, true);
}
BENCHMARK(BM_Im2Col1dPack);

void BM_Im2Col1dPackNaive(benchmark::State& state) {
  RunIm2Col1d(state, false);
}
BENCHMARK(BM_Im2Col1dPackNaive);

// ------------------- multithreaded GEMM / conv (panel-parallel) -----------
//
// The MT section behind the perf CI speedup floor: BM_MatMulWide/<n>/<t>
// runs the same GEMM at an explicit thread budget with the crossover
// disabled, so the /512/4-vs-/512/1 ratio is a pure scaling measurement
// (check_perf_regression.py enforces >= 2x on hosts with >= 4 cores and
// skips below — oversubscribed threads can't demonstrate scaling).
void BM_MatMulWide(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  kernels::set_gemm_threads(threads);
  kernels::set_gemm_parallel_min_work(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  kernels::set_gemm_parallel_min_work(kernels::kDefaultGemmParallelMinWork);
  kernels::set_gemm_threads(1);
  state.SetItemsProcessed(state.iterations() * n * n * n);
  ReportThreads(state, threads);
}
BENCHMARK(BM_MatMulWide)
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->UseRealTime();

// Crossover-policy section: thread budget 4 but the DEFAULT min-work
// threshold, so the dispatcher decides per shape. The `wide` counter shows
// the decision (1 = fanned out, 0 = stayed narrow): with the 4Mi default
// the boundary falls between 160^3 and 192^3. Retune
// kDefaultGemmParallelMinWork when the narrow side of the boundary gets
// slower than the wide side on the sizes below.
void BM_MatMulCrossover(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  kernels::set_gemm_threads(4);
  const kernels::GemmDispatchCounters before =
      kernels::ThreadGemmDispatchCounters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  const kernels::GemmDispatchCounters after =
      kernels::ThreadGemmDispatchCounters();
  kernels::set_gemm_threads(1);
  state.SetItemsProcessed(state.iterations() * n * n * n);
  ReportThreads(state, 4);
  state.counters["wide"] = after.wide > before.wide ? 1.0 : 0.0;
}
BENCHMARK(BM_MatMulCrossover)
    ->Arg(96)
    ->Arg(128)
    ->Arg(160)
    ->Arg(192)
    ->Arg(256)
    ->UseRealTime();

// A conv whose per-sample GEMM (m=64, n=1024, k=288) clears the default
// crossover: the whole forward — padded plane plus panel-parallel GEMM,
// each chunk packing its B panels from the plane — under an explicit
// thread budget.
void BM_Conv2dForwardWide(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Rng rng(24);
  Conv2d conv(32, 64, 3, 1, 1, &rng);
  Tensor x = Tensor::Randn({4, 32, 32, 32}, &rng);
  kernels::set_gemm_threads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, false));
  }
  kernels::set_gemm_threads(1);
  ReportThreads(state, threads);
}
BENCHMARK(BM_Conv2dForwardWide)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_Quantize(benchmark::State& state) {
  Rng rng(4);
  Tensor t = Tensor::Randn({static_cast<int64_t>(state.range(0))}, &rng);
  QuantParams qp = ChooseSymmetricParams(t, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(QuantizeToCodes(t, qp));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Quantize)->Arg(1024)->Arg(65536);

void BM_HuffmanEncode(benchmark::State& state) {
  Rng rng(5);
  std::vector<int32_t> codes(8192);
  for (auto& c : codes) {
    c = static_cast<int32_t>(rng.NextUint64(16)) - 8;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(HuffmanCoder::Encode(codes));
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_HuffmanEncode);

void BM_BitFlipFeatures(benchmark::State& state) {
  Rng rng(6);
  auto model = MakeInceptionTime(9, 19, &rng);
  QuantizedModel qm(*model, 4);
  SetBatchNormFrozen(qm.model(), true);
  Tensor x = Tensor::Randn({32, 9, 64}, &rng);
  (void)qm.model()->Forward(x, true);
  for (auto _ : state) {
    for (int t = 0; t < qm.num_quantized(); ++t) {
      benchmark::DoNotOptimize(
          ComputeBitFlipFeatures(qm.quantized(t), nullptr));
    }
  }
}
BENCHMARK(BM_BitFlipFeatures);

void BM_QuantizedForwardInceptionTime(benchmark::State& state) {
  RaiseTrimThreshold();
  Rng rng(7);
  auto model = MakeInceptionTime(9, 19, &rng);
  QuantizedModel qm(*model, 4);
  Tensor x = Tensor::Randn({32, 9, 64}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qm.Forward(x));
  }
}
BENCHMARK(BM_QuantizedForwardInceptionTime);

// The fused eval plan against the layer-by-layer forward it replaced
// (LayeredEvalForward, kept as the tests' oracle), on the 4-bit
// InceptionTime of calib_har at 1 kernel thread: one row (a serving
// request, where building the plan is part of the cost) and 32 (an Alg. 3
// trial slice). The plan writes each activation once (conv epilogues,
// concat branches written into their slices, add+ReLU in one pass);
// check_perf_regression.py floors the one-row ratio. Both sides allocate
// their activations afresh (RaiseTrimThreshold).
void RunEvalForwardInceptionTime(benchmark::State& state, bool fused) {
  RaiseTrimThreshold();
  Rng rng(7);
  auto model = MakeInceptionTime(9, 19, &rng);
  QuantizedModel qm(*model, 4);
  Tensor x = Tensor::Randn({state.range(0), 9, 64}, &rng);
  kernels::set_gemm_threads(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fused ? qm.model()->Forward(x, false)
                                   : LayeredEvalForward(qm.model(), x));
  }
  ReportThreads(state, 1);
}
void BM_EvalForwardInceptionTime(benchmark::State& state) {
  RunEvalForwardInceptionTime(state, /*fused=*/true);
}
void BM_EvalForwardInceptionTimeLayered(benchmark::State& state) {
  RunEvalForwardInceptionTime(state, /*fused=*/false);
}
// Each pair runs back to back, so a shared host's drift between them is
// small.
BENCHMARK(BM_EvalForwardInceptionTime)->Arg(1);
BENCHMARK(BM_EvalForwardInceptionTimeLayered)->Arg(1);
BENCHMARK(BM_EvalForwardInceptionTime)->Arg(32);
BENCHMARK(BM_EvalForwardInceptionTimeLayered)->Arg(32);

// The pass that opens each calibration round (Alg. 4's miss tracking,
// Alg. 3's features) over calib_har's 76-row update pool on its 4-bit
// InceptionTime at 1 kernel thread: the plan under the frozen-training
// formula keeping the quantized layers' inputs (TrialForward, built per
// round as ContinualDriver::ProcessBatch does), against the layer-by-layer
// training-mode forward with BatchNorm frozen it replaced, which caches
// every layer's input. check_perf_regression.py floors the ratio. Both
// sides allocate their activations afresh (RaiseTrimThreshold).
void RunMissPassInceptionTime(benchmark::State& state, bool plan) {
  RaiseTrimThreshold();
  Rng rng(7);
  auto model = MakeInceptionTime(9, 19, &rng);
  QuantizedModel qm(*model, 4);
  Tensor x = Tensor::Randn({76, 9, 64}, &rng);
  std::vector<Layer*> owners;
  for (int t = 0; t < qm.num_quantized(); ++t) {
    owners.push_back(qm.quantized(t).owner);
  }
  kernels::set_gemm_threads(1);
  SetBatchNormFrozen(qm.model(), true);
  for (auto _ : state) {
    if (plan) {
      TrialForward pass(qm.model(), x, owners, /*threads=*/1,
                        IncrementalForward::Formula::kFrozenTraining);
      benchmark::DoNotOptimize(pass.Evaluate());
    } else {
      benchmark::DoNotOptimize(qm.model()->Forward(x, /*training=*/true));
    }
  }
  ReportThreads(state, 1);
}
void BM_MissPassInceptionTime(benchmark::State& state) {
  RunMissPassInceptionTime(state, /*plan=*/true);
}
void BM_MissPassInceptionTimeLayered(benchmark::State& state) {
  RunMissPassInceptionTime(state, /*plan=*/false);
}
BENCHMARK(BM_MissPassInceptionTime);
BENCHMARK(BM_MissPassInceptionTimeLayered);

void BM_QuantizedForwardResNetTiny(benchmark::State& state) {
  RaiseTrimThreshold();
  Rng rng(8);
  auto model = MakeResNetTiny(3, 10, &rng);
  QuantizedModel qm(*model, 4);
  Tensor x = Tensor::Randn({16, 3, 16, 16}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qm.Forward(x));
  }
}
BENCHMARK(BM_QuantizedForwardResNetTiny);

}  // namespace
}  // namespace qcore

// Custom main instead of BENCHMARK_MAIN(): pin the kernel thread budget to
// 1 before any benchmark runs, so the classic (single-thread) entries mean
// the same thing on every host regardless of core count or a stray
// QCORE_GEMM_THREADS in the environment. The *Wide/*Crossover sections set
// their own budget explicitly and restore 1 on exit.
int main(int argc, char** argv) {
  qcore::kernels::set_gemm_threads(1);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
