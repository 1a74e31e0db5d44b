// Property tests for the blocked kernel substrate (tensor/kernels.h):
// blocked GEMM, the conv lowering and both conv ranks against the retained
// naive references across awkward shapes, plus determinism and alignment
// guarantees the serving layer depends on.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "nn/conv.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace qcore {
namespace {

// Blocked and naive paths share the ascending-k float accumulation order,
// but may differ in fused-FMA vs separate mul+add rounding, so comparisons
// are tolerance-based (scaled to the reduction length).
void ExpectTensorsNear(const Tensor& got, const Tensor& want, double tol) {
  ASSERT_TRUE(got.SameShape(want));
  for (int64_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(1.0, static_cast<double>(std::fabs(want[i])));
    ASSERT_NEAR(got[i], want[i], tol * scale) << "flat index " << i;
  }
}

struct GemmShape {
  int64_t m, n, k;
};

// Tile-non-divisible m/n/k, degenerate m=1/n=1/k=1, exact-tile shapes, and
// shapes straddling the kMC/kKC/kNC cache-block boundaries.
const GemmShape kShapes[] = {
    {1, 1, 1},       {1, 7, 5},       {5, 1, 3},      {3, 4, 1},
    {6, 16, 240},    {12, 32, 240},   {7, 17, 241},   {5, 15, 239},
    {1, 129, 3},     {97, 1, 63},     {64, 64, 64},   {128, 128, 128},
    {100, 130, 70},  {2, 300, 5},     {191, 33, 241}, {6, 1040, 7},
    {97, 129, 250},
};

class BlockedGemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(BlockedGemmTest, MatchesNaiveAllVariants) {
  const GemmShape s = GetParam();
  Rng rng(s.m * 1000003 + s.n * 1009 + s.k);
  const double tol = 1e-5 * std::sqrt(static_cast<double>(s.k));

  Tensor a = Tensor::Randn({s.m, s.k}, &rng);
  Tensor b = Tensor::Randn({s.k, s.n}, &rng);
  ExpectTensorsNear(MatMul(a, b), naive::MatMul(a, b), tol);

  Tensor bt = Tensor::Randn({s.n, s.k}, &rng);
  ExpectTensorsNear(MatMulTransposedB(a, bt), naive::MatMulTransposedB(a, bt),
                    tol);

  Tensor at = Tensor::Randn({s.k, s.m}, &rng);
  ExpectTensorsNear(MatMulTransposedA(at, b), naive::MatMulTransposedA(at, b),
                    tol);
}

TEST_P(BlockedGemmTest, DeterministicRunToRun) {
  const GemmShape s = GetParam();
  Rng rng(7 + s.m + s.n + s.k);
  Tensor a = Tensor::Randn({s.m, s.k}, &rng);
  Tensor b = Tensor::Randn({s.k, s.n}, &rng);
  Tensor c1 = MatMul(a, b);
  Tensor c2 = MatMul(a, b);
  for (int64_t i = 0; i < c1.size(); ++i) {
    ASSERT_EQ(c1[i], c2[i]) << "nondeterministic at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BlockedGemmTest,
                         ::testing::ValuesIn(kShapes));

// The three lowered variants must agree bit-for-bit with each other when fed
// the same mathematical operands: they pack into identical panels and run
// the identical microkernel schedule.
TEST(BlockedGemmTest, TransposedVariantsBitIdenticalToPlain) {
  Rng rng(99);
  Tensor a = Tensor::Randn({37, 53}, &rng);
  Tensor b = Tensor::Randn({53, 29}, &rng);
  Tensor plain = MatMul(a, b);
  Tensor via_tb = MatMulTransposedB(a, Transpose2d(b));
  Tensor via_ta = MatMulTransposedA(Transpose2d(a), b);
  for (int64_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(plain[i], via_tb[i]);
    ASSERT_EQ(plain[i], via_ta[i]);
  }
}

// Accumulation order is independent of where the output element sits in the
// tile grid: computing a wide product and slicing must equal computing the
// slice alone. This is also the row-independence property the serving
// batcher's bit-identity depends on. Every row count from 1 to 13 runs, so
// each tile height (full, and every remainder a shorter tile runs at) meets
// full-width and partial-width (45 = 2*16 + 13) column tiles.
TEST(BlockedGemmTest, RowsIndependentOfBatchWidth) {
  Rng rng(41);
  Tensor a_all = Tensor::Randn({23, 31}, &rng);
  Tensor b = Tensor::Randn({31, 45}, &rng);
  Tensor full = MatMul(a_all, b);
  for (int64_t rows = 1; rows <= 13; ++rows) {
    for (int64_t r : {int64_t{0}, int64_t{7}, 23 - rows}) {
      Tensor part = MatMul(a_all.SliceRows(r, r + rows), b);
      for (int64_t j = 0; j < part.size(); ++j) {
        ASSERT_EQ(part[j], full[r * 45 + j])
            << rows << " rows from " << r << ", flat index " << j;
      }
    }
  }
}

struct ConvCase {
  int64_t n, c, l;
  int kernel, stride, pad;
};

const ConvCase kConv1dCases[] = {
    {2, 3, 16, 3, 1, 1},  // vanilla
    {1, 1, 8, 3, 1, 1},   // single sample, single channel
    {3, 4, 19, 5, 2, 2},  // stride > 1, odd length
    {2, 2, 9, 3, 3, 0},   // stride == kernel, no pad
    {2, 3, 7, 3, 1, 4},   // pad > kernel
    {1, 5, 6, 6, 1, 5},   // kernel == length, pad >= kernel - 1
    {4, 1, 33, 1, 1, 0},  // 1x1 kernel
    {2, 8, 64, 5, 1, 2},  // the model-zoo hot shape
};

class Conv1dLoweringTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conv1dLoweringTest, ForwardBackwardMatchNaive) {
  const ConvCase cc = GetParam();
  Rng rng(cc.n * 31 + cc.c * 7 + cc.kernel);
  Conv1d conv(cc.c, 4, cc.kernel, cc.stride, cc.pad, &rng);
  Tensor x = Tensor::Randn({cc.n, cc.c, cc.l}, &rng);

  const Tensor& w = conv.Params()[0]->value;
  const Tensor& bias = conv.Params()[1]->value;
  Tensor want_y = naive::Conv1dForward(x, w, bias, cc.stride, cc.pad);
  Tensor got_y = conv.Forward(x, /*training=*/true);
  const double tol = 1e-5 * std::sqrt(static_cast<double>(cc.c * cc.kernel));
  ExpectTensorsNear(got_y, want_y, tol);

  Tensor g = Tensor::Randn(want_y.shape(), &rng);
  Tensor want_dw = Tensor::Zeros(w.shape());
  Tensor want_db = Tensor::Zeros(bias.shape());
  Tensor want_gin =
      naive::Conv1dBackward(x, w, g, cc.stride, cc.pad, &want_dw, &want_db);
  Tensor got_gin = conv.Backward(g);
  const double btol =
      1e-5 * std::sqrt(static_cast<double>(cc.n * got_y.dim(2)));
  ExpectTensorsNear(got_gin, want_gin, tol);
  ExpectTensorsNear(conv.Params()[0]->grad, want_dw, btol);
  ExpectTensorsNear(conv.Params()[1]->grad, want_db, btol);
}

INSTANTIATE_TEST_SUITE_P(Cases, Conv1dLoweringTest,
                         ::testing::ValuesIn(kConv1dCases));

struct Conv2dCase {
  int64_t n, c, h, w;
  int kernel, stride, pad;
};

const Conv2dCase kConv2dCases[] = {
    {2, 3, 8, 8, 3, 1, 1},   // vanilla
    {1, 1, 5, 7, 3, 1, 1},   // single sample/channel, non-square input
    {2, 2, 9, 9, 3, 2, 1},   // stride 2
    {1, 3, 6, 6, 3, 1, 3},   // pad == kernel
    {2, 4, 4, 4, 4, 1, 3},   // kernel == input size
    {3, 1, 16, 16, 1, 1, 0},  // 1x1 kernel
    {1, 3, 16, 16, 3, 1, 1},  // the model-zoo hot shape
};

class Conv2dLoweringTest : public ::testing::TestWithParam<Conv2dCase> {};

TEST_P(Conv2dLoweringTest, ForwardBackwardMatchNaive) {
  const Conv2dCase cc = GetParam();
  Rng rng(cc.n * 17 + cc.c * 5 + cc.kernel);
  Conv2d conv(cc.c, 5, cc.kernel, cc.stride, cc.pad, &rng);
  Tensor x = Tensor::Randn({cc.n, cc.c, cc.h, cc.w}, &rng);

  const Tensor& w = conv.Params()[0]->value;
  const Tensor& bias = conv.Params()[1]->value;
  Tensor want_y = naive::Conv2dForward(x, w, bias, cc.stride, cc.pad);
  Tensor got_y = conv.Forward(x, /*training=*/true);
  const double tol =
      1e-5 * std::sqrt(static_cast<double>(cc.c) * cc.kernel * cc.kernel);
  ExpectTensorsNear(got_y, want_y, tol);

  Tensor g = Tensor::Randn(want_y.shape(), &rng);
  Tensor want_dw = Tensor::Zeros(w.shape());
  Tensor want_db = Tensor::Zeros(bias.shape());
  Tensor want_gin =
      naive::Conv2dBackward(x, w, g, cc.stride, cc.pad, &want_dw, &want_db);
  Tensor got_gin = conv.Backward(g);
  const double btol = 1e-5 * std::sqrt(static_cast<double>(
                                 cc.n * got_y.dim(2) * got_y.dim(3)));
  ExpectTensorsNear(got_gin, want_gin, tol);
  ExpectTensorsNear(conv.Params()[0]->grad, want_dw, btol);
  ExpectTensorsNear(conv.Params()[1]->grad, want_db, btol);
}

INSTANTIATE_TEST_SUITE_P(Cases, Conv2dLoweringTest,
                         ::testing::ValuesIn(kConv2dCases));

// im2col/col2im round-trip: col2im(im2col(x)) multiplies each input element
// by the number of windows covering it; with kernel == stride == 1 and no
// padding that count is exactly one.
TEST(Im2ColTest, IdentityWhenKernelOneStrideOne) {
  Rng rng(5);
  Tensor x = Tensor::Randn({3, 11}, &rng);
  AlignedFloatVec col(static_cast<size_t>(3 * 11));
  kernels::Im2Col(x.data(), 3, 1, 11, 1, 1, 1, 0, 0, 1, 11, col.data());
  for (int64_t i = 0; i < x.size(); ++i) ASSERT_EQ(col[i], x[i]);
  Tensor back = Tensor::Zeros({3, 11});
  kernels::Col2Im(col.data(), 3, 1, 11, 1, 1, 1, 0, 0, 1, 11, back.data());
  for (int64_t i = 0; i < x.size(); ++i) ASSERT_EQ(back[i], x[i]);
}

TEST(Im2ColTest, PaddingProducesZeroColumns) {
  Rng rng(6);
  const int64_t c = 2, l = 4;
  const int kernel = 3, stride = 1, pad = 3;  // pad >= kernel
  const int64_t lo = (l + 2 * pad - kernel) / stride + 1;
  Tensor x = Tensor::Full({c, l}, 1.0f);
  AlignedFloatVec col(static_cast<size_t>(c * kernel * lo), -1.0f);
  kernels::Im2Col(x.data(), c, 1, l, 1, kernel, stride, 0, pad, 1, lo,
                  col.data());
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int kx = 0; kx < kernel; ++kx) {
      for (int64_t o = 0; o < lo; ++o) {
        const int64_t t = o * stride + kx - pad;
        const float v = col[(ch * kernel + kx) * lo + o];
        if (t < 0 || t >= l) {
          ASSERT_EQ(v, 0.0f) << "padding tap not zeroed";
        } else {
          ASSERT_EQ(v, 1.0f);
        }
      }
    }
  }
}

// The range-based lowering must reproduce the naive per-element loops bit
// for bit: every column entry (including each padding zero) and every
// col2im sum, the 1-D grid on one-row planes. The column buffers start as
// NaN, so an entry the kernel leaves unwritten differs; col2im starts from
// a random x, so a different accumulation order would round differently.
bool SameBits(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(LoweringTest, Lowering1dMatchesNaiveBitForBit) {
  Rng rng(8);
  int cases = 0;
  for (int64_t c : {1, 3}) {
    for (int64_t l : {1, 2, 5, 16, 64}) {
      for (int kernel : {1, 2, 3, 5, 9}) {
        for (int stride : {1, 2, 3}) {
          for (int pad : {0, 1, 2, 4, 9}) {
            if (l + 2 * pad < kernel) continue;
            const int64_t lo = (l + 2 * pad - kernel) / stride + 1;
            const size_t n = static_cast<size_t>(c * kernel * lo);
            Tensor x = Tensor::Randn({c, l}, &rng);
            AlignedFloatVec got(n, NAN), want(n, NAN);
            kernels::Im2Col(x.data(), c, 1, l, 1, kernel, stride, 0, pad, 1,
                            lo, got.data());
            naive::Im2Col1d(x.data(), c, l, kernel, stride, pad, lo,
                            want.data());
            ASSERT_TRUE(SameBits(got.data(), want.data(), n))
                << "im2col c=" << c << " l=" << l << " k=" << kernel
                << " s=" << stride << " p=" << pad;

            Tensor col = Tensor::Randn({c * kernel, lo}, &rng);
            Tensor x_got = Tensor::Randn({c, l}, &rng);
            Tensor x_want = x_got;
            kernels::Col2Im(col.data(), c, 1, l, 1, kernel, stride, 0, pad,
                            1, lo, x_got.data());
            naive::Col2Im1d(col.data(), c, l, kernel, stride, pad, lo,
                            x_want.data());
            ASSERT_TRUE(SameBits(x_got.data(), x_want.data(),
                                 static_cast<size_t>(c * l)))
                << "col2im c=" << c << " l=" << l << " k=" << kernel
                << " s=" << stride << " p=" << pad;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 660);  // the grid less the shapes the kernel cannot fit
}

TEST(LoweringTest, Lowering2dMatchesNaiveBitForBit) {
  Rng rng(9);
  int cases = 0;
  for (int64_t c : {1, 3}) {
    for (int64_t h : {1, 4, 7, 16}) {
      for (int64_t w : {1, 5, 8, 16}) {
        for (int kernel = 1; kernel <= 4; ++kernel) {
          for (int stride : {1, 2, 3}) {
            for (int pad : {0, 1, 3, 4}) {
              if (h + 2 * pad < kernel || w + 2 * pad < kernel) continue;
              const int64_t ho = (h + 2 * pad - kernel) / stride + 1;
              const int64_t wo = (w + 2 * pad - kernel) / stride + 1;
              const size_t n =
                  static_cast<size_t>(c * kernel * kernel * ho * wo);
              Tensor x = Tensor::Randn({c, h, w}, &rng);
              AlignedFloatVec got(n, NAN), want(n, NAN);
              kernels::Im2Col(x.data(), c, h, w, kernel, kernel, stride, pad,
                              pad, ho, wo, got.data());
              naive::Im2Col2d(x.data(), c, h, w, kernel, stride, pad, ho, wo,
                              want.data());
              ASSERT_TRUE(SameBits(got.data(), want.data(), n))
                  << "im2col c=" << c << " h=" << h << " w=" << w
                  << " k=" << kernel << " s=" << stride << " p=" << pad;

              Tensor col =
                  Tensor::Randn({c * kernel * kernel, ho * wo}, &rng);
              Tensor x_got = Tensor::Randn({c, h, w}, &rng);
              Tensor x_want = x_got;
              kernels::Col2Im(col.data(), c, h, w, kernel, kernel, stride,
                              pad, pad, ho, wo, x_got.data());
              naive::Col2Im2d(col.data(), c, h, w, kernel, stride, pad, ho, wo,
                              x_want.data());
              ASSERT_TRUE(SameBits(x_got.data(), x_want.data(),
                                   static_cast<size_t>(c * h * w)))
                  << "col2im c=" << c << " h=" << h << " w=" << w
                  << " k=" << kernel << " s=" << stride << " p=" << pad;
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 1368);
}

// ----------------- deterministic multithreaded dispatch ---------------
//
// The panel-parallel GEMM path must be BIT-identical to the single-thread
// path at every thread count: chunk boundaries are microtile-aligned, so
// the tile decomposition — and with it every element's ascending-k FMA
// chain — is the same no matter which worker runs which chunk. These tests
// pin that down with exact equality (no tolerance) across thread counts,
// tile-non-divisible shapes, the crossover boundary, and nesting.

// Restores the GEMM dispatch knobs on scope exit so a failing ASSERT in
// one test cannot leak a widened budget into the rest of the suite.
class GemmKnobGuard {
 public:
  GemmKnobGuard()
      : threads_(kernels::gemm_threads()),
        min_work_(kernels::gemm_parallel_min_work()) {}
  ~GemmKnobGuard() {
    kernels::set_gemm_threads(threads_);
    kernels::set_gemm_parallel_min_work(min_work_);
  }

 private:
  int threads_;
  int64_t min_work_;
};

void ExpectTensorsBitIdentical(const Tensor& got, const Tensor& want) {
  ASSERT_TRUE(got.SameShape(want));
  for (int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "diverged at flat index " << i;
  }
}

// Shapes chosen for awkward grids: single-column-chunk, multi-column-chunk,
// ragged chunk edges (not multiples of 48/256), and k values that straddle
// the kKC cache block.
const GemmShape kParallelShapes[] = {
    {97, 129, 250},   // 3x1 grid, ragged row tail
    {100, 300, 33},   // 3x2 grid, ragged column tail
    {48, 256, 241},   // exactly one chunk per axis boundary
    {49, 257, 240},   // one past each chunk boundary
    {191, 1040, 7},   // wide n, several column chunks
};

TEST(ParallelGemmTest, BitIdenticalAcrossThreadCounts) {
  GemmKnobGuard guard;
  for (const GemmShape& s : kParallelShapes) {
    Rng rng(s.m * 131 + s.n * 17 + s.k);
    Tensor a = Tensor::Randn({s.m, s.k}, &rng);
    Tensor b = Tensor::Randn({s.k, s.n}, &rng);
    Tensor bt = Transpose2d(b);
    Tensor at = Transpose2d(a);

    kernels::set_gemm_threads(1);
    Tensor ref = MatMul(a, b);
    Tensor ref_tb = MatMulTransposedB(a, bt);
    Tensor ref_ta = MatMulTransposedA(at, b);

    kernels::set_gemm_parallel_min_work(0);  // force the wide path
    for (int t : {2, 4, 8}) {
      kernels::set_gemm_threads(t);
      ExpectTensorsBitIdentical(MatMul(a, b), ref);
      ExpectTensorsBitIdentical(MatMulTransposedB(a, bt), ref_tb);
      ExpectTensorsBitIdentical(MatMulTransposedA(at, b), ref_ta);
    }
  }
}

// At the DEFAULT min-work threshold the dispatcher flips from narrow to
// wide between 160^3 and 192^3. Both sides of the boundary must agree with
// the single-thread result bit-for-bit — the crossover may change speed,
// never bits.
TEST(ParallelGemmTest, CrossoverBoundaryBitIdentical) {
  GemmKnobGuard guard;
  for (int64_t n : {int64_t{160}, int64_t{161}, int64_t{192}}) {
    Rng rng(900 + n);
    Tensor a = Tensor::Randn({n, n}, &rng);
    Tensor b = Tensor::Randn({n, n}, &rng);
    kernels::set_gemm_threads(1);
    Tensor ref = MatMul(a, b);
    for (int t : {2, 4, 8}) {
      kernels::set_gemm_threads(t);
      ExpectTensorsBitIdentical(MatMul(a, b), ref);
    }
  }
}

// The dispatch counters are the observable for the crossover policy: a
// 160^3 product stays narrow under the default threshold, 192^3 goes wide
// and reports its panel-task grid.
TEST(ParallelGemmTest, DispatchCountersTrackCrossover) {
  GemmKnobGuard guard;
  Rng rng(77);
  kernels::set_gemm_threads(4);

  Tensor a160 = Tensor::Randn({160, 160}, &rng);
  Tensor b160 = Tensor::Randn({160, 160}, &rng);
  kernels::GemmDispatchCounters before = kernels::ThreadGemmDispatchCounters();
  MatMul(a160, b160);
  kernels::GemmDispatchCounters after = kernels::ThreadGemmDispatchCounters();
  EXPECT_EQ(after.wide, before.wide);
  EXPECT_EQ(after.narrow, before.narrow + 1);

  Tensor a192 = Tensor::Randn({192, 192}, &rng);
  Tensor b192 = Tensor::Randn({192, 192}, &rng);
  before = kernels::ThreadGemmDispatchCounters();
  MatMul(a192, b192);
  after = kernels::ThreadGemmDispatchCounters();
  EXPECT_EQ(after.wide, before.wide + 1);
  // 192 rows -> 4 row chunks of 48; 192 cols -> 1 column chunk of 256.
  EXPECT_EQ(after.panel_tasks, before.panel_tasks + 4);
}

// Conv forward/backward bit-identity: the lowered GEMM's fan-out must be
// invisible to the results at any thread count.
TEST(ParallelGemmTest, ConvForwardBackwardBitIdenticalAcrossThreads) {
  GemmKnobGuard guard;
  Rng rng(4242);
  Conv2d conv(3, 5, 3, 1, 1, &rng);
  Tensor x = Tensor::Randn({2, 3, 16, 16}, &rng);
  Tensor g;

  kernels::set_gemm_threads(1);
  Tensor ref_y = conv.Forward(x, /*training=*/true);
  g = Tensor::Randn(ref_y.shape(), &rng);
  Tensor ref_gin = conv.Backward(g);
  Tensor ref_dw = conv.Params()[0]->grad;
  Tensor ref_db = conv.Params()[1]->grad;

  kernels::set_gemm_parallel_min_work(0);
  for (int t : {2, 4, 8}) {
    kernels::set_gemm_threads(t);
    Tensor y = conv.Forward(x, /*training=*/true);
    ExpectTensorsBitIdentical(y, ref_y);
    conv.Params()[0]->grad.Fill(0.0f);
    conv.Params()[1]->grad.Fill(0.0f);
    Tensor gin = conv.Backward(g);
    ExpectTensorsBitIdentical(gin, ref_gin);
    ExpectTensorsBitIdentical(conv.Params()[0]->grad, ref_dw);
    ExpectTensorsBitIdentical(conv.Params()[1]->grad, ref_db);
  }
}

// Conv forward packs W once per call and reads each sample's B straight
// from its (padded) input plane through a row table. That must leave every
// output bit of the general path: per sample, bias fill, the naive im2col
// (so the reference runs none of the layer's own lowering), then Gemm() on
// the unpacked W. The 2-D conv has a ho x wo output plane and the
// 1-D conv as many outputs in one row. The grid crosses every tile height
// (F up to 24 = 4 * kMR); output rows that hold a B panel (wo 16) or split
// it (wo 3, 7, 8, 9, 20); tile widths with and without a remainder; a
// reduction longer than one kKC block (C*K = 270 in 1-D, 2430 in 2-D);
// kernels 1, 3, 5, 7 and 9, unpadded ones included; stride 2; outputs
// wider than one 256-column chunk of the wide dispatch (1-D 300, 2-D
// 20x20); and a 33-sample batch. It runs narrow at budget 1 and wide
// (crossover 0) at budget 4. Rows with one input channel and one output
// row (the bit-flip net's conv: F = 4, 6 outputs) take the one-GEMM path
// over the stacked samples: the 1-D conv always, the 2-D one at kernel 1
// and pad 0 (a one-row input); they cross 1, 33 and 2304 samples (the
// largest tensor's rows), kernels 1-5, pads 0-2 and stride 2. A 2-D row
// whose input would be less than one row high is skipped.
struct ConvGrid {
  int64_t n, c, f, ho, wo;
  int kernel, stride, pad;
};

std::vector<ConvGrid> ConvForwardGrid() {
  using Plane = std::pair<int64_t, int64_t>;  // ho, wo
  std::vector<ConvGrid> grid;
  for (int64_t n : {int64_t{1}, int64_t{33}}) {
    for (int64_t f : {1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24}) {
      for (auto [ho, wo] : {Plane{2, 3}, Plane{7, 9}, Plane{8, 8},
                            Plane{16, 16}}) {
        grid.push_back({n, 3, f, ho, wo, 3, 1, 1});
      }
    }
    grid.push_back({n, 30, 8, 8, 8, 9, 1, 4});  // C*K > kKC
    for (auto [ho, wo] : {Plane{9, 7}, Plane{8, 8}, Plane{7, 9},
                          Plane{3, 20}}) {
      for (int kernel : {3, 5, 7}) {
        grid.push_back({n, 4, 7, ho, wo, kernel, 1, kernel / 2});
        grid.push_back({n, 4, 7, ho, wo, kernel, 1, 0});
      }
      grid.push_back({n, 4, 7, ho, wo, 3, 2, 1});
      grid.push_back({n, 4, 7, ho, wo, 3, 2, 0});
    }
    grid.push_back({n, 3, 8, 15, 20, 3, 1, 1});  // 1-D: 300 outputs
    grid.push_back({n, 3, 8, 20, 20, 3, 1, 1});  // 2-D: 20x20
    grid.push_back({n, 3, 8, 20, 20, 5, 2, 2});
    for (int stride : {1, 2}) {
      for (int pad : {0, 1}) {
        grid.push_back({n, 24, 8, 8, 8, 1, stride, pad});
        grid.push_back({n, 5, 7, 7, 9, 1, stride, pad});
      }
    }
  }
  for (int64_t n : {int64_t{1}, int64_t{33}, int64_t{2304}}) {
    for (int64_t wo : {int64_t{6}, int64_t{64}}) {
      for (int kernel : {1, 3, 5}) {
        for (int pad = 0; pad <= 2; ++pad) {
          for (int stride : {1, 2}) {
            grid.push_back({n, 1, 4, 1, wo, kernel, stride, pad});
          }
        }
      }
    }
  }
  return grid;
}

// The input extent that gives `out` outputs along one axis.
int64_t InputExtent(const ConvGrid& g, int64_t out) {
  return (out - 1) * g.stride + g.kernel - 2 * g.pad;
}

Tensor GeneralConvForward(const Tensor& x, const Tensor& w, const Tensor& b,
                          int kernel, int stride, int pad, bool two_d) {
  const int64_t n = x.dim(0), c = x.dim(1), f = w.dim(0);
  const int64_t h = x.dim(2), wd = two_d ? x.dim(3) : 1;
  const int64_t ho = (h + 2 * pad - kernel) / stride + 1;
  const int64_t wo = two_d ? (wd + 2 * pad - kernel) / stride + 1 : 1;
  const int64_t ck = c * kernel * (two_d ? kernel : 1);
  std::vector<int64_t> shape = {n, f, ho};
  if (two_d) shape.push_back(wo);
  Tensor out(shape);
  AlignedFloatVec col(static_cast<size_t>(ck * ho * wo));
  for (int64_t i = 0; i < n; ++i) {
    float* oplane = out.data() + i * f * ho * wo;
    for (int64_t fo = 0; fo < f; ++fo) {
      std::fill(oplane + fo * ho * wo, oplane + (fo + 1) * ho * wo, b[fo]);
    }
    const float* xi = x.data() + i * c * h * wd;
    if (two_d) {
      naive::Im2Col2d(xi, c, h, wd, kernel, stride, pad, ho, wo, col.data());
    } else {
      naive::Im2Col1d(xi, c, h, kernel, stride, pad, ho, col.data());
    }
    kernels::Gemm(f, ho * wo, ck, w.data(), ck, /*trans_a=*/false,
                  col.data(), ho * wo, /*trans_b=*/false, oplane, ho * wo);
  }
  return out;
}

TEST(ConvPackedPathTest, ForwardMatchesGeneralPathBitForBit) {
  GemmKnobGuard guard;
  const std::vector<ConvGrid> grid = ConvForwardGrid();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("gemm_threads " + std::to_string(threads));
    kernels::set_gemm_threads(threads);
    if (threads > 1) kernels::set_gemm_parallel_min_work(0);
    for (const ConvGrid& g : grid) {
      SCOPED_TRACE("n=" + std::to_string(g.n) + " c=" + std::to_string(g.c) +
                   " f=" + std::to_string(g.f) + " out=" +
                   std::to_string(g.ho) + "x" + std::to_string(g.wo) +
                   " k=" + std::to_string(g.kernel) +
                   " s=" + std::to_string(g.stride) +
                   " p=" + std::to_string(g.pad));
      Rng rng(static_cast<uint64_t>(g.f * 1009 + g.ho * g.wo * 31 + g.c));
      {
        Conv1d conv(g.c, g.f, g.kernel, g.stride, g.pad, &rng);
        conv.Params()[1]->value = Tensor::Randn({g.f}, &rng);
        Tensor x =
            Tensor::Randn({g.n, g.c, InputExtent(g, g.ho * g.wo)}, &rng);
        const Tensor want =
            GeneralConvForward(x, conv.Params()[0]->value,
                               conv.Params()[1]->value, g.kernel, g.stride,
                               g.pad, /*two_d=*/false);
        const Tensor got = conv.Forward(x, /*training=*/false);
        ASSERT_TRUE(got.SameShape(want));
        ASSERT_TRUE(SameBits(got.data(), want.data(),
                             static_cast<size_t>(want.size())))
            << "conv1d";
      }
      if (InputExtent(g, g.ho) >= 1) {
        Conv2d conv(g.c, g.f, g.kernel, g.stride, g.pad, &rng);
        conv.Params()[1]->value = Tensor::Randn({g.f}, &rng);
        Tensor x = Tensor::Randn(
            {g.n, g.c, InputExtent(g, g.ho), InputExtent(g, g.wo)}, &rng);
        const Tensor want =
            GeneralConvForward(x, conv.Params()[0]->value,
                               conv.Params()[1]->value, g.kernel, g.stride,
                               g.pad, /*two_d=*/true);
        const Tensor got = conv.Forward(x, /*training=*/false);
        ASSERT_TRUE(got.SameShape(want));
        ASSERT_TRUE(SameBits(got.data(), want.data(),
                             static_cast<size_t>(want.size())))
            << "conv2d";
      }
    }
  }
}

// Conv backward lowers each sample onto two Gemm() calls. It must equal,
// bit for bit, the general path built from the naive lowering, so the
// reference runs none of the layer's own: per sample, the bias gradient's
// double row sums, the naive im2col, dW += dY_i * col^T and
// dcol = W^T * dY_i on the same operands, then the naive col2im.
struct ConvGrads {
  Tensor grad_in, dw, db;
};

ConvGrads GeneralConvBackward(const Tensor& x, const Tensor& w,
                              const Tensor& g, int kernel, int stride, int pad,
                              bool two_d) {
  const int64_t n = x.dim(0), c = x.dim(1), f = w.dim(0);
  const int64_t h = x.dim(2), wd = two_d ? x.dim(3) : 1;
  const int64_t ho = g.dim(2), wo = two_d ? g.dim(3) : 1;
  const int64_t ck = c * kernel * (two_d ? kernel : 1);
  const int64_t howo = ho * wo;
  ConvGrads out{Tensor(x.shape()), Tensor(w.shape()), Tensor({f})};
  AlignedFloatVec col(static_cast<size_t>(ck * howo));
  AlignedFloatVec dcol(col.size());
  for (int64_t i = 0; i < n; ++i) {
    const float* gi = g.data() + i * f * howo;
    for (int64_t fo = 0; fo < f; ++fo) {
      double s = 0.0;
      for (int64_t o = 0; o < howo; ++o) s += gi[fo * howo + o];
      out.db[fo] += static_cast<float>(s);
    }
    const float* xi = x.data() + i * c * h * wd;
    float* gin = out.grad_in.data() + i * c * h * wd;
    if (two_d) {
      naive::Im2Col2d(xi, c, h, wd, kernel, stride, pad, ho, wo, col.data());
    } else {
      naive::Im2Col1d(xi, c, h, kernel, stride, pad, ho, col.data());
    }
    kernels::Gemm(f, ck, howo, gi, howo, /*trans_a=*/false, col.data(), howo,
                  /*trans_b=*/true, out.dw.data(), ck);
    std::fill(dcol.begin(), dcol.end(), 0.0f);
    kernels::Gemm(ck, howo, f, w.data(), ck, /*trans_a=*/true, gi, howo,
                  /*trans_b=*/false, dcol.data(), howo);
    if (two_d) {
      naive::Col2Im2d(dcol.data(), c, h, wd, kernel, stride, pad, ho, wo, gin);
    } else {
      naive::Col2Im1d(dcol.data(), c, h, kernel, stride, pad, ho, gin);
    }
  }
  return out;
}

// One training forward and backward of a fresh conv (zero gradients)
// against GeneralConvBackward.
void ExpectBackwardMatchesGeneralPath(Layer* conv, const Tensor& x,
                                      int kernel, int stride, int pad,
                                      bool two_d, Rng* rng) {
  const Tensor y = conv->Forward(x, /*training=*/true);
  const Tensor g = Tensor::Randn(y.shape(), rng);
  const ConvGrads want = GeneralConvBackward(x, conv->Params()[0]->value, g,
                                             kernel, stride, pad, two_d);
  const Tensor got = conv->Backward(g);
  const auto expect_same = [](const Tensor& got_t, const Tensor& want_t,
                              const char* name) {
    ASSERT_TRUE(got_t.SameShape(want_t)) << name;
    EXPECT_TRUE(SameBits(got_t.data(), want_t.data(),
                         static_cast<size_t>(want_t.size())))
        << name;
  };
  expect_same(got, want.grad_in, "grad_in");
  expect_same(conv->Params()[0]->grad, want.dw, "dW");
  expect_same(conv->Params()[1]->grad, want.db, "db");
}

TEST(ConvBackwardTest, MatchesGeneralPathBitForBit) {
  GemmKnobGuard guard;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("gemm_threads " + std::to_string(threads));
    kernels::set_gemm_threads(threads);
    if (threads > 1) kernels::set_gemm_parallel_min_work(0);
    for (const ConvCase& cc : kConv1dCases) {
      SCOPED_TRACE("conv1d n=" + std::to_string(cc.n) + " c=" +
                   std::to_string(cc.c) + " l=" + std::to_string(cc.l) +
                   " k=" + std::to_string(cc.kernel) +
                   " s=" + std::to_string(cc.stride) +
                   " p=" + std::to_string(cc.pad));
      Rng rng(cc.n * 31 + cc.c * 7 + cc.kernel);
      Conv1d conv(cc.c, 4, cc.kernel, cc.stride, cc.pad, &rng);
      ExpectBackwardMatchesGeneralPath(
          &conv, Tensor::Randn({cc.n, cc.c, cc.l}, &rng), cc.kernel,
          cc.stride, cc.pad, /*two_d=*/false, &rng);
    }
    for (const Conv2dCase& cc : kConv2dCases) {
      SCOPED_TRACE("conv2d n=" + std::to_string(cc.n) + " c=" +
                   std::to_string(cc.c) + " in=" + std::to_string(cc.h) +
                   "x" + std::to_string(cc.w) +
                   " k=" + std::to_string(cc.kernel) +
                   " s=" + std::to_string(cc.stride) +
                   " p=" + std::to_string(cc.pad));
      Rng rng(cc.n * 17 + cc.c * 5 + cc.kernel);
      Conv2d conv(cc.c, 5, cc.kernel, cc.stride, cc.pad, &rng);
      ExpectBackwardMatchesGeneralPath(
          &conv, Tensor::Randn({cc.n, cc.c, cc.h, cc.w}, &rng), cc.kernel,
          cc.stride, cc.pad, /*two_d=*/true, &rng);
    }
  }
}

// Nested-parallelism contract: pool workers each running a "parallel" GEMM
// must neither deadlock nor change bits — inside a ParallelFor region the
// dispatcher runs sequentially, and concurrent ParallelFor callers fall
// back sequentially when the worker set is busy. Every pool task's result
// must equal the single-thread reference.
TEST(ParallelGemmTest, NestedUnderThreadPoolBitIdentical) {
  GemmKnobGuard guard;
  Rng rng(31337);
  Tensor a = Tensor::Randn({97, 129}, &rng);
  Tensor b = Tensor::Randn({129, 300}, &rng);

  kernels::set_gemm_threads(1);
  Tensor ref = MatMul(a, b);

  kernels::set_gemm_parallel_min_work(0);
  kernels::set_gemm_threads(4);
  ThreadPool pool(4);
  std::vector<std::future<Tensor>> results;
  for (int i = 0; i < 16; ++i) {
    results.push_back(pool.Submit([&a, &b]() { return MatMul(a, b); }));
  }
  for (auto& f : results) {
    Tensor got = f.get();
    ExpectTensorsBitIdentical(got, ref);
  }
}

// The default kernel budget counts the CPUs this thread may run on, not the
// host's: a process pinned to one CPU must not split every GEMM or bit-flip
// trial over threads that share that core.
TEST(ParallelForTest, DefaultWorkersFollowAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved)) ++first;
  ASSERT_LT(first, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = DefaultParallelWorkers();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1);
  EXPECT_EQ(DefaultParallelWorkers(), std::min(CPU_COUNT(&saved), 16));
}

// A region started now may use only the CPUs that busy pool workers leave
// free, and nothing more inside a region. Alg. 3 sizes its trial split this
// way, so a serving pool that holds every CPU validates trials unsplit.
TEST(ParallelForTest, FreeThreadsLeaveBusyWorkersTheirCpus) {
  const int cpus = DefaultParallelWorkers();
  EXPECT_EQ(FreeParallelThreads(1), 1);
  EXPECT_EQ(FreeParallelThreads(64), cpus);
  std::vector<int> inside(2, 0);
  ParallelFor(2, 2, [&](int64_t i) {
    inside[static_cast<size_t>(i)] = FreeParallelThreads(64);
  });
  EXPECT_EQ(inside, std::vector<int>(2, 1));

  // A busy thread is not free for others, but is for itself.
  {
    BusyThreadScope busy;
    EXPECT_EQ(FreeParallelThreads(64), cpus);
    int seen = 0;
    std::thread other([&seen] { seen = FreeParallelThreads(64); });
    other.join();
    EXPECT_EQ(seen, std::max(1, cpus - 1));
  }

  // k workers busy at once: each sees the CPUs the other k - 1 leave.
  for (int k : {1, 2, cpus, cpus + 1}) {
    SCOPED_TRACE("busy workers " + std::to_string(k));
    ThreadPool pool(k);
    std::atomic<int> started{0};
    std::atomic<int> read{0};
    std::vector<std::future<int>> seen;
    for (int w = 0; w < k; ++w) {
      seen.push_back(pool.Submit([&] {
        started.fetch_add(1);
        while (started.load() < k) std::this_thread::yield();
        const int free = FreeParallelThreads(64);
        read.fetch_add(1);
        while (read.load() < k) std::this_thread::yield();
        return free;
      }));
    }
    for (std::future<int>& f : seen) {
      EXPECT_EQ(f.get(), std::max(1, cpus - (k - 1)));
    }
  }
}

// The aligned allocator must put every tensor buffer (and reallocations) on
// a 64-byte boundary — the packed panels and wide vector loads assume it.
TEST(AlignmentTest, TensorBuffersCacheLineAligned) {
  for (int64_t n : {1, 3, 17, 63, 64, 65, 1000}) {
    Tensor t({n});
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) % kCacheLineBytes, 0u)
        << "size " << n;
  }
  AlignedFloatVec v;
  for (int i = 0; i < 12; ++i) {
    v.resize(v.size() + 37);  // force growth/reallocation
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  }
  Rng rng(3);
  Tensor copy = Tensor::Randn({129}, &rng);
  Tensor moved = std::move(copy);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(moved.data()) % kCacheLineBytes, 0u);
}

}  // namespace
}  // namespace qcore
