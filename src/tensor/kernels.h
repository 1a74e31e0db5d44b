// Blocked/vectorized kernel substrate.
//
// Every GEMM-shaped workload in the tree (MatMul and both transposed
// variants, Dense forward/backward, conv forward, and conv backward,
// lowered by the one Im2Col/Col2Im pair that serves both spatial ranks)
// funnels into one cache-blocked, register-tiled packed kernel.
//
// Tiling scheme (Goto-style, sized to this repo's L1/L2 targets):
//   - B is packed into kNR-wide column panels, A into kMR-tall row panels;
//     panels are zero-padded to full width so the microkernel is branch-free.
//     A conv forward packs its weights once with PackA and runs each
//     sample's GEMM through GemmPackedA, whose B is the sample's padded
//     input plane read through a row table (PlaneB): the packer copies each
//     B panel row straight from the plane, so the forward writes no im2col
//     column matrix.
//   - Loop nest: jc (kNC columns, keeps the packed B block under L2) ->
//     pc (kKC of the reduction dim; one A panel + one B panel fit L1) ->
//     ic (kMC rows of packed A, L2-resident) -> NR/MR register tiles.
//   - The kMR x kNR microkernel keeps the full accumulator tile in vector
//     registers and is written with GCC vector extensions so one source
//     compiles to SSE2 / AVX2+FMA / AVX-512 clones (runtime-dispatched;
//     disabled under ThreadSanitizer where ifunc resolution is unsupported).
//     A full-width tile of mr < kMR rows runs it for exactly mr rows; only
//     tiles narrower than kNR go through a zero-padded stack buffer.
//
// Accumulation policy (the one policy for the whole kernel layer):
//   - GEMM accumulates in float, strictly ascending-k order per output
//     element. The microkernel loads C, FMAs the k-panel in order, and
//     stores back, so the per-element operation sequence is identical for
//     every tile shape, edge tile, and matrix width. This is what makes the
//     serving-layer bit-identity properties (batched == unbatched,
//     thread-count-independent) hold on a given host.
//   - Multithreading never touches that sequence. The parallel GEMM splits
//     C into kMR/kNR-aligned row/column chunks — output-disjoint, with the
//     same tile decomposition the sequential kernel would produce — and
//     keeps the pc (reduction) loop sequential inside each chunk, so every
//     element still sees the identical ascending-k FMA chain no matter
//     which worker ran its chunk. Bit-identical for any thread count, by
//     construction (see "Deterministic multithreaded dispatch" below).
//   - No data-dependent control flow: kernel latency is a function of shape
//     only, never of the values flowing through (the seed kernels' sparsity
//     branches made timing input-dependent and are gone).
//   - Standalone reductions that are not GEMMs (Dot/Norm, bias-gradient row
//     sums, softmax denominators) accumulate in double, as before; they are
//     vector-length sums where float accumulation genuinely loses digits.
//   - Across hosts, clones may differ in mul+add vs fused-FMA rounding, so
//     numeric tests compare blocked vs the retained naive references with a
//     tolerance; within one host results are bit-stable run to run.
//
// The seed's naive kernels stay in tree under qcore::naive as the oracle
// for property tests and as the baseline side of the perf CI gate.
#ifndef QCORE_TENSOR_KERNELS_H_
#define QCORE_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.h"

namespace qcore {
namespace kernels {

// Register tile (microkernel) shape and cache block sizes. kMR*kNR floats of
// accumulator fit the 16 ymm registers of AVX2 with room for two B vectors
// and an A broadcast; (kMR + kNR) * kKC * 4 bytes of packed panels fit a
// 48 KiB L1; kNC * kKC * 4 bytes of packed B stays under a 2 MiB L2.
inline constexpr int kMR = 6;
inline constexpr int kNR = 16;
inline constexpr int64_t kMC = 96;
inline constexpr int64_t kKC = 240;
inline constexpr int64_t kNC = 1024;

// C[m,n] += op(A) * op(B), all row-major.
//   trans_a == false: A is stored [m,k] with leading dimension lda.
//   trans_a == true:  A is stored [k,m] (the product uses A^T).
//   trans_b == false: B is stored [k,n].
//   trans_b == true:  B is stored [n,k] (the product uses B^T).
// C must be initialized by the caller (zeros, a bias broadcast, or a running
// gradient accumulator) — the kernel always reads C first, which is also
// what pins the accumulation order independent of blocking.
void Gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
          bool trans_a, const float* b, int64_t ldb, bool trans_b, float* c,
          int64_t ldc);

// Packs A [m, k] (row-major, leading dimension lda) into the row panels
// Gemm() would pack it into, for many GemmPackedA calls against it. Returns
// a per-thread buffer, valid until the calling thread packs again.
const float* PackA(int64_t m, int64_t k, const float* a, int64_t lda);

// B of a conv forward's per-sample GEMM, read in place from the sample's
// input plane [c, hp, wp], zero-padded by the caller (a 1-D plane has
// hp = 1). Row p, the tap (ch, ky, kx), starts at rows[p] in the plane
// (ConvRowTable); column j, the output (oy, ox) = (j / wo, j % wo), sits at
// oy * row_step + ox * stride past it, with row_step = stride * wp. A 1-D
// conv is one output row (wo = n), so its column j sits at j * stride.
// B[p][j] is then exactly the im2col column matrix's entry, padding zeros
// included.
struct PlaneB {
  const float* plane;
  const int64_t* rows;  // k entries
  int64_t wo;
  int64_t row_step;
  int64_t stride;
};

// C[m, n] += A * B with A packed by PackA (same m and k) and B a PlaneB.
// Each kNR-wide B panel row is copied straight from the plane: one copy
// per run of outputs that share an output row (a whole panel when it lies
// inside one), strided when stride > 1. Same dispatch rule and counters as
// Gemm(), and the same bits as Gemm() on the unpacked A and the column
// matrix: packing is a copy, so it changes no operand.
void GemmPackedA(int64_t m, int64_t n, int64_t k, const float* packed_a,
                 const PlaneB& b, float* c, int64_t ldc);

// The row table of a conv over [c, hp, wp] planes with a kh x kw kernel:
// rows[(ch*kh + ky)*kw + kx] = (ch*hp + ky)*wp + kx, the column order of
// [F, C, kh, kw] weights. A per-thread buffer, valid until the calling
// thread asks for another table.
const int64_t* ConvRowTable(int64_t c, int64_t hp, int64_t wp, int kh,
                            int kw);

// ------------------------- Deterministic multithreaded dispatch ------------
//
// Gemm() fans out across runtime::ParallelFor when (a) the kernel thread
// budget is > 1 and (b) the call is big enough to clear the crossover
// threshold — small kernels stay single-threaded because the fan-out costs
// more than it saves (tuned by the MatMulWide section of
// bench_micro_substrate). The work split is over output-disjoint chunks whose
// boundaries are kMR/kNR-aligned, so the parallel kernel runs the exact
// per-element FMA sequence of the sequential one: results are bit-identical
// for every thread count, and the only thing the knobs below change is
// wall-clock time.

// Kernel thread budget. Defaults to the QCORE_GEMM_THREADS environment
// variable if set, else DefaultParallelWorkers() (the CPUs this process may
// run on, clamped). set_gemm_threads requires n >= 1; 1 disables the
// parallel path entirely. Process-wide; reads/writes are racy-safe (a
// relaxed atomic) but tests and benches set it once up front. Two users
// share it: a wide Gemm() splits its output chunks over it, and Alg. 3
// (core/bitflip) splits each trial's rows over the part of it that is free
// (runtime/parallel_for FreeParallelThreads).
int gemm_threads();
void set_gemm_threads(int n);

// Crossover threshold: a GEMM goes wide only when m*n*k >= this. The
// default (4Mi multiply-adds, ~a 161^3 cube) keeps per-sample HAR-model
// layers single-threaded while batched forwards fan out. Exposed for bench
// tuning and tests; same contract as set_gemm_threads.
inline constexpr int64_t kDefaultGemmParallelMinWork = int64_t{1} << 22;
int64_t gemm_parallel_min_work();
void set_gemm_parallel_min_work(int64_t mnk);

// Per-thread dispatch counters, cumulative since thread start. wide counts
// Gemm()/GemmPackedA() calls that cleared the crossover and fanned out,
// narrow the calls that ran sequentially, panel_tasks the total output
// chunks submitted by wide calls, madds the multiply-adds (m*n*k) of every
// call, lowered_floats the floats this thread copied to lay a conv input
// out for its GEMMs: the samples a forward copies into padded planes
// (PadPlane; none at pad 0) and backward's Im2Col column matrices.
// PadScratch's border zeroing is left out: it runs once per call, so it
// depends on how a caller splits rows into calls, and these counts are the
// work a request does however it was split. Thread-local so
// a serving exec thread can sample before/after one forward pass and
// attribute the delta to exactly that request, even with concurrent
// sessions on other pool threads (ServingMetrics and the whiteboard are
// wired this way).
struct GemmDispatchCounters {
  uint64_t wide = 0;
  uint64_t narrow = 0;
  uint64_t panel_tasks = 0;
  uint64_t madds = 0;
  uint64_t lowered_floats = 0;
};
GemmDispatchCounters ThreadGemmDispatchCounters();

inline GemmDispatchCounters operator-(const GemmDispatchCounters& a,
                                      const GemmDispatchCounters& b) {
  return {a.wide - b.wide, a.narrow - b.narrow, a.panel_tasks - b.panel_tasks,
          a.madds - b.madds, a.lowered_floats - b.lowered_floats};
}

// Adds `work` to the calling thread's counters: the GEMMs and lowerings a
// helper thread ran on this thread's behalf inside a ParallelFor region
// (the row slices of a bit-flip trial), so the caller's before/after delta
// still counts every GEMM of its request.
void CreditGemmDispatch(const GemmDispatchCounters& work);

// Per-thread conv workspace: the padded input plane a forward's GEMMs read
// (PadScratch), the column matrix backward's im2col writes (ColScratch) and
// the column gradient col2im folds back (DcolScratch). Each returns at
// least `floats` floats owned by the calling thread, grown on demand and
// never shrunk, so a conv layer reuses one buffer across calls
// (reallocating it costs ~20% of a small conv forward) while threads
// evaluating one model at once — the row slices of a bit-flip trial,
// sessions sharing a net — never share one. PadScratch zeroes the floats
// it returns (the plane's borders, which PadPlane never writes); the other
// two leave the contents unspecified, and callers rewrite every entry they
// read. Valid until the same thread asks for a larger buffer of the same
// kind.
float* PadScratch(size_t floats);
float* ColScratch(size_t floats);
float* DcolScratch(size_t floats);

// Copies one sample x [c, h, w] into the interior of the plane
// [c, h + 2*pad_h, w + 2*pad_w], leaving its borders as they are.
void PadPlane(const float* x, int64_t c, int64_t h, int64_t w, int pad_h,
              int pad_w, float* plane);

// Lowers one [c, h, w] input plane to the column matrix of a kh x kw
// kernel: col[((ch*kh + ky)*kw + kx) * (ho*wo) + oy*wo + ox] =
// x[ch, oy*stride + ky - pad_h, ox*stride + kx - pad_w] (0 outside). A 1-D
// input is one row: h = ho = kh = 1 and pad_h = 0. Each tap's in-bounds
// output range is computed once, so a column row is zeros, a plain copy
// (contiguous at stride 1), then zeros. Single-threaded; bit-identical to
// naive::Im2Col1d/2d.
void Im2Col(const float* x, int64_t c, int64_t h, int64_t w, int kh, int kw,
            int stride, int pad_h, int pad_w, int64_t ho, int64_t wo,
            float* col);

// Scatter-add inverse of Im2Col: x[c, h, w] += unfolded col. Iteration is
// (ch, ky, kx, oy, ox) ascending over each tap's in-bounds range, so
// overlapping taps accumulate in naive::Col2Im1d/2d's order.
void Col2Im(const float* col, int64_t c, int64_t h, int64_t w, int kh,
            int kw, int stride, int pad_h, int pad_w, int64_t ho, int64_t wo,
            float* x);

}  // namespace kernels

// The seed's scalar kernels, retained verbatim-in-spirit (minus the
// data-dependent zero-skip branches) as the correctness oracle for
// tests/kernels_test.cc and the naive side of bench_micro_substrate.
namespace naive {

Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);

// The seed's im2col/col2im, with a bounds test on every element: the
// bit-exact oracles of kernels::Im2Col/Col2Im, which 1-D matches on a
// one-row plane (h = ho = kh = 1, pad_h = 0, w = l, wo = lo).
void Im2Col1d(const float* x, int64_t c, int64_t l, int kernel, int stride,
              int pad, int64_t lo, float* col);
void Col2Im1d(const float* col, int64_t c, int64_t l, int kernel, int stride,
              int pad, int64_t lo, float* x);
void Im2Col2d(const float* x, int64_t c, int64_t h, int64_t w, int kernel,
              int stride, int pad, int64_t ho, int64_t wo, float* col);
void Col2Im2d(const float* col, int64_t c, int64_t h, int64_t w, int kernel,
              int stride, int pad, int64_t ho, int64_t wo, float* x);

// x [n, c, l], w [f, c, kernel], bias [f] -> [n, f, lo].
Tensor Conv1dForward(const Tensor& x, const Tensor& w, const Tensor& bias,
                     int stride, int pad);
// Returns grad_in and accumulates into *dw [f, c, kernel] / *db [f].
Tensor Conv1dBackward(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                      int stride, int pad, Tensor* dw, Tensor* db);

// x [n, c, h, w], w [f, c, kernel, kernel], bias [f] -> [n, f, ho, wo].
Tensor Conv2dForward(const Tensor& x, const Tensor& w, const Tensor& bias,
                     int stride, int pad);
Tensor Conv2dBackward(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                      int stride, int pad, Tensor* dw, Tensor* db);

}  // namespace naive
}  // namespace qcore

#endif  // QCORE_TENSOR_KERNELS_H_
