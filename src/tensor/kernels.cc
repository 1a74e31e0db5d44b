#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#include "common/aligned.h"
#include "runtime/parallel_for.h"

// Function multi-versioning: the packed-GEMM driver is cloned for AVX-512,
// AVX2+FMA, and baseline x86-64, with glibc ifunc picking the widest clone
// the host supports. The clones differ only in vector width and mul+add vs
// fused-FMA rounding — the accumulation ORDER is identical, so results are
// bit-stable on a given host. ThreadSanitizer intercepts ifunc resolution
// badly (resolver runs before the runtime is up), so sanitized builds use
// the portable path; non-GCC-compatible or non-x86 builds likewise.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define QCORE_GEMM_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define QCORE_GEMM_CLONES
#endif

namespace qcore {
namespace kernels {
namespace {

// The wide-vector helpers below pass v8f by value between TU-internal
// inline functions only, so the SSE2-vs-AVX calling-convention difference
// GCC warns about (-Wpsabi) can never surface across an ABI boundary.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

// A generic 8-lane float vector; on the AVX2/AVX-512 clones this maps to one
// ymm / half a zmm, on baseline x86-64 GCC splits it into two xmm ops.
// aligned(4): packed panels are 64-byte aligned but C tile rows are not.
typedef float v8f __attribute__((vector_size(32), aligned(4)));

// Every helper the GEMM clones call is forced inline, so it compiles inside
// each clone with that clone's ISA. GCC is otherwise free to emit a helper
// with two or more callers once, out of line, for baseline x86-64 (no FMA):
// that happened to MicroKernelEdge when it gained a second caller, and
// partial-width tiles switched from fused FMA to mul+add, changing bits.
#define QCORE_KERNEL_INLINE inline __attribute__((always_inline))

QCORE_KERNEL_INLINE v8f LoadV8(const float* p) {
  return *reinterpret_cast<const v8f*>(p);
}
QCORE_KERNEL_INLINE void StoreV8(float* p, v8f v) {
  *reinterpret_cast<v8f*>(p) = v;
}

// Packs a kc x nr column panel of B into pb (layout pb[p*kNR + j]),
// zero-padding columns [nr, kNR). trans_b means B is stored [n, k].
QCORE_KERNEL_INLINE void PackPanelB(int64_t kc, int64_t nr, const float* b,
                                    int64_t ldb, bool trans_b, float* pb) {
  if (!trans_b) {
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = b + p * ldb;
      float* dst = pb + p * kNR;
      int64_t j = 0;
      for (; j < nr; ++j) dst[j] = src[j];
      for (; j < kNR; ++j) dst[j] = 0.0f;
    }
  } else {
    for (int64_t p = 0; p < kc; ++p) {
      float* dst = pb + p * kNR;
      int64_t j = 0;
      for (; j < nr; ++j) dst[j] = b[j * ldb + p];
      for (; j < kNR; ++j) dst[j] = 0.0f;
    }
  }
}

// Packs the kc x nr panel of a PlaneB whose first column is output j into
// pb (layout pb[p*kNR + jj]), zero-padding columns [nr, kNR); rows holds
// the panel's kc row starts. The panel's columns split into runs of
// outputs that share an output row, and at stride 1 a run that continues
// the previous one in the plane joins it (a 1x1 conv over an unpadded
// plane copies whole panels). The runs depend only on the columns, so they
// are found once; each is then copied for every panel row from
// plane + rows[p]. A contiguous run of 16 or 8 floats, the whole or half a
// panel (output rows 16 or 8 wide), copies as two or one vector per row.
QCORE_KERNEL_INLINE void PackPanelPlane(int64_t kc, int64_t nr,
                                        const PlaneB& b, const int64_t* rows,
                                        int64_t j, float* pb) {
  struct Run {
    int64_t dst, src, len;
  };
  Run runs[kNR];
  int count = 0;
  for (int64_t jj = 0; jj < nr;) {
    const int64_t oy = (j + jj) / b.wo;
    const int64_t ox = (j + jj) % b.wo;
    const int64_t len = std::min(nr - jj, b.wo - ox);
    const int64_t src = oy * b.row_step + ox * b.stride;
    if (count > 0 && b.stride == 1 &&
        runs[count - 1].src + runs[count - 1].len == src) {
      runs[count - 1].len += len;
    } else {
      runs[count++] = {jj, src, len};
    }
    jj += len;
  }
  for (int r = 0; r < count; ++r) {
    const float* src = b.plane + runs[r].src;
    float* dst = pb + runs[r].dst;
    const int64_t len = runs[r].len;
    if (b.stride == 1 && len == kNR) {
      for (int64_t p = 0; p < kc; ++p) {
        StoreV8(dst + p * kNR, LoadV8(src + rows[p]));
        StoreV8(dst + p * kNR + 8, LoadV8(src + rows[p] + 8));
      }
    } else if (b.stride == 1 && len == 8) {
      for (int64_t p = 0; p < kc; ++p) {
        StoreV8(dst + p * kNR, LoadV8(src + rows[p]));
      }
    } else {
      for (int64_t p = 0; p < kc; ++p) {
        const float* s = src + rows[p];
        float* d = dst + p * kNR;
        for (int64_t i = 0; i < len; ++i) d[i] = s[i * b.stride];
      }
    }
  }
  if (nr < kNR) {
    for (int64_t p = 0; p < kc; ++p) {
      std::fill(pb + p * kNR + nr, pb + (p + 1) * kNR, 0.0f);
    }
  }
}

// Packs a mr x kc row panel of A into pa (layout pa[p*kMR + i]),
// zero-padding rows [mr, kMR). trans_a means A is stored [k, m].
QCORE_KERNEL_INLINE void PackPanelA(int64_t kc, int64_t mr, const float* a,
                                    int64_t lda, bool trans_a, float* pa) {
  if (!trans_a) {
    for (int64_t p = 0; p < kc; ++p) {
      float* dst = pa + p * kMR;
      int64_t i = 0;
      for (; i < mr; ++i) dst[i] = a[i * lda + p];
      for (; i < kMR; ++i) dst[i] = 0.0f;
    }
  } else {
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = a + p * lda;
      float* dst = pa + p * kMR;
      int64_t i = 0;
      for (; i < mr; ++i) dst[i] = src[i];
      for (; i < kMR; ++i) dst[i] = 0.0f;
    }
  }
}

// MR x kNR register-tile microkernel (MR <= kMR) over one packed k-panel.
// Loads C, accumulates k ascending, stores back: the per-element operation
// sequence is (((c + a_0*b_0) + a_1*b_1) + ...) regardless of the tile's
// height or how the surrounding loops were blocked. The full tile (6 rows x
// 2 v8f) plus two B vectors and a broadcast stays within the 16 ymm
// registers of AVX2.
template <int MR>
QCORE_KERNEL_INLINE void MicroKernel(int64_t kc, const float* __restrict__ pa,
                                     const float* __restrict__ pb,
                                     float* __restrict__ c, int64_t ldc) {
  v8f acc[MR][2];
  for (int i = 0; i < MR; ++i) {
    acc[i][0] = LoadV8(c + i * ldc);
    acc[i][1] = LoadV8(c + i * ldc + 8);
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = pa + p * kMR;
    const v8f b0 = LoadV8(pb + p * kNR);
    const v8f b1 = LoadV8(pb + p * kNR + 8);
    for (int i = 0; i < MR; ++i) {
      acc[i][0] += a[i] * b0;
      acc[i][1] += a[i] * b1;
    }
  }
  for (int i = 0; i < MR; ++i) {
    StoreV8(c + i * ldc, acc[i][0]);
    StoreV8(c + i * ldc + 8, acc[i][1]);
  }
}

// A full-width tile of mr rows: the microkernel runs for exactly those rows
// and reads and writes C in place, so a 2-row remainder costs 2 rows.
QCORE_KERNEL_INLINE void MicroKernelRows(int64_t mr, int64_t kc,
                                         const float* pa, const float* pb,
                                         float* c, int64_t ldc) {
  static_assert(kMR == 6, "one case per tile height");
  switch (mr) {
    case 1: MicroKernel<1>(kc, pa, pb, c, ldc); break;
    case 2: MicroKernel<2>(kc, pa, pb, c, ldc); break;
    case 3: MicroKernel<3>(kc, pa, pb, c, ldc); break;
    case 4: MicroKernel<4>(kc, pa, pb, c, ldc); break;
    case 5: MicroKernel<5>(kc, pa, pb, c, ldc); break;
    default: MicroKernel<kMR>(kc, pa, pb, c, ldc); break;
  }
}

// Partial-width tiles run the full microkernel against a stack buffer, so
// the 16-lane vectors never touch C past column nr; only the valid mr x nr
// region is copied in and out. The zero-padded pa rows contribute exact
// +0.0f terms to the padded lanes, which are then discarded.
QCORE_KERNEL_INLINE void MicroKernelEdge(int64_t kc,
                                         const float* __restrict__ pa,
                                         const float* __restrict__ pb,
                                         float* c, int64_t ldc, int64_t mr,
                                         int64_t nr) {
  float buf[kMR * kNR];
  for (int64_t i = 0; i < kMR; ++i) {
    for (int64_t j = 0; j < kNR; ++j) {
      buf[i * kNR + j] = (i < mr && j < nr) ? c[i * ldc + j] : 0.0f;
    }
  }
  MicroKernel<kMR>(kc, pa, pb, buf, kNR);
  for (int64_t i = 0; i < mr; ++i) {
    for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] = buf[i * kNR + j];
  }
}

// Where GemmImpl reads A from: either a matrix it packs block by block
// (trans means A is stored [k, m]), or the panels PackA already wrote, in
// which case the kMR-row panel starting at row r holds all of k at
// data + r * k, its kKC block from pc on at data + r * k + pc * kMR.
struct AOperand {
  const float* data;
  int64_t lda;
  bool trans;
  bool packed;

  // The same operand from row r0 on; r0 is a multiple of kMR when packed.
  AOperand FromRow(int64_t r0, int64_t k) const {
    const int64_t offset = packed ? r0 * k : trans ? r0 : r0 * lda;
    return {data + offset, lda, trans, packed};
  }
};

// Where GemmImpl reads B from: either a matrix (trans means B is stored
// [n, k]), or a PlaneB whose column 0 is output j0.
struct BOperand {
  const float* data;
  int64_t ldb;
  bool trans;
  const PlaneB* plane;  // the plane form when set; data is then unused
  int64_t j0;

  // The same operand from column c0 on.
  BOperand FromCol(int64_t c0) const {
    if (plane != nullptr) return {data, ldb, trans, plane, j0 + c0};
    return {data + (trans ? c0 * ldb : c0), ldb, trans, plane, j0};
  }
};

QCORE_GEMM_CLONES
void GemmImpl(int64_t m, int64_t n, int64_t k, AOperand a, BOperand b,
              float* c, int64_t ldc) {
  // Pack buffers are reused across calls; each worker thread owns its own,
  // so concurrent sessions never share scratch.
  thread_local AlignedFloatVec packed_a;
  thread_local AlignedFloatVec packed_b;
  const int64_t kc_max = std::min(kKC, k);
  const int64_t nc_max =
      std::min(kNC, (n + kNR - 1) / kNR * static_cast<int64_t>(kNR));
  const int64_t mc_max =
      std::min(kMC, (m + kMR - 1) / kMR * static_cast<int64_t>(kMR));
  if (static_cast<int64_t>(packed_b.size()) < nc_max * kc_max) {
    packed_b.resize(static_cast<size_t>(nc_max * kc_max));
  }
  if (!a.packed &&
      static_cast<int64_t>(packed_a.size()) < mc_max * kc_max) {
    packed_a.resize(static_cast<size_t>(mc_max * kc_max));
  }
  float* pb = packed_b.data();

  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      for (int64_t jr = 0; jr < nc; jr += kNR) {
        const int64_t nr = std::min<int64_t>(kNR, nc - jr);
        if (b.plane != nullptr) {
          PackPanelPlane(kc, nr, *b.plane, b.plane->rows + pc,
                         b.j0 + jc + jr, pb + jr * kc);
        } else {
          const float* bsrc = b.trans ? b.data + (jc + jr) * b.ldb + pc
                                      : b.data + pc * b.ldb + jc + jr;
          PackPanelB(kc, nr, bsrc, b.ldb, b.trans, pb + jr * kc);
        }
      }
      for (int64_t ic = 0; ic < m; ic += kMC) {
        const int64_t mc = std::min(kMC, m - ic);
        // The panel of rows ic + ir over [pc, pc + kc) is at
        // pa + ir * panel_stride.
        const float* pa =
            a.packed ? a.data + ic * k + pc * kMR : packed_a.data();
        const int64_t panel_stride = a.packed ? k : kc;
        if (!a.packed) {
          for (int64_t ir = 0; ir < mc; ir += kMR) {
            const float* asrc = a.trans ? a.data + pc * a.lda + ic + ir
                                        : a.data + (ic + ir) * a.lda + pc;
            PackPanelA(kc, std::min<int64_t>(kMR, mc - ir), asrc, a.lda,
                       a.trans, packed_a.data() + ir * kc);
          }
        }
        for (int64_t jr = 0; jr < nc; jr += kNR) {
          const int64_t nr = std::min<int64_t>(kNR, nc - jr);
          for (int64_t ir = 0; ir < mc; ir += kMR) {
            const int64_t mr = std::min<int64_t>(kMR, mc - ir);
            const float* apanel = pa + ir * panel_stride;
            float* ctile = c + (ic + ir) * ldc + jc + jr;
            if (nr == kNR) {
              MicroKernelRows(mr, kc, apanel, pb + jr * kc, ctile, ldc);
            } else {
              MicroKernelEdge(kc, apanel, pb + jr * kc, ctile, ldc, mr, nr);
            }
          }
        }
      }
    }
  }
}

// ----------------------- deterministic parallel dispatch -------------------

// Parallel work split: C is cut into row chunks of 8 microkernel tiles and
// column chunks of 16 packed panels. Both strides are exact multiples of the
// register tile (48 = 8*kMR, 256 = 16*kNR), so a chunked run produces the
// SAME tile decomposition as a sequential one — interior tiles stay
// interior, the ragged edge tiles land in the last chunks unchanged — and
// within each chunk the pc (reduction) loop is the ordinary sequential one.
// Per C element the FMA chain is therefore identical no matter how chunks
// map to workers: chunks are output-disjoint, so scheduling order is
// unobservable. (Chunk height 48 also halves the kMC=96 L2 block: packing
// cost per chunk stays amortized across at least 8 full tile rows.)
constexpr int64_t kRowChunk = 48;
constexpr int64_t kColChunk = 256;
static_assert(kRowChunk % kMR == 0 && kColChunk % kNR == 0,
              "chunk boundaries must align with register tiles or the "
              "parallel tile decomposition diverges from the sequential one");

std::atomic<int> g_gemm_threads{0};  // 0 = not resolved yet
std::atomic<int64_t> g_gemm_parallel_min_work{kDefaultGemmParallelMinWork};

thread_local GemmDispatchCounters tls_gemm_dispatch;

}  // namespace

int gemm_threads() {
  const int t = g_gemm_threads.load(std::memory_order_relaxed);
  if (t > 0) return t;
  // First use: resolve from the environment, else the hardware. The CAS
  // makes concurrent first calls agree on one value.
  int resolved = DefaultParallelWorkers();
  if (const char* env = std::getenv("QCORE_GEMM_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) resolved = v;
  }
  resolved = std::min(resolved, 64);
  int expected = 0;
  g_gemm_threads.compare_exchange_strong(expected, resolved,
                                         std::memory_order_relaxed);
  return g_gemm_threads.load(std::memory_order_relaxed);
}

void set_gemm_threads(int n) {
  QCORE_CHECK(n >= 1);
  g_gemm_threads.store(std::min(n, 64), std::memory_order_relaxed);
}

int64_t gemm_parallel_min_work() {
  return g_gemm_parallel_min_work.load(std::memory_order_relaxed);
}

void set_gemm_parallel_min_work(int64_t mnk) {
  QCORE_CHECK(mnk >= 0);
  g_gemm_parallel_min_work.store(mnk, std::memory_order_relaxed);
}

GemmDispatchCounters ThreadGemmDispatchCounters() { return tls_gemm_dispatch; }

void CreditGemmDispatch(const GemmDispatchCounters& work) {
  tls_gemm_dispatch.wide += work.wide;
  tls_gemm_dispatch.narrow += work.narrow;
  tls_gemm_dispatch.panel_tasks += work.panel_tasks;
  tls_gemm_dispatch.madds += work.madds;
  tls_gemm_dispatch.lowered_floats += work.lowered_floats;
}

namespace {

float* GrowScratch(AlignedFloatVec* buf, size_t floats) {
  if (buf->size() < floats) buf->resize(floats);
  return buf->data();
}

}  // namespace

float* PadScratch(size_t floats) {
  thread_local AlignedFloatVec plane;
  float* p = GrowScratch(&plane, floats);
  std::fill(p, p + floats, 0.0f);
  return p;
}

void PadPlane(const float* x, int64_t c, int64_t h, int64_t w, int pad_h,
              int pad_w, float* plane) {
  tls_gemm_dispatch.lowered_floats += static_cast<uint64_t>(c * h * w);
  const int64_t hp = h + 2 * pad_h, wp = w + 2 * pad_w;
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t y = 0; y < h; ++y) {
      const float* src = x + (ch * h + y) * w;
      std::copy(src, src + w, plane + (ch * hp + y + pad_h) * wp + pad_w);
    }
  }
}

float* ColScratch(size_t floats) {
  thread_local AlignedFloatVec col;
  return GrowScratch(&col, floats);
}

float* DcolScratch(size_t floats) {
  thread_local AlignedFloatVec dcol;
  return GrowScratch(&dcol, floats);
}

namespace {

// The one dispatch rule of both GEMM entries: wide when the budget allows,
// the caller is outside a region and the call clears the crossover, else
// narrow. Counts the call either way.
void DispatchGemm(int64_t m, int64_t n, int64_t k, AOperand a, BOperand b,
                  float* c, int64_t ldc) {
  QCORE_CHECK(m > 0 && n > 0 && k > 0);
  tls_gemm_dispatch.madds += static_cast<uint64_t>(m * n * k);
  const int threads = gemm_threads();
  if (threads > 1 && !InParallelRegion() &&
      m * n * k >= gemm_parallel_min_work()) {
    const int64_t col_chunks = (n + kColChunk - 1) / kColChunk;
    const int64_t grid = ((m + kRowChunk - 1) / kRowChunk) * col_chunks;
    if (grid > 1) {
      tls_gemm_dispatch.wide++;
      tls_gemm_dispatch.panel_tasks += static_cast<uint64_t>(grid);
      ParallelFor(grid, threads, [&](int64_t t) {
        const int64_t r0 = (t / col_chunks) * kRowChunk;
        const int64_t c0 = (t % col_chunks) * kColChunk;
        // Views for chunk (r0, c0): A from row r0 on, B from column c0 on
        // (a plane B learns its column origin). Each worker's GemmImpl
        // packs into its own thread_local scratch.
        GemmImpl(std::min(kRowChunk, m - r0), std::min(kColChunk, n - c0), k,
                 a.FromRow(r0, k), b.FromCol(c0), c + r0 * ldc + c0, ldc);
      });
      return;
    }
  }
  tls_gemm_dispatch.narrow++;
  GemmImpl(m, n, k, a, b, c, ldc);
}

}  // namespace

void Gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
          bool trans_a, const float* b, int64_t ldb, bool trans_b, float* c,
          int64_t ldc) {
  DispatchGemm(m, n, k, {a, lda, trans_a, /*packed=*/false},
               {b, ldb, trans_b, /*plane=*/nullptr, 0}, c, ldc);
}

const float* PackA(int64_t m, int64_t k, const float* a, int64_t lda) {
  QCORE_CHECK(m > 0 && k > 0);
  thread_local AlignedFloatVec packed;
  const int64_t panels = (m + kMR - 1) / kMR;
  float* dst = GrowScratch(&packed, static_cast<size_t>(panels * kMR * k));
  // One panel holds all of k: its kKC blocks sit back to back, so block pc
  // starts pc * kMR floats in, exactly where GemmImpl looks for it.
  for (int64_t r = 0; r < m; r += kMR) {
    PackPanelA(k, std::min<int64_t>(kMR, m - r), a + r * lda, lda,
               /*trans_a=*/false, dst + r * k);
  }
  return dst;
}

void GemmPackedA(int64_t m, int64_t n, int64_t k, const float* packed_a,
                 const PlaneB& b, float* c, int64_t ldc) {
  QCORE_CHECK(b.wo > 0 && b.stride > 0);
  DispatchGemm(m, n, k, {packed_a, 0, /*trans=*/false, /*packed=*/true},
               {nullptr, 0, /*trans=*/false, &b, 0}, c, ldc);
}

const int64_t* ConvRowTable(int64_t c, int64_t hp, int64_t wp, int kh,
                            int kw) {
  thread_local std::vector<int64_t> rows;
  rows.resize(static_cast<size_t>(c * kh * kw));
  int64_t* r = rows.data();
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) *r++ = (ch * hp + ky) * wp + kx;
    }
  }
  return rows.data();
}

namespace {

// The output positions of one tap: o in [begin, end) exactly when the
// source index o*stride + tap - pad lies in [0, n). Positions before begin
// read the leading pad, positions from end on the trailing pad. Computing
// this once per (channel, tap) leaves the lowering loops below without a
// per-element bounds test, so they compile to plain (vectorized) copies.
struct TapRange {
  int64_t begin;
  int64_t end;
};

TapRange InBoundsRange(int64_t n, int tap, int stride, int pad, int64_t lo) {
  const int64_t shift = static_cast<int64_t>(tap) - pad;  // source of o = 0
  // The smallest o with o*stride + shift >= 0 and the smallest with >= n
  // are the ceilings of these over stride. Stride 1, which every conv in
  // the model zoo uses, needs no division.
  int64_t first = std::max<int64_t>(-shift, 0);
  int64_t past = std::max<int64_t>(n - shift, 0);
  if (stride > 1) {
    first = (first + stride - 1) / stride;
    past = (past + stride - 1) / stride;
  }
  const int64_t begin = std::min(first, lo);
  return {begin, std::clamp(past, begin, lo)};
}

// One tap's column row: zeros, then x[o*stride + shift] over the range,
// then zeros. Stride 1 makes the inside one contiguous copy.
inline void LowerTap(const float* xrow, int64_t shift, int stride, TapRange r,
                     int64_t lo, float* crow) {
  std::fill(crow, crow + r.begin, 0.0f);
  if (stride == 1) {
    // An empty range may start past the row's end, so skip it outright.
    if (r.begin < r.end) {
      std::copy(xrow + (r.begin + shift), xrow + (r.end + shift),
                crow + r.begin);
    }
  } else {
    for (int64_t o = r.begin; o < r.end; ++o) {
      crow[o] = xrow[o * stride + shift];
    }
  }
  std::fill(crow + r.end, crow + lo, 0.0f);
}

// The inverse: x[o*stride + shift] += crow[o] over the range, ascending o.
// Within one tap every o hits a distinct x element, so vectorizing this
// loop does not reorder any element's sum.
inline void FoldTap(const float* crow, int64_t shift, int stride, TapRange r,
                    float* xrow) {
  if (stride == 1) {
    for (int64_t o = r.begin; o < r.end; ++o) xrow[o + shift] += crow[o];
  } else {
    for (int64_t o = r.begin; o < r.end; ++o) {
      xrow[o * stride + shift] += crow[o];
    }
  }
}

}  // namespace

// The lowering keeps the naive loops' (channel, tap, position) order and
// only drops the positions whose source is padding, so every column entry
// and every col2im sum is bit-identical to qcore::naive's (kernels_test's
// LoweringTest compares them with memcmp). A 1-D plane's one row is the
// whole in-bounds row range, so it runs exactly the 1-D loops.

void Im2Col(const float* x, int64_t c, int64_t h, int64_t w, int kh, int kw,
            int stride, int pad_h, int pad_w, int64_t ho, int64_t wo,
            float* col) {
  tls_gemm_dispatch.lowered_floats +=
      static_cast<uint64_t>(c * kh * kw * ho * wo);
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* xplane = x + ch * h * w;
    for (int ky = 0; ky < kh; ++ky) {
      const TapRange rows = InBoundsRange(h, ky, stride, pad_h, ho);
      for (int kx = 0; kx < kw; ++kx) {
        const TapRange cols = InBoundsRange(w, kx, stride, pad_w, wo);
        float* cplane = col + ((ch * kh + ky) * kw + kx) * ho * wo;
        std::fill(cplane, cplane + rows.begin * wo, 0.0f);
        for (int64_t oy = rows.begin; oy < rows.end; ++oy) {
          const int64_t sy = oy * stride + ky - pad_h;
          LowerTap(xplane + sy * w, kx - pad_w, stride, cols, wo,
                   cplane + oy * wo);
        }
        std::fill(cplane + rows.end * wo, cplane + ho * wo, 0.0f);
      }
    }
  }
}

void Col2Im(const float* col, int64_t c, int64_t h, int64_t w, int kh,
            int kw, int stride, int pad_h, int pad_w, int64_t ho, int64_t wo,
            float* x) {
  for (int64_t ch = 0; ch < c; ++ch) {
    float* xplane = x + ch * h * w;
    for (int ky = 0; ky < kh; ++ky) {
      const TapRange rows = InBoundsRange(h, ky, stride, pad_h, ho);
      for (int kx = 0; kx < kw; ++kx) {
        const TapRange cols = InBoundsRange(w, kx, stride, pad_w, wo);
        const float* cplane = col + ((ch * kh + ky) * kw + kx) * ho * wo;
        for (int64_t oy = rows.begin; oy < rows.end; ++oy) {
          const int64_t sy = oy * stride + ky - pad_h;
          FoldTap(cplane + oy * wo, kx - pad_w, stride, cols, xplane + sy * w);
        }
      }
    }
  }
}

}  // namespace kernels

// ---------------------------------------------------------------------------
// Naive references (seed kernels, zero-skip branches removed). These are the
// oracle side of kernels_test and the baseline side of the perf CI gate —
// keep them boring.
// ---------------------------------------------------------------------------
namespace naive {

Tensor MatMul(const Tensor& a, const Tensor& b) {
  QCORE_CHECK_EQ(a.ndim(), 2);
  QCORE_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  QCORE_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // i-k-j loop order: unit-stride inner loop over both B and C, float
  // accumulation in ascending-k order (the kernel-layer policy).
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  QCORE_CHECK_EQ(a.ndim(), 2);
  QCORE_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  QCORE_CHECK_EQ(k, b.dim(1));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float s = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
      pc[i * n + j] = s;
    }
  }
  return c;
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  QCORE_CHECK_EQ(a.ndim(), 2);
  QCORE_CHECK_EQ(b.ndim(), 2);
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  QCORE_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

// The seed's per-element lowering loops: every column entry and every
// col2im term is bounds-tested on its own.
void Im2Col1d(const float* x, int64_t c, int64_t l, int kernel, int stride,
              int pad, int64_t lo, float* col) {
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* xrow = x + ch * l;
    for (int kx = 0; kx < kernel; ++kx) {
      float* crow = col + (ch * kernel + kx) * lo;
      for (int64_t o = 0; o < lo; ++o) {
        const int64_t t = o * stride + kx - pad;
        crow[o] = (t >= 0 && t < l) ? xrow[t] : 0.0f;
      }
    }
  }
}

void Col2Im1d(const float* col, int64_t c, int64_t l, int kernel, int stride,
              int pad, int64_t lo, float* x) {
  for (int64_t ch = 0; ch < c; ++ch) {
    float* xrow = x + ch * l;
    for (int kx = 0; kx < kernel; ++kx) {
      const float* crow = col + (ch * kernel + kx) * lo;
      for (int64_t o = 0; o < lo; ++o) {
        const int64_t t = o * stride + kx - pad;
        if (t >= 0 && t < l) xrow[t] += crow[o];
      }
    }
  }
}

void Im2Col2d(const float* x, int64_t c, int64_t h, int64_t w, int kernel,
              int stride, int pad, int64_t ho, int64_t wo, float* col) {
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* xplane = x + ch * h * w;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        float* cplane = col + ((ch * kernel + ky) * kernel + kx) * ho * wo;
        for (int64_t oy = 0; oy < ho; ++oy) {
          const int64_t sy = oy * stride + ky - pad;
          float* crow = cplane + oy * wo;
          if (sy < 0 || sy >= h) {
            for (int64_t ox = 0; ox < wo; ++ox) crow[ox] = 0.0f;
            continue;
          }
          const float* xrow = xplane + sy * w;
          for (int64_t ox = 0; ox < wo; ++ox) {
            const int64_t sx = ox * stride + kx - pad;
            crow[ox] = (sx >= 0 && sx < w) ? xrow[sx] : 0.0f;
          }
        }
      }
    }
  }
}

void Col2Im2d(const float* col, int64_t c, int64_t h, int64_t w, int kernel,
              int stride, int pad, int64_t ho, int64_t wo, float* x) {
  for (int64_t ch = 0; ch < c; ++ch) {
    float* xplane = x + ch * h * w;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        const float* cplane =
            col + ((ch * kernel + ky) * kernel + kx) * ho * wo;
        for (int64_t oy = 0; oy < ho; ++oy) {
          const int64_t sy = oy * stride + ky - pad;
          if (sy < 0 || sy >= h) continue;
          const float* crow = cplane + oy * wo;
          float* xrow = xplane + sy * w;
          for (int64_t ox = 0; ox < wo; ++ox) {
            const int64_t sx = ox * stride + kx - pad;
            if (sx >= 0 && sx < w) xrow[sx] += crow[ox];
          }
        }
      }
    }
  }
}

Tensor Conv1dForward(const Tensor& x, const Tensor& w, const Tensor& bias,
                     int stride, int pad) {
  QCORE_CHECK_EQ(x.ndim(), 3);
  QCORE_CHECK_EQ(w.ndim(), 3);
  const int64_t n = x.dim(0), c = x.dim(1), l = x.dim(2);
  const int64_t f = w.dim(0), kernel = w.dim(2);
  QCORE_CHECK_EQ(w.dim(1), c);
  QCORE_CHECK_GE(l + 2 * pad, kernel);
  const int64_t lo = (l + 2 * pad - kernel) / stride + 1;
  Tensor out({n, f, lo});
  const float* px = x.data();
  const float* pw = w.data();
  const float* pb = bias.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t fo = 0; fo < f; ++fo) {
      float* orow = po + (i * f + fo) * lo;
      for (int64_t o = 0; o < lo; ++o) orow[o] = pb[fo];
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* xrow = px + (i * c + ch) * l;
        const float* wrow = pw + (fo * c + ch) * kernel;
        for (int64_t kx = 0; kx < kernel; ++kx) {
          const float wv = wrow[kx];
          for (int64_t o = 0; o < lo; ++o) {
            const int64_t t = o * stride + kx - pad;
            if (t >= 0 && t < l) orow[o] += wv * xrow[t];
          }
        }
      }
    }
  }
  return out;
}

Tensor Conv1dBackward(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                      int stride, int pad, Tensor* dw, Tensor* db) {
  const int64_t n = x.dim(0), c = x.dim(1), l = x.dim(2);
  const int64_t f = w.dim(0), kernel = w.dim(2);
  const int64_t lo = grad_out.dim(2);
  QCORE_CHECK_EQ(grad_out.dim(0), n);
  QCORE_CHECK_EQ(grad_out.dim(1), f);
  Tensor grad_in(x.shape());
  const float* px = x.data();
  const float* pw = w.data();
  const float* pg = grad_out.data();
  float* pgi = grad_in.data();
  float* pdw = dw->data();
  float* pdb = db->data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t fo = 0; fo < f; ++fo) {
      const float* grow = pg + (i * f + fo) * lo;
      double bsum = 0.0;
      for (int64_t o = 0; o < lo; ++o) bsum += grow[o];
      pdb[fo] += static_cast<float>(bsum);
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* xrow = px + (i * c + ch) * l;
        const float* wrow = pw + (fo * c + ch) * kernel;
        float* girow = pgi + (i * c + ch) * l;
        float* dwrow = pdw + (fo * c + ch) * kernel;
        for (int64_t kx = 0; kx < kernel; ++kx) {
          float wsum = 0.0f;
          const float wv = wrow[kx];
          for (int64_t o = 0; o < lo; ++o) {
            const int64_t t = o * stride + kx - pad;
            if (t < 0 || t >= l) continue;
            wsum += grow[o] * xrow[t];
            girow[t] += wv * grow[o];
          }
          dwrow[kx] += wsum;
        }
      }
    }
  }
  return grad_in;
}

Tensor Conv2dForward(const Tensor& x, const Tensor& w, const Tensor& bias,
                     int stride, int pad) {
  QCORE_CHECK_EQ(x.ndim(), 4);
  QCORE_CHECK_EQ(w.ndim(), 4);
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int64_t f = w.dim(0), kernel = w.dim(2);
  QCORE_CHECK_EQ(w.dim(1), c);
  QCORE_CHECK_GE(h + 2 * pad, kernel);
  QCORE_CHECK_GE(wd + 2 * pad, kernel);
  const int64_t ho = (h + 2 * pad - kernel) / stride + 1;
  const int64_t wo = (wd + 2 * pad - kernel) / stride + 1;
  Tensor out({n, f, ho, wo});
  const float* px = x.data();
  const float* pw = w.data();
  const float* pb = bias.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t fo = 0; fo < f; ++fo) {
      float* oplane = po + (i * f + fo) * ho * wo;
      for (int64_t o = 0; o < ho * wo; ++o) oplane[o] = pb[fo];
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* xplane = px + (i * c + ch) * h * wd;
        const float* wplane = pw + (fo * c + ch) * kernel * kernel;
        for (int64_t ky = 0; ky < kernel; ++ky) {
          for (int64_t kx = 0; kx < kernel; ++kx) {
            const float wv = wplane[ky * kernel + kx];
            for (int64_t oy = 0; oy < ho; ++oy) {
              const int64_t sy = oy * stride + ky - pad;
              if (sy < 0 || sy >= h) continue;
              float* orow = oplane + oy * wo;
              const float* xrow = xplane + sy * wd;
              for (int64_t ox = 0; ox < wo; ++ox) {
                const int64_t sx = ox * stride + kx - pad;
                if (sx >= 0 && sx < wd) orow[ox] += wv * xrow[sx];
              }
            }
          }
        }
      }
    }
  }
  return out;
}

Tensor Conv2dBackward(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                      int stride, int pad, Tensor* dw, Tensor* db) {
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int64_t f = w.dim(0), kernel = w.dim(2);
  const int64_t ho = grad_out.dim(2), wo = grad_out.dim(3);
  QCORE_CHECK_EQ(grad_out.dim(0), n);
  QCORE_CHECK_EQ(grad_out.dim(1), f);
  Tensor grad_in(x.shape());
  const float* px = x.data();
  const float* pw = w.data();
  const float* pg = grad_out.data();
  float* pgi = grad_in.data();
  float* pdw = dw->data();
  float* pdb = db->data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t fo = 0; fo < f; ++fo) {
      const float* gplane = pg + (i * f + fo) * ho * wo;
      double bsum = 0.0;
      for (int64_t o = 0; o < ho * wo; ++o) bsum += gplane[o];
      pdb[fo] += static_cast<float>(bsum);
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* xplane = px + (i * c + ch) * h * wd;
        const float* wplane = pw + (fo * c + ch) * kernel * kernel;
        float* giplane = pgi + (i * c + ch) * h * wd;
        float* dwplane = pdw + (fo * c + ch) * kernel * kernel;
        for (int64_t ky = 0; ky < kernel; ++ky) {
          for (int64_t kx = 0; kx < kernel; ++kx) {
            const float wv = wplane[ky * kernel + kx];
            float wsum = 0.0f;
            for (int64_t oy = 0; oy < ho; ++oy) {
              const int64_t sy = oy * stride + ky - pad;
              if (sy < 0 || sy >= h) continue;
              const float* grow = gplane + oy * wo;
              const float* xrow = xplane + sy * wd;
              float* girow = giplane + sy * wd;
              for (int64_t ox = 0; ox < wo; ++ox) {
                const int64_t sx = ox * stride + kx - pad;
                if (sx < 0 || sx >= wd) continue;
                wsum += grow[ox] * xrow[sx];
                girow[sx] += wv * grow[ox];
              }
            }
            dwplane[ky * kernel + kx] += wsum;
          }
        }
      }
    }
  }
  return grad_in;
}

}  // namespace naive
}  // namespace qcore
