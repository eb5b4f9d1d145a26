#include "nn/kernels_simd.h"

#include <algorithm>
#include <cstring>

#include "nn/backend_registry.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ET_SIMD_X86 1
#include <immintrin.h>
#define ET_TARGET_AVX2 __attribute__((target("avx2,fma")))
#else
#define ET_SIMD_X86 0
#endif

// Partial-width GEMM tiles multiply and add as two rounded operations,
// never one fused multiply-add: the masked-AVX2 tile and its scalar
// fallback must produce the same bits, and GCC may contract
// `acc + a * b` into an FMA wherever the target has one. (Clang only
// contracts within one source expression, which the intrinsic tiles
// never form.)
#if defined(__clang__)
#define ET_NO_FP_CONTRACT
#else
#define ET_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#endif

namespace equitensor {
namespace backend {
namespace {

// im2col + blocked GEMM lowering (DESIGN.md §13).
//
// All three convolutions share one geometry: a 1d conv is a 3d conv
// with W = H = 1 and a temporal-only kernel, a 2d conv one with T = 1.
// Per sample n the forward pass is a single GEMM
//
//   Y[n]  (Cout x P)  =  W (Cout x CK)  ·  col (CK x P)
//
// with P = W·H·T output positions and CK = Cin·KW·KH·KT patch
// entries; `col` is the im2col matrix ("same" zero padding folded in
// as zeroed row borders). The backward pass is two more GEMMs:
//
//   gcol (CK x P)     =  Wᵀ (CK x Cout)  ·  gY[n] (Cout x P)
//   gWᵀ  (CK x Cout) +=  col (CK x P)    ·  gYᵀ  (P x Cout)
//
// followed by a col2im scatter-add for gX. `col` itself is never
// materialized: both GEMMs that consume it read a zero-padded copy of
// the input (PaddedInput), in which every col row is a fixed offset
// and every run of positions along a line is contiguous. Scratch
// (the padded copy, operand packs, per-channel gcol slabs) is leased
// from the global arena, so after the first step of a fixed-shape
// training loop these kernels allocate nothing.
//
// Determinism: the k blocks and column tiles are a pure function of
// the problem shape, every output element accumulates in a fixed
// serial k order, and ParallelFor only distributes whole blocks (or
// whole input channels) — results are bitwise identical for any
// thread count on a given machine. Cross-backend (vs `reference`) the
// accumulation association differs, bounded by CheckTolerance.

// The geometry struct lives in the header (SimdConvGeom) so the fused
// executor can drive the same lowering; the old internal name stays as
// the local spelling.
using ConvGeom = SimdConvGeom;

int64_t SpatialVolume(const ConvGeom& g) { return g.w * g.h * g.t; }
int64_t PatchSize(const ConvGeom& g) { return g.cin * g.kw * g.kh * g.kt; }

// ---------------------------------------------------------------------------
// GEMM micro-kernels. The 6x16 tile keeps 12 accumulator registers
// live in AVX2 (6 rows x 2 ymm) with one broadcast per row per k step.
// The portable variant mirrors the same tile so the blocked driver is
// shared; GCC auto-vectorizes its inner loops at the baseline ISA.
//
// Operands normally reach the kernels packed: A as [kk][kMR] groups
// (the six broadcasts per k step read 24 consecutive bytes) and B as
// [kk][kNR] lines (the two vector loads stream contiguous 64-byte
// rows). Packing happens once per cache block in the drivers below.
// The conv drivers skip packing where the padded input already holds
// an operand contiguously: forward B lines in place (RowsB), and the
// weight gradient's A rows (TileA at stride 1).

constexpr int64_t kMR = kGemmTileRows;  // micro-tile rows (6)
constexpr int64_t kNR = kGemmTileCols;  // micro-tile cols (16)
constexpr int64_t kMB = 96;   // row block (16 micro-rows)
constexpr int64_t kNB = 240;  // col block (15 micro-cols)
constexpr int64_t kKC = 512;  // k block: B panel stays cache-resident

// Where a full tile's B lines live, as two 8-column halves: a packed
// panel (line kk at b + kk * kNR), or — for a forward tile whose
// halves are each a contiguous run of the padded conv input — in place
// in the col rows (halves at rows[kk] + lo and rows[kk] + hi).
struct PackedB {
  const float* b;
  const float* Lo(int64_t kk) const { return b + kk * kNR; }
  const float* Hi(int64_t kk) const { return b + kk * kNR + 8; }
};
struct RowsB {
  const float* const* rows;
  int64_t lo, hi;
  const float* Lo(int64_t kk) const { return rows[kk] + lo; }
  const float* Hi(int64_t kk) const { return rows[kk] + hi; }
};

template <typename B>
using MicroKernelFn = void (*)(int64_t kc, const float* a, B b, float* c,
                               int64_t ldc, bool first);

#if ET_SIMD_X86
// Variable-row-count tile (MR in 1..6), all 16 columns vectorized. MR
// is a template constant so the accumulator array unrolls into
// registers; row remainders (e.g. a Cout=16 GEMM splitting 6+6+4) stay
// on the FMA path instead of falling back to scalar edge code.
// Accumulators are NAMED variables, not a __m256 array: GCC keeps an
// array's stack image live and re-stores every accumulator each k step
// (12 stores per iteration — measured 2x slower); named locals stay
// register-only.
template <int MR, typename B>
ET_TARGET_AVX2 void MicroMx16Avx2(int64_t kc, const float* a, B b, float* c,
                                  int64_t ldc, bool first) {
  const __m256 z = _mm256_setzero_ps();
  __m256 l0 = z, h0 = z, l1 = z, h1 = z, l2 = z, h2 = z;
  __m256 l3 = z, h3 = z, l4 = z, h4 = z, l5 = z, h5 = z;
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(b.Lo(kk));
    const __m256 b1 = _mm256_loadu_ps(b.Hi(kk));
    const float* arow = a + kk * kMR;
    __m256 av = _mm256_broadcast_ss(arow);
    l0 = _mm256_fmadd_ps(av, b0, l0);
    h0 = _mm256_fmadd_ps(av, b1, h0);
    if constexpr (MR > 1) {
      av = _mm256_broadcast_ss(arow + 1);
      l1 = _mm256_fmadd_ps(av, b0, l1);
      h1 = _mm256_fmadd_ps(av, b1, h1);
    }
    if constexpr (MR > 2) {
      av = _mm256_broadcast_ss(arow + 2);
      l2 = _mm256_fmadd_ps(av, b0, l2);
      h2 = _mm256_fmadd_ps(av, b1, h2);
    }
    if constexpr (MR > 3) {
      av = _mm256_broadcast_ss(arow + 3);
      l3 = _mm256_fmadd_ps(av, b0, l3);
      h3 = _mm256_fmadd_ps(av, b1, h3);
    }
    if constexpr (MR > 4) {
      av = _mm256_broadcast_ss(arow + 4);
      l4 = _mm256_fmadd_ps(av, b0, l4);
      h4 = _mm256_fmadd_ps(av, b1, h4);
    }
    if constexpr (MR > 5) {
      av = _mm256_broadcast_ss(arow + 5);
      l5 = _mm256_fmadd_ps(av, b0, l5);
      h5 = _mm256_fmadd_ps(av, b1, h5);
    }
  }
  const auto out = [&](int i, __m256 lo, __m256 hi) ET_TARGET_AVX2 {
    float* crow = c + i * ldc;
    if (first) {
      _mm256_storeu_ps(crow, lo);
      _mm256_storeu_ps(crow + 8, hi);
    } else {
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), lo));
      _mm256_storeu_ps(crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), hi));
    }
  };
  out(0, l0, h0);
  if constexpr (MR > 1) out(1, l1, h1);
  if constexpr (MR > 2) out(2, l2, h2);
  if constexpr (MR > 3) out(3, l3, h3);
  if constexpr (MR > 4) out(4, l4, h4);
  if constexpr (MR > 5) out(5, l5, h5);
}
#endif  // ET_SIMD_X86

template <int MR, typename B>
void MicroMx16Portable(int64_t kc, const float* a, B b, float* c, int64_t ldc,
                       bool first) {
  float acc[MR][kNR] = {};
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* lo = b.Lo(kk);
    const float* hi = b.Hi(kk);
    for (int i = 0; i < MR; ++i) {
      const float av = a[kk * kMR + i];
      for (int64_t j = 0; j < 8; ++j) acc[i][j] += av * lo[j];
      for (int64_t j = 8; j < kNR; ++j) acc[i][j] += av * hi[j - 8];
    }
  }
  for (int i = 0; i < MR; ++i) {
    float* crow = c + i * ldc;
    if (first) {
      for (int64_t j = 0; j < kNR; ++j) crow[j] = acc[i][j];
    } else {
      for (int64_t j = 0; j < kNR; ++j) crow[j] += acc[i][j];
    }
  }
}

// Fills a per-row-count table (index mr in 1..6, entry 0 unused) with
// the AVX2 or the portable full tiles.
template <typename B>
void PickFullTiles(bool avx2, MicroKernelFn<B>* by_rows) {
#if ET_SIMD_X86
  if (avx2) {
    by_rows[1] = MicroMx16Avx2<1, B>;
    by_rows[2] = MicroMx16Avx2<2, B>;
    by_rows[3] = MicroMx16Avx2<3, B>;
    by_rows[4] = MicroMx16Avx2<4, B>;
    by_rows[5] = MicroMx16Avx2<5, B>;
    by_rows[6] = MicroMx16Avx2<6, B>;
    return;
  }
#endif
  by_rows[1] = MicroMx16Portable<1, B>;
  by_rows[2] = MicroMx16Portable<2, B>;
  by_rows[3] = MicroMx16Portable<3, B>;
  by_rows[4] = MicroMx16Portable<4, B>;
  by_rows[5] = MicroMx16Portable<5, B>;
  by_rows[6] = MicroMx16Portable<6, B>;
}

// The A operand of a tile as row pointers: row i's k-th value is
// row[i][(seg_off[s] + q) * stride], k walking segments s = 0, 1, ...
// and q = 0 .. seg_len[s] - 1 within each. A packed panel is one
// segment at stride kMR (its rows interleave); the weight-gradient
// GEMM points the rows into the zero-padded conv input at stride 1,
// one segment per run of consecutive positions, and reads A in place.
struct TileA {
  const float* row[kMR];
  const int64_t* seg_off;
  const int64_t* seg_len;
  int64_t segs;
};

using TileFn = void (*)(int64_t mr, int64_t nr, const TileA& a,
                        const float* b, float* c, int64_t ldc, bool first);

// Portable tile (any nr up to kNR): the expressions of
// MicroMx16Portable, which has no FMA at the baseline ISA — each k
// step a rounded multiply then a rounded add (ET_NO_FP_CONTRACT
// above) — over the live columns only. It is the fallback for partial
// and direct tiles, and the oracle the masked-AVX2 tile below is
// tested against.
template <int64_t kStride>
ET_NO_FP_CONTRACT void TileScalar(int64_t mr, int64_t nr, const TileA& a,
                                  const float* b, float* c, int64_t ldc,
                                  bool first) {
  for (int64_t i = 0; i < mr; ++i) {
    float acc[kNR] = {};
    const float* brow = b;
    for (int64_t s = 0; s < a.segs; ++s) {
      const float* arow = a.row[i] + a.seg_off[s] * kStride;
      for (int64_t q = 0; q < a.seg_len[s]; ++q, brow += kNR) {
        const float av = arow[q * kStride];
        for (int64_t j = 0; j < nr; ++j) acc[j] += av * brow[j];
      }
    }
    float* crow = c + i * ldc;
    if (first) {
      for (int64_t j = 0; j < nr; ++j) crow[j] = acc[j];
    } else {
      for (int64_t j = 0; j < nr; ++j) crow[j] += acc[j];
    }
  }
}

#if ET_SIMD_X86
#define ET_TARGET_AVX2_NO_CONTRACT ET_TARGET_AVX2 ET_NO_FP_CONTRACT

// All-ones in the lanes below `live` (clamped to 0..8).
ET_TARGET_AVX2_NO_CONTRACT inline __m256i LiveLanes(int64_t live) {
  const int lanes = static_cast<int>(std::clamp<int64_t>(live, 0, 8));
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Writes one accumulated row's live columns: crow[j] = acc[j] on the
// first k block, crow[j] += acc[j] after — the scalar tile's
// expressions. Masked loads/stores never touch columns >= nr.
ET_TARGET_AVX2_NO_CONTRACT inline void StoreRow(float* crow, __m256i lo_mask,
                                                __m256i hi_mask, __m256 lo,
                                                __m256 hi, bool wide,
                                                bool first) {
  if (first) {
    _mm256_maskstore_ps(crow, lo_mask, lo);
    if (wide) _mm256_maskstore_ps(crow + 8, hi_mask, hi);
    return;
  }
  _mm256_maskstore_ps(
      crow, lo_mask, _mm256_add_ps(_mm256_maskload_ps(crow, lo_mask), lo));
  if (wide) {
    _mm256_maskstore_ps(
        crow + 8, hi_mask,
        _mm256_add_ps(_mm256_maskload_ps(crow + 8, hi_mask), hi));
  }
}

// One k step of an accumulator: a fused multiply-add on full tiles,
// a rounded multiply then a rounded add on partial ones — the rounding
// of MicroMx16Avx2 and of TileScalar respectively.
template <bool kFma>
ET_TARGET_AVX2_NO_CONTRACT inline __m256 MulAcc(__m256 acc, __m256 a,
                                                __m256 b) {
  if constexpr (kFma) {
    return _mm256_fmadd_ps(a, b, acc);
  } else {
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
  }
}

// AVX2 tile over a TileA operand, nr live columns: masked-AVX2 partial
// tiles (!kFma; kWide covers nr > 8 with a second vector per row, the
// Cout = 1/5/8 weight-gradient GEMMs touch one) and the weight
// gradient's full direct tiles (kFma). The packed B tile is zero past
// nr, so every lane computes a finite value and the masked stores keep
// only the live ones. Per element the k order, accumulator start and
// per-step rounding are those of MicroMx16Avx2 (kFma) or TileScalar
// (!kFma), so the bits match them. Named accumulators for the same
// reason as the full tile above.
template <int MR, bool kFma, bool kWide, int64_t kStride>
ET_TARGET_AVX2_NO_CONTRACT void TileAvx2(int64_t nr, const TileA& a,
                                         const float* b, float* c,
                                         int64_t ldc, bool first) {
  const __m256 z = _mm256_setzero_ps();
  __m256 l0 = z, h0 = z, l1 = z, h1 = z, l2 = z, h2 = z;
  __m256 l3 = z, h3 = z, l4 = z, h4 = z, l5 = z, h5 = z;
  for (int64_t s = 0; s < a.segs; ++s) {
    const int64_t off = a.seg_off[s] * kStride;
    const float* r0 = a.row[0] + off;
    const float* r1 = MR > 1 ? a.row[1] + off : nullptr;
    const float* r2 = MR > 2 ? a.row[2] + off : nullptr;
    const float* r3 = MR > 3 ? a.row[3] + off : nullptr;
    const float* r4 = MR > 4 ? a.row[4] + off : nullptr;
    const float* r5 = MR > 5 ? a.row[5] + off : nullptr;
    const int64_t len = a.seg_len[s] * kStride;
    for (int64_t q = 0; q < len; q += kStride, b += kNR) {
      const __m256 b0 = _mm256_loadu_ps(b);
      const __m256 b1 = kWide ? _mm256_loadu_ps(b + 8) : z;
      __m256 av = _mm256_broadcast_ss(r0 + q);
      l0 = MulAcc<kFma>(l0, av, b0);
      if constexpr (kWide) h0 = MulAcc<kFma>(h0, av, b1);
      if constexpr (MR > 1) {
        av = _mm256_broadcast_ss(r1 + q);
        l1 = MulAcc<kFma>(l1, av, b0);
        if constexpr (kWide) h1 = MulAcc<kFma>(h1, av, b1);
      }
      if constexpr (MR > 2) {
        av = _mm256_broadcast_ss(r2 + q);
        l2 = MulAcc<kFma>(l2, av, b0);
        if constexpr (kWide) h2 = MulAcc<kFma>(h2, av, b1);
      }
      if constexpr (MR > 3) {
        av = _mm256_broadcast_ss(r3 + q);
        l3 = MulAcc<kFma>(l3, av, b0);
        if constexpr (kWide) h3 = MulAcc<kFma>(h3, av, b1);
      }
      if constexpr (MR > 4) {
        av = _mm256_broadcast_ss(r4 + q);
        l4 = MulAcc<kFma>(l4, av, b0);
        if constexpr (kWide) h4 = MulAcc<kFma>(h4, av, b1);
      }
      if constexpr (MR > 5) {
        av = _mm256_broadcast_ss(r5 + q);
        l5 = MulAcc<kFma>(l5, av, b0);
        if constexpr (kWide) h5 = MulAcc<kFma>(h5, av, b1);
      }
    }
  }
  const __m256i lo_mask = LiveLanes(nr);
  const __m256i hi_mask = LiveLanes(nr - 8);
  StoreRow(c, lo_mask, hi_mask, l0, h0, kWide, first);
  if constexpr (MR > 1) {
    StoreRow(c + ldc, lo_mask, hi_mask, l1, h1, kWide, first);
  }
  if constexpr (MR > 2) {
    StoreRow(c + 2 * ldc, lo_mask, hi_mask, l2, h2, kWide, first);
  }
  if constexpr (MR > 3) {
    StoreRow(c + 3 * ldc, lo_mask, hi_mask, l3, h3, kWide, first);
  }
  if constexpr (MR > 4) {
    StoreRow(c + 4 * ldc, lo_mask, hi_mask, l4, h4, kWide, first);
  }
  if constexpr (MR > 5) {
    StoreRow(c + 5 * ldc, lo_mask, hi_mask, l5, h5, kWide, first);
  }
}

// Packed panels only reach TileA kernels for partial tiles (full ones
// run MicroMx16Avx2); direct tiles may be either.
template <int MR, int64_t kStride>
void TileAvx2Rows(int64_t nr, const TileA& a, const float* b, float* c,
                  int64_t ldc, bool first) {
  if constexpr (kStride == 1) {
    if (nr == kNR) {
      TileAvx2<MR, true, true, 1>(nr, a, b, c, ldc, first);
      return;
    }
  }
  if (nr > 8) {
    TileAvx2<MR, false, true, kStride>(nr, a, b, c, ldc, first);
  } else {
    TileAvx2<MR, false, false, kStride>(nr, a, b, c, ldc, first);
  }
}

template <int64_t kStride>
void TileAvx2Dispatch(int64_t mr, int64_t nr, const TileA& a, const float* b,
                      float* c, int64_t ldc, bool first) {
  switch (mr) {
    case 1:
      return TileAvx2Rows<1, kStride>(nr, a, b, c, ldc, first);
    case 2:
      return TileAvx2Rows<2, kStride>(nr, a, b, c, ldc, first);
    case 3:
      return TileAvx2Rows<3, kStride>(nr, a, b, c, ldc, first);
    case 4:
      return TileAvx2Rows<4, kStride>(nr, a, b, c, ldc, first);
    case 5:
      return TileAvx2Rows<5, kStride>(nr, a, b, c, ldc, first);
    default:
      return TileAvx2Rows<6, kStride>(nr, a, b, c, ldc, first);
  }
}
#endif  // ET_SIMD_X86

// The full tiles per row count (packed B, and in-place B for the conv
// forward), plus the TileA kernels for partial packed tiles and direct
// tiles. One runtime cpu probe picks the AVX2 or portable family for
// the process.
struct MicroKernelTable {
  MicroKernelFn<PackedB> by_rows[kMR + 1];
  MicroKernelFn<RowsB> by_rows_in_place[kMR + 1];
  TileFn packed_edge;  // TileA at stride kMR, nr < kNR
  TileFn direct;       // TileA at stride 1, any nr
  bool avx2;
};

MicroKernelTable PickMicroKernels() {
  MicroKernelTable t;
  t.avx2 = false;
  t.packed_edge = TileScalar<kMR>;
  t.direct = TileScalar<1>;
#if ET_SIMD_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    t.avx2 = true;
    t.packed_edge = TileAvx2Dispatch<kMR>;
    t.direct = TileAvx2Dispatch<1>;
  }
#endif
  PickFullTiles(t.avx2, t.by_rows);
  PickFullTiles(t.avx2, t.by_rows_in_place);
  return t;
}

const MicroKernelTable& MicroKernels() {
  static const MicroKernelTable t = PickMicroKernels();
  return t;
}

// A packed A panel ([kk][kMR] groups) as a one-segment TileA.
struct PackedTileA {
  int64_t zero = 0, kc;
  TileA a;

  PackedTileA(const float* panel, int64_t k) : kc(k) {
    for (int64_t i = 0; i < kMR; ++i) a.row[i] = panel + i;
    a.seg_off = &zero;
    a.seg_len = &kc;
    a.segs = 1;
  }
};

// One (mr x nr) tile of C from packed operands: the full-width
// micro-kernel when all 16 columns are live, the partial tile
// otherwise.
void RunTile(const MicroKernelTable& micro, int64_t mr, int64_t nr, int64_t kc,
             const float* a, const float* b, float* c, int64_t ldc,
             bool first) {
  if (nr == kNR) {
    micro.by_rows[mr](kc, a, PackedB{b}, c, ldc, first);
  } else {
    const PackedTileA packed(a, kc);
    micro.packed_edge(mr, nr, packed.a, b, c, ldc, first);
  }
}

// Row partition of an m-row GEMM into blocks of `height` whole
// micro-tiles. Normally a block is kMB rows, so its packed A stays
// cache-resident; when that grid — times the `col_blocks` column
// blocks — would leave pool threads idle, the blocks shrink (down to
// one micro-tile) until every thread has one, as far as the work
// (`macs_per_row` multiply-adds per row) gives each new block at least
// kMinBlockMacs: a split-off block must outweigh waking a thread.
// Only which thread computes a row changes, never a C element's k
// order, so the result is bitwise independent of the split.
constexpr int64_t kMinBlockMacs = int64_t{1} << 20;  // ~40 us of AVX2 GEMM

struct RowBlocks {
  int64_t m, height, count;

  RowBlocks(int64_t rows, int64_t col_blocks, int64_t macs_per_row)
      : m(rows), height(kMB / kMR) {
    const int64_t tiles = (rows + kMR - 1) / kMR;
    const int64_t want =
        std::min((ParallelWidth() + col_blocks - 1) / col_blocks,
                 std::max<int64_t>(1, rows * macs_per_row / kMinBlockMacs));
    if ((tiles + height - 1) / height < want) {
      height = std::max<int64_t>(1, (tiles + want - 1) / want);
    }
    count = (tiles + height - 1) / height;
  }
  int64_t begin(int64_t mb) const { return std::min(m, mb * height * kMR); }
  int64_t end(int64_t mb) const { return begin(mb + 1); }
};

// Packing scratch of one GemmBlocked body, in floats: A for a row
// block of `height` micro-tiles ([i_tile][kk][kMR] groups), then B for
// one column block ([j_tile][kk][kNR] lines) from the next 64-byte
// line.
struct GemmPackLayout {
  int64_t a_floats, floats;

  GemmPackLayout(int64_t height, int64_t n, int64_t k) {
    const int64_t max_kc = std::min(k, kKC);
    const int64_t max_jt = (std::min(n, kNB) + kNR - 1) / kNR;
    a_floats = (height * max_kc * kMR + 15) / 16 * 16;
    floats = a_floats + max_jt * max_kc * kNR;
  }
};

// Packing scratch a GemmBlocked call given `pack` needs (any row split
// is at most kMB rows high).
int64_t GemmPackFloats(int64_t n, int64_t k) {
  return GemmPackLayout(kMB / kMR, n, k).floats;
}

// Shared blocked driver (the public GemmRowMajor wraps it). `pack`, if
// given, is GemmPackFloats(n, k) floats of caller scratch, for a call
// made inside a parallel region — the block loop then runs inline, on
// that one span; otherwise the call leases per-worker scratch itself.
void GemmBlocked(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
                 const float* b, int64_t ldb, float* c, int64_t ldc,
                 bool accumulate, float* pack = nullptr) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
      }
    }
    return;
  }
  const MicroKernelTable& micro = MicroKernels();
  const int64_t nb_count = (n + kNB - 1) / kNB;
  const RowBlocks rows(m, nb_count, n * k);
  const int64_t blocks = rows.count * nb_count;
  // Per-worker packing buffers: B as [j_tile][kk][kNR] contiguous
  // lines, A as [i_tile][kk][kMR] broadcast groups. Without packing
  // the micro-kernel re-walks the ldb/lda-strided sources for every
  // tile pair, which is what capped throughput.
  const GemmPackLayout layout(pack ? kMB / kMR : rows.height, n, k);
  // Whole blocks are the unit of parallel work, so the result is
  // independent of how ParallelFor chunks the block grid.
  const auto run_blocks = [&](int64_t blk0, int64_t blk1, float* span) {
    float* const apack = span;
    float* const bpack = span + layout.a_floats;
    for (int64_t blk = blk0; blk < blk1; ++blk) {
      const int64_t mb = blk / nb_count;
      const int64_t nb = blk % nb_count;
      const int64_t i_begin = rows.begin(mb);
      const int64_t i_end = rows.end(mb);
      const int64_t j_begin = nb * kNB;
      const int64_t j_end = std::min(n, j_begin + kNB);
      const int64_t i_tiles = (i_end - i_begin + kMR - 1) / kMR;
      const int64_t j_tiles = (j_end - j_begin + kNR - 1) / kNR;
      for (int64_t kc0 = 0; kc0 < k; kc0 += kKC) {
        const int64_t kc = std::min(kKC, k - kc0);
        const bool first = (kc0 == 0) && !accumulate;
        // Pack loop is kk-major: each k step reads one contiguous
        // slice of the source row and fans it out to j_tiles
        // write cursors. The jt-major order would touch kc
        // distinct pages per tile (ldb-strided 64-byte reads),
        // which is TLB-bound.
        const int64_t full_jt = (j_end - j_begin) / kNR;
        for (int64_t kk = 0; kk < kc; ++kk) {
          const float* src = b + (kc0 + kk) * ldb + j_begin;
          float* dst = bpack + kk * kNR;
          int64_t jt = 0;
          for (; jt < full_jt; ++jt) {
            std::memcpy(dst + jt * kc * kNR, src + jt * kNR,
                        kNR * sizeof(float));
          }
          if (jt < j_tiles) {
            const int64_t nr = j_end - j_begin - jt * kNR;
            float* tail = dst + jt * kc * kNR;
            const float* tsrc = src + jt * kNR;
            for (int64_t j = 0; j < nr; ++j) tail[j] = tsrc[j];
            for (int64_t j = nr; j < kNR; ++j) tail[j] = 0.0f;
          }
        }
        // A rows past a short final tile stay unpacked: the tiles
        // only read their mr live rows.
        for (int64_t it = 0; it < i_tiles; ++it) {
          const int64_t i0 = i_begin + it * kMR;
          const int64_t mr = std::min(kMR, i_end - i0);
          float* dst = apack + it * kc * kMR;
          for (int64_t i = 0; i < mr; ++i) {
            const float* src = a + (i0 + i) * lda + kc0;
            for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kMR + i] = src[kk];
          }
        }
        // Tile loop order keeps the smaller operand's panels
        // hot: with few row tiles (e.g. a Cout=16 conv forward)
        // the jt-outer order reads each B tile once per block and
        // re-reads the small A pack from L1, instead of streaming
        // the whole B panel again for every row tile.
        const auto tile_at = [&](int64_t it, int64_t jt) {
          const int64_t i0 = i_begin + it * kMR;
          const int64_t j0 = j_begin + jt * kNR;
          RunTile(micro, std::min(kMR, i_end - i0),
                  std::min(kNR, j_end - j0), kc,
                  apack + it * kc * kMR, bpack + jt * kc * kNR,
                  c + i0 * ldc + j0, ldc, first);
        };
        if (i_tiles <= j_tiles) {
          for (int64_t jt = 0; jt < j_tiles; ++jt) {
            for (int64_t it = 0; it < i_tiles; ++it) tile_at(it, jt);
          }
        } else {
          for (int64_t it = 0; it < i_tiles; ++it) {
            for (int64_t jt = 0; jt < j_tiles; ++jt) tile_at(it, jt);
          }
        }
      }
    }
  };
  if (pack != nullptr) {
    run_blocks(0, blocks, pack);
    return;
  }
  WorkerScratch scratch(Arena::Global(),
                        std::min<int64_t>(ParallelWidth(), blocks),
                        layout.floats);
  ParallelFor(0, blocks, 1, [&](int64_t blk0, int64_t blk1) {
    const WorkerScratch::Slot slot = scratch.Claim();
    run_blocks(blk0, blk1, slot.data());
  });
}

}  // namespace

void GemmRowMajor(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
                  const float* b, int64_t ldb, float* c, int64_t ldc,
                  bool accumulate) {
  GemmBlocked(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

void GemmEdgeTile(bool vectorized, int64_t mr, int64_t nr, int64_t kc,
                  const float* a, const float* b, float* c, int64_t ldc,
                  bool first) {
  ET_CHECK(mr >= 1 && mr <= kMR && nr >= 1 && nr < kNR);
  const PackedTileA packed(a, kc);
  if (vectorized) {
    ET_CHECK(MicroKernels().avx2) << "the AVX2 edge tile needs avx2+fma";
    MicroKernels().packed_edge(mr, nr, packed.a, b, c, ldc, first);
  } else {
    TileScalar<kMR>(mr, nr, packed.a, b, c, ldc, first);
  }
}

namespace {

// ---------------------------------------------------------------------------
// im2col / col2im for the unified geometry. Row r of the col matrix
// corresponds to patch entry (ci, kx, ky, kt); the "same" padding
// appears as zeroed borders.
//
// The input is addressed through per-channel gather tables: channel
// ci of sample n lives at chan_base[ci] + n * chan_stride[ci]. A
// dense tensor is the trivial table; the fused concat fold points
// channels at separate source tensors. The col values read are
// identical either way, which is what makes the fold bitwise-neutral.

// Scatter-add of one input channel's gcol rows (`rows`: its kvol
// patch entries x p positions) onto that channel's gx plane for one
// sample. The k offsets are applied in a fixed order, so every gx
// element accumulates its contributions in the same sequence however
// the channels are distributed over threads.
void Col2ImChannel(const ConvGeom& g, const float* rows, float* gplane) {
  const int64_t p = SpatialVolume(g);
  for (int64_t kx = 0; kx < g.kw; ++kx) {
    const int64_t dxo = kx - g.pw;
    const int64_t x0 = std::max<int64_t>(0, -dxo);
    const int64_t x1 = std::min<int64_t>(g.w, g.w - dxo);
    for (int64_t ky = 0; ky < g.kh; ++ky) {
      const int64_t dyo = ky - g.ph;
      const int64_t y0 = std::max<int64_t>(0, -dyo);
      const int64_t y1 = std::min<int64_t>(g.h, g.h - dyo);
      for (int64_t kt = 0; kt < g.kt; ++kt) {
        const int64_t dto = kt - g.pt;
        const int64_t t0 = std::max<int64_t>(0, -dto);
        const int64_t t1 = std::min<int64_t>(g.t, g.t - dto);
        if (x0 >= x1 || y0 >= y1 || t0 >= t1) continue;
        const float* row = rows + ((kx * g.kh + ky) * g.kt + kt) * p;
        for (int64_t xx = x0; xx < x1; ++xx) {
          for (int64_t yy = y0; yy < y1; ++yy) {
            float* gdst = gplane + ((xx + dxo) * g.h + (yy + dyo)) * g.t + dto;
            const float* gsrc = row + (xx * g.h + yy) * g.t;
            for (int64_t tt = t0; tt < t1; ++tt) gdst[tt] += gsrc[tt];
          }
        }
      }
    }
  }
}

// Transpose pack: src [rows x cols] row-major -> dst [cols x rows].
void PackTranspose(const float* src, int64_t rows, int64_t cols, float* dst) {
  ParallelFor(0, cols, GrainForCost(rows), [&](int64_t c0, int64_t c1) {
    for (int64_t cc = c0; cc < c1; ++cc) {
      float* drow = dst + cc * rows;
      for (int64_t rr = 0; rr < rows; ++rr) drow[rr] = src[rr * cols + cc];
    }
  });
}

// Zero-padded copy of a conv input, [n][ci][w + 2pw][h + 2ph][t + 2pt],
// gathered through the channel tables. In it col row r = (ci, kx, ky,
// kt) of sample n starts at Row(n, r), and position (xx, yy, tt) of
// that row sits at Offset(xx, yy, tt): the "same" padding is real
// zeros, so any run of positions with consecutive offsets is one
// contiguous span. Both GEMMs that consume col read it from here —
// one pass over the input instead of writing the CK x P matrix.
struct PaddedInput {
  const ConvGeom& g;
  int64_t ph2, pt2, pvol;
  ArenaBuffer buf;

  PaddedInput(const ConvGeom& geom, const float* const* chan_base,
              const int64_t* chan_stride)
      : g(geom),
        ph2(geom.h + 2 * geom.ph),
        pt2(geom.t + 2 * geom.pt),
        pvol((geom.w + 2 * geom.pw) * ph2 * pt2),
        buf(Arena::Global(), geom.batch * geom.cin * pvol) {
    float* data = buf.data();
    ParallelFor(0, g.batch * g.cin, GrainForCost(pvol),
                [&](int64_t c0, int64_t c1) {
                  for (int64_t sc = c0; sc < c1; ++sc) {
                    const int64_t ci = sc % g.cin;
                    const float* src =
                        chan_base[ci] + (sc / g.cin) * chan_stride[ci];
                    float* dst = data + sc * pvol;
                    std::memset(dst, 0,
                                static_cast<size_t>(pvol) * sizeof(float));
                    for (int64_t xx = 0; xx < g.w; ++xx) {
                      for (int64_t yy = 0; yy < g.h; ++yy) {
                        std::memcpy(dst + Offset(xx + g.pw, yy + g.ph, g.pt),
                                    src + (xx * g.h + yy) * g.t,
                                    static_cast<size_t>(g.t) * sizeof(float));
                      }
                    }
                  }
                });
  }

  int64_t Offset(int64_t xx, int64_t yy, int64_t tt) const {
    return (xx * ph2 + yy) * pt2 + tt;
  }
  const float* Row(int64_t n, int64_t r) const {
    const int64_t kvol = g.kw * g.kh * g.kt;
    const int64_t rem = r % kvol;
    return buf.data() + (n * g.cin + r / kvol) * pvol +
           Offset(rem / (g.kh * g.kt), (rem / g.kt) % g.kh, rem % g.kt);
  }

  // Splits positions [j0, j1) into maximal runs of consecutive padded
  // offsets, written to off/len (room for j1 - j0 entries); returns
  // the run count.
  int64_t Runs(int64_t j0, int64_t j1, int64_t* off, int64_t* len) const {
    int64_t xx = j0 / (g.h * g.t);
    int64_t yy = (j0 / g.t) % g.h;
    int64_t tt = j0 % g.t;
    int64_t count = 0;
    for (int64_t j = j0; j < j1; ++j) {
      const int64_t o = Offset(xx, yy, tt);
      if (count > 0 && off[count - 1] + len[count - 1] == o) {
        ++len[count - 1];
      } else {
        off[count] = o;
        len[count++] = 1;
      }
      if (++tt == g.t) {
        tt = 0;
        if (++yy == g.h) {
          yy = 0;
          ++xx;
        }
      }
    }
    return count;
  }
};

// Weight-gradient GEMM of the conv backward:
//
//   gWᵀ (CK x Cout) += Σ_n col_n (CK x P) · gY_nᵀ (P x Cout)
//
// The A side is never staged: the direct tiles read each col row in
// place from the padded input (a stride-1 TileA: one base pointer per
// row, one shared list of position runs per k block). Only the small
// gYᵀ panel is packed, straight from gout's rows. For every C element
// the accumulation order is the one GemmBlocked(accumulate) produced
// over the materialized operands — samples in order, then k blocks of
// kKC positions, each a serial k loop into a fresh accumulator added
// onto C — with the same full/partial column tiles, so the result is
// bitwise unchanged. Cout is small (one column block), so the rows
// split at micro-tile granularity when needed to feed every thread.
void ConvWeightGradGemm(const ConvGeom& g, const float* const* chan_base,
                        const int64_t* chan_stride, const float* gout,
                        float* gwt) {
  const int64_t p = SpatialVolume(g);
  const int64_t m = PatchSize(g);
  const int64_t n = g.cout;
  const PaddedInput x(g, chan_base, chan_stride);
  const MicroKernelTable& micro = MicroKernels();
  const int64_t nb_count = (n + kNB - 1) / kNB;
  const RowBlocks rows(m, nb_count, g.batch * p * n);
  const int64_t max_jt = (std::min(n, kNB) + kNR - 1) / kNR;
  const int64_t max_kc = std::min(p, kKC);
  const int64_t blocks = rows.count * nb_count;
  WorkerScratch scratch(Arena::Global(),
                        std::min<int64_t>(ParallelWidth(), blocks),
                        max_jt * max_kc * kNR);
  ParallelFor(
      0, blocks, 1, [&](int64_t blk0, int64_t blk1) {
        const WorkerScratch::Slot bpack = scratch.Claim();
        int64_t run_off[kKC], run_len[kKC];
        for (int64_t blk = blk0; blk < blk1; ++blk) {
          const int64_t mb = blk / nb_count;
          const int64_t nb = blk % nb_count;
          const int64_t i_begin = rows.begin(mb);
          const int64_t i_end = rows.end(mb);
          const int64_t j_begin = nb * kNB;
          const int64_t j_end = std::min(n, j_begin + kNB);
          const int64_t j_tiles = (j_end - j_begin + kNR - 1) / kNR;
          for (int64_t s = 0; s < g.batch; ++s) {
            const float* gy = gout + s * n * p;
            for (int64_t kc0 = 0; kc0 < p; kc0 += kKC) {
              const int64_t kc = std::min(kKC, p - kc0);
              // B tile jt, line kk: gY[s] at positions kc0 + kk for the
              // tile's channels; channels past n are zero.
              for (int64_t jt = 0; jt < j_tiles; ++jt) {
                const int64_t j0 = j_begin + jt * kNR;
                const int64_t nr = std::min(kNR, j_end - j0);
                float* dst = bpack.data() + jt * kc * kNR;
                for (int64_t j = 0; j < nr; ++j) {
                  const float* src = gy + (j0 + j) * p + kc0;
                  for (int64_t kk = 0; kk < kc; ++kk) {
                    dst[kk * kNR + j] = src[kk];
                  }
                }
                for (int64_t kk = 0; kk < kc; ++kk) {
                  for (int64_t j = nr; j < kNR; ++j) dst[kk * kNR + j] = 0.0f;
                }
              }
              TileA a;
              a.seg_off = run_off;
              a.seg_len = run_len;
              a.segs = x.Runs(kc0, kc0 + kc, run_off, run_len);
              for (int64_t i0 = i_begin; i0 < i_end; i0 += kMR) {
                const int64_t mr = std::min(kMR, i_end - i0);
                for (int64_t i = 0; i < mr; ++i) a.row[i] = x.Row(s, i0 + i);
                for (int64_t jt = 0; jt < j_tiles; ++jt) {
                  const int64_t j0 = j_begin + jt * kNR;
                  micro.direct(mr, std::min(kNR, j_end - j0), a,
                               bpack.data() + jt * kc * kNR, gwt + i0 * n + j0,
                               n, /*first=*/false);
                }
              }
            }
          }
        }
      });
}

}  // namespace

// ---------------------------------------------------------------------------
// Convolution drivers.

// Fused forward: never materializes the full col matrix. For each
// (sample, column block) work item and k block, every 16-column tile
// reads its B lines from the padded input: in place (RowsB) when each
// 8-column half is one contiguous run — every tile when lines are 24
// positions long, since a 16-wide tile then breaks between lines only
// at its middle; otherwise (and for the final partial tile) staged
// into one recycled tile buffer first. W is packed once per call.
// Each B tile is used by every row tile before moving on.
void SimdConvForwardGather(const SimdConvGeom& g, const float* const* chan_base,
                           const int64_t* chan_stride, const float* w,
                           float* out) {
  const int64_t p = SpatialVolume(g);
  const int64_t ck = PatchSize(g);
  const int64_t m = g.cout;
  const MicroKernelTable& micro = MicroKernels();
  const int64_t i_tiles = (m + kMR - 1) / kMR;
  const int64_t nb_count = (p + kNB - 1) / kNB;
  const int64_t max_kc = std::min(ck, kKC);
  const PaddedInput x(g, chan_base, chan_stride);
  // Pack W once: [k_block][i_tile][kk][kMR], shared by every block.
  ArenaBuffer apack(Arena::Global(), i_tiles * ck * kMR);
  for (int64_t kc0 = 0; kc0 < ck; kc0 += kKC) {
    const int64_t kc = std::min(kKC, ck - kc0);
    for (int64_t it = 0; it < i_tiles; ++it) {
      const int64_t i0 = it * kMR;
      const int64_t mr = std::min(kMR, m - i0);
      float* dst = apack.data() + kc0 * i_tiles * kMR + it * kc * kMR;
      for (int64_t i = 0; i < mr; ++i) {
        const float* srow = w + (i0 + i) * ck + kc0;
        for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kMR + i] = srow[kk];
      }
    }
  }
  // One work item per (sample, column block); owners write disjoint
  // output blocks in a fixed k order, so any thread count produces
  // bitwise-identical results.
  const int64_t items = g.batch * nb_count;
  WorkerScratch scratch(Arena::Global(),
                        std::min<int64_t>(ParallelWidth(), items),
                        max_kc * kNR);
  ParallelFor(
      0, items, 1, [&](int64_t blk0, int64_t blk1) {
        const WorkerScratch::Slot staged = scratch.Claim();
        const float* row[kKC];
        int64_t run_off[kNR], run_len[kNR];
        for (int64_t blk = blk0; blk < blk1; ++blk) {
          const int64_t n = blk / nb_count;
          const int64_t nb = blk % nb_count;
          float* cn = out + n * m * p;
          const int64_t j_begin = nb * kNB;
          const int64_t j_end = std::min(p, j_begin + kNB);
          for (int64_t kc0 = 0; kc0 < ck; kc0 += kKC) {
            const int64_t kc = std::min(kKC, ck - kc0);
            const bool first = (kc0 == 0);
            const float* ablk = apack.data() + kc0 * i_tiles * kMR;
            for (int64_t kk = 0; kk < kc; ++kk) row[kk] = x.Row(n, kc0 + kk);
            for (int64_t j0 = j_begin; j0 < j_end; j0 += kNR) {
              const int64_t nr = std::min(kNR, j_end - j0);
              if (nr == kNR && x.Runs(j0, j0 + 8, run_off, run_len) == 1 &&
                  x.Runs(j0 + 8, j0 + kNR, run_off + 1, run_len + 1) == 1) {
                const RowsB b{row, run_off[0], run_off[1]};
                for (int64_t it = 0; it < i_tiles; ++it) {
                  micro.by_rows_in_place[std::min(kMR, m - it * kMR)](
                      kc, ablk + it * kc * kMR, b, cn + it * kMR * p + j0, p,
                      first);
                }
                continue;
              }
              // Stage the tile, its dead columns zeroed so full-width
              // loads are safe.
              const int64_t runs = x.Runs(j0, j0 + nr, run_off, run_len);
              float* dst = staged.data();
              for (int64_t kk = 0; kk < kc; ++kk, dst += kNR) {
                int64_t q = 0;
                for (int64_t ri = 0; ri < runs; ++ri) {
                  for (int64_t e = 0; e < run_len[ri]; ++e, ++q) {
                    dst[q] = row[kk][run_off[ri] + e];
                  }
                }
                for (; q < kNR; ++q) dst[q] = 0.0f;
              }
              for (int64_t it = 0; it < i_tiles; ++it) {
                RunTile(micro, std::min(kMR, m - it * kMR), nr, kc,
                        ablk + it * kc * kMR, staged.data(),
                        cn + it * kMR * p + j0, p, first);
              }
            }
          }
        }
      });
}

void SimdConvBackwardGather(const SimdConvGeom& g,
                            const float* const* chan_base,
                            const int64_t* chan_stride, const float* w,
                            const float* gout, float* const* gx_base,
                            const int64_t* gx_stride, float* gw) {
  const int64_t p = SpatialVolume(g);
  const int64_t ck = PatchSize(g);
  if (gx_base) {
    // gcol = Wᵀ · gY, then scatter back onto the input grid — one
    // input channel at a time, so the channel's kvol x p slab of gcol
    // is still cache-warm when Col2ImChannel reads it (the full CK x P
    // gcol would round-trip through memory). Wᵀ is packed contiguous
    // once per call so the GEMMs run unit-stride. Splitting the GEMM
    // by rows changes no gcol bit, and each gx element still receives
    // its contributions in the serial k-offset order, so any thread
    // count produces identical results. With at least as many
    // channels as threads the channels run in parallel (each GEMM then
    // runs serially inside its owner); otherwise the GEMMs parallelize.
    const int64_t kvol = g.kw * g.kh * g.kt;
    ArenaBuffer wt(Arena::Global(), ck * g.cout);
    PackTranspose(w, g.cout, ck, wt.data());
    // `pack`: GEMM scratch when the channels run in parallel (each
    // GEMM then runs inline in its owner), else null.
    const auto channels = [&](int64_t c0, int64_t c1, float* gcol,
                              float* pack) {
      for (int64_t ci = c0; ci < c1; ++ci) {
        if (gx_base[ci] == nullptr) continue;
        for (int64_t n = 0; n < g.batch; ++n) {
          GemmBlocked(kvol, p, g.cout, wt.data() + ci * kvol * g.cout, g.cout,
                      gout + n * g.cout * p, p, gcol, p,
                      /*accumulate=*/false, pack);
          Col2ImChannel(g, gcol, gx_base[ci] + n * gx_stride[ci]);
        }
      }
    };
    if (g.cin >= NumThreads()) {
      const int64_t gcol_floats = (kvol * p + 15) / 16 * 16;
      WorkerScratch scratch(Arena::Global(),
                            std::min<int64_t>(ParallelWidth(), g.cin),
                            gcol_floats + GemmPackFloats(p, g.cout));
      ParallelFor(0, g.cin, 1, [&](int64_t c0, int64_t c1) {
        const WorkerScratch::Slot slot = scratch.Claim();
        channels(c0, c1, slot.data(), slot.data() + gcol_floats);
      });
    } else {
      ArenaBuffer gcol(Arena::Global(), kvol * p);
      channels(0, g.cin, gcol.data(), nullptr);
    }
  }
  if (gw) {
    // gWᵀ += col · gYᵀ, accumulated over the batch, transposed onto gw
    // at the end. The transposed product puts the col rows on the A
    // side, where the direct tiles read them in place, and the narrow
    // Cout on the column side.
    ArenaBuffer gwt(Arena::Global(), ck * g.cout);
    std::memset(gwt.data(), 0,
                static_cast<size_t>(ck * g.cout) * sizeof(float));
    ConvWeightGradGemm(g, chan_base, chan_stride, gout, gwt.data());
    const float* gwt_data = gwt.data();
    for (int64_t co = 0; co < g.cout; ++co) {
      for (int64_t r = 0; r < ck; ++r) {
        gw[co * ck + r] += gwt_data[r * g.cout + co];
      }
    }
  }
}

namespace {

// Dense-tensor wrappers: one gather table per call (cin pointer
// entries — ordinary small vectors, not arena leases).
void DenseChanTable(const Tensor& x, int64_t cin, int64_t p,
                    std::vector<const float*>* base,
                    std::vector<int64_t>* stride) {
  base->resize(cin);
  stride->assign(cin, cin * p);
  for (int64_t ci = 0; ci < cin; ++ci) (*base)[ci] = x.data() + ci * p;
}

void SimdConvForward(const ConvGeom& g, const Tensor& x, const Tensor& w,
                     Tensor* out) {
  const int64_t p = SpatialVolume(g);
  std::vector<const float*> base;
  std::vector<int64_t> stride;
  DenseChanTable(x, g.cin, p, &base, &stride);
  SimdConvForwardGather(g, base.data(), stride.data(), w.data(), out->data());
}

void SimdConvBackward(const ConvGeom& g, const Tensor& x, const Tensor& w,
                      const Tensor& gout, Tensor* gx, Tensor* gw) {
  const int64_t p = SpatialVolume(g);
  std::vector<const float*> base;
  std::vector<int64_t> stride;
  DenseChanTable(x, g.cin, p, &base, &stride);
  std::vector<float*> gx_base;
  std::vector<int64_t> gx_stride;
  if (gx) {
    gx_base.resize(g.cin);
    gx_stride.assign(g.cin, g.cin * p);
    for (int64_t ci = 0; ci < g.cin; ++ci) gx_base[ci] = gx->data() + ci * p;
  }
  SimdConvBackwardGather(g, base.data(), stride.data(), w.data(), gout.data(),
                         gx ? gx_base.data() : nullptr,
                         gx ? gx_stride.data() : nullptr,
                         gw ? gw->data() : nullptr);
}

ConvGeom GeomFrom(const Conv1dDims& d) {
  return {d.batch, d.cin, d.cout, 1, 1, d.t, 1, 1, d.k, 0, 0, d.pad};
}
ConvGeom GeomFrom(const Conv2dDims& d) {
  return {d.batch, d.cin, d.cout, d.w, d.h, 1, d.k, d.k, 1, d.pad, d.pad, 0};
}
ConvGeom GeomFrom(const Conv3dDims& d) {
  return {d.batch, d.cin,  d.cout, d.w,   d.h,   d.t,
          d.k,     d.k,    d.k,    d.pad, d.pad, d.pad};
}

// Registered entry points: backend-tagged span + dispatch counter,
// then the shared driver.

void SimdConv1dFwd(const Conv1dDims& d, const Tensor& x, const Tensor& w,
                   Tensor* out) {
  ET_TRACE_SPAN("conv1d.fwd.fast");
  ET_METRIC_COUNTER_ADD("kernel.conv1d_fwd.fast", 1);
  SimdConvForward(GeomFrom(d), x, w, out);
}
void SimdConv1dBwd(const Conv1dDims& d, const Tensor& x, const Tensor& w,
                   const Tensor& gout, Tensor* gx, Tensor* gw) {
  ET_TRACE_SPAN("conv1d.bwd.fast");
  ET_METRIC_COUNTER_ADD("kernel.conv1d_bwd.fast", 1);
  SimdConvBackward(GeomFrom(d), x, w, gout, gx, gw);
}
void SimdConv2dFwd(const Conv2dDims& d, const Tensor& x, const Tensor& w,
                   Tensor* out) {
  ET_TRACE_SPAN("conv2d.fwd.fast");
  ET_METRIC_COUNTER_ADD("kernel.conv2d_fwd.fast", 1);
  SimdConvForward(GeomFrom(d), x, w, out);
}
void SimdConv2dBwd(const Conv2dDims& d, const Tensor& x, const Tensor& w,
                   const Tensor& gout, Tensor* gx, Tensor* gw) {
  ET_TRACE_SPAN("conv2d.bwd.fast");
  ET_METRIC_COUNTER_ADD("kernel.conv2d_bwd.fast", 1);
  SimdConvBackward(GeomFrom(d), x, w, gout, gx, gw);
}
void SimdConv3dFwd(const Conv3dDims& d, const Tensor& x, const Tensor& w,
                   Tensor* out) {
  ET_TRACE_SPAN("conv3d.fwd.fast");
  ET_METRIC_COUNTER_ADD("kernel.conv3d_fwd.fast", 1);
  SimdConvForward(GeomFrom(d), x, w, out);
}
void SimdConv3dBwd(const Conv3dDims& d, const Tensor& x, const Tensor& w,
                   const Tensor& gout, Tensor* gx, Tensor* gw) {
  ET_TRACE_SPAN("conv3d.bwd.fast");
  ET_METRIC_COUNTER_ADD("kernel.conv3d_bwd.fast", 1);
  SimdConvBackward(GeomFrom(d), x, w, gout, gx, gw);
}

void SimdMatMul(const MatMulSpec& s, const float* a, const float* b, float* c) {
  ET_TRACE_SPAN("matmul.fast");
  ET_METRIC_COUNTER_ADD("kernel.matmul.fast", 1);
  // Transposed operands are packed contiguous (arena scratch) so the
  // blocked kernel always runs on unit-stride rows.
  ArenaBuffer apack, bpack;
  const float* aeff = a;
  const float* beff = b;
  if (s.trans_a) {
    apack = ArenaBuffer(Arena::Global(), s.m * s.k);
    PackTranspose(a, s.k, s.m, apack.data());
    aeff = apack.data();
  }
  if (s.trans_b) {
    bpack = ArenaBuffer(Arena::Global(), s.k * s.n);
    PackTranspose(b, s.n, s.k, bpack.data());
    beff = bpack.data();
  }
  GemmRowMajor(s.m, s.n, s.k, aeff, s.k, beff, s.n, c, s.n, s.accumulate);
}

}  // namespace

bool SimdKernelsUseAvx2() { return MicroKernels().avx2; }

void RegisterSimdKernels() {
  static const bool registered = [] {
    RegisterKernelFn<Conv1dFwdFn>("conv1d_fwd", "fast", SimdConv1dFwd);
    RegisterKernelFn<Conv1dBwdFn>("conv1d_bwd", "fast", SimdConv1dBwd);
    RegisterKernelFn<Conv2dFwdFn>("conv2d_fwd", "fast", SimdConv2dFwd);
    RegisterKernelFn<Conv2dBwdFn>("conv2d_bwd", "fast", SimdConv2dBwd);
    RegisterKernelFn<Conv3dFwdFn>("conv3d_fwd", "fast", SimdConv3dFwd);
    RegisterKernelFn<Conv3dBwdFn>("conv3d_bwd", "fast", SimdConv3dBwd);
    RegisterKernelFn<MatMulFn>("matmul", "fast", SimdMatMul);
    ET_METRIC_GAUGE_SET("backend.simd.avx2", SimdKernelsUseAvx2() ? 1.0 : 0.0);
    return true;
  }();
  (void)registered;
}

}  // namespace backend
}  // namespace equitensor
