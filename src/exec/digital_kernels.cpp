// Register-blocked digital conv and dense kernels (see digital_kernels.h for
// the exactness contract), built like exec/simd_target.cpp: one always-inline
// template body, instantiated per ISA level under GCC target attributes and
// picked from a level-major table per call.
//
// Each block keeps eight vector accumulators live at every level, so the
// rows per block scale inversely with the vector width: a conv block is
// MR output channels x 16 pixels of floats, a dense block MR input rows x 16
// outputs of doubles.
//
// This translation unit must stay contraction-free (src/CMakeLists.txt and
// the avx attributes): a fused multiply-add would round differently from the
// scalar loops and break the contract.
#include "exec/digital_kernels.h"

#include <algorithm>
#include <cstring>

#include "exec/target.h"

namespace cn::exec::digital {
namespace {

// Full unrolling of the constant-trip block loops keeps the accumulator
// blocks in registers.
#define CN_UNROLL _Pragma("GCC unroll 16")

// GCC/Clang generic vectors at each level's native width; the target
// attribute of the instantiating function maps them onto xmm, ymm or zmm
// registers. Element-wise arithmetic on them is exactly the scalar
// float/double arithmetic.
typedef float F4 __attribute__((vector_size(16)));
typedef float F8 __attribute__((vector_size(32)));
typedef float F16 __attribute__((vector_size(64)));
typedef double D2 __attribute__((vector_size(16)));
typedef double D4 __attribute__((vector_size(32)));
typedef double D8 __attribute__((vector_size(64)));

// MR output channels x one 16-pixel block per k step, in 16 / lanes(V)
// vectors per channel. ZSKIP: some weight of the block is zero, so each
// (row, k) term is tested and skipped — adding 0*col could turn a -0
// accumulator into +0 or an inf column into NaN.
template <typename V, int MR, bool ZSKIP>
[[gnu::always_inline]] inline void conv_rows_impl(const float* w, const float* bias,
                                                  int64_t k, const float* cols,
                                                  int64_t ldc, int64_t nd, bool relu,
                                                  float* out) {
  constexpr int L = sizeof(V) / sizeof(float), NV = kBlock / L;
  for (int64_t j0 = 0; j0 < nd; j0 += kBlock) {
    V acc[MR][NV];
    CN_UNROLL
    for (int r = 0; r < MR; ++r)
      CN_UNROLL
      for (int v = 0; v < NV; ++v)
        CN_UNROLL
        for (int l = 0; l < L; ++l) acc[r][v][l] = bias[r];
    for (int64_t kk = 0; kk < k; ++kk) {
      V c[NV];
      CN_UNROLL
      for (int v = 0; v < NV; ++v)
        std::memcpy(&c[v], cols + kk * ldc + j0 + v * L, sizeof(V));
      CN_UNROLL
      for (int r = 0; r < MR; ++r) {
        const float wv = w[r * k + kk];
        if (ZSKIP && wv == 0.0f) continue;
        CN_UNROLL
        for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + wv * c[v];
      }
    }
    if (relu) {  // std::max(x, 0.0f): NaN and -0 pass through
      CN_UNROLL
      for (int r = 0; r < MR; ++r)
        CN_UNROLL
        for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] < 0.0f ? V{} : acc[r][v];
    }
    float* o = out + j0;
    if (nd - j0 >= kBlock) {
      CN_UNROLL
      for (int r = 0; r < MR; ++r)
        CN_UNROLL
        for (int v = 0; v < NV; ++v)
          std::memcpy(o + r * nd + v * L, &acc[r][v], sizeof(V));
    } else {
      CN_UNROLL
      for (int r = 0; r < MR; ++r)
        for (int64_t j = 0; j < nd - j0; ++j) o[r * nd + j] = acc[r][j / L][j % L];
    }
  }
}

// MR input rows x one 16-output panel per k step, double accumulators in
// 16 / lanes(D) vectors per row.
template <typename D, int MR>
[[gnu::always_inline]] inline void dense_rows_impl(const float* a, int64_t k,
                                                   const double* packed, int64_t n,
                                                   const float* bias, bool relu,
                                                   float* c) {
  constexpr int L = sizeof(D) / sizeof(double), NV = kBlock / L;
  for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
    const double* panel = packed + j0 * k;
    D acc[MR][NV] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
      D b[NV];
      CN_UNROLL
      for (int v = 0; v < NV; ++v)
        std::memcpy(&b[v], panel + kk * kBlock + v * L, sizeof(D));
      CN_UNROLL
      for (int r = 0; r < MR; ++r) {
        const double av = static_cast<double>(a[r * k + kk]);
        CN_UNROLL
        for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + av * b[v];
      }
    }
    const int64_t nj = std::min<int64_t>(kBlock, n - j0);
    CN_UNROLL
    for (int r = 0; r < MR; ++r) {
      float* crow = c + r * n + j0;
      for (int64_t j = 0; j < nj; ++j) {
        float v = static_cast<float>(acc[r][j / L][j % L]);
        if (bias) v += bias[j0 + j];
        crow[j] = relu ? std::max(v, 0.0f) : v;
      }
    }
  }
}

// Packs the nj (<= 16) rows at b, times f when FACTORS, into one panel (see
// pack_nt). Full panels take the constant-width loop, which the wider
// levels turn into one vector multiply, widen and store per k.
template <bool FACTORS>
[[gnu::always_inline]] inline void pack_panel_impl(const float* b, const float* f,
                                                   int64_t nj, int64_t k, double* panel) {
  if (nj == kBlock) {
    for (int64_t kk = 0; kk < k; ++kk)
      CN_UNROLL
      for (int j = 0; j < kBlock; ++j)
        panel[kk * kBlock + j] = FACTORS ? b[j * k + kk] * f[j * k + kk] : b[j * k + kk];
    return;
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    double* dst = panel + kk * kBlock;
    for (int64_t j = 0; j < nj; ++j)
      dst[j] = FACTORS ? b[j * k + kk] * f[j * k + kk] : b[j * k + kk];
    std::fill(dst + nj, dst + kBlock, 0.0);
  }
}

using ConvKernel = void (*)(const float*, const float*, int64_t, const float*, int64_t,
                            int64_t, bool, float*);
using DenseKernel = void (*)(const float*, int64_t, const double*, int64_t,
                             const float*, bool, float*);
using PackKernel = void (*)(const float*, const float*, int64_t, int64_t, double*);

template <int MR, bool ZSKIP>
void conv_rows_generic(const float* w, const float* bias, int64_t k, const float* cols,
                       int64_t ldc, int64_t nd, bool relu, float* out) {
  conv_rows_impl<F4, MR, ZSKIP>(w, bias, k, cols, ldc, nd, relu, out);
}
template <int MR>
void dense_rows_generic(const float* a, int64_t k, const double* packed, int64_t n,
                        const float* bias, bool relu, float* c) {
  dense_rows_impl<D2, MR>(a, k, packed, n, bias, relu, c);
}

template <bool FACTORS>
void pack_panel_generic(const float* b, const float* f, int64_t nj, int64_t k,
                        double* panel) {
  pack_panel_impl<FACTORS>(b, f, nj, k, panel);
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
template <int MR, bool ZSKIP>
__attribute__((target("avx2"), optimize("fp-contract=off"))) void conv_rows_avx2(
    const float* w, const float* bias, int64_t k, const float* cols, int64_t ldc,
    int64_t nd, bool relu, float* out) {
  conv_rows_impl<F8, MR, ZSKIP>(w, bias, k, cols, ldc, nd, relu, out);
}
template <int MR, bool ZSKIP>
__attribute__((target("avx512f"), optimize("fp-contract=off"))) void conv_rows_avx512(
    const float* w, const float* bias, int64_t k, const float* cols, int64_t ldc,
    int64_t nd, bool relu, float* out) {
  conv_rows_impl<F16, MR, ZSKIP>(w, bias, k, cols, ldc, nd, relu, out);
}
template <int MR>
__attribute__((target("avx2"), optimize("fp-contract=off"))) void dense_rows_avx2(
    const float* a, int64_t k, const double* packed, int64_t n, const float* bias,
    bool relu, float* c) {
  dense_rows_impl<D4, MR>(a, k, packed, n, bias, relu, c);
}
template <int MR>
__attribute__((target("avx512f"), optimize("fp-contract=off"))) void dense_rows_avx512(
    const float* a, int64_t k, const double* packed, int64_t n, const float* bias,
    bool relu, float* c) {
  dense_rows_impl<D8, MR>(a, k, packed, n, bias, relu, c);
}
template <bool FACTORS>
__attribute__((target("avx2"))) void pack_panel_avx2(const float* b, const float* f,
                                                     int64_t nj, int64_t k,
                                                     double* panel) {
  pack_panel_impl<FACTORS>(b, f, nj, k, panel);
}
template <bool FACTORS>
__attribute__((target("avx512f"))) void pack_panel_avx512(const float* b, const float* f,
                                                          int64_t nj, int64_t k,
                                                          double* panel) {
  pack_panel_impl<FACTORS>(b, f, nj, k, panel);
}
#define CN_CONV_AVX2 conv_rows_avx2
#define CN_CONV_AVX512 conv_rows_avx512
#define CN_DENSE_AVX2 dense_rows_avx2
#define CN_DENSE_AVX512 dense_rows_avx512
#define CN_PACK_AVX2 pack_panel_avx2
#define CN_PACK_AVX512 pack_panel_avx512
#else
#define CN_CONV_AVX2 conv_rows_generic
#define CN_CONV_AVX512 conv_rows_generic
#define CN_DENSE_AVX2 dense_rows_generic
#define CN_DENSE_AVX512 dense_rows_generic
#define CN_PACK_AVX2 pack_panel_generic
#define CN_PACK_AVX512 pack_panel_generic
#endif

// Rows per block at each level (generic, avx2, avx512f): eight accumulator
// registers of 4 / 8 / 16 floats, or of 2 / 4 / 8 doubles.
constexpr int kConvRows[3] = {2, 4, 8};
constexpr int kDenseRows[3] = {1, 2, 4};

#define CN_CONV_LEVEL(fn)                                                          \
  {{fn<1, false>, fn<2, false>, fn<3, false>, fn<4, false>, fn<5, false>,          \
    fn<6, false>, fn<7, false>, fn<8, false>},                                     \
   {fn<1, true>, fn<2, true>, fn<3, true>, fn<4, true>, fn<5, true>, fn<6, true>,  \
    fn<7, true>, fn<8, true>}}

// [level][block has a zero weight][rows - 1]
const ConvKernel kConvTable[3][2][8] = {
    CN_CONV_LEVEL(conv_rows_generic),
    CN_CONV_LEVEL(CN_CONV_AVX2),
    CN_CONV_LEVEL(CN_CONV_AVX512),
};

// [level][rows - 1]
const DenseKernel kDenseTable[3][4] = {
    {dense_rows_generic<1>, dense_rows_generic<2>, dense_rows_generic<3>,
     dense_rows_generic<4>},
    {CN_DENSE_AVX2<1>, CN_DENSE_AVX2<2>, CN_DENSE_AVX2<3>, CN_DENSE_AVX2<4>},
    {CN_DENSE_AVX512<1>, CN_DENSE_AVX512<2>, CN_DENSE_AVX512<3>, CN_DENSE_AVX512<4>},
};
// [level][with factors]
const PackKernel kPackTable[3][2] = {
    {pack_panel_generic<false>, pack_panel_generic<true>},
    {CN_PACK_AVX2<false>, CN_PACK_AVX2<true>},
    {CN_PACK_AVX512<false>, CN_PACK_AVX512<true>},
};
#undef CN_CONV_LEVEL
#undef CN_UNROLL

}  // namespace

void conv_gemm(const float* w, const float* bias, int64_t m, int64_t k,
               const float* cols, int64_t ldc, int64_t nd, bool relu, float* out) {
  const int level = simd::current_level();
  for (int64_t r0 = 0; r0 < m;) {
    const int64_t mr = std::min<int64_t>(kConvRows[level], m - r0);
    const float* wb = w + r0 * k;
    const bool has_zero = std::find(wb, wb + mr * k, 0.0f) != wb + mr * k;
    kConvTable[level][has_zero][mr - 1](wb, bias + r0, k, cols, ldc, nd, relu,
                                        out + r0 * nd);
    r0 += mr;
  }
}

int64_t packed_nt_size(int64_t n, int64_t k) { return round_up_block(n) * k; }

void pack_nt(const float* b, const float* f, int64_t n, int64_t k, double* packed) {
  const PackKernel pack = kPackTable[simd::current_level()][f != nullptr];
  for (int64_t j0 = 0; j0 < n; j0 += kBlock)
    pack(b + j0 * k, f ? f + j0 * k : nullptr, std::min<int64_t>(kBlock, n - j0), k,
         packed + j0 * k);
}

void matmul_nt_packed(const float* a, int64_t m, int64_t k, const double* packed,
                      int64_t n, const float* bias, bool relu, float* c) {
  const int level = simd::current_level();
  for (int64_t r0 = 0; r0 < m;) {
    const int64_t mr = std::min<int64_t>(kDenseRows[level], m - r0);
    kDenseTable[level][mr - 1](a + r0 * k, k, packed, n, bias, relu, c + r0 * n);
    r0 += mr;
  }
}

}  // namespace cn::exec::digital
