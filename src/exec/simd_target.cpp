// The simd kernel family: register-blocked current kernels at three ISA
// levels (generic / avx2 / avx512f), the batched path's one tile kernel
// ("simd", see target.h). Dispatch picks the widest supported level per
// call, or the level forced via exec::simd::force_level (how the parity
// tests run every level).
//
// The avx levels accumulate with explicit fused multiply-adds and still match
// the scalar matvec path bit for bit: every term is a float voltage times a
// float conductance, widened to double, and that product (at most 48
// significant bits, exponent far inside double range) is exact, so
// fma(v, g, acc) rounds once exactly where acc + v * g does — signed zeros,
// infinities and NaN classes included. The generic level keeps
// multiply-then-add, so the per-level parity suites test the argument. The
// translation unit itself stays contraction-free (src/CMakeLists.txt): no
// other a*b + c in it may fuse behind the code's back.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "exec/target.h"

namespace cn::exec {
namespace {

// Register-blocked current accumulation for RB input items at once: one
// pass over the tile's conductances serves RB items, and per-(item, column)
// accumulators keep the exact wordline summation order of the scalar path.
// The voltages are widened to double once per call into the worker's buffer
// `v`, so every column block broadcasts them straight from memory instead
// of converting them again (packing and register blocking after Goto & van
// de Geijn, ACM TOMS 34(3), 2008). The conductances stay floats and each
// wordline's 8 per side are widened in registers (exact): the small-batch
// layers stream the whole tile for a few items, so their speed is the bytes
// per conductance. Adding a zero-voltage term is a bitwise no-op for these
// sums (products are +/-normal or signed zero; round-to-nearest never flips
// an accumulator to -0), so the scalar path's v == 0 skip does not change
// results. The g arrays carry 8 floats of end padding: lanes past `cols`
// compute garbage that is simply not written back. FMA: fuse each
// multiply-add (bit-identical, see the header comment; only for levels
// whose target has the instruction).
template <int RB, bool FMA>
[[gnu::always_inline]] inline void block_currents_impl(
    const float* gp, const float* gn, int64_t rows, int64_t cols,
    const float* x, int64_t xis, int64_t xws, double* v, float* cur,
    int64_t ldcur) {
  // v[r * RB + i] for item i at wordline r, the order the column blocks
  // broadcast them in. Column-major batches (xis == 1, im2col) load each
  // wordline's RB voltages as one vector.
  if (xis == 1) {
    for (int64_t r = 0; r < rows; ++r)
      for (int i = 0; i < RB; ++i)
        v[r * RB + i] = static_cast<double>(x[r * xws + i]);
  } else {
    for (int64_t r = 0; r < rows; ++r)
      for (int i = 0; i < RB; ++i)
        v[r * RB + i] = static_cast<double>(x[i * xis + r * xws]);
  }
  for (int64_t c0 = 0; c0 < cols; c0 += 8) {
    double accp[RB][8] = {}, accn[RB][8] = {};
    for (int64_t r = 0; r < rows; ++r) {
      double gpr[8], gnr[8];
      for (int c = 0; c < 8; ++c) {
        gpr[c] = static_cast<double>(gp[r * cols + c0 + c]);
        gnr[c] = static_cast<double>(gn[r * cols + c0 + c]);
      }
      const double* vr = v + r * RB;
      for (int c = 0; c < 8; ++c) {
        const double gpc = gpr[c], gnc = gnr[c];
        for (int i = 0; i < RB; ++i) {
          if constexpr (FMA) {
            accp[i][c] = __builtin_fma(vr[i], gpc, accp[i][c]);
            accn[i][c] = __builtin_fma(vr[i], gnc, accn[i][c]);
          } else {
            accp[i][c] += vr[i] * gpc;
            accn[i][c] += vr[i] * gnc;
          }
        }
      }
    }
    const int64_t cc = std::min<int64_t>(8, cols - c0);
    for (int i = 0; i < RB; ++i)
      for (int64_t c = 0; c < cc; ++c)
        cur[i * ldcur + c0 + c] = static_cast<float>(accp[i][c] - accn[i][c]);
  }
}

template <int RB>
void block_currents_generic(const float* gp, const float* gn, int64_t rows,
                            int64_t cols, const float* x, int64_t xis,
                            int64_t xws, double* v, float* cur, int64_t ldcur) {
  block_currents_impl<RB, false>(gp, gn, rows, cols, x, xis, xws, v, cur, ldcur);
}

using BlockKernel = void (*)(const float*, const float*, int64_t, int64_t,
                             const float*, int64_t, int64_t, double*, float*,
                             int64_t);

// Wider SIMD variants with fused multiply-adds, dispatched at runtime.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
template <int RB>
__attribute__((target("avx2,fma"))) void block_currents_avx2(
    const float* gp, const float* gn, int64_t rows, int64_t cols,
    const float* x, int64_t xis, int64_t xws, double* v, float* cur,
    int64_t ldcur) {
  block_currents_impl<RB, true>(gp, gn, rows, cols, x, xis, xws, v, cur, ldcur);
}

template <int RB>
__attribute__((target("avx512f,fma"))) void block_currents_avx512(
    const float* gp, const float* gn, int64_t rows, int64_t cols,
    const float* x, int64_t xis, int64_t xws, double* v, float* cur,
    int64_t ldcur) {
  block_currents_impl<RB, true>(gp, gn, rows, cols, x, xis, xws, v, cur, ldcur);
}

#define CN_HAVE_X86_TARGETS 1
#else
#define CN_HAVE_X86_TARGETS 0
#endif

// One kernel per ISA level (level-major: generic, avx2, avx512f) and item
// count, so dispatch can be forced per level for the parity tests. Builds
// without x86 target attributes alias every level to the generic kernels.
#define CN_KERNEL_LEVEL(fn) \
  {fn<1>, fn<2>, fn<3>, fn<4>, fn<5>, fn<6>, fn<7>, fn<8>}

const BlockKernel kKernelTable[3][8] = {
    CN_KERNEL_LEVEL(block_currents_generic),
#if CN_HAVE_X86_TARGETS
    CN_KERNEL_LEVEL(block_currents_avx2),
    CN_KERNEL_LEVEL(block_currents_avx512),
#else
    CN_KERNEL_LEVEL(block_currents_generic),
    CN_KERNEL_LEVEL(block_currents_generic),
#endif
};
#undef CN_KERNEL_LEVEL

int detect_level() {
#if CN_HAVE_X86_TARGETS
  if (!__builtin_cpu_supports("fma")) return 0;
  if (__builtin_cpu_supports("avx512f")) return 2;
  if (__builtin_cpu_supports("avx2")) return 1;
#endif
  return 0;
}

// -1 = auto (host detection); otherwise a forced level.
std::atomic<int> g_forced_level{-1};

/// One lowered tile: padded copies of the float conductances, executed at
/// the per-call dispatch level.
class SimdTileExec final : public TileExec {
 public:
  explicit SimdTileExec(const TileView& t) : rows_(t.rows), cols_(t.cols) {
    const size_t n = static_cast<size_t>(rows_ * cols_);
    g_pos_.assign(n + 8, 0.0f);
    g_neg_.assign(n + 8, 0.0f);
    std::copy(t.g_pos, t.g_pos + n, g_pos_.begin());
    std::copy(t.g_neg, t.g_neg + n, g_neg_.begin());
  }

  int64_t row_block() const override {
    // AVX-512's 32 registers hold an 8-row accumulator block; narrower ISAs
    // spill past 4 rows.
    return simd::current_level() == 2 ? 8 : 4;
  }

  void currents(const float* x, int64_t nitems, int64_t xis, int64_t xws,
                float* cur, int64_t ldcur, Scratch& scratch) const override {
    std::vector<double>& v = scratch.voltages;
    if (v.size() < static_cast<size_t>(rows_ * nitems))
      v.resize(static_cast<size_t>(rows_ * nitems));
    kKernelTable[simd::current_level()][nitems - 1](
        g_pos_.data(), g_neg_.data(), rows_, cols_, x, xis, xws, v.data(), cur,
        ldcur);
  }

 private:
  int64_t rows_, cols_;
  std::vector<float> g_pos_, g_neg_;
};

class SimdTarget final : public Target {
 public:
  std::string name() const override { return "simd"; }
  bool available() const override { return true; }
  bool bit_exact() const override { return true; }
  std::unique_ptr<TileExec> lower(const TileView& tile) const override {
    return std::make_unique<SimdTileExec>(tile);
  }
};

}  // namespace

namespace simd {

int max_level() {
  static const int max = detect_level();
  return max;
}

bool force_level(int level) {
  if (level < 0 || level > max_level()) return false;
  g_forced_level.store(level, std::memory_order_relaxed);
  return true;
}

void reset_level() { g_forced_level.store(-1, std::memory_order_relaxed); }

int current_level() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  return forced < 0 ? max_level() : forced;
}

}  // namespace simd

const Target& default_target() {
  static const SimdTarget target{};
  return target;
}

const Target& get_target(const std::string& name) {
  if (name != "simd")
    throw std::runtime_error("unknown execution target '" + name +
                             "' (the only one is 'simd')");
  return default_target();
}

std::vector<const Target*> registered_targets() { return {&default_target()}; }

void set_default_target(const std::string& name) { get_target(name); }

}  // namespace cn::exec
