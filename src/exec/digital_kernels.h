// Register-blocked kernels behind the digital eval forward: the Conv2D GEMM
// (`out = bias + W·cols`) and the Dense / cn::matmul_nt product
// (`C = A·Bᵀ`), at the exec::simd ISA levels (generic / avx2 / avx512f),
// dispatched per call on exec::simd::current_level().
//
// Exactness contract — every output element performs the same float
// operations in the same order as the plain scalar loops, so results are
// bit-identical at every level and independent of the blocking (and hence
// of the batch a row is evaluated in):
//  - conv: out = bias; then for k ascending, skipping zero weights,
//    out = out + w*col (float multiply, then float add, never fused); then
//    the optional relu std::max(out, 0.0f).
//  - dense: acc = +0.0 in double; then for k ascending
//    acc = acc + double(a)*double(b); out = float(acc), then out + bias when
//    a bias is given, then the optional relu.
// The implementation is compiled without FMA contraction (src/CMakeLists.txt).
#pragma once

#include <cstdint>

namespace cn::exec::digital {

/// Pixels per conv register block and outputs per packed dense panel.
constexpr int64_t kBlock = 16;

/// n rounded up to a whole number of blocks.
constexpr int64_t round_up_block(int64_t n) {
  return (n + kBlock - 1) / kBlock * kBlock;
}

/// out(m, nd) = bias(m) + w(m, k) · cols(k, nd) under the conv contract,
/// then relu when asked. Rows of `cols` are `ldc` floats apart, where ldc
/// is a multiple of kBlock and >= nd: the pad lanes [nd, ldc) are read but
/// never reach `out`, whatever they hold. `out` is dense (row stride nd).
void conv_gemm(const float* w, const float* bias, int64_t m, int64_t k,
               const float* cols, int64_t ldc, int64_t nd, bool relu,
               float* out);

/// Doubles pack_nt writes for an (n, k) matrix: round_up_block(n) * k.
int64_t packed_nt_size(int64_t n, int64_t k);

/// Packs b(n, k) — times f(n, k) elementwise (one float multiply) when f is
/// non-null — widened to double into the panel layout matmul_nt_packed
/// reads: panel p holds rows [16p, 16p + 16) transposed,
/// packed[p*16*k + kk*16 + j] = b[(16p + j)*k + kk], zero past row n.
void pack_nt(const float* b, const float* f, int64_t n, int64_t k,
             double* packed);

/// c(m, n) = a(m, k) · bᵀ under the dense contract, with b packed by
/// pack_nt; then + bias(n) when bias is non-null, then relu when asked.
/// `c` is dense (row stride n).
void matmul_nt_packed(const float* a, int64_t m, int64_t k, const double* packed,
                      int64_t n, const float* bias, bool relu, float* c);

}  // namespace cn::exec::digital
