// Block Box–Muller pairs for Rng::fill_normal, libm-free and certified.
//
// Rng::normal turns one uniform pair (u1, u2) into two normals with libm:
// r = sqrt(-2 log u1), a = 2π u2, (r cos a, r sin a). box_muller_pairs
// evaluates the same transform for a block of pairs with in-tree polynomial
// log and sincos in the exec::simd generic-vector style, one instantiation
// per ISA level, and then runs a rounding test on every value: a lane is
// kept only when its double mean + stddev·z lies far enough from a float
// rounding boundary that libm's z must round to the same float (Ziv's fast
// path plus rounding test, ACM TOMS 17(3), 1991). Rejected pairs are the
// caller's to recompute with libm, so kept and recomputed values together
// are bit-identical to the scalar loop at every level, while the polynomial
// itself may round differently per level (and uses FMA where the level has
// it).
#pragma once

#include <cstdint>

namespace cn::exec::gauss {

/// For each pair i < npairs of uniforms u1[i] in [2^-1022, 1) and u2[i] in
/// [0, 1), writes
///   out[2i]     = float(mean + stddev * r cos a),
///   out[2i + 1] = float(mean + stddev * r sin a),
/// with r and a as in Rng::normal, and keep[i] = 1 when both floats are
/// certified equal to the rounding of the libm computation. keep[i] = 0
/// leaves the pair's two outputs unspecified. Returns the number of pairs
/// not kept. Dispatches on exec::simd::current_level().
int64_t box_muller_pairs(const double* u1, const double* u2, int64_t npairs,
                         double mean, double stddev, float* out, uint8_t* keep);

}  // namespace cn::exec::gauss
