// Block Box–Muller pairs for Rng's Gaussian spans, libm-free and certified.
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
// it). exp_normal_pairs extends the same pairs through a polynomial exp
// (Tang, ACM TOMS 15(2), 1989; fdlibm's coefficients) for the lognormal
// spans of the write path, under a margin that also covers the exp error
// amplified by the exponent. uniform_pair_lanes steps up to 8 xoshiro256**
// streams in SIMD lanes to feed the pairs of Rng::fill_normal_rows.
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

/// Up to 8 xoshiro256** streams (Blackman & Vigna, ACM TOMS 47(4), 2021)
/// stepped in SIMD lanes, for Rng::fill_normal_rows. state holds 32 words
/// whatever nstreams is: state[j * 8 + k] is word j of stream k, in Rng's
/// state order (word-major, so one word of every stream loads as one
/// vector). Each of the nstreams <= 8 streams advances in place by
/// 2 * npairs steps; the lanes past them are stepped too but hold no
/// stream. For p < npairs, outputs 2p and
/// 2p + 1 of stream k become the uniforms u1[p * nstreams + k] and
/// u2[p * nstreams + k], (x >> 11) * 2^-53 exactly as Rng::uniform computes
/// them. Returns a mask with bit k set when some u1 of stream k is 0: the
/// draw Rng::normal rejects and redraws, so that stream's pairs no longer
/// line up with the scalar ones. Dispatches on exec::simd::current_level().
uint32_t uniform_pair_lanes(uint64_t* state, int nstreams, int64_t npairs,
                            double* u1, double* u2);

/// The map from a normal z to one value of Rng::fill_exp_normal:
///   x = mean + stddev * z,  c = clamp ? max(0, x) : x,  out = g * exp(k * c),
/// evaluated in double and rounded once to float. A lognormal factor is
/// {0, sigma, 1, false} with g = 1; drift's (t/t0)^-max(0, nu) is
/// {nu_mean, nu_sigma, -log(t/t0), true} scaling the conductance.
struct ExpNormal {
  double mean = 0.0;
  double stddev = 1.0;
  double k = 1.0;
  bool clamp = false;
};

/// Like box_muller_pairs, but out[2i + j] = float(g[2i + j] * exp(k * c(x)))
/// for the pair's cos (j = 0) and sin (j = 1) normal, with g = 1 when g is
/// null. keep[i] = 1 when both floats are certified equal to libm's chain.
/// Only kept pairs are written, so out may alias g and a rejected pair's
/// g stays readable for the scalar recomputation. Returns the number of
/// pairs not kept.
int64_t exp_normal_pairs(const double* u1, const double* u2, int64_t npairs,
                         const ExpNormal& p, const float* g, float* out,
                         uint8_t* keep);

}  // namespace cn::exec::gauss
