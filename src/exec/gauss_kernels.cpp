// Block Box–Muller pairs and xoshiro256** lanes (see gauss_kernels.h),
// built like the other exec::simd kernels: one always-inline template body
// over GCC generic vectors, instantiated per ISA level under target
// attributes and picked per call.
//
// The polynomials are fdlibm's (e_log.c, k_sin.c, k_cos.c, e_exp.c; Sun
// Microsystems, freely distributable), each under 1-2 ulps, so the computed
// z = r cos a (or r sin a) is within 2^-47 |z| of libm's. The rounding test
// then asks for a 2^-36 |stddev z| distance from the float rounding boundary
// plus 2^-50 |v| for the final mean + stddev z rounding on either side: a
// 2^11 margin over the worst case, failed by about 3.5e-4 of the lanes.
// The exp spans widen the margin by the exponent's amplification and the
// exp errors (exp_value). Lanes whose reduced trig argument is within 2^-16
// of zero (where a relative bound would need a finer reduction), and values
// outside the normal float range, are rejected outright.
#include "exec/gauss_kernels.h"

#include <algorithm>
#include <cstring>

#include "exec/target.h"

namespace cn::exec::gauss {
namespace {

#define CN_UNROLL _Pragma("GCC unroll 8")

// The helpers below take and return vectors but are always inlined into
// the per-level entry points, so no call crosses the vector ABI GCC warns
// about.
#pragma GCC diagnostic ignored "-Wpsabi"

typedef double D2 __attribute__((vector_size(16)));
typedef double D4 __attribute__((vector_size(32)));
typedef double D8 __attribute__((vector_size(64)));
typedef float F2 __attribute__((vector_size(8)));
typedef float F4 __attribute__((vector_size(16)));
typedef float F8 __attribute__((vector_size(32)));
typedef unsigned long long U2 __attribute__((vector_size(16)));
typedef unsigned long long U4 __attribute__((vector_size(32)));
typedef unsigned long long U8 __attribute__((vector_size(64)));

// The unsigned integer vector of D's shape holds the bit patterns the
// exponent, sign and select tricks work on, and F the lanes as floats. The
// kernels build no comparison masks: without AVX-512DQ, GCC scalarizes a zmm
// compare into a mask vector, so lane conditions are carried as sign bits of
// differences instead.
template <typename D>
struct LanesOf;
template <>
struct LanesOf<D2> { using Bits = U2; using Float = F2; };
template <>
struct LanesOf<D4> { using Bits = U4; using Float = F4; };
template <>
struct LanesOf<D8> { using Bits = U8; using Float = F8; };
template <typename D>
using Bits = typename LanesOf<D>::Bits;
// One keep flag per lane.
template <typename D>
using KeepBytes
    __attribute__((vector_size(sizeof(D) / sizeof(double)))) = unsigned char;

constexpr unsigned long long kSign = 0x8000000000000000ull;

template <typename D>
[[gnu::always_inline]] inline D vabs(D x) {
  return (D)((Bits<D>)x & ~kSign);
}

// log(x) for normal x > 0 (fdlibm's reduction x = 2^k (1 + f) with
// 1 + f in [sqrt(2)/2, sqrt(2)), then log(1 + f) in s = f / (2 + f)).
template <typename D>
[[gnu::always_inline]] inline D vlog(D x) {
  typedef long long I __attribute__((vector_size(sizeof(D))));
  const Bits<D> bits = (Bits<D>)x;
  const I k = (I)(bits - 0x3fe6a09e667f3bcdull) >> 52;
  const D f = (D)(bits - ((Bits<D>)k << 52)) - 1.0;
  // |k| <= 1075: the 2^52 + 2^51 magic turns it into a double exactly.
  const D kd = (D)((Bits<D>)k + 0x4338000000000000ull) - 0x1.8p52;
  const D s = f / (2.0 + f);
  const D z = s * s, w = z * z;
  const D t1 = w * (0x1.999999997fa04p-2 +
                    w * (0x1.c71c51d8e78afp-3 + w * 0x1.39a09d078c69fp-3));
  const D t2 = z * (0x1.5555555555593p-1 +
                    w * (0x1.2492494229359p-2 +
                         w * (0x1.7466496cb03dep-3 + w * 0x1.2f112df3e5244p-3)));
  const D hfsq = 0.5 * f * f;
  return kd * 0x1.62e42feep-1 -
         ((hfsq - (s * (hfsq + t2 + t1) + kd * 0x1.a39ef35793c76p-33)) - f);
}

// Sign bit set where certified: the double v lies more than `margin` (the
// caller's bound on its distance from libm's double) from the midpoint of
// the two floats around it, so libm's v rounds to the same float. In the
// normal float range the midpoint is v's double with the 29 bits below the
// float mantissa set to 1000...0. Each condition is "difference < 0";
// av - 2^127 is negative only for finite v (|NaN| is a positive NaN), and
// the last term keeps the margin below a quarter of a float spacing.
template <typename D>
[[gnu::always_inline]] inline Bits<D> certified(D v, D margin) {
  const D av = vabs(v);
  const D mid = (D)(((Bits<D>)av & ~0x1fffffffull) | 0x10000000ull);
  return (Bits<D>)(0x1p-125 - av) & (Bits<D>)(av - 0x1p127) &
         (Bits<D>)(margin - vabs(av - mid)) & (Bits<D>)(margin - 0x1p-28 * av);
}

// One vector of pairs: writes the normals (zc, zs) = (r cos a, r sin a),
// each within 2^-47 of libm's relative to its size, and returns the sign
// bits of the lanes where that relative bound holds: lanes whose reduced
// trig argument is within 2^-16 of zero are not certified.
template <typename D>
[[gnu::always_inline]] inline Bits<D> normal_block(D u1, D u2, D& zc, D& zs) {
  constexpr int L = sizeof(D) / sizeof(double);
  const D x = -2.0 * vlog(u1);
  D r;
  CN_UNROLL
  for (int l = 0; l < L; ++l) r[l] = __builtin_sqrt(x[l]);

  // a = 2π u2 exactly as Rng::normal rounds it, then a = qπ/2 + y with
  // |y| <= π/4 (Cody–Waite: q * 0x1.921fb544p0 is exact, as is a minus it).
  const D a = 6.283185307179586476925286766559 * u2;
  const D t = a * 0x1.45f306dc9c883p-1 + 0x1.8p52;
  const D qd = t - 0x1.8p52;
  const Bits<D> q = (Bits<D>)t;
  const D y = (a - qd * 0x1.921fb544p0) - qd * 0x1.0b4611a626331p-34;
  const D y2 = y * y;
  const D sp =
      y + y * y2 *
              (-0x1.5555555555549p-3 +
               y2 * (0x1.111111110f8a6p-7 +
                     y2 * (-0x1.a01a019c161d5p-13 +
                           y2 * (0x1.71de357b1fe7dp-19 +
                                 y2 * (-0x1.ae5e68a2b9cebp-26 +
                                       y2 * 0x1.5d93a5acfd57cp-33)))));
  const D cp =
      1.0 - (0.5 * y2 -
             y2 * y2 *
                 (0x1.555555555554cp-5 +
                  y2 * (-0x1.6c16c16c15177p-10 +
                        y2 * (0x1.a01a019cb159p-16 +
                              y2 * (-0x1.27e4f809c52adp-22 +
                                    y2 * (0x1.1ee9ebdb4b1c4p-29 +
                                          y2 * -0x1.8fae9be8838d4p-37))))));
  // Quadrant q: cos a = (cp, -sp, -cp, sp), sin a = (sp, cp, -sp, -cp).
  const Bits<D> odd = 0ull - (q & 1ull);
  const D c0 = (D)(((Bits<D>)sp & odd) | ((Bits<D>)cp & ~odd));
  const D s0 = (D)(((Bits<D>)cp & odd) | ((Bits<D>)sp & ~odd));
  const D cosa = (D)((Bits<D>)c0 ^ (((q + 1ull) & 2ull) << 62));
  const D sina = (D)((Bits<D>)s0 ^ ((q & 2ull) << 62));

  zc = r * cosa;
  zs = r * sina;
  return (Bits<D>)(0x1p-16 - vabs(y));
}

// Loads pairs p0 .. p0 + np of the uniforms (np <= the lane count); a tail
// is padded with a harmless pair whose results are never written back.
template <typename D>
[[gnu::always_inline]] inline void load_pairs(const double* u1, const double* u2,
                                              int64_t p0, int64_t np, D& a, D& b) {
  constexpr int L = sizeof(D) / sizeof(double);
  if (np == L) {
    std::memcpy(&a, u1 + p0, sizeof(D));
    std::memcpy(&b, u2 + p0, sizeof(D));
    return;
  }
  CN_UNROLL
  for (int l = 0; l < L; ++l) {
    a[l] = l < np ? u1[p0 + l] : 0.5;
    b[l] = l < np ? u2[p0 + l] : 0.125;
  }
}

// e^y for |y| < 512: fdlibm's e_exp.c without its special cases. y = k ln2
// + r with |r| <= ln2/2 (k rounded through the 2^52 + 2^51 magic, whose low
// bits then hold k), e^r = 1 + r + r c / (2 - c) with its Remez polynomial c,
// and 2^k added to the exponent field.
template <typename D>
[[gnu::always_inline]] inline D vexp(D y) {
  const D t = y * 0x1.71547652b82fep0 + 0x1.8p52;
  const D kd = t - 0x1.8p52;
  const D hi = y - kd * 0x1.62e42feep-1;
  const D lo = kd * 0x1.a39ef35793c76p-33;
  const D r = hi - lo;
  const D r2 = r * r;
  const D c =
      r - r2 * (0x1.555555555553ep-3 +
                r2 * (-0x1.6c16c16bebd93p-9 +
                      r2 * (0x1.1566aaf25de2cp-14 +
                            r2 * (-0x1.bbd41c5d26bf1p-20 + r2 * 0x1.6376972bea4dp-25))));
  const D e = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  return (D)((Bits<D>)e + ((Bits<D>)t << 52));
}

// v = g exp(k c(mean + stddev z)) for one vector of normals z, with the
// sign bits of the certified lanes. libm's chain differs from this one by
// at most |k| (2^-47 |stddev z| + 2^-52 |x|) in the exponent (the z bound
// above plus the roundings of x on both sides), 2^-52 |k x| for k c, one
// ulp of libm exp, two of the polynomial and one rounding of v per side:
// about 2^-47 |k stddev z| + 2^-51 |k x| + 2^-50 relative to v. The margin
// is 2^11 times that. Where the clamp applies, a lane whose x lies within
// 2^-36 |stddev z| of zero (libm's x might have the other sign) is not
// certified, and neither is one with |k c| >= 512, beyond vexp's range.
template <typename D>
[[gnu::always_inline]] inline Bits<D> exp_value(D z, D g, const ExpNormal& p, D& v) {
  typedef long long I __attribute__((vector_size(sizeof(D))));
  const D sz = p.stddev * z;
  const D x = p.mean + sz;
  const Bits<D> neg = p.clamp ? (Bits<D>)((I)x >> 63) : Bits<D>{};
  const D y = p.k * (D)((Bits<D>)x & ~neg);
  v = g * vexp(y);
  const D margin =
      vabs(v) * (0x1p-36 * vabs(p.k * sz) + 0x1p-40 * vabs(p.k * x) + 0x1p-39);
  const Bits<D> sign_sure = p.clamp ? (Bits<D>)(0x1p-36 * vabs(sz) - vabs(x))
                                    : Bits<D>{} - 1ull;
  return certified(v, margin) & (Bits<D>)(vabs(y) - 512.0) & sign_sure;
}

template <typename D>
[[gnu::always_inline]] inline int64_t pairs_impl(const double* u1, const double* u2,
                                                 int64_t npairs, double mean,
                                                 double stddev, float* out,
                                                 uint8_t* keep) {
  constexpr int L = sizeof(D) / sizeof(double);
  int64_t kept = 0;
  Bits<D> kept_lanes = {};
  for (int64_t p0 = 0; p0 < npairs; p0 += L) {
    const int64_t np = std::min<int64_t>(L, npairs - p0);
    D a = {}, b = {}, zc = {}, zs = {};
    load_pairs(u1, u2, p0, np, a, b);
    const Bits<D> trig_ok = normal_block(a, b, zc, zs);
    const D szc = stddev * zc, szs = stddev * zs;
    const D vc = mean + szc, vs = mean + szs;
    // v = mean + stddev z is within 2^-47 |stddev z| of libm's plus a
    // rounding per side (2^-53 |v| each): the margin is 2^11 times that.
    const Bits<D> ok = trig_ok & certified(vc, 0x1p-36 * vabs(szc) + 0x1p-50 * vabs(vc)) &
                       certified(vs, 0x1p-36 * vabs(szs) + 0x1p-50 * vabs(vs));
    // Interleave (cos, sin) per pair: lanes 0, L, 1, L + 1, ...
    using F = typename LanesOf<D>::Float;
    const F fc = __builtin_convertvector(vc, F), fs = __builtin_convertvector(vs, F);
    float pairs[2 * L] = {};
    CN_UNROLL
    for (int l = 0; l < L; ++l) {
      pairs[2 * l] = fc[l];
      pairs[2 * l + 1] = fs[l];
    }
    const Bits<D> k = ok >> 63;
    if (np == L) {
      // A whole vector: fixed-size stores, the keep flags narrowed in one
      // conversion, and the count summed once after the loop.
      std::memcpy(out + 2 * p0, pairs, sizeof pairs);
      const KeepBytes<D> kb = __builtin_convertvector(k, KeepBytes<D>);
      std::memcpy(keep + p0, &kb, sizeof kb);
      kept_lanes += k;
      continue;
    }
    std::memcpy(out + 2 * p0, pairs, static_cast<size_t>(2 * np) * sizeof(float));
    for (int64_t l = 0; l < np; ++l) {
      keep[p0 + l] = static_cast<uint8_t>(k[l]);
      kept += static_cast<int64_t>(k[l]);
    }
  }
  CN_UNROLL
  for (int l = 0; l < L; ++l) kept += static_cast<int64_t>(kept_lanes[l]);
  return npairs - kept;
}

template <typename D>
[[gnu::always_inline]] inline int64_t exp_pairs_impl(const double* u1,
                                                     const double* u2,
                                                     int64_t npairs,
                                                     const ExpNormal& p,
                                                     const float* g, float* out,
                                                     uint8_t* keep) {
  constexpr int L = sizeof(D) / sizeof(double);
  int64_t kept = 0;
  for (int64_t p0 = 0; p0 < npairs; p0 += L) {
    const int64_t np = std::min<int64_t>(L, npairs - p0);
    D a = {}, b = {}, zc = {}, zs = {};
    load_pairs(u1, u2, p0, np, a, b);
    const Bits<D> trig_ok = normal_block(a, b, zc, zs);
    // The pair's two scale factors: g[2i] goes with cos, g[2i + 1] with sin.
    D gc = {}, gs = {};
    CN_UNROLL
    for (int l = 0; l < L; ++l) {
      const bool in = g && l < np;
      gc[l] = in ? g[2 * (p0 + l)] : 1.0;
      gs[l] = in ? g[2 * (p0 + l) + 1] : 1.0;
    }
    D vc = {}, vs = {};
    const Bits<D> ok = trig_ok & exp_value(zc, gc, p, vc) & exp_value(zs, gs, p, vs);
    using F = typename LanesOf<D>::Float;
    const F fc = __builtin_convertvector(vc, F), fs = __builtin_convertvector(vs, F);
    // Only kept pairs are written: a rejected pair's g stays readable when
    // out aliases g.
    for (int64_t l = 0; l < np; ++l) {
      const auto k = static_cast<uint8_t>(ok[l] >> 63);
      keep[p0 + l] = k;
      kept += k;
      if (!k) continue;
      out[2 * (p0 + l)] = fc[l];
      out[2 * (p0 + l) + 1] = fs[l];
    }
  }
  return npairs - kept;
}

// One xoshiro256** step of one stream per lane (Rng::next_u64 with the
// multiplications by 5 and 9 as shift-adds: AVX-512F and AVX2 have no
// 64-bit lane multiply).
template <typename U>
[[gnu::always_inline]] inline U xoshiro_next(U& s0, U& s1, U& s2, U& s3) {
  const U x5 = s1 + (s1 << 2);
  const U rot = (x5 << 7) | (x5 >> 57);
  const U result = rot + (rot << 3);
  const U t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = (s3 << 45) | (s3 >> 19);
  return result;
}

// (x >> 11) * 2^-53 without a 64-bit integer convert (AVX-512F has none):
// the 53 bits split into 32 high and 21 low ones, each turned into a double
// exactly through the 2^52 magic, and their scaled sum is exact too (it
// spans at most 53 bits).
template <typename D>
[[gnu::always_inline]] inline D uniform53(Bits<D> x) {
  const Bits<D> m = x >> 11;
  const D hi = (D)((m >> 21) | 0x4330000000000000ull) - 0x1p52;
  const D lo = (D)((m & 0x1fffffull) | 0x4330000000000000ull) - 0x1p52;
  return hi * 0x1p-32 + lo * 0x1p-53;
}

// The 8 streams as G vectors of the level's width L, so no level splits a
// vector wider than its registers.
template <typename D>
[[gnu::always_inline]] inline uint32_t lanes_impl(uint64_t* state, int nstreams,
                                                  int64_t npairs, double* u1,
                                                  double* u2) {
  constexpr int L = sizeof(D) / sizeof(double), G = 8 / L;
  using U = Bits<D>;
  U s[4][G];
  for (int j = 0; j < 4; ++j)
    for (int g = 0; g < G; ++g) std::memcpy(&s[j][g], state + 8 * j + L * g, sizeof(U));
  // Sign bit set in lanes that drew a u1 of 0: x >> 11 is below 2^53, so
  // (x >> 11) - 1 wraps to the top only from 0.
  U zero_u1[G] = {};
  for (int64_t p = 0; p < npairs; ++p) {
    D a[G], b[G];
    CN_UNROLL
    for (int g = 0; g < G; ++g) {
      const U x1 = xoshiro_next(s[0][g], s[1][g], s[2][g], s[3][g]);
      const U x2 = xoshiro_next(s[0][g], s[1][g], s[2][g], s[3][g]);
      zero_u1[g] |= (x1 >> 11) - 1ull;
      a[g] = uniform53<D>(x1);
      b[g] = uniform53<D>(x2);
    }
    if (nstreams == 8) {
      std::memcpy(u1 + 8 * p, a, sizeof a);
      std::memcpy(u2 + 8 * p, b, sizeof b);
    } else {
      for (int k = 0; k < nstreams; ++k) {
        u1[p * nstreams + k] = a[k / L][k % L];
        u2[p * nstreams + k] = b[k / L][k % L];
      }
    }
  }
  for (int j = 0; j < 4; ++j)
    for (int g = 0; g < G; ++g) std::memcpy(state + 8 * j + L * g, &s[j][g], sizeof(U));
  uint32_t mask = 0;
  for (int k = 0; k < nstreams; ++k)
    mask |= static_cast<uint32_t>(zero_u1[k / L][k % L] >> 63) << k;
  return mask;
}

using LaneKernel = uint32_t (*)(uint64_t*, int, int64_t, double*, double*);

uint32_t lanes_generic(uint64_t* state, int nstreams, int64_t npairs, double* u1,
                       double* u2) {
  return lanes_impl<D2>(state, nstreams, npairs, u1, u2);
}

using PairKernel = int64_t (*)(const double*, const double*, int64_t, double,
                               double, float*, uint8_t*);
using ExpKernel = int64_t (*)(const double*, const double*, int64_t,
                              const ExpNormal&, const float*, float*, uint8_t*);

int64_t pairs_generic(const double* u1, const double* u2, int64_t npairs,
                      double mean, double stddev, float* out, uint8_t* keep) {
  return pairs_impl<D2>(u1, u2, npairs, mean, stddev, out, keep);
}
int64_t exp_generic(const double* u1, const double* u2, int64_t npairs,
                    const ExpNormal& p, const float* g, float* out, uint8_t* keep) {
  return exp_pairs_impl<D2>(u1, u2, npairs, p, g, out, keep);
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target("avx2,fma"))) int64_t pairs_avx2(
    const double* u1, const double* u2, int64_t npairs, double mean,
    double stddev, float* out, uint8_t* keep) {
  return pairs_impl<D4>(u1, u2, npairs, mean, stddev, out, keep);
}
__attribute__((target("avx512f,fma"))) int64_t pairs_avx512(
    const double* u1, const double* u2, int64_t npairs, double mean,
    double stddev, float* out, uint8_t* keep) {
  return pairs_impl<D8>(u1, u2, npairs, mean, stddev, out, keep);
}
__attribute__((target("avx2,fma"))) int64_t exp_avx2(
    const double* u1, const double* u2, int64_t npairs, const ExpNormal& p,
    const float* g, float* out, uint8_t* keep) {
  return exp_pairs_impl<D4>(u1, u2, npairs, p, g, out, keep);
}
__attribute__((target("avx512f,fma"))) int64_t exp_avx512(
    const double* u1, const double* u2, int64_t npairs, const ExpNormal& p,
    const float* g, float* out, uint8_t* keep) {
  return exp_pairs_impl<D8>(u1, u2, npairs, p, g, out, keep);
}
__attribute__((target("avx2"))) uint32_t lanes_avx2(
    uint64_t* state, int nstreams, int64_t npairs, double* u1, double* u2) {
  return lanes_impl<D4>(state, nstreams, npairs, u1, u2);
}
__attribute__((target("avx512f"))) uint32_t lanes_avx512(
    uint64_t* state, int nstreams, int64_t npairs, double* u1, double* u2) {
  return lanes_impl<D8>(state, nstreams, npairs, u1, u2);
}
const PairKernel kPairTable[3] = {pairs_generic, pairs_avx2, pairs_avx512};
const ExpKernel kExpTable[3] = {exp_generic, exp_avx2, exp_avx512};
const LaneKernel kLaneTable[3] = {lanes_generic, lanes_avx2, lanes_avx512};
#else
const PairKernel kPairTable[3] = {pairs_generic, pairs_generic, pairs_generic};
const ExpKernel kExpTable[3] = {exp_generic, exp_generic, exp_generic};
const LaneKernel kLaneTable[3] = {lanes_generic, lanes_generic, lanes_generic};
#endif

#undef CN_UNROLL

}  // namespace

int64_t box_muller_pairs(const double* u1, const double* u2, int64_t npairs,
                         double mean, double stddev, float* out, uint8_t* keep) {
  return kPairTable[simd::current_level()](u1, u2, npairs, mean, stddev, out,
                                           keep);
}

uint32_t uniform_pair_lanes(uint64_t* state, int nstreams, int64_t npairs,
                            double* u1, double* u2) {
  return kLaneTable[simd::current_level()](state, nstreams, npairs, u1, u2);
}

int64_t exp_normal_pairs(const double* u1, const double* u2, int64_t npairs,
                         const ExpNormal& p, const float* g, float* out,
                         uint8_t* keep) {
  return kExpTable[simd::current_level()](u1, u2, npairs, p, g, out, keep);
}

}  // namespace cn::exec::gauss
