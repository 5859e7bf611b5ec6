// The Gaussian span primitives, Rng::fill_normal and Rng::fill_exp_normal,
// against the scalar loops they replace, and their block kernels
// (exec/gauss_kernels.h) against libm on crafted uniform pairs. Every
// comparison is bitwise and runs at every exec::simd level the host
// supports: the kernel's polynomials round differently per level, and the
// rounding test must absorb that.
#include "exec/gauss_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analog/variation.h"
#include "exec_testutil.h"
#include "tensor/rng.h"

namespace cn {
namespace {

// What the span must reproduce: n scalar draws, one at a time.
std::vector<float> scalar_loop(Rng& rng, int64_t n, float mean, float stddev) {
  std::vector<float> out(static_cast<size_t>(n));
  for (auto& v : out) v = static_cast<float>(rng.normal(mean, stddev));
  return out;
}

// Draws n values through the span from `span` and through the scalar loop
// from `ref` (both in the same state), then checks the values and that the
// generators end in the same state: the next scalar draw (which consumes
// any cached second normal) and the raw stream after it must match.
void expect_span_matches(Rng& span, Rng& ref, int64_t n, float mean,
                         float stddev, const std::string& what) {
  std::vector<float> got(static_cast<size_t>(n) + 1, -7.0f);
  span.fill_normal(got.data(), n, mean, stddev);
  const std::vector<float> want = scalar_loop(ref, n, mean, stddev);
  testutil::expect_bitwise_equal(got.data(), want.data(), n, what);
  EXPECT_EQ(got[static_cast<size_t>(n)], -7.0f) << what << ": wrote past n";
  const double a = span.normal(), b = ref.normal();
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << what << ": next draw differs";
  EXPECT_EQ(span.next_u64(), ref.next_u64()) << what << ": stream differs";
}

TEST(FillNormal, SpanMatchesScalarLoopOnEverySizeAndStart) {
  const int64_t kSizes[] = {0, 1, 2, 127, 128, 129, 300};
  const float kSigmas[] = {0.02f, 0.5f, 1.0f, 3.0f};
  const float kMeans[] = {0.0f, 0.75f, -2.5f};
  testutil::for_each_simd_level([&](int level) {
    uint64_t seed = 1000;
    for (int64_t n : kSizes)
      for (float sigma : kSigmas)
        for (float mean : kMeans)
          for (bool cached : {false, true}) {
            Rng span(++seed), ref(seed);
            if (cached) {  // start on a cached second normal
              span.normal();
              ref.normal();
            }
            expect_span_matches(span, ref, n, mean, sigma,
                                "level " + std::to_string(level) + " n=" +
                                    std::to_string(n) + " sigma=" +
                                    std::to_string(sigma) + " mean=" +
                                    std::to_string(mean) +
                                    (cached ? " cached" : ""));
          }
  });
}

TEST(FillNormal, TenMillionDrawsMatchTheScalarLoopBitwise) {
  // One long stream per level, cut into spans of every length from 1 to
  // 300 (odd spans leave the next one starting on a cached normal), at the
  // sigmas the simulator uses: 0 mismatches allowed.
  constexpr int64_t kDraws = 10'000'000;
  const float kSigmas[] = {0.02f, 0.5f, 1.0f, 3.0f};
  testutil::for_each_simd_level([&](int level) {
    Rng span(42 + level), ref(42 + level);
    std::vector<float> got(300);
    int64_t done = 0, mismatches = 0, calls = 0;
    while (done < kDraws) {
      const int64_t n = 1 + calls % 300;
      const float sigma = kSigmas[calls % 4];
      const float mean = (calls % 3 == 0) ? 0.0f : 0.125f * (calls % 7);
      span.fill_normal(got.data(), n, mean, sigma);
      for (int64_t i = 0; i < n; ++i) {
        const float want = static_cast<float>(ref.normal(mean, sigma));
        mismatches += std::memcmp(&got[static_cast<size_t>(i)], &want,
                                  sizeof want) != 0;
      }
      done += n;
      ++calls;
    }
    EXPECT_EQ(mismatches, 0) << "level " << level << ", " << done << " draws";
    EXPECT_EQ(span.next_u64(), ref.next_u64()) << "level " << level;
  });
}

TEST(FillNormal, TensorFillAndGaussianFactorsForwardToTheSpan) {
  Rng a(5), b(5);
  Tensor t({7, 19});
  a.fill_normal(t, 0.5f, 0.25f);
  const std::vector<float> want = scalar_loop(b, t.size(), 0.5f, 0.25f);
  testutil::expect_bitwise_equal(t.data(), want.data(), t.size(), "tensor fill");

  // VariationModel's Gaussian multiplicative factors: 1 + N(0, sigma).
  analog::VariationModel vm;
  vm.kind = analog::VariationKind::kGaussianMultiplicative;
  vm.sigma = 0.3f;
  Rng c(6), d(6);
  const Tensor f = vm.sample_factors(t, c);
  std::vector<float> fw(static_cast<size_t>(t.size()));
  for (auto& v : fw) v = 1.0f + static_cast<float>(d.normal(0.0, vm.sigma));
  testutil::expect_bitwise_equal(f.data(), fw.data(), f.size(), "factors");
  EXPECT_EQ(c.next_u64(), d.next_u64());
}

// libm Box–Muller for one pair, as Rng::normal computes it.
void libm_pair(double u1, double u2, double& c, double& s) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double a = 6.283185307179586476925286766559 * u2;
  c = r * std::cos(a);
  s = r * std::sin(a);
}

TEST(GaussKernel, CraftedPairsAreKeptOnlyWhenExact) {
  // The extremes of the uniform grid (u1 = 2^-53 gives the largest radius,
  // u1 = 1 - 2^-53 the smallest) and angles at and next to the zeros of sin
  // and cos (u2 = 0, 1 - 2^-53 and the doubles at and around 1/4, 1/2,
  // 3/4), where a relative error bound is hardest to hold. A kept value must
  // be libm's rounded to float; near-zero lanes must not be kept at all.
  const double kU1[] = {0x1p-53, 1.0 - 0x1p-53, 0.5, 0.3, 0.9};
  std::vector<double> u2s = {0.0};
  for (double q : {0.25, 0.5, 0.75})
    for (double u : {std::nextafter(q, 0.0), q, std::nextafter(q, 1.0)})
      u2s.push_back(u);
  u2s.push_back(0.1);
  u2s.push_back(1.0 - 0x1p-53);
  std::vector<double> u1, u2;
  for (double a : kU1)
    for (double b : u2s) {
      u1.push_back(a);
      u2.push_back(b);
    }
  const int64_t np = static_cast<int64_t>(u1.size());
  struct Affine {
    double mean, stddev;
  };
  const Affine kAffine[] = {{0.0, 1.0}, {0.0, 0.02}, {1.0, 0.5}, {-0.25, 3.0}};
  testutil::for_each_simd_level([&](int level) {
    for (const Affine& af : kAffine) {
      std::vector<float> out(static_cast<size_t>(2 * np));
      std::vector<uint8_t> keep(static_cast<size_t>(np), 2);
      const int64_t rejected = exec::gauss::box_muller_pairs(
          u1.data(), u2.data(), np, af.mean, af.stddev, out.data(), keep.data());
      int64_t counted = 0, kept = 0;
      for (size_t p = 0; p < u1.size(); ++p) {
        ASSERT_LE(keep[p], 1);
        counted += keep[p] == 0;
        // At those angles one of cos a, sin a is (nearly) zero: the lane
        // goes to libm whatever the affine map.
        if (u2[p] != 0.1) {
          EXPECT_EQ(keep[p], 0) << "near-zero trig lane kept: u2 = " << u2[p];
        }
        if (!keep[p]) continue;
        ++kept;
        double c = 0.0, s = 0.0;
        libm_pair(u1[p], u2[p], c, s);
        const float want[2] = {static_cast<float>(af.mean + af.stddev * c),
                               static_cast<float>(af.mean + af.stddev * s)};
        testutil::expect_bitwise_equal(
            out.data() + 2 * p, want, 2,
            "level " + std::to_string(level) + " pair " + std::to_string(p) +
                " (u1 " + std::to_string(u1[p]) + ", u2 " +
                std::to_string(u2[p]) + ")");
      }
      EXPECT_EQ(rejected, counted);
      EXPECT_GT(kept, 0) << "the fast path should keep generic pairs";
    }
  });
}

TEST(GaussKernel, ValuesOnAFloatRoundingBoundaryAreNeverKept) {
  // The rounding test itself: pick stddev (the kernel takes any double) so
  // that libm's mean + stddev z lands on the midpoint between two floats,
  // to within a double rounding. The kernel's polynomial z differs from
  // libm's in the last bits, so its float would land on either side; such
  // a lane must never be kept, whatever the level, mean or lane.
  testutil::for_each_simd_level([&](int level) {
    Rng rng(91 + level);
    for (int it = 0; it < 2000; ++it) {
      double u1 = 0.0;
      do {
        u1 = rng.uniform();
      } while (u1 <= 1e-300);
      const double u2 = rng.uniform();
      double z[2];
      libm_pair(u1, u2, z[0], z[1]);
      const int lane = it % 2;
      if (std::fabs(z[lane]) < 1e-3) continue;
      // mean 0: a midpoint in [1, 2); mean 1: the midpoint just above 1 + d.
      const double mean = (it / 2) % 2 == 0 ? 0.0 : 1.0;
      const double odd = static_cast<double>(2 * rng.uniform_int(1 << 20) + 1);
      const double mid = mean == 0.0 ? 1.0 + odd * 0x1p-24 : odd * 0x1p-24;
      const double stddev = mid / z[lane];
      float out[2] = {};
      uint8_t keep = 2;
      exec::gauss::box_muller_pairs(&u1, &u2, 1, mean, stddev, out, &keep);
      EXPECT_EQ(keep, 0) << "level " << level << ": kept a boundary value (u1 "
                         << u1 << ", u2 " << u2 << ", lane " << lane << ")";
    }
  });
}

TEST(GaussKernel, KeepsAllButARareFewRandomPairs) {
  // The fast path must carry the load: the rounding test rejects about
  // 7e-4 of the pairs (3.5e-4 of the values) at mean 0, and the outputs
  // stay within the caller's buffer for every tail length.
  testutil::for_each_simd_level([&](int level) {
    Rng rng(77 + level);
    constexpr int64_t kPairs = 40;
    double u1[kPairs] = {}, u2[kPairs] = {};
    float out[2 * kPairs + 1] = {};
    uint8_t keep[kPairs] = {};
    int64_t pairs = 0, rejected = 0;
    for (int it = 0; it < 20000; ++it) {
      const int64_t np = 1 + it % kPairs;
      for (int64_t p = 0; p < np; ++p) {
        do {
          u1[p] = rng.uniform();
        } while (u1[p] <= 1e-300);
        u2[p] = rng.uniform();
      }
      out[2 * np] = -7.0f;
      rejected += exec::gauss::box_muller_pairs(u1, u2, np, 0.0, 0.1, out, keep);
      ASSERT_EQ(out[2 * np], -7.0f) << "wrote past 2 * npairs";
      pairs += np;
    }
    EXPECT_LT(static_cast<double>(rejected) / pairs, 2e-3) << "level " << level;
  });
}

// ---- The lognormal span, Rng::fill_exp_normal ----------------------------

using exec::gauss::ExpNormal;

// The three write-path forms, each as its scalar loop computed one draw at
// a time before the span: a lognormal factor (programming, the paper's
// Monte-Carlo factors), a lognormal scaling a conductance (thermal), and
// drift's (t/t0)^-max(0, nu) scaling a conductance.
enum class Form { kFactor, kScaled, kDrift };

struct ExpCase {
  Form form;
  double mean, sigma;
  double t_ratio;  // drift only
  ExpNormal spec() const {
    if (form == Form::kDrift) return {mean, sigma, -std::log(t_ratio), true};
    return {mean, sigma, 1.0, false};
  }
  std::string name() const {
    const char* f = form == Form::kFactor ? "factor"
                    : form == Form::kScaled ? "scaled" : "drift";
    return std::string(f) + " mean=" + std::to_string(mean) + " sigma=" +
           std::to_string(sigma) +
           (form == Form::kDrift ? " t=" + std::to_string(t_ratio) : "");
  }
};

float scalar_exp_value(Rng& rng, const ExpCase& c, float g) {
  switch (c.form) {
    case Form::kFactor:
      return static_cast<float>(rng.lognormal(c.mean, c.sigma));
    case Form::kScaled:
      return static_cast<float>(g * rng.lognormal(c.mean, c.sigma));
    case Form::kDrift: {
      const double log_t = std::log(c.t_ratio);
      const double nu = std::max(0.0, rng.normal(c.mean, c.sigma));
      return static_cast<float>(g * std::exp(-nu * log_t));
    }
  }
  return 0.0f;
}

// Conductance-like scale values in [g_min, g_max] of the default device.
std::vector<float> conductances(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> g(static_cast<size_t>(n));
  for (auto& v : g) v = static_cast<float>(rng.uniform(1e-6, 1e-4));
  return g;
}

// Runs the span (in place for the scaled forms, as the fault models do)
// from `span` and the scalar loop from `ref`, both in the same state, and
// checks the values and the end state as expect_span_matches does.
void expect_exp_span_matches(Rng& span, Rng& ref, int64_t n, const ExpCase& c,
                             const std::string& what) {
  const bool scaled = c.form != Form::kFactor;
  std::vector<float> got = conductances(n + 1, static_cast<uint64_t>(n) + 17);
  got[static_cast<size_t>(n)] = -7.0f;
  const std::vector<float> g = got;
  span.fill_exp_normal(got.data(), scaled ? got.data() : nullptr, n, c.spec());
  std::vector<float> want(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    want[static_cast<size_t>(i)] = scalar_exp_value(ref, c, g[static_cast<size_t>(i)]);
  testutil::expect_bitwise_equal(got.data(), want.data(), n, what);
  EXPECT_EQ(got[static_cast<size_t>(n)], -7.0f) << what << ": wrote past n";
  const double a = span.normal(), b = ref.normal();
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << what << ": next draw differs";
  EXPECT_EQ(span.next_u64(), ref.next_u64()) << what << ": stream differs";
}

std::vector<ExpCase> exp_cases() {
  std::vector<ExpCase> cases;
  for (double sigma : {0.02, 0.1, 0.3, 0.5, 1.0, 3.0}) {
    cases.push_back({Form::kFactor, 0.0, sigma, 1.0});
    cases.push_back({Form::kScaled, 0.0, sigma, 1.0});
    // Drift at the default nu 0.05 (the default spread is 0.02; wider
    // spreads put many lanes on the clamp).
    cases.push_back({Form::kDrift, 0.05, sigma, 1e4});
  }
  cases.push_back({Form::kFactor, -0.75, 0.5, 1.0});
  cases.push_back({Form::kScaled, 1.5, 0.3, 1.0});
  cases.push_back({Form::kDrift, 0.05, 0.02, 10.0});
  cases.push_back({Form::kDrift, 0.05, 0.02, 0.5});  // t < t0: a gain
  return cases;
}

TEST(FillExpNormal, SpanMatchesScalarLoopOnEverySizeAndStart) {
  const int64_t kSizes[] = {0, 1, 2, 3, 15, 16, 17, 127, 128, 129, 300};
  const std::vector<ExpCase> cases = exp_cases();
  testutil::for_each_simd_level([&](int level) {
    uint64_t seed = 5000;
    for (int64_t n : kSizes)
      for (const ExpCase& c : cases)
        for (bool cached : {false, true}) {
          Rng span(++seed), ref(seed);
          if (cached) {  // start on a cached second normal
            span.normal();
            ref.normal();
          }
          expect_exp_span_matches(span, ref, n, c,
                                  "level " + std::to_string(level) + " n=" +
                                      std::to_string(n) + " " + c.name() +
                                      (cached ? " cached" : ""));
        }
  });
}

TEST(FillExpNormal, TenMillionDrawsMatchTheScalarLoopBitwise) {
  // One long stream per level, cut into spans of every length from 1 to
  // 300 and cycling through every form and sigma: 0 mismatches allowed.
  constexpr int64_t kDraws = 10'000'000;
  const std::vector<ExpCase> cases = exp_cases();
  const std::vector<float> g = conductances(300, 3);
  testutil::for_each_simd_level([&](int level) {
    Rng span(420 + level), ref(420 + level);
    std::vector<float> got(300);
    int64_t done = 0, mismatches = 0, calls = 0;
    while (done < kDraws) {
      const int64_t n = 1 + calls % 300;
      const ExpCase& c = cases[static_cast<size_t>(calls) % cases.size()];
      const bool scaled = c.form != Form::kFactor;
      std::copy(g.begin(), g.begin() + n, got.begin());
      span.fill_exp_normal(got.data(), scaled ? got.data() : nullptr, n, c.spec());
      for (int64_t i = 0; i < n; ++i) {
        const float want = scalar_exp_value(ref, c, g[static_cast<size_t>(i)]);
        mismatches += std::memcmp(&got[static_cast<size_t>(i)], &want,
                                  sizeof want) != 0;
      }
      done += n;
      ++calls;
    }
    EXPECT_EQ(mismatches, 0) << "level " << level << ", " << done << " draws";
    EXPECT_EQ(span.next_u64(), ref.next_u64()) << "level " << level;
  });
}

TEST(FillExpNormal, LognormalFactorsForwardToTheSpan) {
  // VariationModel's lognormal factors (the paper's Monte-Carlo chips and
  // the factor-mode layers) are float(lognormal(0, sigma)) per weight.
  analog::VariationModel vm;
  vm.kind = analog::VariationKind::kLognormal;
  vm.sigma = 0.5f;
  Tensor w({13, 11});
  Rng c(8), d(8);
  const Tensor f = vm.sample_factors(w, c);
  std::vector<float> fw(static_cast<size_t>(w.size()));
  for (auto& v : fw) v = static_cast<float>(d.lognormal(0.0, vm.sigma));
  testutil::expect_bitwise_equal(f.data(), fw.data(), f.size(), "factors");
  EXPECT_EQ(c.next_u64(), d.next_u64());
}

// libm's chain for one normal z: what the kernel must reproduce.
double libm_exp_value(double z, const ExpNormal& p, double g) {
  const double x = p.mean + p.stddev * z;
  const double c = p.clamp ? std::max(0.0, x) : x;
  return g * std::exp(p.k * c);
}

// A random certifiable uniform pair and its libm normals.
void random_pair(Rng& rng, double& u1, double& u2, double z[2]) {
  do {
    u1 = rng.uniform();
  } while (u1 <= 1e-300);
  u2 = rng.uniform();
  libm_pair(u1, u2, z[0], z[1]);
}

TEST(ExpNormalKernel, CraftedPairsAreKeptOnlyWhenExact) {
  // The uniform-grid extremes and the trig zeros of the Box–Muller test,
  // through each form: near-zero trig lanes go to libm, and every kept
  // value equals libm's chain rounded to float.
  const double kU1[] = {0x1p-53, 1.0 - 0x1p-53, 0.5, 0.3, 0.9};
  std::vector<double> u2s = {0.0, 0.1, 1.0 - 0x1p-53};
  for (double q : {0.25, 0.5, 0.75})
    for (double u : {std::nextafter(q, 0.0), q, std::nextafter(q, 1.0)})
      u2s.push_back(u);
  std::vector<double> u1, u2;
  for (double a : kU1)
    for (double b : u2s) {
      u1.push_back(a);
      u2.push_back(b);
    }
  const int64_t np = static_cast<int64_t>(u1.size());
  const std::vector<float> g = conductances(2 * np, 11);
  testutil::for_each_simd_level([&](int level) {
    for (const ExpCase& c : exp_cases()) {
      const ExpNormal p = c.spec();
      const bool scaled = c.form != Form::kFactor;
      std::vector<float> out(static_cast<size_t>(2 * np), -7.0f);
      std::vector<uint8_t> keep(static_cast<size_t>(np), 2);
      const int64_t rejected = exec::gauss::exp_normal_pairs(
          u1.data(), u2.data(), np, p, scaled ? g.data() : nullptr, out.data(),
          keep.data());
      int64_t counted = 0;
      for (size_t i = 0; i < u1.size(); ++i) {
        ASSERT_LE(keep[i], 1);
        counted += keep[i] == 0;
        if (u2[i] != 0.1) {
          EXPECT_EQ(keep[i], 0) << "near-zero trig lane kept: u2 = " << u2[i];
        }
        if (!keep[i]) {  // rejected pairs are left untouched
          EXPECT_EQ(out[2 * i], -7.0f);
          EXPECT_EQ(out[2 * i + 1], -7.0f);
          continue;
        }
        double z[2];
        libm_pair(u1[i], u2[i], z[0], z[1]);
        float want[2];
        for (int j = 0; j < 2; ++j)
          want[j] = static_cast<float>(
              libm_exp_value(z[j], p, scaled ? g[2 * i + j] : 1.0));
        testutil::expect_bitwise_equal(out.data() + 2 * i, want, 2,
                                       "level " + std::to_string(level) + " " +
                                           c.name() + " pair " + std::to_string(i));
      }
      EXPECT_EQ(rejected, counted);
    }
  });
}

TEST(ExpNormalKernel, ValuesOnAFloatRoundingBoundaryAreNeverKept) {
  // Pick the mean so that libm's chain lands on the midpoint between two
  // floats to within a few double roundings, for each form; the kernel's
  // polynomials differ from libm in the last bits, so such a lane must
  // never be kept.
  testutil::for_each_simd_level([&](int level) {
    Rng rng(191 + level);
    int64_t tried = 0;
    for (int it = 0; it < 3000; ++it) {
      double u1 = 0.0, u2 = 0.0, z[2];
      random_pair(rng, u1, u2, z);
      const int lane = it % 2;
      const int form = (it / 2) % 3;
      const double sigma = 0.1 * (1 + it % 7);
      // The float midpoint to hit: in [1, 2) for a factor, in [2^-15, 2^-14)
      // for a scaled value and in [2^-17, 2^-16) for drift, below g (in
      // [2e-5, 5e-5]) so that x = log(mid / g) / k > 0 lies past the clamp.
      const double odd = static_cast<double>(2 * rng.uniform_int(1 << 20) + 1);
      const double mid = std::ldexp(1.0 + odd * 0x1p-24, form == 0 ? 0 : form == 1 ? -15 : -17);
      float g[2] = {1.0f, 1.0f};
      if (form > 0) g[0] = g[1] = static_cast<float>(rng.uniform(2e-5, 5e-5));
      ExpNormal p{0.0, sigma, 1.0, false};
      if (form == 2) p = {0.0, sigma, -std::log(1e3), true};
      p.mean = std::log(mid / g[lane]) / p.k - sigma * z[lane];
      const double v = libm_exp_value(z[lane], p, g[lane]);
      // Only boundary cases: libm's double within 2^-45 of the midpoint.
      if (std::fabs(v - mid) > 0x1p-45 * std::fabs(mid)) continue;
      ++tried;
      float out[2] = {};
      uint8_t keep = 2;
      exec::gauss::exp_normal_pairs(&u1, &u2, 1, p, form ? g : nullptr, out, &keep);
      EXPECT_EQ(keep, 0) << "level " << level << ": kept a boundary value (form "
                         << form << ", u1 " << u1 << ", u2 " << u2 << ", lane "
                         << lane << ")";
    }
    EXPECT_GT(tried, 1000) << "too few boundary cases constructed";
  });
}

TEST(ExpNormalKernel, ClampEdgeIsNeverGuessed) {
  // Drift's max(0, x): with the mean set to -sigma z (x at zero to within
  // a rounding, either sign) the lane must go to libm; x clearly negative
  // is clamped, kept and leaves g exactly as it is; x clearly positive is
  // kept and equals libm.
  testutil::for_each_simd_level([&](int level) {
    Rng rng(301 + level);
    for (int it = 0; it < 2000; ++it) {
      double u1 = 0.0, u2 = 0.0, z[2];
      random_pair(rng, u1, u2, z);
      const int lane = it % 2;
      if (std::fabs(z[lane]) < 1e-3 || std::fabs(z[1 - lane]) < 1e-3) continue;
      const double sigma = 0.02 * (1 + it % 5);
      const float g[2] = {3e-5f, 7e-5f};
      const double kOffsets[] = {0.0, 0x1p-60, -0x1p-60, -1e-3, 1e-3};
      const double off = kOffsets[(it / 2) % 5];
      const ExpNormal p{-sigma * z[lane] + off, sigma, -std::log(1e4), true};
      float out[2] = {-7.0f, -7.0f};
      uint8_t keep = 2;
      exec::gauss::exp_normal_pairs(&u1, &u2, 1, p, g, out, &keep);
      const std::string what = "level " + std::to_string(level) + " offset " +
                               std::to_string(off) + " lane " + std::to_string(lane);
      if (std::fabs(off) < 1e-6) {
        EXPECT_EQ(keep, 0) << what << ": kept an uncertain clamp";
        continue;
      }
      // The other lane is generic, so rare rejections are fine here.
      if (!keep) continue;
      const float want = static_cast<float>(libm_exp_value(z[lane], p, g[lane]));
      EXPECT_EQ(std::memcmp(&out[lane], &want, sizeof want), 0) << what;
      if (off < 0.0) {
        EXPECT_EQ(out[lane], g[lane]) << what << ": clamped lane must keep g";
      }
    }
  });
}

TEST(ExpNormalKernel, RejectsNonFiniteScalesAndOutOfRangeResults) {
  // A NaN or infinite g, a zero g (its product leaves the normal float
  // range) and an exponent beyond vexp's range all take the libm path.
  testutil::for_each_simd_level([&](int level) {
    Rng rng(401 + level);
    const float kBad[] = {std::nanf(""), INFINITY, -INFINITY, 0.0f, 1e-40f};
    for (float bad : kBad) {
      double u1 = 0.0, u2 = 0.0, z[2];
      random_pair(rng, u1, u2, z);
      const float g[2] = {bad, bad};
      float out[2] = {};
      uint8_t keep = 2;
      exec::gauss::exp_normal_pairs(&u1, &u2, 1, {0.0, 0.1, 1.0, false}, g, out, &keep);
      EXPECT_EQ(keep, 0) << "level " << level << " g = " << bad;
    }
    double u1 = 0.0, u2 = 0.0, z[2];
    random_pair(rng, u1, u2, z);
    uint8_t keep = 2;
    float out[2] = {};
    exec::gauss::exp_normal_pairs(&u1, &u2, 1, {600.0, 0.1, 1.0, false}, nullptr,
                                  out, &keep);
    EXPECT_EQ(keep, 0) << "level " << level << ": exponent beyond range kept";
  });
}

TEST(ExpNormalKernel, KeepsAllButARareFewRandomPairs) {
  // The fast path must carry the load at the write path's shapes:
  // programming factors at sigma 0.1 and drift at its defaults.
  const ExpNormal kSpecs[] = {{0.0, 0.1, 1.0, false},
                              {0.05, 0.02, -std::log(1e4), true}};
  testutil::for_each_simd_level([&](int level) {
    for (const ExpNormal& p : kSpecs) {
      Rng rng(77 + level);
      constexpr int64_t kPairs = 40;
      double u1[kPairs] = {}, u2[kPairs] = {};
      std::vector<float> g = conductances(2 * kPairs, 5);
      float out[2 * kPairs + 1] = {};
      uint8_t keep[kPairs] = {};
      int64_t pairs = 0, rejected = 0;
      for (int it = 0; it < 20000; ++it) {
        const int64_t np = 1 + it % kPairs;
        for (int64_t i = 0; i < np; ++i) {
          double z[2];
          random_pair(rng, u1[i], u2[i], z);
        }
        out[2 * np] = -7.0f;
        rejected += exec::gauss::exp_normal_pairs(u1, u2, np, p, g.data(), out, keep);
        ASSERT_EQ(out[2 * np], -7.0f) << "wrote past 2 * npairs";
        pairs += np;
      }
      EXPECT_LT(static_cast<double>(rejected) / pairs, 2e-3)
          << "level " << level << " k " << p.k;
    }
  });
}

// Rng(seed) seeds state word j with splitmix64's (j + 1)-th output, i.e.
// mix64(seed + j * 0x9E3779B97F4A7C15): the lane state of stream k.
void seed_lane(uint64_t* state, int k, uint64_t seed) {
  for (int j = 0; j < 4; ++j)
    state[j * 8 + k] = mix64(seed + static_cast<uint64_t>(j) * 0x9E3779B97F4A7C15ull);
}

// The seed whose state has s[1] = 0, so that its first output is 0: u1 = 0,
// which Rng::normal rejects and redraws (mix64 is a bijection that maps
// -0x9E3779B97F4A7C15 to 0).
constexpr uint64_t kZeroFirstDrawSeed = 0ull - 2 * 0x9E3779B97F4A7C15ull;

TEST(UniformLanes, TenMillionOutputsMatchNextU64) {
  // Every lane count 1-8 and call length 1-64 pairs: each lane's uniforms
  // are its stream's next_u64() >> 11 scaled by 2^-53, in order (the low 11
  // bits of an output are not visible, but the state that made them is:
  // every later output depends on it). No u1 of 0 on these streams.
  constexpr int64_t kOutputs = 10'000'000;
  testutil::for_each_simd_level([&](int level) {
    int64_t done = 0, mismatches = 0, calls = 0;
    std::vector<double> u1(8 * 64), u2(8 * 64);
    while (done < kOutputs) {
      const int ns = 1 + static_cast<int>(calls % 8);
      uint64_t state[32] = {};
      std::vector<Rng> ref;
      for (int k = 0; k < ns; ++k) {
        const uint64_t seed = 1000 * static_cast<uint64_t>(level) + calls * 8 + k;
        seed_lane(state, k, seed);
        ref.emplace_back(seed);
      }
      for (int rep = 0; rep < 8; ++rep) {
        const int64_t np = 1 + (calls * 7 + rep * 13) % 64;
        ASSERT_EQ(exec::gauss::uniform_pair_lanes(state, ns, np, u1.data(), u2.data()),
                  0u);
        for (int64_t p = 0; p < np; ++p)
          for (int k = 0; k < ns; ++k) {
            const auto x1 = static_cast<double>(ref[static_cast<size_t>(k)].next_u64() >> 11);
            const auto x2 = static_cast<double>(ref[static_cast<size_t>(k)].next_u64() >> 11);
            mismatches += u1[static_cast<size_t>(p * ns + k)] * 0x1p53 != x1;
            mismatches += u2[static_cast<size_t>(p * ns + k)] * 0x1p53 != x2;
          }
        done += 2 * np * ns;
      }
      ++calls;
    }
    EXPECT_EQ(mismatches, 0) << "level " << level << ", " << done << " outputs";
  });
}

TEST(UniformLanes, FlagsExactlyTheStreamsThatDrawAZeroU1) {
  testutil::for_each_simd_level([&](int level) {
    for (int planted = 0; planted < 8; ++planted) {
      uint64_t state[32] = {};
      for (int k = 0; k < 8; ++k)
        seed_lane(state, k, k == planted ? kZeroFirstDrawSeed : 50u + k);
      ASSERT_EQ(state[8 + planted], 0u);  // s[1] = 0
      double u1[8 * 3], u2[8 * 3];
      EXPECT_EQ(exec::gauss::uniform_pair_lanes(state, 8, 3, u1, u2), 1u << planted)
          << "level " << level;
      EXPECT_EQ(u1[planted], 0.0);
      // Past the stream count nothing is reported, planted or not.
      seed_lane(state, planted, kZeroFirstDrawSeed);
      EXPECT_EQ(exec::gauss::uniform_pair_lanes(state, planted, 3, u1, u2), 0u);
    }
  });
}

// Draws the rows both ways with a sentinel-filled stride ld = n + 3 and
// compares each row bitwise; the gaps between rows must stay untouched.
void expect_rows_match(const std::vector<uint64_t>& seeds, int64_t n, float mean,
                       float stddev, const std::string& what) {
  const auto nrows = static_cast<int64_t>(seeds.size());
  const int64_t ld = n + 3;
  std::vector<float> got(static_cast<size_t>(nrows * ld), -7.0f);
  Rng::fill_normal_rows(seeds.data(), nrows, n, mean, stddev, got.data(), ld);
  std::vector<float> want(static_cast<size_t>(n));
  for (int64_t k = 0; k < nrows; ++k) {
    Rng(seeds[static_cast<size_t>(k)]).fill_normal(want.data(), n, mean, stddev);
    const float* row = got.data() + k * ld;
    testutil::expect_bitwise_equal(row, want.data(), n,
                                   what + " row " + std::to_string(k));
    for (int64_t i = n; i < ld; ++i)
      ASSERT_EQ(row[i], -7.0f) << what << " row " << k << ": wrote past n";
  }
}

TEST(FillNormalRows, MatchesPerRowFillNormalOnEverySizeAndRowCount) {
  // n 0-300 (odd n ends on the cos of one more pair) and 1-8 rows, plus
  // row counts past one 8-lane group.
  testutil::for_each_simd_level([&](int level) {
    uint64_t seed = 5000;
    for (int64_t n = 0; n <= 300; ++n)
      for (int64_t nrows = 1; nrows <= 8; ++nrows) {
        std::vector<uint64_t> seeds;
        for (int64_t k = 0; k < nrows; ++k) seeds.push_back(mix64(++seed));
        const float sigma = n % 3 == 0 ? 0.02f : 1.0f;
        expect_rows_match(seeds, n, n % 2 ? 0.0f : 0.25f, sigma,
                          "level " + std::to_string(level) + " n=" +
                              std::to_string(n) + " rows=" + std::to_string(nrows));
      }
    for (int64_t nrows : {9, 16, 19}) {
      std::vector<uint64_t> seeds;
      for (int64_t k = 0; k < nrows; ++k) seeds.push_back(mix64(++seed));
      expect_rows_match(seeds, 129, 0.0f, 0.02f,
                        "level " + std::to_string(level) + " rows=" +
                            std::to_string(nrows));
    }
  });
}

TEST(FillNormalRows, ARowThatRedrawsAZeroU1FallsBackToItsOwnStream) {
  // The planted stream's first u1 is 0: the scalar path draws a fresh u1,
  // shifting that row's pairs by one draw against the lanes. Planted in
  // every lane position, with odd and even n, alone and among 8 rows.
  testutil::for_each_simd_level([&](int level) {
    for (int64_t n : {1, 2, 7, 128, 129})
      for (int64_t nrows : {1, 5, 8})
        for (int64_t planted = 0; planted < nrows; ++planted) {
          std::vector<uint64_t> seeds;
          for (int64_t k = 0; k < nrows; ++k)
            seeds.push_back(k == planted ? kZeroFirstDrawSeed : mix64(900 + k));
          expect_rows_match(seeds, n, 0.0f, 0.02f,
                            "level " + std::to_string(level) + " planted " +
                                std::to_string(planted) + " n=" + std::to_string(n));
        }
    // The reference really redraws: its first value is not the lanes' pair.
    Rng planted(kZeroFirstDrawSeed);
    EXPECT_EQ(planted.next_u64(), 0u);
  });
}

}  // namespace
}  // namespace cn
