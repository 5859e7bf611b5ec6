// The Gaussian span primitive, Rng::fill_normal, against the scalar loop it
// replaces, and its block Box–Muller kernel (exec/gauss_kernels.h) against
// libm on crafted uniform pairs. Every comparison is bitwise and runs at
// every exec::simd level the host supports: the kernel's polynomials round
// differently per level, and the rounding test must absorb that.
#include "exec/gauss_kernels.h"

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

}  // namespace
}  // namespace cn
