// Deterministic random number generation for the whole stack.
//
// Every stochastic component (weight init, dataset synthesis, variation
// sampling, RL exploration) takes an explicit Rng so experiments are
// reproducible bit-for-bit across runs given a seed.
#pragma once

#include <cstdint>

#include "exec/gauss_kernels.h"
#include "tensor/tensor.h"

namespace cn {

/// splitmix64 finalizer: spreads correlated inputs (seed ^ index mixes) into
/// independent-looking seeds. Used to derive per-chip and per-read-noise
/// streams deterministically.
uint64_t mix64(uint64_t z);

/// xoshiro256** generator: fast, high-quality, splittable via `fork`.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  int64_t uniform_int(int64_t n);
  /// Standard normal via Box-Muller (cached second value).
  double normal();
  /// Normal with the given mean / stddev.
  double normal(double mean, double stddev);
  /// Lognormal: exp(N(mu, sigma^2)).
  double lognormal(double mu, double sigma);
  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p);

  /// A statistically independent child generator (for per-thread streams).
  Rng fork();

  /// out[i] = float(normal(mean, stddev)) for i < n, bit for bit, leaving
  /// the generator (cached second normal included) exactly where n scalar
  /// calls would. Box–Muller pairs go through the certified block kernel
  /// (exec/gauss_kernels.h); the few lanes it cannot certify, a cached
  /// leading value and an odd tail take the scalar libm path.
  void fill_normal(float* out, int64_t n, float mean, float stddev);

  /// Read noise for a block of fresh streams: row k of out (stride ld)
  /// becomes, bit for bit, what Rng(seeds[k]).fill_normal(out + k * ld, n,
  /// mean, stddev) writes. Up to 8 rows at a time run their xoshiro256**
  /// streams in SIMD lanes (exec::gauss::uniform_pair_lanes) and feed one
  /// box_muller_pairs call per block; libm recomputes the pairs the kernel
  /// does not certify, an odd n takes the cos of one more pair, and a row
  /// whose stream draws a u1 of 0 (which normal() redraws) is recomputed
  /// with fill_normal.
  static void fill_normal_rows(const uint64_t* seeds, int64_t nrows, int64_t n,
                               float mean, float stddev, float* out, int64_t ld);

  /// The write path's lognormal span: out[i] = float(g[i] * exp(k * c(x)))
  /// with x = normal(p.mean, p.stddev) and c, k as in exec::gauss::ExpNormal
  /// (g[i] = 1 when g is null), bit for bit what n scalar draws compute in
  /// that order, end state included. out may alias g. Pairs go through the
  /// certified exp_normal_pairs kernel; the rest as in fill_normal.
  void fill_exp_normal(float* out, const float* g, int64_t n,
                       const exec::gauss::ExpNormal& p);

  // Tensor fills.
  void fill_normal(Tensor& t, float mean, float stddev);
  void fill_uniform(Tensor& t, float lo, float hi);
  /// Fills with exp(theta), theta ~ N(0, sigma^2) — the paper's Eq. (1)-(2),
  /// i.e. float(lognormal(0, sigma)) per element, through fill_exp_normal.
  void fill_lognormal_factor(Tensor& t, float sigma);

  /// Fisher-Yates shuffle of an index array.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (int64_t i = static_cast<int64_t>(v.size()) - 1; i > 0; --i) {
      int64_t j = uniform_int(i + 1);
      std::swap(v[static_cast<size_t>(i)], v[static_cast<size_t>(j)]);
    }
  }

 private:
  template <typename Pairs, typename Value>
  void fill_span(float* out, int64_t n, const Pairs& pairs, const Value& value);

  uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace cn
