#include "tensor/rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "exec/gauss_kernels.h"

namespace cn {

namespace {
inline uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64 for seeding.
uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Box–Muller with libm: the reference every normal draw is bit-identical to.
void box_muller(double u1, double u2, double& c, double& s) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double a = 6.283185307179586476925286766559 * u2;
  s = r * std::sin(a);
  c = r * std::cos(a);
}
}  // namespace

uint64_t mix64(uint64_t z) {
  uint64_t state = z;
  return splitmix64(state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

uint64_t Rng::next_u64() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

int64_t Rng::uniform_int(int64_t n) {
  return n <= 0 ? 0 : static_cast<int64_t>(uniform() * static_cast<double>(n));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  double c = 0.0;
  box_muller(u1, u2, c, cached_normal_);
  has_cached_normal_ = true;
  return c;
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::fork() { return Rng(next_u64() ^ 0xD1B54A32D192ED03ull); }

// The Gaussian spans share one loop. `pairs(u1, u2, np, i, keep)` maps
// np uniform pairs to out[i .. i + 2np) through a certified block kernel
// and returns how many pairs it did not keep; `value(j, z)` is the scalar
// libm form of out[j] for a normal z. A cached second normal is libm's
// exact double: it goes first, as is. An odd tail takes a fresh pair
// through normal(), which leaves libm's exact second value in the cache.
template <typename Pairs, typename Value>
void Rng::fill_span(float* out, int64_t n, const Pairs& pairs, const Value& value) {
  int64_t i = 0;
  if (n > 0 && has_cached_normal_) {
    out[0] = value(0, normal());
    i = 1;
  }
  constexpr int64_t kBlock = 64;  // pairs per kernel call
  double u1[kBlock], u2[kBlock];
  uint8_t keep[kBlock];
  while (n - i >= 2) {
    const int64_t np = std::min(kBlock, (n - i) / 2);
    for (int64_t p = 0; p < np; ++p) {
      do {
        u1[p] = uniform();
      } while (u1[p] <= 1e-300);
      u2[p] = uniform();
    }
    if (pairs(u1, u2, np, i, keep) > 0) {
      for (int64_t p = 0; p < np; ++p) {
        if (keep[p]) continue;
        double c = 0.0, sn = 0.0;
        box_muller(u1[p], u2[p], c, sn);
        out[i + 2 * p] = value(i + 2 * p, c);
        out[i + 2 * p + 1] = value(i + 2 * p + 1, sn);
      }
    }
    i += 2 * np;
  }
  if (i < n) out[i] = value(i, normal());
}

void Rng::fill_normal(float* out, int64_t n, float mean, float stddev) {
  const double m = mean, s = stddev;
  fill_span(
      out, n,
      [&](const double* u1, const double* u2, int64_t np, int64_t i, uint8_t* keep) {
        return exec::gauss::box_muller_pairs(u1, u2, np, m, s, out + i, keep);
      },
      [&](int64_t, double z) { return static_cast<float>(m + s * z); });
}

void Rng::fill_normal_rows(const uint64_t* seeds, int64_t nrows, int64_t n,
                           float mean, float stddev, float* out, int64_t ld) {
  constexpr int kLanes = 8;
  constexpr int64_t kPairs = 32;  // pairs per stream per kernel call
  const double m = mean, s = stddev;
  // A fresh stream's fill_normal is ceil(n / 2) uniform pairs: the full
  // pairs, then for an odd n one more whose cos is the last value.
  const int64_t npairs = (n + 1) / 2;
  double u1[kLanes * kPairs], u2[kLanes * kPairs];
  float z[2 * kLanes * kPairs];
  uint8_t keep[kLanes * kPairs];
  for (int64_t k0 = 0; k0 < nrows; k0 += kLanes) {
    const int ns = static_cast<int>(std::min<int64_t>(kLanes, nrows - k0));
    uint64_t state[4 * kLanes] = {};
    for (int k = 0; k < ns; ++k) {
      const Rng r(seeds[k0 + k]);
      for (int j = 0; j < 4; ++j) state[j * kLanes + k] = r.s_[j];
    }
    uint32_t redraw = 0;
    for (int64_t p0 = 0; p0 < npairs; p0 += kPairs) {
      const int64_t np = std::min(kPairs, npairs - p0);
      redraw |= exec::gauss::uniform_pair_lanes(state, ns, np, u1, u2);
      const int64_t rejected =
          exec::gauss::box_muller_pairs(u1, u2, np * ns, m, s, z, keep);
      // Pair p of stream k sits at z[2 (p ns + k)]; for an odd n the last
      // pair contributes only its cos.
      const int64_t nfull = std::min(np, n / 2 - p0);
      for (int k = 0; k < ns; ++k) {
        float* o = out + (k0 + k) * ld + 2 * p0;
        for (int64_t p = 0; p < nfull; ++p)
          std::memcpy(o + 2 * p, z + 2 * (p * ns + k), 2 * sizeof(float));
        if (nfull < np) o[2 * nfull] = z[2 * (nfull * ns + k)];
      }
      if (rejected == 0) continue;
      for (int64_t q = 0; q < np * ns; ++q) {
        if (keep[q]) continue;
        const int64_t j = 2 * (p0 + q / ns);
        float* o = out + (k0 + q % ns) * ld + j;
        double c = 0.0, sn = 0.0;
        box_muller(u1[q], u2[q], c, sn);
        o[0] = static_cast<float>(m + s * c);
        if (j + 1 < n) o[1] = static_cast<float>(m + s * sn);
      }
    }
    for (int k = 0; k < ns; ++k)
      if ((redraw >> k) & 1u)
        Rng(seeds[k0 + k]).fill_normal(out + (k0 + k) * ld, n, mean, stddev);
  }
}

void Rng::fill_exp_normal(float* out, const float* g, int64_t n,
                          const exec::gauss::ExpNormal& p) {
  fill_span(
      out, n,
      [&](const double* u1, const double* u2, int64_t np, int64_t i, uint8_t* keep) {
        return exec::gauss::exp_normal_pairs(u1, u2, np, p, g ? g + i : nullptr,
                                             out + i, keep);
      },
      [&](int64_t j, double z) {
        const double x = p.mean + p.stddev * z;
        const double c = p.clamp ? std::max(0.0, x) : x;
        return static_cast<float>((g ? g[j] : 1.0) * std::exp(p.k * c));
      });
}

void Rng::fill_normal(Tensor& t, float mean, float stddev) {
  fill_normal(t.data(), t.size(), mean, stddev);
}

void Rng::fill_uniform(Tensor& t, float lo, float hi) {
  for (int64_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(uniform(lo, hi));
}

void Rng::fill_lognormal_factor(Tensor& t, float sigma) {
  fill_exp_normal(t.data(), nullptr, t.size(), {0.0, sigma, 1.0, false});
}

}  // namespace cn
