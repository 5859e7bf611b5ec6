#include "analog/quant.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace cn::analog {

float quantize_uniform(float x, float lo, float hi, int levels) {
  if (levels < 2) throw std::invalid_argument("quantize_uniform: levels must be >= 2");
  if (hi <= lo) throw std::invalid_argument("quantize_uniform: bad range");
  x = std::clamp(x, lo, hi);
  const float step = (hi - lo) / static_cast<float>(levels - 1);
  const float q = std::round((x - lo) / step);
  return lo + q * step;
}

namespace {

// std::round of t = (clamped x - lo) / step, which is +0 .. levels - 1 or
// NaN, without the libm call and branch-free so the span loop vectorizes:
// t >= 2^23 is already integral and NaN fails the range test, both pass
// through; otherwise truncate and add one when the dropped fraction is
// >= 0.5. Every operation is exact.
inline float round_half_up_nonneg(float t) {
  constexpr float kIntegral = 8388608.0f;  // 2^23
  const bool small = t < kIntegral;
  const float tr = static_cast<float>(static_cast<int32_t>(small ? t : 0.0f));
  const float up = t - tr >= 0.5f ? 1.0f : 0.0f;
  return small ? tr + up : t;
}

}  // namespace

void quantize_uniform_span(float* x, int64_t n, float lo, float hi, int levels) {
  if (levels < 2) throw std::invalid_argument("quantize_uniform: levels must be >= 2");
  if (hi <= lo) throw std::invalid_argument("quantize_uniform: bad range");
  const float step = (hi - lo) / static_cast<float>(levels - 1);
  for (int64_t i = 0; i < n; ++i) {
    const float v = std::clamp(x[i], lo, hi);
    x[i] = lo + round_half_up_nonneg((v - lo) / step) * step;
  }
}

void quantize_tensor(Tensor& t, float lo, float hi, int levels) {
  for (int64_t i = 0; i < t.size(); ++i) t[i] = quantize_uniform(t[i], lo, hi, levels);
}

void dac_quantize(Tensor& x, int bits) { dac_quantize_span(x.data(), x.size(), bits); }

void dac_quantize_span(float* x, int64_t n, int bits) {
  if (bits <= 0 || n == 0) return;
  float lo = x[0], hi = x[0];
  for (int64_t i = 1; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  if (hi - lo < 1e-12f) return;
  for (int64_t i = 0; i < n; ++i) x[i] = quantize_uniform(x[i], lo, hi, 1 << bits);
}

void adc_quantize(Tensor& currents, int bits, float full_scale) {
  if (bits <= 0) return;
  quantize_tensor(currents, -full_scale, full_scale, 1 << bits);
}

}  // namespace cn::analog
