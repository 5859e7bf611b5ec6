#include "analog/quant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "tensor/rng.h"

namespace cn::analog {
namespace {

TEST(QuantizeUniform, EndpointsExact) {
  EXPECT_FLOAT_EQ(quantize_uniform(0.0f, 0.0f, 1.0f, 5), 0.0f);
  EXPECT_FLOAT_EQ(quantize_uniform(1.0f, 0.0f, 1.0f, 5), 1.0f);
}

TEST(QuantizeUniform, RoundsToNearestLevel) {
  // Levels at 0, 0.25, 0.5, 0.75, 1.
  EXPECT_FLOAT_EQ(quantize_uniform(0.3f, 0.0f, 1.0f, 5), 0.25f);
  EXPECT_FLOAT_EQ(quantize_uniform(0.4f, 0.0f, 1.0f, 5), 0.5f);
}

TEST(QuantizeUniform, ClampsOutOfRange) {
  EXPECT_FLOAT_EQ(quantize_uniform(2.0f, 0.0f, 1.0f, 3), 1.0f);
  EXPECT_FLOAT_EQ(quantize_uniform(-1.0f, 0.0f, 1.0f, 3), 0.0f);
}

TEST(QuantizeUniform, Validates) {
  EXPECT_THROW(quantize_uniform(0.5f, 0.0f, 1.0f, 1), std::invalid_argument);
  EXPECT_THROW(quantize_uniform(0.5f, 1.0f, 0.0f, 4), std::invalid_argument);
}

// quantize_uniform_span must equal quantize_uniform element by element, bit
// for bit, on every input: the ADC periphery's rounding may not drift.
void expect_span_matches(std::vector<float> xs, float lo, float hi, int levels) {
  std::vector<float> got = xs;
  quantize_uniform_span(got.data(), static_cast<int64_t>(got.size()), lo, hi, levels);
  int64_t mismatches = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const float want = quantize_uniform(xs[i], lo, hi, levels);
    if (std::memcmp(&got[i], &want, sizeof(float)) != 0 && ++mismatches <= 5)
      ADD_FAILURE() << "x " << xs[i] << " range [" << lo << ", " << hi << "] levels "
                    << levels << ": got " << got[i] << ", want " << want;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(QuantizeUniformSpan, MatchesScalarOnEdgeValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (float fs : {1.0f, 0.0128f, 3.7e-3f, 0.3f, 2.5e4f}) {
    for (int bits : {1, 2, 3, 5, 8, 12, 16, 24, 30}) {
      const int levels = 1 << bits;
      const float lo = -fs, hi = fs;
      const float step = (hi - lo) / static_cast<float>(levels - 1);
      std::vector<float> xs = {fs, -fs, 0.0f, -0.0f, inf, -inf, nan, -nan,
                               std::nextafter(fs, inf), std::nextafter(-fs, -inf)};
      // Exact half-steps between levels, and their neighbours.
      const int64_t probes = std::min<int64_t>(levels - 1, 300);
      for (int64_t i = 0; i < probes; ++i) {
        const int64_t q = i * (levels - 1) / probes;
        const float half = lo + (static_cast<float>(q) + 0.5f) * step;
        xs.push_back(half);
        xs.push_back(std::nextafter(half, inf));
        xs.push_back(std::nextafter(half, -inf));
        xs.push_back(lo + static_cast<float>(q) * step);
      }
      expect_span_matches(xs, lo, hi, levels);
    }
  }
  // Non-power-of-two level counts and an asymmetric range.
  expect_span_matches({0.125f, 0.375f, 0.625f, 0.875f, -0.0f, nan}, 0.0f, 1.0f, 5);
  expect_span_matches({-0.5f, 0.1f, 0.7f, 1.3f}, -0.5f, 1.3f, 7);
}

TEST(QuantizeUniformSpan, MatchesScalarOnRandomFloats) {
  Rng rng(77);
  std::vector<float> ranged, raw;
  for (int i = 0; i < 500000; ++i) {
    ranged.push_back(static_cast<float>(rng.uniform(-1.2, 1.2)));
    const uint32_t bits = static_cast<uint32_t>(rng.next_u64());
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    raw.push_back(f);  // every exponent, infinities and NaN payloads included
  }
  expect_span_matches(ranged, -1.0f, 1.0f, 256);
  expect_span_matches(raw, -1.0f, 1.0f, 256);
}

TEST(QuantizeUniformSpan, Validates) {
  float x = 0.5f;
  EXPECT_THROW(quantize_uniform_span(&x, 1, 0.0f, 1.0f, 1), std::invalid_argument);
  EXPECT_THROW(quantize_uniform_span(&x, 1, 1.0f, 0.0f, 4), std::invalid_argument);
}

TEST(QuantizeTensor, LimitsDistinctValues) {
  Rng rng(1);
  Tensor t({1000});
  rng.fill_uniform(t, -1.0f, 1.0f);
  quantize_tensor(t, -1.0f, 1.0f, 8);
  std::set<float> distinct(t.vec().begin(), t.vec().end());
  EXPECT_LE(distinct.size(), 8u);
}

TEST(DacQuantize, DisabledForNonPositiveBits) {
  Tensor t = Tensor::from({0.1f, 0.7f, 0.3f});
  Tensor orig = t;
  dac_quantize(t, 0);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], orig[i]);
}

TEST(DacQuantize, PreservesRangeEndpoints) {
  Tensor t = Tensor::from({0.0f, 1.0f, 0.49f});
  dac_quantize(t, 1);  // 2 levels: 0 or 1
  EXPECT_FLOAT_EQ(t[0], 0.0f);
  EXPECT_FLOAT_EQ(t[1], 1.0f);
  EXPECT_FLOAT_EQ(t[2], 0.0f);
}

TEST(DacQuantize, ConstantInputUntouched) {
  Tensor t({4}, 2.0f);
  dac_quantize(t, 4);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t[i], 2.0f);
}

TEST(AdcQuantize, HighResolutionIsNearLossless) {
  Rng rng(2);
  Tensor t({100});
  rng.fill_uniform(t, -0.9f, 0.9f);
  Tensor orig = t;
  adc_quantize(t, 12, 1.0f);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_NEAR(t[i], orig[i], 1e-3f);
}

TEST(AdcQuantize, LowResolutionIsCoarse) {
  Tensor t = Tensor::from({0.3f});
  adc_quantize(t, 2, 1.0f);  // 4 levels over [-1, 1]: -1, -1/3, 1/3, 1
  EXPECT_NEAR(t[0], 1.0f / 3.0f, 1e-5f);
}

}  // namespace
}  // namespace cn::analog
