// Shared helpers for suites that assert the bit-exactness contract between
// execution paths (batched crossbar vs scalar matvec, fused vs unfused
// graphs).
//
// per_column_forward runs a crossbar chip one CrossbarArray::matvec per
// input vector: the reference a chip's batched forward is held to.
//
// for_each_simd_level runs a parity check once per exec::simd dispatch level
// the build and host support, so one tier-1 run covers every kernel variant.
//
// expect_bitwise_equal / expect_same_bits are the shared parity assertions:
// one failure per call with the first mismatching index, both values, the
// magnitude of the difference, and the mismatch count — instead of a
// per-element ASSERT_EQ spray.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analog/crossbar_layers.h"
#include "exec/target.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace cn::testutil {

// Sign-adjusted integer image of a float: monotone in the IEEE-754 value
// order (with -0 mapping next to +0), so ulp distance is plain subtraction.
inline int64_t float_ordinal(float f) {
  int32_t i;
  std::memcpy(&i, &f, sizeof(i));
  return i >= 0 ? static_cast<int64_t>(i)
                : -static_cast<int64_t>(i & 0x7FFFFFFF);
}

inline int64_t ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<int64_t>::max();
  const int64_t d = float_ordinal(a) - float_ordinal(b);
  return d < 0 ? -d : d;
}

// Asserts got[i] and want[i] carry identical bit patterns for every i
// (strictly stronger than ==: a +0/-0 split fails, identical NaNs pass).
// One failure per call, carrying the diff geometry.
inline void expect_bitwise_equal(const float* got, const float* want,
                                 int64_t n, const std::string& what) {
  int64_t first = -1, mismatches = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      if (first < 0) first = i;
      ++mismatches;
    }
  }
  if (mismatches == 0) return;
  ADD_FAILURE() << what << ": " << mismatches << "/" << n
                << " elements differ; first at [" << first << "]: got "
                << got[first] << ", want " << want[first] << " (|diff| "
                << std::abs(static_cast<double>(got[first]) - want[first])
                << ", " << ulp_distance(got[first], want[first]) << " ulps)";
}

// expect_bitwise_equal, except that any NaN matches any NaN: when two NaNs
// meet in an add, which payload survives depends on the operand order the
// compiler picked, which the bit-exactness contracts do not fix.
inline void expect_same_bits(const float* got, const float* want, int64_t n,
                             const std::string& what) {
  int64_t first = -1, mismatches = 0;
  for (int64_t i = 0; i < n; ++i) {
    const bool same = (std::isnan(got[i]) && std::isnan(want[i])) ||
                      std::memcmp(&got[i], &want[i], sizeof(float)) == 0;
    if (!same) {
      if (first < 0) first = i;
      ++mismatches;
    }
  }
  if (mismatches > 0)
    ADD_FAILURE() << what << ": " << mismatches << "/" << n
                  << " elements differ; first at [" << first << "]: got "
                  << got[first] << ", want " << want[first];
}

inline void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                                 const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what << ": shape mismatch (got "
                                    << got.size() << " elements, want "
                                    << want.size() << ")";
  expect_bitwise_equal(got.data(), want.data(), got.size(), what);
}

// Calls fn(level) once per exec::simd dispatch level from 0 (generic) up
// to exec::simd::max_level(), with that level forced, and asserts that every
// supported level ran. Auto-selection is restored on the way out.
template <class Fn>
void for_each_simd_level(Fn&& fn) {
  struct ResetLevel {
    ~ResetLevel() { exec::simd::reset_level(); }
  } reset;  // also on exceptions out of fn
  int ran = 0;
  for (int level = 0; level <= exec::simd::max_level(); ++level) {
    if (!exec::simd::force_level(level) || exec::simd::current_level() != level)
      continue;
    fn(level);
    ++ran;
  }
  EXPECT_EQ(ran, exec::simd::max_level() + 1)
      << "a supported simd level could not be forced";
}

// Eval forward of `chip`, a program_to_crossbars(digital, ...) chip with
// read noise off, through the scalar crossbar read: a CrossbarDense runs
// one matvec per input row, a CrossbarConv2D one per output pixel over the
// im2col column, and each adds the bias of `digital`'s layer at the same
// index. Every other layer runs its own forward.
inline Tensor per_column_forward(nn::Sequential& chip, nn::Sequential& digital,
                                 const Tensor& x) {
  EXPECT_EQ(chip.num_layers(), digital.num_layers());
  Tensor h = x;
  int64_t crossbar_layers = 0;
  for (int64_t i = 0; i < chip.num_layers(); ++i) {
    nn::Layer& layer = chip.layer(i);
    if (const auto* d = dynamic_cast<analog::CrossbarDense*>(&layer)) {
      const analog::CrossbarArray& xbar = d->array();
      const Tensor& bias = dynamic_cast<nn::Dense&>(digital.layer(i)).bias().value;
      const int64_t N = h.dim(0), in = xbar.in_dim(), out = xbar.out_dim();
      Tensor y({N, out}), xi({in});
      for (int64_t n = 0; n < N; ++n) {
        std::copy(h.data() + n * in, h.data() + (n + 1) * in, xi.data());
        const Tensor yi = xbar.matvec(xi);
        for (int64_t o = 0; o < out; ++o) y[n * out + o] = yi[o] + bias[o];
      }
      h = std::move(y);
      ++crossbar_layers;
    } else if (const auto* c = dynamic_cast<analog::CrossbarConv2D*>(&layer)) {
      const analog::CrossbarArray& xbar = c->array();
      auto& src = dynamic_cast<nn::Conv2D&>(digital.layer(i));
      const ConvGeom& g = src.geom();
      const Tensor& bias = src.bias().value;
      const int64_t N = h.dim(0), K = xbar.in_dim(), out = xbar.out_dim();
      const int64_t P = g.out_h() * g.out_w(), img = g.in_c * g.in_h * g.in_w;
      std::vector<float> cols(static_cast<size_t>(K * P));
      Tensor y({N, out, g.out_h(), g.out_w()}), col({K});
      for (int64_t n = 0; n < N; ++n) {
        im2col(h.data() + n * img, g, cols.data());
        for (int64_t p = 0; p < P; ++p) {
          for (int64_t k = 0; k < K; ++k) col[k] = cols[static_cast<size_t>(k * P + p)];
          const Tensor acts = xbar.matvec(col);
          for (int64_t o = 0; o < out; ++o) y[(n * out + o) * P + p] = acts[o] + bias[o];
        }
      }
      h = std::move(y);
      ++crossbar_layers;
    } else {
      h = layer.forward(h, /*train=*/false);
    }
  }
  EXPECT_GT(crossbar_layers, 0) << "per_column_forward visited no crossbar layer";
  return h;
}

}  // namespace cn::testutil
