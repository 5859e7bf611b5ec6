#include "analog/crossbar.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.h"

namespace cn::analog {
namespace {

RramDeviceParams ideal_device() {
  RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  return dev;  // no variation, no quantization, no noise
}

TEST(CrossbarTile, IdealTileReproducesWeights) {
  Rng rng(1);
  Tensor w({6, 5});
  rng.fill_normal(w, 0.0f, 0.5f);
  CrossbarTile tile(w, max_abs(w), ideal_device(), rng);
  Tensor w_eff = tile.effective_weights();
  for (int64_t i = 0; i < w.size(); ++i) EXPECT_NEAR(w_eff[i], w[i], 1e-6f);
}

TEST(CrossbarArray, IdealMatvecEqualsIdealMath) {
  Rng rng(2);
  Tensor w({9, 17});  // (out, in)
  rng.fill_normal(w, 0.0f, 0.5f);
  CrossbarArray xbar(w, ideal_device(), rng, /*tile=*/8);
  EXPECT_GT(xbar.num_tiles(), 1);
  Tensor x({17});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y = xbar.matvec(x);
  Tensor ref = matvec(w, x);
  for (int64_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-4f);
}

TEST(CrossbarArray, EffectiveWeightsRoundTrip) {
  Rng rng(3);
  Tensor w({5, 7});
  rng.fill_normal(w, 0.0f, 1.0f);
  CrossbarArray xbar(w, ideal_device(), rng, 4);
  Tensor w_eff = xbar.effective_weights();
  ASSERT_EQ(w_eff.shape(), w.shape());
  for (int64_t i = 0; i < w.size(); ++i) EXPECT_NEAR(w_eff[i], w[i], 1e-5f);
}

TEST(CrossbarArray, ProgramSigmaPerturbsWeights) {
  Rng rng(4);
  Tensor w({8, 8});
  rng.fill_normal(w, 0.0f, 0.5f);
  RramDeviceParams dev = ideal_device();
  dev.program_sigma = 0.3f;
  CrossbarArray xbar(w, dev, rng, 8);
  Tensor w_eff = xbar.effective_weights();
  float total_dev = 0.0f;
  for (int64_t i = 0; i < w.size(); ++i) total_dev += std::fabs(w_eff[i] - w[i]);
  EXPECT_GT(total_dev, 0.01f);
}

TEST(CrossbarArray, ConductanceQuantizationLimitsLevels) {
  Rng rng(5);
  Tensor w({1, 16});
  rng.fill_normal(w, 0.0f, 1.0f);
  RramDeviceParams dev = ideal_device();
  dev.conductance_levels = 4;
  CrossbarArray xbar(w, dev, rng, 16);
  Tensor w_eff = xbar.effective_weights();
  // Each differential weight is a difference of 4-level conductances: the
  // distinct values are limited (<= 7 distinct differences).
  std::vector<float> vals;
  for (int64_t i = 0; i < w_eff.size(); ++i) {
    bool found = false;
    for (float v : vals)
      if (std::fabs(v - w_eff[i]) < 1e-7f) found = true;
    if (!found) vals.push_back(w_eff[i]);
  }
  EXPECT_LE(vals.size(), 7u);
}

TEST(CrossbarArray, ReadNoiseOnlyWithRng) {
  Rng rng(6);
  Tensor w({4, 4});
  rng.fill_normal(w, 0.0f, 0.5f);
  RramDeviceParams dev = ideal_device();
  dev.readout.read_sigma = 0.05f;
  CrossbarArray xbar(w, dev, rng, 4);
  Tensor x({4}, 1.0f);
  // Without read rng: deterministic.
  Tensor y1 = xbar.matvec(x);
  Tensor y2 = xbar.matvec(x);
  for (int64_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
  // With read rng: noisy.
  Rng read_rng(7);
  Tensor y3 = xbar.matvec(x, &read_rng);
  float diff = 0.0f;
  for (int64_t i = 0; i < y1.size(); ++i) diff += std::fabs(y3[i] - y1[i]);
  EXPECT_GT(diff, 1e-7f);
}

TEST(CrossbarArray, RejectsBadInputs) {
  Rng rng(8);
  EXPECT_THROW(CrossbarArray(Tensor({4}), ideal_device(), rng), std::invalid_argument);
  Tensor w({2, 2});
  EXPECT_THROW(CrossbarArray(w, ideal_device(), rng, 0), std::invalid_argument);
  CrossbarArray xbar(w, ideal_device(), rng);
  EXPECT_THROW(xbar.matvec(Tensor({5})), std::invalid_argument);
  RramDeviceParams bad = ideal_device();
  bad.g_max = bad.g_min;
  EXPECT_THROW(CrossbarTile(w, 1.0f, bad, rng), std::invalid_argument);
}

TEST(CrossbarTile, RejectsNonRank2WeightBeforeReadingItsShape) {
  // The rank check must run before the member initializers read dim(1): a
  // rank-1 weight has no second dimension (an assert in Debug builds, an
  // out-of-bounds read in Release).
  Rng rng(9);
  EXPECT_THROW(CrossbarTile(Tensor({4}), 1.0f, ideal_device(), rng),
               std::invalid_argument);
}

// Property: at matched sigma, the crossbar programming variation and the
// layer-level lognormal factor model produce deviations of similar scale.
TEST(CrossbarArray, ProgramVariationScalesLikeLognormalModel) {
  Rng rng(9);
  Tensor w({32, 32});
  rng.fill_normal(w, 0.0f, 0.5f);
  RramDeviceParams dev = ideal_device();
  dev.program_sigma = 0.2f;
  double dev_sum = 0.0;
  int count = 0;
  CrossbarArray xbar(w, dev, rng, 32);
  Tensor w_eff = xbar.effective_weights();
  for (int64_t i = 0; i < w.size(); ++i) {
    if (std::fabs(w[i]) > 0.3f) {  // well above g_min resolution
      dev_sum += std::fabs(w_eff[i] / w[i] - 1.0);
      ++count;
    }
  }
  const double mean_rel_dev = dev_sum / count;
  // E|e^θ - 1| for σ=0.2 is ≈ 0.16; allow wide tolerance (differential pairs).
  EXPECT_GT(mean_rel_dev, 0.05);
  EXPECT_LT(mean_rel_dev, 0.5);
}

}  // namespace
}  // namespace cn::analog
