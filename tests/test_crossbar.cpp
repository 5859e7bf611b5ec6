#include "analog/crossbar.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "exec_testutil.h"
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
  Tensor x({1, 4}, 1.0f);
  // Without read rng: deterministic.
  Tensor y1 = xbar.matmul(x);
  Tensor y2 = xbar.matmul(x);
  for (int64_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
  // With read rng: noisy.
  Rng read_rng(7);
  Tensor y3 = xbar.matmul(x, &read_rng);
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

TEST(CrossbarTile, RejectsNonFiniteOrNegativeSigmas) {
  // A NaN or negative sigma fails every "> 0" guard and would program or
  // read noise-free without a word.
  Rng rng(8);
  Tensor w({2, 2});
  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(), -0.1f,
                        std::numeric_limits<float>::infinity()};
  for (float bad : kBad) {
    RramDeviceParams prog = ideal_device();
    prog.program_sigma = bad;
    EXPECT_THROW(CrossbarTile(w, 1.0f, prog, rng), std::invalid_argument) << bad;
    EXPECT_THROW(CrossbarArray(w, prog, rng), std::invalid_argument) << bad;
    RramDeviceParams read = ideal_device();
    read.readout.read_sigma = bad;
    EXPECT_THROW(CrossbarTile(w, 1.0f, read, rng), std::invalid_argument) << bad;
    EXPECT_THROW(validate_device(read), std::invalid_argument) << bad;
  }
  RramDeviceParams ok = ideal_device();
  ok.program_sigma = 0.0f;
  ok.readout.read_sigma = 0.0f;
  EXPECT_NO_THROW(validate_device(ok));
}

// Copies a tile's conductances when applied as a fault model and draws
// nothing: the tests' window onto the programmed arrays.
struct Probe final : FaultModel {
  mutable std::vector<float> pos, neg;
  void apply(float* g_pos, float* g_neg, const TileCtx& ctx,
             const RramDeviceParams&, Rng&) const override {
    const int64_t n = ctx.rows * ctx.cols;
    pos.assign(g_pos, g_pos + n);
    neg.assign(g_neg, g_neg + n);
  }
  std::string name() const override { return "probe"; }
};

// CrossbarTile's programming loop before the lognormal span, kept as the
// reference: two scalar lognormal draws per weight, G+ then G-, each
// applied as a float product.
void reference_program(const Tensor& w, float w_absmax, const RramDeviceParams& dev,
                       Rng& rng, std::vector<float>& g_pos, std::vector<float>& g_neg) {
  const float scale = (w_absmax > 0.0f) ? w_absmax / (dev.g_max - dev.g_min) : 1.0f;
  g_pos.resize(static_cast<size_t>(w.size()));
  g_neg.resize(static_cast<size_t>(w.size()));
  for (int64_t i = 0; i < w.size(); ++i) {
    const float wv = w[i];
    float gp = dev.g_min + (wv > 0.0f ? wv / scale : 0.0f);
    float gn = dev.g_min + (wv < 0.0f ? -wv / scale : 0.0f);
    gp = std::min(gp, dev.g_max);
    gn = std::min(gn, dev.g_max);
    if (dev.conductance_levels > 1) {
      gp = quantize_uniform(gp, dev.g_min, dev.g_max, dev.conductance_levels);
      gn = quantize_uniform(gn, dev.g_min, dev.g_max, dev.conductance_levels);
    }
    if (dev.program_sigma > 0.0f) {
      gp *= static_cast<float>(rng.lognormal(0.0, dev.program_sigma));
      gn *= static_cast<float>(rng.lognormal(0.0, dev.program_sigma));
    }
    g_pos[static_cast<size_t>(i)] = gp;
    g_neg[static_cast<size_t>(i)] = gn;
  }
}

TEST(CrossbarTile, ProgrammingMatchesTheScalarLognormalLoop) {
  // Odd shapes (spans that end mid-chunk and on odd counts), level
  // quantization on and off, every sigma the lognormal tests use, and a
  // stream that starts on a cached normal: conductances and the stream's
  // end state must equal the scalar loop's at every simd level.
  struct Shape {
    int64_t rows, cols;
  };
  const Shape kShapes[] = {{1, 1}, {7, 13}, {33, 17}, {64, 129}};
  const float kSigmas[] = {0.0f, 0.02f, 0.1f, 0.3f, 0.5f, 1.0f, 3.0f};
  testutil::for_each_simd_level([&](int level) {
    uint64_t seed = 70;
    for (const Shape& sh : kShapes)
      for (float sigma : kSigmas)
        for (int levels : {0, 16})
          for (bool cached : {false, true}) {
            Rng wr(++seed);
            Tensor w({sh.rows, sh.cols});
            wr.fill_normal(w, 0.0f, 0.5f);
            RramDeviceParams dev = ideal_device();
            dev.program_sigma = sigma;
            dev.conductance_levels = levels;
            Rng rng(seed * 7), ref(seed * 7);
            if (cached) {
              rng.normal();
              ref.normal();
            }
            CrossbarTile tile(w, max_abs(w), dev, rng, /*defer_lowering=*/true);
            Probe probe;
            FaultModel::TileCtx ctx;
            ctx.rows = ctx.array_rows = sh.rows;
            ctx.cols = ctx.array_cols = sh.cols;
            tile.apply_faults({&probe}, ctx, rng);
            std::vector<float> want_pos, want_neg;
            reference_program(w, max_abs(w), dev, ref, want_pos, want_neg);
            const std::string what =
                "level " + std::to_string(level) + " " + std::to_string(sh.rows) +
                "x" + std::to_string(sh.cols) + " sigma=" + std::to_string(sigma) +
                " levels=" + std::to_string(levels) + (cached ? " cached" : "");
            testutil::expect_bitwise_equal(probe.pos.data(), want_pos.data(),
                                           w.size(), what + " G+");
            testutil::expect_bitwise_equal(probe.neg.data(), want_neg.data(),
                                           w.size(), what + " G-");
            const double a = rng.normal(), b = ref.normal();
            EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << what << ": next draw";
            EXPECT_EQ(rng.next_u64(), ref.next_u64()) << what << ": stream";
          }
  });
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
