#include "core/compensation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "analog/crossbar_layers.h"
#include "analog/variation.h"
#include "core/montecarlo.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "exec_testutil.h"
#include "graph_testutil.h"
#include "models/lenet.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace cn::core {
namespace {

TEST(AdaptiveAvgPool, IntegerRatioMatchesPlainPool) {
  Rng rng(1);
  Tensor x({2, 3, 8, 8});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y = adaptive_avgpool(x, 4, 4);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 4, 4}));
  // Each output = mean of a 2x2 block.
  const float expect = (x[0] + x[1] + x[8] + x[9]) / 4.0f;
  EXPECT_NEAR(y[0], expect, 1e-5f);
}

TEST(AdaptiveAvgPool, NonIntegerRatioPreservesMean) {
  Rng rng(2);
  Tensor x({1, 1, 14, 14});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y = adaptive_avgpool(x, 10, 10);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 10, 10}));
  // Identity case: out == in.
  Tensor z = adaptive_avgpool(x, 14, 14);
  for (int64_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(z[i], x[i]);
}

TEST(AdaptiveAvgPool, BackwardIsAdjoint) {
  // <pool(x), g> == <x, pool_backward(g)>.
  Rng rng(3);
  Tensor x({1, 2, 7, 7});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y = adaptive_avgpool(x, 5, 5);
  Tensor g(y.shape());
  rng.fill_normal(g, 0.0f, 1.0f);
  Tensor gx = adaptive_avgpool_backward(g, 7, 7);
  EXPECT_NEAR(dot(y, g), dot(x, gx), 1e-3f);
}

TEST(ConcatSplit, RoundTrip) {
  Rng rng(4);
  Tensor a({2, 3, 4, 4}), b({2, 5, 4, 4});
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  Tensor c = concat_channels(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 8, 4, 4}));
  Tensor ga, gb;
  split_channels(c, 3, ga, gb);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(ga[i], a[i]);
  for (int64_t i = 0; i < b.size(); ++i) EXPECT_FLOAT_EQ(gb[i], b[i]);
}

TEST(ConcatChannels, RejectsMismatchedSpatial) {
  EXPECT_THROW(concat_channels(Tensor({1, 1, 4, 4}), Tensor({1, 1, 5, 5})),
               std::invalid_argument);
}

TEST(CompensatedConv, IdentityInitIsNoop) {
  // Untrained compensation must not change the base layer's output.
  Rng rng(5);
  auto base = std::make_unique<nn::Conv2D>(3, 6, 3, 1, 1, 8, 8, "c");
  nn::he_normal(base->weight().value, 27, rng);
  nn::Sequential ref("ref");
  ref.add(base->clone());
  CompensatedConv2D cc(std::move(base), 3, rng);

  Tensor x({2, 3, 8, 8});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y_base = ref.forward(x, false);
  Tensor y_comp = cc.forward(x, false);
  ASSERT_EQ(y_base.shape(), y_comp.shape());
  for (int64_t i = 0; i < y_base.size(); ++i)
    EXPECT_NEAR(y_comp[i], y_base[i], 0.15f);  // identity + small noise taps
}

TEST(CompensatedConv, OnlyBaseIsAnalog) {
  Rng rng(6);
  auto base = std::make_unique<nn::Conv2D>(2, 4, 3, 1, 1, 6, 6, "c");
  CompensatedConv2D cc(std::move(base), 2, rng);
  std::vector<nn::PerturbableWeight*> sites;
  cc.collect_analog(sites);
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0]->site_label(), "c");
}

TEST(CompensatedConv, WeightCountMatchesFormula) {
  // generator: m filters of 1x1x(l+n) + m biases;
  // compensator: n filters of 1x1x(n+m) + n biases.
  Rng rng(7);
  const int64_t l = 3, n = 6, m = 2;
  auto base = std::make_unique<nn::Conv2D>(l, n, 3, 1, 1, 8, 8, "c");
  CompensatedConv2D cc(std::move(base), m, rng);
  EXPECT_EQ(cc.compensation_weight_count(), m * (l + n) + m + n * (n + m) + n);
}

TEST(AttachCompensation, ReplacesConvInPlace) {
  data::DigitsSpec spec;
  spec.train_count = 50;
  spec.test_count = 10;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(8);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  const int64_t before_params = m.num_params();
  attach_compensation(m, 0, 3, rng);
  EXPECT_EQ(m.layer(0).kind(), "compensated_conv2d");
  EXPECT_GT(m.num_params(), before_params);
  // Still forward-compatible.
  Tensor y = m.forward(ds.test.images, false);
  EXPECT_EQ(y.dim(1), 10);
}

TEST(AttachCompensation, RejectsNonConvLayer) {
  Rng rng(9);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  EXPECT_THROW(attach_compensation(m, 1, 3, rng), std::invalid_argument);  // ReLU
}

TEST(WithCompensation, LeavesOriginalUntouched) {
  Rng rng(10);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  CompensationPlan plan;
  plan.entries.emplace_back(0, 2);
  nn::Sequential c = with_compensation(m, plan, rng);
  EXPECT_EQ(m.layer(0).kind(), "conv2d");
  EXPECT_EQ(c.layer(0).kind(), "compensated_conv2d");
}

TEST(ConvLayerIndices, FindsLeNetConvs) {
  Rng rng(11);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  auto idx = conv_layer_indices(m);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 0);
  EXPECT_EQ(m.layer(idx[1]).kind(), "conv2d");
}

TEST(Overhead, ZeroWithoutCompensation) {
  Rng rng(12);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  EXPECT_DOUBLE_EQ(compensation_overhead(m), 0.0);
}

TEST(Overhead, MatchesManualRatio) {
  Rng rng(13);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  const int64_t orig = m.num_params();
  CompensationPlan plan;
  plan.entries.emplace_back(0, 3);
  nn::Sequential c = with_compensation(m, plan, rng);
  auto* cc = dynamic_cast<CompensatedConv2D*>(&c.layer(0));
  ASSERT_NE(cc, nullptr);
  const double expect = static_cast<double>(cc->compensation_weight_count()) / orig;
  EXPECT_NEAR(compensation_overhead(c), expect, 1e-12);
}

TEST(TrainCompensation, FreezesBaseAndImproves) {
  data::DigitsSpec spec;
  spec.train_count = 600;
  spec.test_count = 150;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(14);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  TrainConfig cfg;
  cfg.epochs = 2;
  train(m, ds.train, ds.test, cfg);

  CompensationPlan plan;
  plan.entries.emplace_back(0, 3);
  plan.entries.emplace_back(3, 8);
  nn::Sequential c = with_compensation(m, plan, rng);
  auto* cc0 = dynamic_cast<CompensatedConv2D*>(&c.layer(0));
  const Tensor base_w_before = cc0->base().weight().value;

  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.5f};
  TrainConfig ccfg;
  ccfg.epochs = 2;
  ccfg.lr = 2e-3f;
  ccfg.variation = vm;
  train_compensation(c, ds.train, ds.test, ccfg);

  // Base conv untouched by compensation training.
  for (int64_t i = 0; i < base_w_before.size(); ++i)
    EXPECT_FLOAT_EQ(cc0->base().weight().value[i], base_w_before[i]);

  // Under variations, the compensated model beats the raw one.
  McOptions mc;
  mc.samples = 8;
  McResult raw = mc_accuracy(m, ds.test, vm, mc);
  McResult comp = mc_accuracy(c, ds.test, vm, mc);
  EXPECT_GT(comp.mean, raw.mean - 0.02);
}

TEST(CompensatedConv, CloneIsDeepAndEquivalent) {
  Rng rng(15);
  auto base = std::make_unique<nn::Conv2D>(2, 4, 3, 1, 1, 6, 6, "c");
  nn::he_normal(base->weight().value, 18, rng);
  CompensatedConv2D cc(std::move(base), 2, rng);
  auto clone = cc.clone();
  Tensor x({1, 2, 6, 6});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y1 = cc.forward(x, false);
  Tensor y2 = clone->forward(x, false);
  for (int64_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(CompensatedConv, RejectsBadInputShapeBeforeReadingIt) {
  Rng rng(16);
  auto base = std::make_unique<nn::Conv2D>(2, 4, 3, 1, 1, 6, 6, "c");
  CompensatedConv2D cc(std::move(base), 2, rng);
  const Shape bad[] = {{2, 72}, {1, 3, 6, 6}, {1, 2, 6, 7}, {1, 2, 5, 6}};
  for (bool train : {true, false}) {
    for (const Shape& s : bad) {
      try {
        cc.forward(Tensor(s), train);
        ADD_FAILURE() << "accepted " << to_string(s) << " (train " << train << ")";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("c+comp"), std::string::npos) << e.what();
      }
    }
  }
}

// Eval/train parity sites: LeNet conv1 (28x28, pad 2), whose pooling window
// is the identity, and a 12x12 -> 8x8 conv, whose windows are not.
struct Site {
  int64_t l, n, kernel, stride, pad, hw;
};
constexpr Site kSites[] = {{1, 6, 5, 1, 2, 28}, {2, 4, 5, 1, 0, 12}};

enum class Base { kDigital, kFactor, kCrossbar };

// A one-layer model holding a compensated conv at `site` with random
// generator and compensator weights, on the requested base.
nn::Sequential compensated_site(const Site& s, int64_t m, Base base, uint64_t seed) {
  Rng rng(seed);
  nn::Sequential model("site");
  auto& conv =
      model.emplace<nn::Conv2D>(s.l, s.n, s.kernel, s.stride, s.pad, s.hw, s.hw, "c");
  nn::he_normal(conv.weight().value, s.l * s.kernel * s.kernel, rng);
  rng.fill_normal(conv.bias().value, 0.0f, 0.1f);
  CompensatedConv2D& cc = attach_compensation(model, 0, m, rng);
  const std::vector<nn::Param*> ps = cc.params();  // base w, b; gen w, b; comp w, b
  for (size_t i = 2; i < ps.size(); ++i) rng.fill_normal(ps[i]->value, 0.0f, 0.5f);
  if (base == Base::kFactor) {
    analog::VariationModel vm{analog::VariationKind::kLognormal, 0.5f};
    analog::perturb_from(model, vm, rng, 0);
  } else if (base == Base::kCrossbar) {
    analog::RramDeviceParams dev;
    dev.program_sigma = 0.1f;
    return analog::program_to_crossbars(model, dev, rng);
  }
  return model;
}

// Normal draws with exact zeros of both signs, and one NaN per image. The
// NaN sits where every pooling window that reads it lies inside the conv
// windows that read it, so wherever the generator sees NaN the base output
// is NaN too, and the compensator's sum meets it through both.
Tensor parity_input(const Site& s, int64_t batch, uint64_t seed) {
  Rng rng(seed);
  Tensor x({batch, s.l, s.hw, s.hw});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (int64_t i = 0; i < x.size(); i += 7) x[i] = (i / 7) % 2 ? -0.0f : 0.0f;
  for (int64_t b = 0; b < batch; ++b)
    x[(b * s.l * s.hw + 6) * s.hw + 5] = std::numeric_limits<float>::quiet_NaN();
  return x;
}

TEST(CompensatedConvEval, MatchesTheComposedTrainPathBitwise) {
  const char* base_names[] = {"digital", "factor", "crossbar"};
  for (const Site& s : kSites) {
    for (Base base : {Base::kDigital, Base::kFactor, Base::kCrossbar}) {
      for (int64_t m : {1, 3}) {
        nn::Sequential model = compensated_site(s, m, base, 100 + m);
        ASSERT_EQ(model.layer(0).kind(), "compensated_conv2d");
        for (int64_t batch : {1, 5}) {
          const Tensor x = parity_input(s, batch, 200 + batch);
          testutil::for_each_simd_level([&](int level) {
            const Tensor eval = model.layer(0).forward(x, /*train=*/false);
            const Tensor train = model.layer(0).forward(x, /*train=*/true);
            bool has_nan = false;
            for (int64_t i = 0; i < eval.size(); ++i) has_nan |= std::isnan(eval[i]);
            EXPECT_TRUE(has_nan) << "the input NaN did not reach the output";
            testutil::expect_bitwise_equal(
                eval, train,
                "hw " + std::to_string(s.hw) + " " + base_names[static_cast<int>(base)] +
                    " m " + std::to_string(m) + " batch " + std::to_string(batch) +
                    " level " + std::to_string(level));
          });
        }
      }
    }
  }
}

TEST(CompensatedConvEval, GeneratorNaNReachesTheOutputInTrainAndEval) {
  // A 1x1 stride-2 conv reads only even pixels, so a NaN at input pixel
  // (1, 1) reaches the pooled input at (0, 0) but no conv window: only the
  // generator sees it. Both relus zero only negatives, so it passes to the
  // output in train and eval alike. The reference restates the composed
  // path with the public pieces.
  const Site s = {2, 4, 1, 2, 0, 16};
  const int64_t m = 3;
  nn::Sequential model = compensated_site(s, m, Base::kDigital, 19);
  auto& cc = dynamic_cast<CompensatedConv2D&>(model.layer(0));
  const std::vector<nn::Param*> ps = cc.params();
  nn::Conv2D gen(s.l + s.n, m, 1, 1, 0, 8, 8, "gen");
  nn::Conv2D comp(s.n + m, s.n, 1, 1, 0, 8, 8, "comp");
  gen.weight().value = ps[2]->value;
  gen.bias().value = ps[3]->value;
  comp.weight().value = ps[4]->value;
  comp.bias().value = ps[5]->value;
  Tensor x = parity_input(s, 2, 20);
  for (int64_t b = 0; b < 2; ++b) {
    x[(b * s.l * s.hw + 6) * s.hw + 5] = 0.5f;
    x[(b * s.l * s.hw + 1) * s.hw + 1] = std::numeric_limits<float>::quiet_NaN();
  }
  const Tensor y = cc.base().forward(x, false);
  Tensor g = gen.forward(concat_channels(adaptive_avgpool(x, 8, 8), y), false);
  for (int64_t i = 0; i < g.size(); ++i)
    if (g[i] < 0.0f) g[i] = 0.0f;
  const Tensor want = comp.forward(concat_channels(y, g), false);
  ASSERT_TRUE(std::isnan(want[0])) << "the generator's NaN must reach the output";
  testutil::for_each_simd_level([&](int level) {
    testutil::expect_bitwise_equal(cc.forward(x, false), want,
                                   "level " + std::to_string(level));
  });
  testutil::expect_bitwise_equal(cc.forward(x, true), want, "train");
}

TEST(CompensatedConvEval, IdentityWindowTurnsNegativeZeroPositive) {
  // Every tap that could mask the pooled input's sign is zero (and skipped
  // by the kernel), both biases are -0, and the input is all -0. The pooled
  // input is 0.0f + -0 = +0, so the generator and the output are +0; a copy
  // instead of the add would carry -0 through to the output.
  const Site s = kSites[0];
  Rng rng(17);
  auto base =
      std::make_unique<nn::Conv2D>(s.l, s.n, s.kernel, s.stride, s.pad, s.hw, s.hw, "c");
  nn::he_normal(base->weight().value, s.l * s.kernel * s.kernel, rng);
  const int64_t m = 3;
  CompensatedConv2D cc(std::move(base), m, rng);
  const std::vector<nn::Param*> ps = cc.params();
  Tensor& gw = ps[2]->value;  // (m, l + n)
  Tensor& cw = ps[4]->value;  // (n, n + m)
  gw.zero();
  cw.zero();
  for (int64_t o = 0; o < m; ++o)
    for (int64_t c = 0; c < s.l; ++c) gw[o * (s.l + s.n) + c] = 0.5f;
  for (int64_t o = 0; o < s.n; ++o)
    for (int64_t k = s.n; k < s.n + m; ++k) cw[o * (s.n + m) + k] = 0.25f;
  ps[3]->value.fill(-0.0f);
  ps[5]->value.fill(-0.0f);
  Tensor x({2, s.l, s.hw, s.hw});
  x.fill(-0.0f);
  Tensor want({2, s.n, s.hw, s.hw});  // +0
  testutil::for_each_simd_level([&](int level) {
    const std::string at = " level " + std::to_string(level);
    testutil::expect_bitwise_equal(cc.forward(x, false), want, "eval" + at);
    testutil::expect_bitwise_equal(cc.forward(x, true), want, "train" + at);
  });
}

TEST(CompensatedConvEval, CorrectedChipFusedPlanMatchesLayerLoop) {
  data::DigitsSpec spec;
  spec.train_count = 8;
  spec.test_count = 6;
  const Tensor x = data::make_digits(spec).test.images;
  Rng rng(18);
  nn::Sequential base = models::lenet5(1, 28, 10, rng);
  const std::vector<int64_t> convs = conv_layer_indices(base);
  CompensationPlan plan;
  plan.entries = {{convs[0], 3}, {convs[1], 2}};
  nn::Sequential corrected = with_compensation(base, plan, rng);
  analog::RramDeviceParams dev;
  dev.program_sigma = 0.1f;
  nn::Sequential chip = analog::program_to_crossbars(corrected, dev, rng);
  for (nn::Sequential* m : {&corrected, &chip}) {
    const Tensor fused = m->forward(x, false);
    const Tensor loop = testutil::reference_forward(*m, x);
    testutil::expect_bitwise_equal(fused, loop, m == &chip ? "crossbar chip" : "digital");
  }
}

}  // namespace
}  // namespace cn::core
