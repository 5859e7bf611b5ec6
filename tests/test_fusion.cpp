// The layer-graph IR and fusion pass pipeline (nn/graph.h, nn/fusion.h):
// per-pass unit oracles (bn-fold math, relu-epilogue exactness, pool-fusion
// vs the standalone layers, dropout elision), the no-pass plan and the
// fusion switch, train-mode lowering refusal, the randomized graph-parity
// sweep (fused vs testutil::reference_forward — bitwise without batchnorm,
// the pinned kBnFold* contract with it — on the digital path and on crossbar
// chips at every simd level), and campaign-report byte-identity with fusion
// on vs off.
#include "nn/fusion.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "analog/crossbar_layers.h"
#include "data/synthetic.h"
#include "exec_testutil.h"
#include "faultsim/campaign.h"
#include "graph_testutil.h"
#include "models/lenet.h"
#include "nn/graph.h"
#include "obs/metrics.h"

namespace cn {
namespace {

// Restores the default (fusion on) when a test that switched it off exits,
// so no later test runs unfused.
struct FusionGuard {
  ~FusionGuard() { nn::set_fusion_enabled(true); }
};

const nn::GraphNode* find_node(const nn::LayerGraph& g,
                               const std::string& label) {
  for (const nn::GraphNode& n : g.nodes)
    if (n.layer && n.layer->label() == label) return &n;
  return nullptr;
}

// ---------- train-mode lowering ----------

TEST(LayerGraphBuild, TrainModeLoweringThrowsNamingSensitiveLayers) {
  nn::Sequential m("train");
  m.emplace<nn::Conv2D>(1, 2, 3, 1, 1, 6, 6, "conv");
  m.emplace<nn::BatchNorm2D>(2, 0.9f, 1e-5f, "bn0");
  m.emplace<nn::Dropout>(0.5f, 7, "d0");
  try {
    nn::LayerGraph::build(m, /*train=*/true);
    FAIL() << "train-mode lowering must throw";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bn0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("d0"), std::string::npos) << msg;
  }
  // Training graphs have no lowering even without sensitive layers.
  nn::Sequential plain("plain");
  plain.emplace<nn::Dense>(4, 2, "fc");
  EXPECT_THROW(nn::LayerGraph::build(plain, /*train=*/true), std::logic_error);
  // Eval-mode lowering of the same chains succeeds.
  EXPECT_EQ(nn::LayerGraph::build(m).nodes.size(), 3u);
  EXPECT_EQ(nn::LayerGraph::build(plain).nodes.size(), 1u);
}

TEST(LayerGraphBuild, LayersReportTrainModeSensitivity) {
  nn::BatchNorm2D bn(2);
  nn::Dropout dr(0.5f, 1);
  nn::Conv2D conv(1, 1, 3, 1, 1, 6, 6);
  nn::ReLU relu;
  EXPECT_TRUE(bn.train_mode_sensitive());
  EXPECT_TRUE(dr.train_mode_sensitive());
  EXPECT_FALSE(conv.train_mode_sensitive());
  EXPECT_FALSE(relu.train_mode_sensitive());
}

TEST(LayerGraphBuild, TrainForwardBypassesFusionEntirely) {
  // A train-mode forward runs the layers in order (live dropout, batch
  // statistics) and never tries to lower.
  Rng rng(41);
  nn::Sequential m("train-fwd");
  auto& conv = m.emplace<nn::Conv2D>(1, 2, 3, 1, 1, 6, 6, "conv");
  rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
  m.emplace<nn::BatchNorm2D>(2, 0.9f, 1e-5f, "bn");
  m.emplace<nn::Dropout>(0.5f, 7, "d");
  Tensor x({2, 1, 6, 6});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y = m.forward(x, /*train=*/true);
  EXPECT_EQ(y.size(), 2 * 2 * 6 * 6);
}

// ---------- per-pass oracles ----------

TEST(FusionPasses, BnFoldMatchesManualFoldAndPinnedTolerance) {
  Rng rng(11);
  nn::Sequential m("bnfold");
  auto& conv = m.emplace<nn::Conv2D>(2, 3, 3, 1, 1, 8, 8, "conv");
  rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
  rng.fill_normal(conv.bias().value, 0.0f, 0.2f);
  auto& bn = m.emplace<nn::BatchNorm2D>(3, 0.9f, 1e-5f, "bn");
  rng.fill_normal(bn.gamma().value, 1.0f, 0.2f);
  rng.fill_normal(bn.beta().value, 0.0f, 0.2f);
  // Warm the running statistics away from their (mean 0, var 1) init so the
  // fold is not trivially a no-op.
  Tensor warm({4, 2, 8, 8});
  for (int i = 0; i < 3; ++i) {
    rng.fill_normal(warm, 0.0f, 1.0f);
    (void)m.forward(warm, /*train=*/true);
  }

  Tensor x({2, 2, 8, 8});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor unfused = testutil::reference_forward(m, x);
  const Tensor fused = m.forward(x, /*train=*/false);

  // The plan folded exactly once: bn skipped, conv annotated with it.
  nn::FusedPlan plan(m);
  EXPECT_EQ(plan.stats().bn_folded, 1);
  const nn::GraphNode* bn_node = find_node(plan.graph(), "bn");
  const nn::GraphNode* conv_node = find_node(plan.graph(), "conv");
  ASSERT_NE(bn_node, nullptr);
  ASSERT_NE(conv_node, nullptr);
  EXPECT_TRUE(bn_node->skip);
  EXPECT_EQ(conv_node->folded_bn, &bn);

  // Math oracle: a conv carrying the manually folded parameters
  // (w' = w·γ/√(σ²+ε), b' = (b−μ)·γ/√(σ²+ε)+β, float arithmetic in the same
  // order as the pass), executed unfused, must reproduce the fused output
  // bit for bit — same folded tensors, same kernel.
  nn::Sequential folded("folded");
  auto& fc = folded.emplace<nn::Conv2D>(2, 3, 3, 1, 1, 8, 8, "convf");
  const Tensor& w = conv.weight().value;
  const int64_t k2 = w.dim(1);
  for (int64_t c = 0; c < 3; ++c) {
    const float inv_std = 1.0f / std::sqrt(bn.running_var()[c] + bn.eps());
    const float s = bn.gamma().value[c] * inv_std;
    for (int64_t k = 0; k < k2; ++k)
      fc.weight().value[c * k2 + k] = w[c * k2 + k] * s;
    fc.bias().value[c] =
        (conv.bias().value[c] - bn.running_mean()[c]) * s + bn.beta().value[c];
  }
  const Tensor oracle = testutil::reference_forward(folded, x);
  testutil::expect_bitwise_equal(fused, oracle, "fused vs manual fold oracle");

  // Against the unfused two-layer model the pass is approximate, pinned by
  // the bn-fold tolerance contract.
  testutil::expect_within_ulps(fused, unfused, nn::kBnFoldMaxUlps,
                               nn::kBnFoldRangeTol * max_abs(unfused),
                               "bn-fold pinned tolerance");
}

TEST(FusionPasses, ReluEpilogueIsBitwiseExact) {
  Rng rng(21);
  nn::Sequential m("relu");
  auto& conv = m.emplace<nn::Conv2D>(1, 4, 3, 1, 0, 10, 10, "conv");
  rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
  rng.fill_normal(conv.bias().value, 0.0f, 0.2f);
  m.emplace<nn::ReLU>("r1");
  m.emplace<nn::Flatten>();
  auto& d = m.emplace<nn::Dense>(4 * 8 * 8, 6, "fc");
  rng.fill_normal(d.weight().value, 0.0f, 0.3f);
  rng.fill_normal(d.bias().value, 0.0f, 0.1f);
  m.emplace<nn::ReLU>("r2");
  Tensor x({3, 1, 10, 10});
  rng.fill_normal(x, 0.0f, 1.0f);

  const Tensor unfused = testutil::reference_forward(m, x);
  const Tensor fused = m.forward(x, /*train=*/false);
  testutil::expect_bitwise_equal(fused, unfused, "relu epilogue (conv+dense)");

  nn::FusedPlan plan(m);
  EXPECT_EQ(plan.stats().relu_fused, 2);
  EXPECT_TRUE(find_node(plan.graph(), "r1")->skip);
  EXPECT_TRUE(find_node(plan.graph(), "r2")->skip);
  EXPECT_TRUE(find_node(plan.graph(), "conv")->relu_epilogue);
  EXPECT_TRUE(find_node(plan.graph(), "fc")->relu_epilogue);
}

TEST(FusionPasses, PoolFusionIsBitwiseExact) {
  for (const bool use_max : {false, true}) {
      Rng rng(use_max ? 31 : 32);
    nn::Sequential m(use_max ? "maxpool-conv" : "avgpool-conv");
    if (use_max)
      m.emplace<nn::MaxPool2D>(2, "pool");
    else
      m.emplace<nn::AvgPool2D>(2, "pool");
    auto& conv = m.emplace<nn::Conv2D>(1, 3, 3, 1, 1, 6, 6, "conv");
    rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
    rng.fill_normal(conv.bias().value, 0.0f, 0.2f);
    Tensor x({2, 1, 12, 12});
    rng.fill_normal(x, 0.0f, 1.0f);

    const Tensor unfused = testutil::reference_forward(m, x);
    const Tensor fused = m.forward(x, /*train=*/false);
    testutil::expect_bitwise_equal(
        fused, unfused, use_max ? "maxpool fusion" : "avgpool fusion");

    nn::FusedPlan plan(m);
    EXPECT_EQ(plan.stats().pools_fused, 1);
    const nn::GraphNode* conv_node = find_node(plan.graph(), "conv");
    ASSERT_NE(conv_node, nullptr);
    EXPECT_EQ(conv_node->pre_pool.window, 2);
    EXPECT_EQ(conv_node->pre_pool.kind, use_max ? nn::PrePool::Kind::kMax
                                                : nn::PrePool::Kind::kAvg);
    EXPECT_TRUE(find_node(plan.graph(), "pool")->skip);
  }
}

TEST(FusionPasses, PostPoolFusionIsBitwiseExact) {
  // A pool consuming a conv's output pools inside the conv kernel; the
  // conv→relu→pool chain collapses into one node because the pool's producer
  // resolves through the fused relu.
  for (const bool use_max : {false, true}) {
      Rng rng(use_max ? 61 : 62);
    nn::Sequential m(use_max ? "conv-relu-maxpool" : "conv-relu-avgpool");
    auto& conv = m.emplace<nn::Conv2D>(1, 3, 3, 1, 1, 8, 8, "conv");
    rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
    rng.fill_normal(conv.bias().value, 0.0f, 0.2f);
    m.emplace<nn::ReLU>("r");
    if (use_max)
      m.emplace<nn::MaxPool2D>(2, "pool");
    else
      m.emplace<nn::AvgPool2D>(2, "pool");
    Tensor x({2, 1, 8, 8});
    rng.fill_normal(x, 0.0f, 1.0f);

    const Tensor unfused = testutil::reference_forward(m, x);
    const Tensor fused = m.forward(x, /*train=*/false);
    ASSERT_EQ(fused.dim(2), 4);  // pooled geometry survives the rewrite
    testutil::expect_bitwise_equal(
        fused, unfused, use_max ? "post-maxpool fusion" : "post-avgpool fusion");

    nn::FusedPlan plan(m);
    EXPECT_EQ(plan.stats().post_pools_fused, 1);
    EXPECT_EQ(plan.stats().pools_fused, 0);
    const nn::GraphNode* conv_node = find_node(plan.graph(), "conv");
    ASSERT_NE(conv_node, nullptr);
    EXPECT_TRUE(conv_node->relu_epilogue);
    EXPECT_EQ(conv_node->post_pool.window, 2);
    EXPECT_EQ(conv_node->post_pool.kind, use_max ? nn::PrePool::Kind::kMax
                                                 : nn::PrePool::Kind::kAvg);
    EXPECT_TRUE(find_node(plan.graph(), "pool")->skip);
  }
}

TEST(FusionPasses, PostPoolWinsOverPrePoolBetweenTwoConvs) {
  // conv1→pool→conv2: the pool must fuse into the UPSTREAM conv's epilogue
  // (eliding conv1's full-resolution output), not conv2's im2col producer —
  // and a relu AFTER the pool stays a standalone node (fusing it into conv1
  // would reorder relu before pooling).
  Rng rng(63);
  nn::Sequential m("conv-pool-conv");
  auto& c1 = m.emplace<nn::Conv2D>(1, 2, 3, 1, 1, 8, 8, "c1");
  rng.fill_normal(c1.weight().value, 0.0f, 0.4f);
  rng.fill_normal(c1.bias().value, 0.0f, 0.2f);
  m.emplace<nn::AvgPool2D>(2, "pool");
  m.emplace<nn::ReLU>("r");
  auto& c2 = m.emplace<nn::Conv2D>(2, 3, 3, 1, 1, 4, 4, "c2");
  rng.fill_normal(c2.weight().value, 0.0f, 0.4f);
  rng.fill_normal(c2.bias().value, 0.0f, 0.2f);
  Tensor x({2, 1, 8, 8});
  rng.fill_normal(x, 0.0f, 1.0f);

  const Tensor unfused = testutil::reference_forward(m, x);
  const Tensor fused = m.forward(x, /*train=*/false);
  testutil::expect_bitwise_equal(fused, unfused, "post-pool between convs");

  nn::FusedPlan plan(m);
  EXPECT_EQ(plan.stats().post_pools_fused, 1);
  EXPECT_EQ(plan.stats().pools_fused, 0);
  EXPECT_EQ(plan.stats().relu_fused, 0);  // relu's producer is the pool
  EXPECT_EQ(find_node(plan.graph(), "c1")->post_pool.window, 2);
  EXPECT_FALSE(find_node(plan.graph(), "c1")->relu_epilogue);
  EXPECT_EQ(find_node(plan.graph(), "c2")->pre_pool.window, 0);
  EXPECT_TRUE(find_node(plan.graph(), "pool")->skip);
  EXPECT_FALSE(find_node(plan.graph(), "r")->skip);
}

TEST(FusionPasses, DropoutElisionIsExactIdentity) {
  Rng rng(51);
  nn::Sequential m("drop");
  m.emplace<nn::Dropout>(0.5f, 99, "d0");
  auto& d = m.emplace<nn::Dense>(8, 5, "fc");
  rng.fill_normal(d.weight().value, 0.0f, 0.3f);
  rng.fill_normal(d.bias().value, 0.0f, 0.1f);
  m.emplace<nn::Dropout>(0.3f, 100, "d1");
  Tensor x({4, 8});
  rng.fill_normal(x, 0.0f, 1.0f);

  const Tensor unfused = testutil::reference_forward(m, x);
  const Tensor fused = m.forward(x, /*train=*/false);
  testutil::expect_bitwise_equal(fused, unfused, "dropout elision");

  nn::FusedPlan plan(m);
  EXPECT_EQ(plan.stats().dropout_elided, 2);
  EXPECT_TRUE(find_node(plan.graph(), "d0")->skip);
  EXPECT_TRUE(find_node(plan.graph(), "d1")->skip);
}

TEST(FusionObs, PassCountersAccumulate) {
  auto& reg = obs::metrics();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const uint64_t plans0 = reg.counter("fusion.plans").value();
  const uint64_t relu0 = reg.counter("fusion.relu_fused").value();
  Rng rng(77);
  nn::Sequential m("obs");
  auto& d = m.emplace<nn::Dense>(6, 4, "fc");
  rng.fill_normal(d.weight().value, 0.0f, 0.3f);
  m.emplace<nn::ReLU>("r");
  nn::FusedPlan plan(m);
  EXPECT_EQ(plan.stats().relu_fused, 1);
  EXPECT_EQ(reg.counter("fusion.plans").value(), plans0 + 1);
  EXPECT_EQ(reg.counter("fusion.relu_fused").value(), relu0 + 1);
  reg.set_enabled(was_enabled);
}

// ---------- randomized graph-parity sweep ----------

TEST(FusionParity, RandomizedDigitalGraphSweep) {
  int bn_models = 0;
  int64_t rewrites = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (const bool allow_bn : {false, true}) {
      testutil::RandomModelSpec spec;
      spec.seed = seed * 17 + (allow_bn ? 1 : 0);
      spec.allow_batchnorm = allow_bn;
      testutil::RandomModel rm = testutil::make_random_model(spec);
      const Tensor x = testutil::random_input(rm, seed * 31 + 5);
      const std::string what =
          "seed " + std::to_string(spec.seed) + (allow_bn ? " (+bn)" : "");

      const Tensor unfused = testutil::reference_forward(rm.model, x);
      const Tensor fused = rm.model.forward(x, /*train=*/false);
      if (rm.has_batchnorm) {
        ++bn_models;
        testutil::expect_within_ulps(fused, unfused, nn::kBnFoldMaxUlps,
                                     nn::kBnFoldRangeTol * max_abs(unfused),
                                     what);
      } else {
        testutil::expect_bitwise_equal(fused, unfused, what);
      }
      // The cached plan re-executes deterministically.
      const Tensor again = rm.model.forward(x, /*train=*/false);
      testutil::expect_bitwise_equal(again, fused, what + " (plan reuse)");

      nn::FusedPlan plan(rm.model);
      rewrites += plan.stats().rewrites();
    }
  }
  EXPECT_GT(bn_models, 0);  // the sweep actually exercised bn-fold
  EXPECT_GT(rewrites, 0);   // and the passes rewrote something
}

TEST(FusionParity, CrossbarChipsAreBitwiseExactOnEveryTarget) {
  // Crossbar lowering keeps bn standalone (conductances are programmed, not
  // re-scalable), so fused vs unfused on a chip is bitwise at every simd
  // dispatch level.
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  dev.program_sigma = 0.1f;
  struct Case {
    uint64_t model_seed, input_seed, prog_seed;
    bool batchnorm;
  };
  for (const Case& c : {Case{3, 104, 10, false}, Case{8, 109, 15, true},
                        Case{13, 131, 19, false}}) {
    const uint64_t seed = c.model_seed;
    testutil::RandomModelSpec spec;
    spec.seed = seed;
    spec.allow_batchnorm = c.batchnorm;
    testutil::RandomModel rm = testutil::make_random_model(spec);
    const Tensor x = testutil::random_input(rm, c.input_seed, 2);
    Rng prog(c.prog_seed);
    nn::Sequential chip = analog::program_to_crossbars(
        rm.model, dev, prog, /*tile=*/32, nullptr, 0, nullptr);
    testutil::for_each_simd_level([&](int level) {
      const Tensor unfused = testutil::reference_forward(chip, x);
      const Tensor fused = chip.forward(x, /*train=*/false);
      testutil::expect_bitwise_equal(fused, unfused,
                                     "simd level " + std::to_string(level) +
                                         " seed " + std::to_string(seed));
    });
    nn::FusedPlan plan(chip);
    EXPECT_EQ(plan.stats().bn_folded, 0) << seed;
    EXPECT_EQ(plan.stats().pools_fused, 0) << seed;
    EXPECT_EQ(plan.stats().post_pools_fused, 0) << seed;
  }
}

// ---------- the no-pass plan and the fusion switch ----------

TEST(FusionPlan, NoPassPlanMatchesReferenceBitwise) {
  // FusedPlan(m, /*fuse=*/false) is the unfused executor: no pass runs, no
  // node is skipped, and its output equals the layer-by-layer reference bit
  // for bit — with or without batchnorm, digital or on a crossbar chip.
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  dev.program_sigma = 0.1f;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool allow_bn : {false, true}) {
      testutil::RandomModelSpec spec;
      spec.seed = seed * 23 + (allow_bn ? 1 : 0);
      spec.allow_batchnorm = allow_bn;
      testutil::RandomModel rm = testutil::make_random_model(spec);
      const Tensor x = testutil::random_input(rm, seed * 37 + 3);
      const std::string what =
          "seed " + std::to_string(spec.seed) + (allow_bn ? " (+bn)" : "");

      nn::FusedPlan plan(rm.model, /*fuse=*/false);
      EXPECT_FALSE(plan.fused()) << what;
      EXPECT_EQ(plan.stats().rewrites(), 0) << what;
      for (const nn::GraphNode& n : plan.graph().nodes)
        EXPECT_FALSE(n.skip) << what << " node " << n.id;
      testutil::expect_bitwise_equal(
          plan.execute(x), testutil::reference_forward(rm.model, x), what);

      Rng prog(seed + 100);
      nn::Sequential chip = analog::program_to_crossbars(
          rm.model, dev, prog, /*tile=*/32, nullptr, 0, nullptr);
      testutil::expect_bitwise_equal(
          nn::FusedPlan(chip, /*fuse=*/false).execute(x),
          testutil::reference_forward(chip, x), what + " (chip)");
    }
  }
}

TEST(FusionSwitch, ForwardFollowsAFlipBetweenCalls) {
  // Sequential::forward caches its plan. Flipping set_fusion_enabled between
  // two forwards must rebuild it, never run the stale one. A batchnorm model
  // whose fold re-rounds some output tells the two plans apart.
  FusionGuard guard;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    testutil::RandomModelSpec spec;
    spec.seed = seed;
    spec.allow_batchnorm = true;
    testutil::RandomModel rm = testutil::make_random_model(spec);
    if (!rm.has_batchnorm) continue;
    const Tensor x = testutil::random_input(rm, seed + 7);
    const Tensor fused = nn::FusedPlan(rm.model).execute(x);
    const Tensor unfused = testutil::reference_forward(rm.model, x);
    if (std::memcmp(fused.data(), unfused.data(),
                    static_cast<size_t>(fused.size()) * sizeof(float)) == 0)
      continue;  // the fold happened to be exact: the plans look alike

    const std::string what = "seed " + std::to_string(seed);
    testutil::expect_bitwise_equal(rm.model.forward(x, /*train=*/false), fused,
                                   what + " (on)");
    nn::set_fusion_enabled(false);
    testutil::expect_bitwise_equal(rm.model.forward(x, /*train=*/false),
                                   unfused, what + " (switched off)");
    nn::set_fusion_enabled(true);
    testutil::expect_bitwise_equal(rm.model.forward(x, /*train=*/false), fused,
                                   what + " (switched back on)");
    return;
  }
  FAIL() << "no batchnorm model whose fold changes an output bit";
}

// ---------- campaign byte-identity ----------

TEST(FusionCampaign, ReportsAreByteIdenticalOnVsOff) {
  data::DigitsSpec spec;
  spec.train_count = 10;
  spec.test_count = 40;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(5);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);

  auto run = [&] {
    faultsim::CampaignOptions co;
    co.chips = 2;
    co.seed = 9;
    co.batch_size = 32;
    co.tile = 64;
    faultsim::Campaign c(co);
    c.add_model("baseline", model, false);
    c.add_stuck_at_grid({0.02});
    faultsim::CampaignReport r = c.run(ds.test);
    r.wall_s = 0.0;  // the one field that legitimately differs between runs
    return r.to_json();
  };
  const std::string on = run();
  std::string off;
  {
    FusionGuard guard;
    nn::set_fusion_enabled(false);
    off = run();
  }
  EXPECT_TRUE(nn::fusion_enabled());
  EXPECT_EQ(on, off);
}

}  // namespace
}  // namespace cn
