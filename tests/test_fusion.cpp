// The layer-graph IR and fusion pass pipeline (nn/graph.h, nn/fusion.h):
// per-pass unit oracles (relu-epilogue exactness, pool fusion vs the
// standalone layers), the no-pass plan and the fusion switch, train-mode
// forwards bypassing the plan, the randomized graph-parity sweep (fused vs
// testutil::reference_forward, bitwise, on the digital path and on crossbar
// chips at every simd level), and campaign-report byte-identity with fusion
// on vs off.
#include "nn/fusion.h"

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

// ---------- train-mode forwards ----------

TEST(LayerGraphBuild, TrainForwardBypassesFusionEntirely) {
  // A train-mode forward runs the layers in order, so each caches what its
  // backward needs. It never builds a plan: a fused conv→relu→pool node
  // fills none of those caches, and Conv2D::backward throws without its
  // cached input.
  auto& reg = obs::metrics();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  Rng rng(41);
  nn::Sequential m("train-fwd");
  auto& conv = m.emplace<nn::Conv2D>(1, 2, 3, 1, 1, 6, 6, "conv");
  rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
  m.emplace<nn::ReLU>("relu");
  m.emplace<nn::MaxPool2D>(2, "pool");
  Tensor x({2, 1, 6, 6});
  rng.fill_normal(x, 0.0f, 1.0f);
  const uint64_t plans0 = reg.counter("fusion.plans").value();
  const Tensor y = m.forward(x, /*train=*/true);
  ASSERT_EQ(reg.counter("fusion.plans").value(), plans0);
  EXPECT_EQ(y.shape(), (Shape{2, 2, 3, 3}));
  const Tensor dx = m.backward(Tensor(y.shape(), 1.0f));
  EXPECT_EQ(dx.shape(), x.shape());
  reg.set_enabled(was_enabled);
}

// ---------- per-pass oracles ----------

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
  nn::FusionStats total;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (const uint64_t family : {0u, 1u}) {
      testutil::RandomModelSpec spec;
      spec.seed = seed * 17 + family;
      testutil::RandomModel rm = testutil::make_random_model(spec);
      const Tensor x = testutil::random_input(rm, seed * 31 + 5);
      const std::string what = "seed " + std::to_string(spec.seed);

      const Tensor unfused = testutil::reference_forward(rm.model, x);
      const Tensor fused = rm.model.forward(x, /*train=*/false);
      testutil::expect_bitwise_equal(fused, unfused, what);
      // The cached plan re-executes deterministically.
      const Tensor again = rm.model.forward(x, /*train=*/false);
      testutil::expect_bitwise_equal(again, fused, what + " (plan reuse)");

      nn::FusedPlan plan(rm.model);
      total.relu_fused += plan.stats().relu_fused;
      total.post_pools_fused += plan.stats().post_pools_fused;
      total.pools_fused += plan.stats().pools_fused;
    }
  }
  // The sweep exercised every pass.
  EXPECT_GT(total.relu_fused, 0);
  EXPECT_GT(total.post_pools_fused, 0);
  EXPECT_GT(total.pools_fused, 0);
}

TEST(FusionParity, CrossbarChipsAreBitwiseExactOnEveryTarget) {
  // On a chip only the relu epilogue engages (the pool rewrites need a
  // digital conv), and fused vs unfused is bitwise at every simd dispatch
  // level.
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  dev.program_sigma = 0.1f;
  struct Case {
    uint64_t model_seed, input_seed, prog_seed;
  };
  for (const Case& c : {Case{3, 104, 10}, Case{8, 109, 15}, Case{13, 131, 19}}) {
    const uint64_t seed = c.model_seed;
    testutil::RandomModelSpec spec;
    spec.seed = seed;
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
    EXPECT_EQ(plan.stats().pools_fused, 0) << seed;
    EXPECT_EQ(plan.stats().post_pools_fused, 0) << seed;
  }
}

// ---------- the no-pass plan and the fusion switch ----------

TEST(FusionPlan, NoPassPlanMatchesReferenceBitwise) {
  // FusedPlan(m, /*fuse=*/false) is the unfused executor: no pass runs, no
  // node is skipped, and its output equals the layer-by-layer reference bit
  // for bit, digital or on a crossbar chip.
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  dev.program_sigma = 0.1f;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const uint64_t family : {0u, 1u}) {
      testutil::RandomModelSpec spec;
      spec.seed = seed * 23 + family;
      testutil::RandomModel rm = testutil::make_random_model(spec);
      const Tensor x = testutil::random_input(rm, seed * 37 + 3);
      const std::string what = "seed " + std::to_string(spec.seed);

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

  // LeNet-5 on the digital path: the passes that engage (relu epilogues,
  // pool fusion) leave the fused plan bitwise equal to the no-pass plan.
  Rng rng(2023);
  nn::Sequential lenet = models::lenet5(1, 28, 10, rng);
  Tensor x({16, 1, 28, 28});
  rng.fill_normal(x, 0.0f, 1.0f);
  nn::FusedPlan unfused(lenet, /*fuse=*/false);
  nn::FusedPlan fused(lenet);
  EXPECT_GT(fused.stats().pools_fused + fused.stats().post_pools_fused, 0);
  const Tensor y = unfused.execute(x);
  testutil::expect_bitwise_equal(y, testutil::reference_forward(lenet, x),
                                 "lenet5");
  testutil::expect_bitwise_equal(fused.execute(x), y, "lenet5 (fused)");
}

TEST(FusionSwitch, ForwardFollowsAFlipBetweenCalls) {
  // Sequential::forward caches its plan. Flipping set_fusion_enabled between
  // two forwards must rebuild it, never run the stale one. Every rewrite is
  // exact, so the outputs cannot tell the plans apart; the plan-build and
  // per-pass rewrite counters can.
  FusionGuard guard;
  auto& reg = obs::metrics();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  auto plans = [&] { return reg.counter("fusion.plans").value(); };
  auto rewrites = [&] {
    return reg.counter("fusion.relu_fused").value() +
           reg.counter("fusion.post_pools_fused").value() +
           reg.counter("fusion.pools_fused").value();
  };
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    testutil::RandomModelSpec spec;
    spec.seed = seed;
    testutil::RandomModel rm = testutil::make_random_model(spec);
    const auto r =
        static_cast<uint64_t>(nn::FusedPlan(rm.model).stats().rewrites());
    if (r == 0) continue;  // nothing fuses: the plans look alike
    const Tensor x = testutil::random_input(rm, seed + 7);
    const Tensor want = testutil::reference_forward(rm.model, x);

    const std::string what = "seed " + std::to_string(seed);
    const uint64_t p0 = plans(), w0 = rewrites();
    testutil::expect_bitwise_equal(rm.model.forward(x, /*train=*/false), want,
                                   what + " (on)");
    EXPECT_EQ(plans(), p0 + 1) << what;
    EXPECT_EQ(rewrites(), w0 + r) << what;
    (void)rm.model.forward(x, /*train=*/false);
    EXPECT_EQ(plans(), p0 + 1) << what << ": the cached plan is reused";
    nn::set_fusion_enabled(false);
    testutil::expect_bitwise_equal(rm.model.forward(x, /*train=*/false), want,
                                   what + " (switched off)");
    EXPECT_EQ(plans(), p0 + 2) << what;
    EXPECT_EQ(rewrites(), w0 + r) << what << ": the no-pass plan rewrites nothing";
    nn::set_fusion_enabled(true);
    testutil::expect_bitwise_equal(rm.model.forward(x, /*train=*/false), want,
                                   what + " (switched back on)");
    EXPECT_EQ(plans(), p0 + 3) << what;
    EXPECT_EQ(rewrites(), w0 + 2 * r) << what;
    reg.set_enabled(was_enabled);
    return;
  }
  FAIL() << "no model that any pass rewrites";
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
