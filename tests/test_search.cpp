#include "core/search.h"

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "models/lenet.h"

namespace cn::core {
namespace {

struct SearchFixture {
  data::SplitDataset ds;
  nn::Sequential model{"m"};

  SearchFixture() {
    data::DigitsSpec spec;
    spec.train_count = 400;
    spec.test_count = 120;
    ds = data::make_digits(spec);
    Rng rng(1);
    model = models::lenet5(1, 28, 10, rng);
    TrainConfig cfg;
    cfg.epochs = 2;
    train(model, ds.train, ds.test, cfg);
  }
};

SearchFixture& fixture() {
  static SearchFixture f;
  return f;
}

SearchConfig quick_config(nn::Sequential& model) {
  SearchConfig cfg;
  cfg.candidate_layers = conv_layer_indices(model);
  cfg.ratio_menu = {0.0f, 0.5f};
  cfg.overhead_limit = 0.10f;
  cfg.reinforce.iterations = 6;
  cfg.comp_train.epochs = 1;
  cfg.comp_train.lr = 2e-3f;
  cfg.mc.samples = 3;
  cfg.variation = analog::VariationModel{analog::VariationKind::kLognormal, 0.5f};
  return cfg;
}

TEST(PlanFromActions, MapsRatiosToFilterCounts) {
  auto& f = fixture();
  SearchConfig cfg = quick_config(f.model);
  // conv1 has 6 filters, conv2 has 16.
  CompensationPlan plan = plan_from_actions(f.model, cfg, {1, 1});
  ASSERT_EQ(plan.entries.size(), 2u);
  EXPECT_EQ(plan.entries[0].second, 3);
  EXPECT_EQ(plan.entries[1].second, 8);
  CompensationPlan none = plan_from_actions(f.model, cfg, {0, 0});
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(plan.empty());
}

TEST(EvaluatePlan, OverBudgetSkipsTrainingWithNegativeReward) {
  auto& f = fixture();
  SearchConfig cfg = quick_config(f.model);
  cfg.overhead_limit = 1e-6f;  // everything is over budget
  CompensationPlan plan = plan_from_actions(f.model, cfg, {1, 1});
  ExploredPlan ep = evaluate_plan(f.model, f.ds.train, f.ds.test, cfg, plan);
  EXPECT_TRUE(ep.over_budget);
  EXPECT_LT(ep.reward, 0.0f);
  EXPECT_FLOAT_EQ(ep.reward, -static_cast<float>(ep.overhead));
}

TEST(EvaluatePlan, EmptyPlanEvaluatesWithoutTraining) {
  auto& f = fixture();
  SearchConfig cfg = quick_config(f.model);
  CompensationPlan plan = plan_from_actions(f.model, cfg, {0, 0});
  ExploredPlan ep = evaluate_plan(f.model, f.ds.train, f.ds.test, cfg, plan);
  EXPECT_FALSE(ep.over_budget);
  EXPECT_DOUBLE_EQ(ep.overhead, 0.0);
  EXPECT_GT(ep.acc_mean, 0.0);
  // Reward = acc_mean - acc_std - overhead (Eq. 12).
  EXPECT_NEAR(ep.reward, ep.acc_mean - ep.acc_std, 1e-6);
}

TEST(EvaluatePlan, WithinBudgetTrainsAndReportsOverhead) {
  auto& f = fixture();
  SearchConfig cfg = quick_config(f.model);
  CompensationPlan plan = plan_from_actions(f.model, cfg, {1, 0});
  ExploredPlan ep = evaluate_plan(f.model, f.ds.train, f.ds.test, cfg, plan);
  EXPECT_FALSE(ep.over_budget);
  EXPECT_GT(ep.overhead, 0.0);
  EXPECT_LE(ep.overhead, cfg.overhead_limit);
}

TEST(EvaluatePlan, OnlyAnOverLimitPlanIsFlaggedOverBudget) {
  // The explored-plan tables print "over budget, skipped" from this flag:
  // the empty plan costs nothing and is scored, a plan over the limit is
  // neither trained nor scored.
  auto& f = fixture();
  SearchConfig cfg = quick_config(f.model);
  cfg.overhead_limit = 1e-6f;
  const ExploredPlan empty = evaluate_plan(
      f.model, f.ds.train, f.ds.test, cfg, plan_from_actions(f.model, cfg, {0, 0}));
  EXPECT_FALSE(empty.over_budget);
  EXPECT_GT(empty.acc_mean, 0.0);
  const ExploredPlan over = evaluate_plan(
      f.model, f.ds.train, f.ds.test, cfg, plan_from_actions(f.model, cfg, {1, 1}));
  EXPECT_TRUE(over.over_budget);
  EXPECT_EQ(over.acc_mean, 0.0);
}

TEST(RlSearch, ProducesBestPlanAndTrace) {
  auto& f = fixture();
  SearchConfig cfg = quick_config(f.model);
  SearchOutcome out = rl_search(f.model, f.ds.train, f.ds.test, cfg);
  EXPECT_FALSE(out.trace.empty());
  EXPECT_LE(out.trace.size(), 6u);  // memoized: at most one eval per iteration
  EXPECT_EQ(out.best_plan.entries.size(), 2u);
  // Best reward must match the best in the trace.
  float best = -1e30f;
  for (const auto& t : out.trace) best = std::max(best, t.reward);
  EXPECT_FLOAT_EQ(out.best.reward, best);
}

}  // namespace
}  // namespace cn::core
