// End-to-end pipeline integration test on a small LeNet/digits workload.
#include "core/pipeline.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace cn::core {
namespace {

// Statistical slack for comparing two Monte-Carlo accuracy means: a 99.9%
// normal-approximation confidence interval on the difference. The empirical
// chip-to-chip stddev already contains the binomial measurement noise of
// scoring accuracy over n_test images, so it is not added on top; it only
// serves as a floor (p(1-p)/n_test), protecting against a small sample set
// understating its own spread. Replaces the hard-coded 0.02 slack that sat
// within one reseeding of flipping.
double mc_ordering_slack(const McResult& a, const McResult& b, int64_t n_test) {
  const double n = static_cast<double>(std::max<size_t>(1, a.samples.size()));
  auto variance_of_mean = [&](const McResult& r) {
    const double p = std::clamp(r.mean, 1e-6, 1.0 - 1e-6);
    const double binomial = p * (1.0 - p) / static_cast<double>(n_test);
    return std::max(r.stddev * r.stddev, binomial) / n;
  };
  const double z999 = 3.29;  // two-sided 99.9%
  return z999 * std::sqrt(variance_of_mean(a) + variance_of_mean(b));
}

TEST(Pipeline, FullRunRecoversAccuracy) {
  // The LeNet/digits recipe (β 3e-2, no λ floor, compensation lr 2e-3,
  // ratio 0.5) at 3 epochs on 800 images, with up to 6 candidate convs.
  PipelineConfig cfg;
  cfg.recipe = recipe("lenet", "digits");
  cfg.recipe.epochs = 3;
  cfg.recipe.comp_epochs = 3;
  cfg.recipe.train_count = 800;
  cfg.recipe.test_count = 200;
  cfg.recipe.max_comp_layers = 6;
  data::SplitDataset ds = make_dataset(cfg.recipe);
  cfg.mc.samples = 32;  // the derived ordering slack scales as 1/sqrt(this);
                        // 32 keeps the 99.9% CI comfortably inside the true
                        // recovery margins (16 sat within one reseeding of
                        // the boundary; see perf notes)
  cfg.plan_mode = PlanMode::kFixedRatio;

  std::vector<std::string> stages;
  cfg.log = [&](const std::string& s) { stages.push_back(s); };

  PipelineResult r = run_correctnet(ds.train, ds.test, cfg);

  // Clean accuracies in sane ranges.
  EXPECT_GT(r.clean_acc_base, 0.85f);
  EXPECT_GT(r.clean_acc_lipschitz, 0.80f);

  // Degradation under variations, then recovery ordering:
  // corrected > suppression-only > baseline, up to MC sampling error.
  const int64_t n_test = ds.test.size();
  EXPECT_LT(r.base_var.mean, r.clean_acc_base);
  EXPECT_GT(r.lipschitz_var.mean,
            r.base_var.mean - mc_ordering_slack(r.lipschitz_var, r.base_var, n_test));
  EXPECT_GT(r.corrected_var.mean,
            r.lipschitz_var.mean -
                mc_ordering_slack(r.corrected_var, r.lipschitz_var, n_test));
  EXPECT_GT(r.corrected_var.mean, r.base_var.mean);

  // Artifacts populated.
  EXPECT_FALSE(r.sensitivity.empty());
  EXPECT_GT(r.comp_layers, 0);
  EXPECT_GT(r.overhead, 0.0);
  EXPECT_LT(r.overhead, 0.25);
  EXPECT_FALSE(stages.empty());

  // The corrected model is runnable and consistent with the recorded stats.
  const analog::VariationModel vm{analog::VariationKind::kLognormal, 0.5f};
  McResult check = mc_accuracy(r.corrected_model, ds.test, vm, cfg.mc);
  EXPECT_NEAR(check.mean, r.corrected_var.mean, 1e-9);
}

TEST(Pipeline, McOrderingSlackPinnedOnFixedInputs) {
  // Regression pin for the derived statistical slack: if the formula drifts
  // (z-score, binomial floor, clamping, sample-count scaling), these exact
  // values move and the recovery assertions above silently change meaning.
  auto mk = [](double mean, double stddev, size_t n) {
    McResult r;
    r.mean = mean;
    r.stddev = stddev;
    r.samples.assign(n, mean);
    return r;
  };
  // Empirical stddev dominating one side, the binomial floor the other.
  EXPECT_NEAR(mc_ordering_slack(mk(0.9, 0.05, 16), mk(0.7, 0.0, 16), 200),
              0.049006093371130904, 1e-12);
  // Symmetric case with a clean closed form: var = 0.01/32 per side,
  // slack = 3.29 * sqrt(6.25e-4) = 0.08225 exactly.
  EXPECT_NEAR(mc_ordering_slack(mk(0.5, 0.1, 32), mk(0.5, 0.1, 32), 200),
              0.08225, 1e-12);
  // Empty sample lists fall back to n = 1, and means clamp away from the
  // degenerate 0/1 endpoints before the binomial floor.
  McResult hi = mk(1.0, 0.0, 0), lo = mk(0.0, 0.0, 0);
  EXPECT_NEAR(mc_ordering_slack(hi, lo, 100), 0.00046527602938590396, 1e-15);
  // More chips shrink the slack: 4x the samples halves the CI.
  EXPECT_NEAR(mc_ordering_slack(mk(0.5, 0.1, 128), mk(0.5, 0.1, 128), 200),
              0.08225 / 2.0, 1e-12);
}

}  // namespace
}  // namespace cn::core
