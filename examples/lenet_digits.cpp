// LeNet-5 robustness walk-through on the digit dataset:
// trains baseline + Lipschitz models, runs the sensitivity sweep (Fig. 9
// style), and prints a per-sigma comparison — a compact tour of the
// error-suppression half of CorrectNet, on the LeNet/digits recipe
// (core/recipe.h).
#include <cstdio>

#include "core/lipschitz.h"
#include "core/montecarlo.h"
#include "core/recipe.h"
#include "core/sensitivity.h"

int main() {
  using namespace cn;

  const core::Recipe recipe = core::recipe("lenet", "digits");
  data::SplitDataset ds = core::make_dataset(recipe);

  // Baseline.
  Rng rng(7);
  nn::Sequential base = core::make_model(recipe, rng);
  core::TrainResult base_tr =
      core::train(base, ds.train, ds.test, core::base_train_config(recipe));

  // Error suppression (Eq. 11) with the recipe's β and λ floor.
  Rng rng2(8);
  nn::Sequential lip = core::make_model(recipe, rng2);
  core::TrainResult lip_tr =
      core::train(lip, ds.train, ds.test, core::lipschitz_train_config(recipe));

  std::printf("clean accuracy: baseline %.2f%%, lipschitz %.2f%%\n",
              100.0 * base_tr.test_acc, 100.0 * lip_tr.test_acc);
  std::printf("lambda target (k=1, sigma=0.5): %.3f\n",
              core::lipschitz_lambda(1.0, 0.5));
  std::printf("\nper-layer spectral norms (baseline vs lipschitz):\n");
  auto pb = base.params();
  auto pl = lip.params();
  for (size_t i = 0; i < pb.size(); ++i) {
    if (pb[i]->value.rank() < 2) continue;
    std::printf("  %-10s %6.2f -> %6.2f\n", pb[i]->name.c_str(),
                core::spectral_norm(pb[i]->value), core::spectral_norm(pl[i]->value));
  }

  std::printf("\naccuracy under variations (mean +- std, 15 samples):\n");
  std::printf("  %-6s %-18s %-18s\n", "sigma", "baseline(%)", "lipschitz(%)");
  core::McOptions mc;
  mc.samples = 15;
  for (float sigma : {0.1f, 0.3f, 0.5f}) {
    analog::VariationModel vm{analog::VariationKind::kLognormal, sigma};
    core::McResult rb = core::mc_accuracy(base, ds.test, vm, mc);
    core::McResult rl = core::mc_accuracy(lip, ds.test, vm, mc);
    std::printf("  %-6.1f %6.2f +- %-8.2f %6.2f +- %-8.2f\n", sigma, 100.0 * rb.mean,
                100.0 * rb.stddev, 100.0 * rl.mean, 100.0 * rl.stddev);
  }

  std::printf("\nsensitivity sweep at sigma=0.5 (variations from site i..end):\n");
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.5f};
  mc.samples = 10;
  auto sweep = core::sensitivity_sweep(lip, ds.test, vm, mc);
  for (const auto& p : sweep)
    std::printf("  from site %lld: %.2f%% +- %.2f%%\n",
                static_cast<long long>(p.first_site + 1), 100.0 * p.mean,
                100.0 * p.stddev);
  const int64_t cand = core::compensation_candidate_count(sweep, lip_tr.test_acc);
  std::printf("=> first %lld site(s) would get error compensation\n",
              static_cast<long long>(cand));
  return 0;
}
