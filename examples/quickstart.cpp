// Quickstart: train LeNet-5 on the synthetic digit dataset, watch accuracy
// collapse under analog weight variations, then recover it with CorrectNet
// (Lipschitz regularization + error compensation). Every step takes its
// settings from the LeNet/digits recipe (core/recipe.h), at a smaller size.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "core/compensation.h"
#include "core/montecarlo.h"
#include "core/recipe.h"

int main() {
  using namespace cn;

  // 1. The recipe, shrunk to run in seconds, and its synthetic MNIST-like
  //    dataset (see src/data/synthetic.h).
  core::Recipe recipe = core::recipe("lenet", "digits");
  recipe.epochs = 3;
  recipe.comp_epochs = 3;
  recipe.train_count = 2000;
  recipe.test_count = 500;
  data::SplitDataset ds = core::make_dataset(recipe);
  std::printf("dataset: %lld train / %lld test images (1x28x28, 10 classes)\n",
              static_cast<long long>(ds.train.size()),
              static_cast<long long>(ds.test.size()));

  // 2. Baseline LeNet-5.
  Rng rng(1);
  nn::Sequential base = core::make_model(recipe, rng);
  core::TrainResult tr =
      core::train(base, ds.train, ds.test, core::base_train_config(recipe));
  std::printf("baseline clean accuracy: %.2f%%\n", 100.0 * tr.test_acc);

  // 3. Inject lognormal weight variations (paper Eq. 1-2) at sigma = 0.5.
  analog::VariationModel vm{analog::VariationKind::kLognormal, recipe.sigma};
  core::McOptions mc;
  mc.samples = 15;
  core::McResult varied = core::mc_accuracy(base, ds.test, vm, mc);
  std::printf("baseline at sigma=0.5: %.2f%% +- %.2f%%\n", 100.0 * varied.mean,
              100.0 * varied.stddev);

  // 4. Error suppression: retrain with Lipschitz regularization (Eq. 11).
  Rng rng2(2);
  nn::Sequential lip = core::make_model(recipe, rng2);
  core::TrainResult ltr =
      core::train(lip, ds.train, ds.test, core::lipschitz_train_config(recipe));
  core::McResult lip_var = core::mc_accuracy(lip, ds.test, vm, mc);
  std::printf("lipschitz clean: %.2f%%, at sigma=0.5: %.2f%% +- %.2f%%\n",
              100.0 * ltr.test_acc, 100.0 * lip_var.mean, 100.0 * lip_var.stddev);

  // 5. Error compensation on the recipe's first convs (fixed-ratio plan).
  const core::CompensationPlan plan =
      core::fixed_ratio_plan(lip, recipe.fixed_ratio, recipe.max_comp_layers);
  Rng crng(3);
  nn::Sequential corrected = core::with_compensation(lip, plan, crng);
  core::train_compensation(corrected, ds.train, ds.test,
                           core::comp_train_config(recipe));
  core::McResult cor_var = core::mc_accuracy(corrected, ds.test, vm, mc);
  std::printf("CorrectNet at sigma=0.5: %.2f%% +- %.2f%% (overhead %.2f%%)\n",
              100.0 * cor_var.mean, 100.0 * cor_var.stddev,
              100.0 * core::compensation_overhead(corrected));
  return 0;
}
