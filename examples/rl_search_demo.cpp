// RL placement search demo (paper Fig. 6/10 machinery) on the LeNet/digits
// recipe (core/recipe.h), shrunk to run in under a minute.
#include <cstdio>

#include "core/recipe.h"
#include "core/search.h"

int main() {
  using namespace cn;

  core::Recipe recipe = core::recipe("lenet", "digits");
  recipe.epochs = 4;
  recipe.train_count = 1200;
  recipe.test_count = 300;
  data::SplitDataset ds = core::make_dataset(recipe);

  Rng rng(1);
  nn::Sequential lip = core::make_model(recipe, rng);
  core::train(lip, ds.train, ds.test, core::lipschitz_train_config(recipe));

  core::SearchConfig cfg;
  cfg.candidate_layers = core::conv_layer_indices(lip);
  cfg.ratio_menu = {0.0f, 0.5f, 1.0f};
  cfg.overhead_limit = 0.05f;
  cfg.reinforce.iterations = 12;
  cfg.comp_train.epochs = 2;
  cfg.comp_train.lr = recipe.comp_lr;
  cfg.mc.samples = 6;
  cfg.variation =
      analog::VariationModel{analog::VariationKind::kLognormal, recipe.sigma};

  std::printf("searching %zu candidate conv layers, %zu-way ratio menu, %d episodes\n",
              cfg.candidate_layers.size(), cfg.ratio_menu.size(),
              cfg.reinforce.iterations);
  core::SearchOutcome out = core::rl_search(lip, ds.train, ds.test, cfg);

  std::printf("\nexplored plans (reward = acc_mean - acc_std - overhead, Eq. 12):\n");
  for (const auto& t : out.trace) {
    std::printf("  filters [");
    for (size_t i = 0; i < t.filters.size(); ++i)
      std::printf("%s%lld", i ? ", " : "", static_cast<long long>(t.filters[i]));
    std::printf("]: overhead %.2f%%, acc %.2f%%, reward %.3f%s\n",
                100.0 * t.overhead, 100.0 * t.acc_mean, t.reward,
                t.trained ? "" : " (over budget, skipped)");
  }
  std::printf("\nbest plan:");
  for (const auto& [idx, m] : out.best_plan.entries)
    std::printf(" layer %lld -> %lld filters;", static_cast<long long>(idx),
                static_cast<long long>(m));
  std::printf("\nbest reward %.3f (acc %.2f%% +- %.2f%%, overhead %.2f%%)\n",
              out.best.reward, 100.0 * out.best.acc_mean, 100.0 * out.best.acc_std,
              100.0 * out.best.overhead);
  return 0;
}
