#include "core/pipeline.h"

#include <algorithm>

namespace cn::core {

namespace {
void say(const PipelineConfig& cfg, const std::string& msg) {
  if (cfg.log) cfg.log("[" + cfg.recipe.name + "] " + msg);
}
}  // namespace

PipelineResult run_correctnet(const data::Dataset& train_set,
                              const data::Dataset& test_set,
                              const PipelineConfig& cfg) {
  const Recipe& recipe = cfg.recipe;
  const analog::VariationModel variation{analog::VariationKind::kLognormal,
                                         recipe.sigma};
  PipelineResult result;
  Rng rng(cfg.seed);

  // 1. Baseline network.
  say(cfg, "training baseline network");
  result.base_model = make_model(recipe, rng);
  const TrainResult base_tr = train(result.base_model, train_set, test_set,
                                    base_train_config(recipe));
  result.clean_acc_base = base_tr.test_acc;

  say(cfg, "evaluating baseline under variations");
  result.base_var = mc_accuracy(result.base_model, test_set, variation, cfg.mc);

  // 2. Error suppression: Lipschitz-regularized training (Eq. 11).
  say(cfg, "training with Lipschitz regularization");
  result.lipschitz_model = make_model(recipe, rng);
  const TrainResult lip_tr = train(result.lipschitz_model, train_set, test_set,
                                   lipschitz_train_config(recipe));
  result.clean_acc_lipschitz = lip_tr.test_acc;
  result.lipschitz_var =
      mc_accuracy(result.lipschitz_model, test_set, variation, cfg.mc);

  // 3. Sensitivity sweep (Fig. 9) -> candidate prefix.
  say(cfg, "running sensitivity sweep");
  McOptions sweep_mc = cfg.mc;
  sweep_mc.samples = std::max(5, cfg.mc.samples / 2);
  result.sensitivity =
      sensitivity_sweep(result.lipschitz_model, test_set, variation, sweep_mc);
  result.candidate_sites = compensation_candidate_count(
      result.sensitivity, result.clean_acc_lipschitz, 0.95);

  // 4. Plan selection. The candidates are the convs among the first
  // candidate_sites analog sites (sites and conv order coincide up to FC
  // layers at the tail): the fixed-ratio plan compensates each of them, the
  // RL search picks among them.
  result.plan = fixed_ratio_plan(
      result.lipschitz_model, recipe.fixed_ratio,
      std::min<int64_t>(std::max<int64_t>(result.candidate_sites, 1),
                        recipe.max_comp_layers));
  if (cfg.plan_mode == PlanMode::kRl) {
    say(cfg, "RL search over compensation plans");
    SearchConfig scfg = cfg.search;
    scfg.candidate_layers.clear();
    for (const auto& [layer, filters] : result.plan.entries)
      scfg.candidate_layers.push_back(layer);
    scfg.variation = variation;
    if (scfg.comp_train.epochs == 0) scfg.comp_train = comp_train_config(recipe);
    result.plan =
        rl_search(result.lipschitz_model, train_set, test_set, scfg).best_plan;
  }

  // 5. Compensation training.
  say(cfg, "training compensation blocks");
  Rng comp_rng(cfg.seed ^ 0x5151ull);
  result.corrected_model =
      with_compensation(result.lipschitz_model, result.plan, comp_rng);
  result.overhead = compensation_overhead(result.corrected_model);
  for (const auto& [idx, m] : result.plan.entries)
    if (m > 0) ++result.comp_layers;
  train_compensation(result.corrected_model, train_set, test_set,
                     comp_train_config(recipe));

  // 6. Final Monte-Carlo evaluation.
  say(cfg, "evaluating CorrectNet under variations");
  result.corrected_var =
      mc_accuracy(result.corrected_model, test_set, variation, cfg.mc);
  return result;
}

}  // namespace cn::core
