// End-to-end CorrectNet pipeline (paper §III, evaluated in §IV):
//   1. train the baseline network (reference accuracy, Fig. 2 data);
//   2. train the Lipschitz-regularized network (error suppression);
//   3. sensitivity sweep to find compensation candidates (Fig. 9);
//   4. choose compensation locations/filters (RL search or a fixed plan);
//   5. train compensation blocks with variation-in-the-loop;
//   6. Monte-Carlo evaluation of all three networks (Table I, Fig. 7).
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "core/compensation.h"
#include "core/montecarlo.h"
#include "core/recipe.h"
#include "core/search.h"
#include "core/sensitivity.h"
#include "core/trainer.h"

namespace cn::core {

/// How step 4 picks the plan.
enum class PlanMode {
  kFixedRatio,  // compensate every candidate conv at recipe.fixed_ratio
  kRl,          // run the REINFORCE search (expensive)
};

struct PipelineConfig {
  /// The network, the three training stages, σ and the fixed-ratio plan
  /// (at most recipe.max_comp_layers candidate convs).
  Recipe recipe;
  McOptions mc;

  PlanMode plan_mode = PlanMode::kFixedRatio;
  SearchConfig search;  // used when plan_mode == kRl

  uint64_t seed = 2023;
  /// Progress sink (stage description); optional.
  std::function<void(const std::string&)> log;
};

struct PipelineResult {
  // Step 1-2 artifacts.
  nn::Sequential base_model{"base"};
  nn::Sequential lipschitz_model{"lipschitz"};
  nn::Sequential corrected_model{"corrected"};
  float clean_acc_base = 0.0f;       // σ=0 accuracy, original network
  float clean_acc_lipschitz = 0.0f;  // σ=0 accuracy after regularization
  McResult base_var;                 // original network under variations
  McResult lipschitz_var;            // suppression only
  McResult corrected_var;            // full CorrectNet
  std::vector<SensitivityPoint> sensitivity;
  int64_t candidate_sites = 0;
  CompensationPlan plan;
  double overhead = 0.0;
  int64_t comp_layers = 0;  // layers that actually received compensation
};

/// Runs the full pipeline on the recipe's network, under lognormal
/// variations at recipe.sigma.
PipelineResult run_correctnet(const data::Dataset& train_set,
                              const data::Dataset& test_set,
                              const PipelineConfig& cfg);

}  // namespace cn::core
