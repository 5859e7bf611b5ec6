// RL search for compensation locations and filter counts (paper §III-B,
// Fig. 6 and Fig. 10).
//
// The environment trains + evaluates a candidate compensation plan; the
// reward (Eq. 12) is  acc_avg − acc_std − overhead  when the weight overhead
// is within the limit, and −overhead otherwise (in which case the expensive
// compensation training is skipped, exactly as the paper describes).
#pragma once

#include <map>
#include <vector>

#include "core/compensation.h"
#include "core/montecarlo.h"
#include "rl/reinforce.h"

namespace cn::core {

struct SearchConfig {
  /// Model layer indices eligible for compensation (the candidate prefix
  /// from the sensitivity sweep).
  std::vector<int64_t> candidate_layers;
  /// Ratio menu: generator filters = round(ratio * base out_channels);
  /// ratio <= 0 means no compensation at that layer (paper's S ≤ 0).
  std::vector<float> ratio_menu = {0.0f, 0.25f, 0.5f, 1.0f};
  float overhead_limit = 0.03f;
  int64_t policy_hidden = 32;
  rl::ReinforceConfig reinforce;
  /// Short compensation-training schedule used inside the reward.
  TrainConfig comp_train;
  McOptions mc;
  analog::VariationModel variation;
  uint64_t seed = 4242;
};

/// One explored plan (a dot in the paper's Fig. 10).
struct ExploredPlan {
  std::vector<int64_t> filters;  // per candidate layer
  double overhead = 0.0;
  double acc_mean = 0.0;
  double acc_std = 0.0;
  float reward = 0.0f;
  bool over_budget = false;  // over the limit: neither trained nor scored
};

struct SearchOutcome {
  CompensationPlan best_plan;
  ExploredPlan best;
  std::vector<ExploredPlan> trace;  // unique plans explored, in order
};

/// Runs the RL search on a Lipschitz-trained model. The model is cloned per
/// evaluation; the argument is left untouched.
SearchOutcome rl_search(const nn::Sequential& model, const data::Dataset& train_set,
                        const data::Dataset& test_set, const SearchConfig& cfg);

/// Builds the plan for an action sequence (used by rl_search and tests).
CompensationPlan plan_from_actions(const nn::Sequential& model,
                                   const SearchConfig& cfg,
                                   const std::vector<int>& actions);

/// Evaluates one plan end-to-end (attach, train compensation, MC eval).
ExploredPlan evaluate_plan(const nn::Sequential& model, const data::Dataset& train_set,
                           const data::Dataset& test_set, const SearchConfig& cfg,
                           const CompensationPlan& plan);

}  // namespace cn::core
