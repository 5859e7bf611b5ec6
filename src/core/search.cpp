#include "core/search.h"

#include <cmath>

#include "nn/conv2d.h"

namespace cn::core {

CompensationPlan plan_from_actions(const nn::Sequential& model, const SearchConfig& cfg,
                                   const std::vector<int>& actions) {
  CompensationPlan plan;
  for (size_t i = 0; i < cfg.candidate_layers.size(); ++i) {
    const int64_t layer_idx = cfg.candidate_layers[i];
    const float ratio = cfg.ratio_menu[static_cast<size_t>(actions[i])];
    int64_t m = 0;
    if (ratio > 0.0f) {
      const auto* conv =
          dynamic_cast<const nn::Conv2D*>(&model.layer(layer_idx));
      if (conv) m = std::max<int64_t>(1, std::llround(ratio * conv->out_channels()));
    }
    plan.entries.emplace_back(layer_idx, m);
  }
  return plan;
}

ExploredPlan evaluate_plan(const nn::Sequential& model, const data::Dataset& train_set,
                           const data::Dataset& test_set, const SearchConfig& cfg,
                           const CompensationPlan& plan) {
  ExploredPlan result;
  for (const auto& [idx, m] : plan.entries) result.filters.push_back(m);

  Rng rng(cfg.seed ^ 0xABCDEFull);
  nn::Sequential candidate = with_compensation(model, plan, rng);
  result.overhead = compensation_overhead(candidate);

  if (result.overhead > cfg.overhead_limit) {
    // Over budget: negative reward, skip training (paper's fast path).
    result.over_budget = true;
    result.reward = -static_cast<float>(result.overhead);
    return result;
  }
  if (!plan.empty())
    train_compensation(candidate, train_set, test_set, cfg.comp_train);
  const McResult mc = mc_accuracy(candidate, test_set, cfg.variation, cfg.mc);
  result.acc_mean = mc.mean;
  result.acc_std = mc.stddev;
  result.reward = static_cast<float>(mc.mean - mc.stddev - result.overhead);
  return result;
}

SearchOutcome rl_search(const nn::Sequential& model, const data::Dataset& train_set,
                        const data::Dataset& test_set, const SearchConfig& cfg) {
  rl::RnnPolicy policy(static_cast<int64_t>(cfg.candidate_layers.size()),
                       static_cast<int64_t>(cfg.ratio_menu.size()), cfg.policy_hidden,
                       cfg.seed);
  SearchOutcome out;
  std::map<std::vector<int>, ExploredPlan> memo;

  auto reward_fn = [&](const std::vector<int>& actions) -> float {
    auto it = memo.find(actions);
    if (it != memo.end()) return it->second.reward;
    const CompensationPlan plan = plan_from_actions(model, cfg, actions);
    ExploredPlan ep = evaluate_plan(model, train_set, test_set, cfg, plan);
    memo.emplace(actions, ep);
    out.trace.push_back(ep);
    return ep.reward;
  };

  const rl::ReinforceOutcome ro = rl::run_reinforce(policy, reward_fn, cfg.reinforce);
  out.best_plan = plan_from_actions(model, cfg, ro.best_actions);
  out.best = memo.at(ro.best_actions);
  return out;
}

}  // namespace cn::core
