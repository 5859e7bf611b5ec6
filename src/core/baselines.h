// Fig. 8 comparators, re-implemented from the mechanisms their papers
// describe (no reference code is available offline):
//
//  - Weight protection [8] (Charan et al., DAC'20): the most important
//    (largest-magnitude) weights are replicated into SRAM and therefore see
//    no variation. Overhead = protected fraction. The "online adaptation"
//    variant additionally fine-tunes the protected weights per chip.
//  - Random sparse adaptation [9] (Mohanty et al., IEDM'17): a random subset
//    of weights lives in reliable on-chip memory; the online variant
//    retrains that subset per chip instance.
//  - Variation-aware / statistical training [11] (Long et al., DATE'19):
//    the whole network is trained with variations injected in the loop; no
//    weight overhead.
#pragma once

#include <vector>

#include "core/montecarlo.h"
#include "core/trainer.h"

namespace cn::core {

/// Per-analog-site protection masks: 1 = weight held in SRAM (exact).
std::vector<Tensor> protection_masks(nn::Sequential& model, double frac, bool topk,
                                     Rng& rng);

/// MC accuracy where protected weights (mask==1) see no variation.
McResult mc_accuracy_protected(const nn::Sequential& model, const data::Dataset& test,
                               const analog::VariationModel& vm,
                               const std::vector<Tensor>& masks, const McOptions& opts);

struct OnlineRetrainOptions {
  int steps = 30;          // SGD steps per chip instance
  float lr = 5e-3f;
  int64_t batch_size = 32;
};

/// MC accuracy where, for each chip instance, the protected weights are
/// fine-tuned on training data with the chip's variations frozen in
/// (emulates per-chip online adaptation; expensive, keep opts.samples small).
McResult mc_accuracy_protected_online(const nn::Sequential& model,
                                      const data::Dataset& train_set,
                                      const data::Dataset& test,
                                      const analog::VariationModel& vm,
                                      const std::vector<Tensor>& masks,
                                      const McOptions& opts,
                                      const OnlineRetrainOptions& online);

/// Variation-aware training baseline: returns a model trained with
/// variations sampled fresh every batch (all weights trainable).
nn::Sequential train_variation_aware(const nn::Sequential& init_model,
                                     const data::Dataset& train_set,
                                     const data::Dataset& test_set,
                                     const TrainConfig& cfg);

}  // namespace cn::core
