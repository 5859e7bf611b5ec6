// VGG-16 topology (Simonyan & Zisserman), slimmed channel widths.
//
// The paper trains full VGG16 on GPUs; depth (13 conv + 3 FC) is what drives
// the error-amplification phenomenon the experiments probe, so we preserve
// the exact topology and shrink channel counts to keep CPU training
// feasible. `width` scales all channel counts: width=1 gives
// [16,16 | 32,32 | 64,64,64 | 96,96,96 | 96,96,96].
#pragma once

#include "nn/sequential.h"
#include "tensor/rng.h"

namespace cn::models {

struct VggConfig {
  int64_t in_c = 3;
  int64_t in_hw = 32;
  int num_classes = 10;
  float width = 1.0f;  // channel multiplier
};

/// Builds the 16-layer VGG: 13 3x3 convs in 5 blocks with maxpool, then
/// FC-128, FC-128, FC-classes (sizes scale with `width`).
nn::Sequential vgg16(const VggConfig& cfg, Rng& rng);

}  // namespace cn::models
