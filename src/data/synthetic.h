// Procedural image-classification datasets.
//
// The paper evaluates on MNIST / CIFAR-10 / CIFAR-100, none of which are
// available offline here. These generators produce classification tasks at
// the same tensor shapes and class counts, with tunable difficulty, so the
// robustness experiments exercise identical code paths:
//
//  - make_digits:  1×28×28, 10 classes — stroke-segment glyphs with jitter,
//    thickness and noise (MNIST stand-in; LeNet-5 reaches high-90s clean).
//  - make_objects: 3×32×32, N classes — per-class prototypes built from
//    random Gaussian blobs and oriented gratings, blended with a shared
//    background pattern to control inter-class similarity (CIFAR stand-in;
//    difficulty rises with class count, noise and similarity).
#pragma once

#include <cstdint>

#include "data/dataset.h"

namespace cn::data {

/// Parameters for the digit-glyph generator.
struct DigitsSpec {
  int64_t train_count = 4000;
  int64_t test_count = 1000;
  float jitter_px = 1.5f;      // endpoint jitter
  float thickness = 1.2f;      // stroke radius in pixels
  float noise_std = 0.15f;     // additive pixel noise
  uint64_t seed = 1;
};

/// Parameters for the blob/grating object generator.
struct ObjectsSpec {
  int64_t num_classes = 10;
  int64_t train_count = 4000;
  int64_t test_count = 1000;
  int blobs_per_class = 4;
  int gratings_per_class = 2;
  float jitter_frac = 0.08f;     // prototype element position jitter
  float noise_std = 0.25f;       // additive pixel noise
  float class_similarity = 0.3f; // blend weight of a shared background pattern
  uint64_t seed = 2;
};

/// MNIST stand-in (1x28x28, 10 classes). Images normalized to zero mean /
/// unit std over the training set; the same affine applies to test images.
SplitDataset make_digits(const DigitsSpec& spec);

/// CIFAR stand-in (3x32x32, spec.num_classes classes).
SplitDataset make_objects(const ObjectsSpec& spec);

/// The experiments' objects dataset for `num_classes` classes: 100 or more
/// classes take noise 0.35, class similarity 0.4 and jitter 0.1; fewer take
/// 0.7, 0.6 and 0.15. Sizes and seed keep ObjectsSpec's defaults.
ObjectsSpec objects_preset(int64_t num_classes);

}  // namespace cn::data
