// Randomized model generator for the graph-parity fusion harness
// (tests/test_fusion.cpp). Draws a small Sequential from the fusible op set —
// conv blocks with an optional leading pool and trailing relu, then flatten
// and a dense head — with every weight drawn from the seed, so a seed is a
// reproducible parity case. Every rewrite is exact, so each case is checked
// bitwise.
#pragma once

#include <cstdint>
#include <string>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/rng.h"

namespace cn::testutil {

struct RandomModelSpec {
  uint64_t seed = 1;
  int64_t in_c = 1;    // input channels
  int64_t in_hw = 12;  // input height == width
};

struct RandomModel {
  nn::Sequential model{"rand"};
  int64_t in_c = 0;
  int64_t in_hw = 0;
};

inline RandomModel make_random_model(const RandomModelSpec& spec) {
  Rng rng(spec.seed);
  RandomModel rm;
  rm.in_c = spec.in_c;
  rm.in_hw = spec.in_hw;
  nn::Sequential& m = rm.model;
  int64_t c = spec.in_c, h = spec.in_hw, w = spec.in_hw;

  const int blocks = 1 + static_cast<int>(rng.uniform_int(2));  // 1..2
  for (int b = 0; b < blocks; ++b) {
    // A pool in front of the conv exercises the pool-fuse pass; gated on
    // divisibility and on leaving room for the 3x3 kernel below.
    if (h % 2 == 0 && h / 2 >= 3 && rng.uniform() < 0.5) {
      if (rng.uniform() < 0.5)
        m.emplace<nn::MaxPool2D>(2, "pool" + std::to_string(b));
      else
        m.emplace<nn::AvgPool2D>(2, "pool" + std::to_string(b));
      h /= 2;
      w /= 2;
    }
    if (h < 3) break;  // no room left for a 3x3 kernel
    const int64_t out_c = 3 + rng.uniform_int(4);  // 3..6
    const int64_t pad = rng.uniform_int(2);        // 0 or 1
    auto& conv = m.emplace<nn::Conv2D>(c, out_c, 3, 1, pad, h, w,
                                       "conv" + std::to_string(b));
    rng.fill_normal(conv.weight().value, 0.0f, 0.4f);
    rng.fill_normal(conv.bias().value, 0.0f, 0.2f);
    h += 2 * pad - 2;
    w += 2 * pad - 2;
    c = out_c;
    if (rng.uniform() < 0.7) m.emplace<nn::ReLU>("relu" + std::to_string(b));
    // Spare draw: keeps the stream, and so the graph each sweep seed was
    // chosen for, unchanged.
    (void)rng.uniform();
  }

  m.emplace<nn::Flatten>();
  const int64_t feat = c * h * w;
  const int64_t hidden = 8 + rng.uniform_int(9);  // 8..16
  auto& d1 = m.emplace<nn::Dense>(feat, hidden, "fc1");
  rng.fill_normal(d1.weight().value, 0.0f, 0.3f);
  rng.fill_normal(d1.bias().value, 0.0f, 0.1f);
  if (rng.uniform() < 0.7) m.emplace<nn::ReLU>("relu_fc");
  (void)rng.uniform();  // spare draw, as above
  auto& d2 = m.emplace<nn::Dense>(hidden, 4, "head");
  rng.fill_normal(d2.weight().value, 0.0f, 0.3f);
  rng.fill_normal(d2.bias().value, 0.0f, 0.1f);
  return rm;
}

/// The parity reference: each layer's own eval forward, in order. It shares
/// no code with nn::FusedPlan, so an executor bug cannot pass on both sides
/// of a fused-vs-unfused check.
inline Tensor reference_forward(nn::Sequential& m, const Tensor& x) {
  Tensor h = x;
  for (int64_t i = 0; i < m.num_layers(); ++i)
    h = m.layer(i).forward(h, /*train=*/false);
  return h;
}

/// A deterministic eval batch matching the model's input geometry.
inline Tensor random_input(const RandomModel& rm, uint64_t seed,
                           int64_t batch = 3) {
  Rng rng(seed);
  Tensor x({batch, rm.in_c, rm.in_hw, rm.in_hw});
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

}  // namespace cn::testutil
