// Fusion pass pipeline + fused graph executor over the layer-graph IR.
//
// Three passes rewrite the graph nn::LayerGraph builds from a Sequential.
// Every rewrite is EXACT: the fused plan equals the layer-by-layer forward
// bit for bit.
//
//   1. relu-epilogue  relu following a matmul-bearing op (conv2d, dense,
//                     crossbar_conv2d, crossbar_dense) becomes a branchless
//                     max(0,·) in that op's bias epilogue.
//   2. post-pool      max/avg pooling consuming a conv2d's output (directly,
//                     or through an already-fused relu) pools inside the
//                     conv kernel from a per-image scratch buffer — the
//                     full-resolution feature map is never materialized.
//                     Guarded on the window dividing the conv output.
//   3. pool-fuse      max/avg pooling feeding a conv2d moves into the conv's
//                     im2col producer (per-image staging buffer, identical
//                     pooling arithmetic). Mops up pools post-pool could not
//                     claim (no digital conv upstream, e.g. behind an opaque
//                     compensated conv).
//
// Pass order matters and is fixed: relu-epilogue → post-pool → pool-fuse. A
// conv→relu→pool chain collapses into one kernel because the pool's producer
// is resolved through the skipped relu node. Post-pool runs before pool-fuse
// so a pool between two convs fuses into the upstream conv (eliding its
// full-resolution output) rather than the downstream one.
//
// The executor adds one rewrite of its own: a flatten node whose input is an
// intermediate the plan owns is an in-place reshape (pure metadata, zero
// copy) instead of Flatten::forward's deep copy. EXACT.
//
// Per-pass rewrite counts land on the obs counters fusion.relu_fused,
// fusion.post_pools_fused and fusion.pools_fused; fusion.plans counts plan
// builds.
//
// Fusion is always on. set_fusion_enabled(false) makes Sequential::forward
// run the no-pass plan instead; tests use it to compare the two.
#pragma once

#include <cstdint>

#include "nn/graph.h"

namespace cn::nn {

/// True (the default) if Sequential::forward's eval plan runs the fusion
/// passes; false selects the no-pass plan.
bool fusion_enabled();
/// Process-wide switch for tests comparing fused and unfused.
void set_fusion_enabled(bool on);

struct FusionStats {
  int64_t pools_fused = 0;       // pool-fuse (pool ahead of a conv's im2col)
  int64_t post_pools_fused = 0;  // post-pool (pool inside a conv's epilogue)
  int64_t relu_fused = 0;
  int64_t rewrites() const { return pools_fused + post_pools_fused + relu_fused; }
};

/// Runs the pass pipeline over a built graph, annotating nodes in place, and
/// bumps the per-pass obs counters.
FusionStats run_fusion_passes(LayerGraph& g);

/// The eval executor for one Sequential: its graph, fused unless `fuse` is
/// false (no passes run). Sequential::forward caches one lazily per instance
/// (invalidated on structural edits or a fusion_enabled() flip); tests
/// construct it directly to inspect the graph and stats.
class FusedPlan {
 public:
  explicit FusedPlan(Sequential& model, bool fuse = true);

  /// Executes the annotated graph (eval mode). Weights are read live from
  /// the layers on every call, so weight edits and variation factors between
  /// forwards behave exactly like each layer's own forward.
  Tensor execute(const Tensor& x);

  const LayerGraph& graph() const { return graph_; }
  const FusionStats& stats() const { return stats_; }
  bool fused() const { return fused_; }

 private:
  Tensor run_node(GraphNode& n, const Tensor& x);

  LayerGraph graph_;
  FusionStats stats_;
  bool fused_;
};

}  // namespace cn::nn
