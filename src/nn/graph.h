// Layer-graph IR: a node-per-op view of a Sequential's layer chain, with
// explicit producer/consumer edges, built so fusion passes (nn/fusion.h) can
// annotate and elide ops without touching the layers themselves.
//
// The IR is deliberately small — Sequential models are linear chains, so
// every node has at most one producer and one consumer — but edges are kept
// explicit (in the spirit of lazy-tensor node-per-op IRs and MIGraphX-style
// pass pipelines) so passes reason about structure, not vector indices.
//
// Lowering is eval-mode only: a train-mode forward runs the layers in order
// so each caches the activations its backward needs (Sequential::forward).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/conv2d.h"
#include "nn/sequential.h"

namespace cn::nn {

/// Op classification for pass pattern-matching, derived from Layer::kind().
/// Unknown kinds become kOpaque and always execute via Layer::forward.
enum class OpKind {
  kConv2D,
  kDense,
  kReLU,
  kMaxPool,
  kAvgPool,
  kFlatten,
  kCrossbarConv2D,
  kCrossbarDense,
  kOpaque,
};

OpKind classify_op(const std::string& kind);
const char* to_string(OpKind k);

/// One op in the graph. Fusion passes record their rewrites as annotations;
/// the executor (nn::FusedPlan) interprets them. A node never owns its layer.
struct GraphNode {
  int64_t id = 0;
  OpKind op = OpKind::kOpaque;
  Layer* layer = nullptr;
  std::vector<int64_t> producers;  // input node ids (empty = graph input)
  std::vector<int64_t> consumers;  // output node ids (empty = graph output)

  // ---- fusion annotations (written by nn::run_fusion_passes) ----
  bool skip = false;           // absorbed into another node
  bool relu_epilogue = false;  // apply max(0, ·) inside this node's epilogue
  PrePool pre_pool;            // conv only: pooling fused into im2col
                               // (window 0 = none)
  PrePool post_pool;           // conv only: pool the conv's output inside the
                               // kernel epilogue (window 0 = none)
};

/// The layer graph for one Sequential, nodes in execution (topological)
/// order. Holds raw Layer pointers into the model: any structural edit of
/// the Sequential (add / replace_layer) invalidates the graph — Sequential's
/// cached plan handles that.
struct LayerGraph {
  std::vector<GraphNode> nodes;

  /// Builds the node-per-op graph from a Sequential's layer chain.
  static LayerGraph build(Sequential& model);

  /// Debug dump: one line per node with op, label, edges and annotations.
  std::string to_string() const;
};

}  // namespace cn::nn
