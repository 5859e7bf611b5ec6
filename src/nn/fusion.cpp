#include "nn/fusion.h"

#include <atomic>

#include "nn/pooling.h"
#include "obs/metrics.h"

namespace cn::nn {

namespace {
std::atomic<bool> g_fusion_enabled{true};
}  // namespace

bool fusion_enabled() {
  return g_fusion_enabled.load(std::memory_order_relaxed);
}

void set_fusion_enabled(bool on) {
  g_fusion_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Passes. The chain is linear (one producer, one consumer per node), so a
// node's effective producer is found by walking through skipped nodes.
// ---------------------------------------------------------------------------

namespace {

GraphNode* live_producer(LayerGraph& g, const GraphNode& n) {
  const GraphNode* cur = &n;
  while (!cur->producers.empty()) {
    GraphNode* p = &g.nodes[static_cast<size_t>(cur->producers.front())];
    if (!p->skip) return p;
    cur = p;
  }
  return nullptr;
}

// Reads a pool layer's window/kind into a PrePool; window 0 = not a pool.
PrePool pool_params(const GraphNode& node) {
  PrePool pp;
  if (auto* mp = dynamic_cast<MaxPool2D*>(node.layer)) {
    pp.kind = PrePool::Kind::kMax;
    pp.window = mp->window();
  } else if (auto* ap = dynamic_cast<AvgPool2D*>(node.layer)) {
    pp.kind = PrePool::Kind::kAvg;
    pp.window = ap->window();
  }
  return pp;
}

// Pool consuming a digital conv's output (directly, or through a skipped
// relu node) pools inside that conv's kernel epilogue. Runs
// before pass_fuse_pool so the upstream conv — whose full-resolution output
// the rewrite elides — wins over the downstream one.
int64_t pass_fuse_post_pool(LayerGraph& g) {
  int64_t n = 0;
  for (GraphNode& node : g.nodes) {
    if ((node.op != OpKind::kMaxPool && node.op != OpKind::kAvgPool) ||
        node.skip)
      continue;
    GraphNode* p = live_producer(g, node);
    if (!p || p->op != OpKind::kConv2D || p->post_pool.window > 0) continue;
    auto* conv = dynamic_cast<Conv2D*>(p->layer);
    if (!conv) continue;
    const PrePool pp = pool_params(node);
    if (pp.window <= 0 || conv->out_h() % pp.window != 0 ||
        conv->out_w() % pp.window != 0)
      continue;
    p->post_pool = pp;
    node.skip = true;
    ++n;
  }
  return n;
}

int64_t pass_fuse_pool(LayerGraph& g) {
  int64_t n = 0;
  for (GraphNode& node : g.nodes) {
    if (node.op != OpKind::kConv2D || node.skip) continue;
    if (node.pre_pool.window > 0) continue;
    auto* conv = dynamic_cast<Conv2D*>(node.layer);
    if (!conv) continue;
    GraphNode* p = live_producer(g, node);
    if (!p || (p->op != OpKind::kMaxPool && p->op != OpKind::kAvgPool)) continue;
    const PrePool pp = pool_params(*p);
    if (pp.window <= 0) continue;
    node.pre_pool = pp;
    p->skip = true;
    ++n;
  }
  return n;
}

int64_t pass_fuse_relu(LayerGraph& g) {
  int64_t n = 0;
  for (GraphNode& node : g.nodes) {
    if (node.op != OpKind::kReLU || node.skip) continue;
    GraphNode* p = live_producer(g, node);
    if (!p || p->relu_epilogue) continue;
    const bool matmul_bearing =
        p->op == OpKind::kConv2D || p->op == OpKind::kDense ||
        p->op == OpKind::kCrossbarConv2D || p->op == OpKind::kCrossbarDense;
    if (!matmul_bearing) continue;
    p->relu_epilogue = true;
    node.skip = true;
    ++n;
  }
  return n;
}

}  // namespace

FusionStats run_fusion_passes(LayerGraph& g) {
  FusionStats s;
  s.relu_fused = pass_fuse_relu(g);
  s.post_pools_fused = pass_fuse_post_pool(g);
  s.pools_fused = pass_fuse_pool(g);
  auto& m = obs::metrics();
  m.counter("fusion.pools_fused").add(static_cast<uint64_t>(s.pools_fused));
  m.counter("fusion.post_pools_fused")
      .add(static_cast<uint64_t>(s.post_pools_fused));
  m.counter("fusion.relu_fused").add(static_cast<uint64_t>(s.relu_fused));
  return s;
}

// ---------------------------------------------------------------------------
// Executor.
// ---------------------------------------------------------------------------

FusedPlan::FusedPlan(Sequential& model, bool fuse)
    : graph_(LayerGraph::build(model)), fused_(fuse) {
  if (fuse) stats_ = run_fusion_passes(graph_);
  obs::metrics().counter("fusion.plans").add(1);
}

Tensor FusedPlan::run_node(GraphNode& n, const Tensor& x) {
  if (n.op == OpKind::kConv2D) {
    if (auto* conv = dynamic_cast<Conv2D*>(n.layer)) {
      const PrePool* pp = n.pre_pool.window > 0 ? &n.pre_pool : nullptr;
      const PrePool* post = n.post_pool.window > 0 ? &n.post_pool : nullptr;
      return conv->forward_fused(x, pp, n.relu_epilogue, post);
    }
  }
  if (n.relu_epilogue) return n.layer->forward_relu(x);
  return n.layer->forward(x, /*train=*/false);
}

Tensor FusedPlan::execute(const Tensor& x) {
  const Tensor* cur = &x;
  Tensor h;
  bool ran = false;
  for (GraphNode& n : graph_.nodes) {
    if (n.skip) continue;
    // Flatten over an intermediate the plan owns is pure metadata: reshape
    // in place instead of Flatten::forward's deep copy. Bitwise-exact (the
    // buffer is untouched). The graph-input case still copies — the caller's
    // tensor must not be mutated.
    if (n.op == OpKind::kFlatten && ran && h.rank() >= 1 && h.dim(0) > 0) {
      h.reshape({h.dim(0), h.size() / h.dim(0)});
      continue;
    }
    Tensor out = run_node(n, *cur);
    h = std::move(out);
    cur = &h;
    ran = true;
  }
  // Empty graph: identity.
  return ran ? std::move(h) : Tensor(x);
}

}  // namespace cn::nn
