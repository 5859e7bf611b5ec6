#include "nn/fusion.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>

#include "nn/batchnorm.h"
#include "nn/pooling.h"
#include "obs/metrics.h"

namespace cn::nn {

// ---------------------------------------------------------------------------
// Process-wide knob: an explicit override wins, otherwise CORRECTNET_FUSION
// is read and validated once at first use (so a typo'd CI matrix value fails
// loudly), default on.
// ---------------------------------------------------------------------------

namespace {

struct FusionKnob {
  std::once_flag env_once;
  bool env_default = true;
  std::atomic<int> override_{-1};  // -1 = none, 0 = off, 1 = on
};

FusionKnob& knob() {
  static FusionKnob k;
  return k;
}

bool parse_fusion_env() {
  const char* v = std::getenv("CORRECTNET_FUSION");
  if (!v || !*v) return true;
  const std::string s(v);
  if (s == "on" || s == "1" || s == "true") return true;
  if (s == "off" || s == "0" || s == "false") return false;
  throw std::runtime_error("CORRECTNET_FUSION: invalid value '" + s +
                           "' (expected on/off/1/0)");
}

}  // namespace

bool fusion_enabled() {
  FusionKnob& k = knob();
  const int ov = k.override_.load(std::memory_order_relaxed);
  if (ov >= 0) return ov != 0;
  std::call_once(k.env_once, [&k] { k.env_default = parse_fusion_env(); });
  return k.env_default;
}

void set_fusion_enabled(bool on) {
  knob().override_.store(on ? 1 : 0, std::memory_order_relaxed);
}

void reset_fusion_enabled() {
  knob().override_.store(-1, std::memory_order_relaxed);
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

int64_t pass_elide_dropout(LayerGraph& g) {
  int64_t n = 0;
  for (GraphNode& node : g.nodes) {
    if (node.op != OpKind::kDropout || node.skip) continue;
    node.skip = true;
    ++n;
  }
  return n;
}

int64_t pass_fold_batchnorm(LayerGraph& g) {
  int64_t n = 0;
  for (GraphNode& node : g.nodes) {
    if (node.op != OpKind::kBatchNorm || node.skip) continue;
    auto* bn = dynamic_cast<BatchNorm2D*>(node.layer);
    if (!bn) continue;
    GraphNode* p = live_producer(g, node);
    // Only conv2d: batchnorm2d is NCHW-only, so it can never legally follow
    // a dense (rank-2 output) — there is no dense+bn graph to fold. Crossbar
    // convs keep their bn standalone: conductances are programmed, not
    // re-scalable per forward.
    if (!p || p->op != OpKind::kConv2D || p->folded_bn) continue;
    auto* conv = dynamic_cast<Conv2D*>(p->layer);
    if (!conv || conv->out_channels() != bn->channels()) continue;
    p->folded_bn = bn;
    node.skip = true;
    ++n;
  }
  return n;
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

// Pool consuming a digital conv's output (directly, or through skipped
// relu/bn/dropout nodes) pools inside that conv's kernel epilogue. Runs
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

FusionStats run_fusion_passes(LayerGraph& g, const FusionOptions& opts) {
  FusionStats s;
  if (opts.elide_dropout) s.dropout_elided = pass_elide_dropout(g);
  if (opts.fold_batchnorm) s.bn_folded = pass_fold_batchnorm(g);
  if (opts.fuse_relu) s.relu_fused = pass_fuse_relu(g);
  if (opts.fuse_pool) {
    s.post_pools_fused = pass_fuse_post_pool(g);
    s.pools_fused = pass_fuse_pool(g);
  }
  auto& m = obs::metrics();
  m.counter("fusion.dropout_elided").add(static_cast<uint64_t>(s.dropout_elided));
  m.counter("fusion.bn_folded").add(static_cast<uint64_t>(s.bn_folded));
  m.counter("fusion.pools_fused").add(static_cast<uint64_t>(s.pools_fused));
  m.counter("fusion.post_pools_fused")
      .add(static_cast<uint64_t>(s.post_pools_fused));
  m.counter("fusion.relu_fused").add(static_cast<uint64_t>(s.relu_fused));
  return s;
}

// ---------------------------------------------------------------------------
// Executor.
// ---------------------------------------------------------------------------

namespace {

// Folds a batchnorm's eval-time affine into explicit conv weight/bias
// tensors: y = γ·(conv(x)+b−μ)·inv_std + β with inv_std = 1/√(σ²+ε), i.e.
// w' = w·s, b' = (b−μ)·s + β with s = γ·inv_std. Matches BatchNorm2D's
// float arithmetic (same inv_std expression); re-rounding of the scaled
// products is what the kBnFold* tolerance covers.
void fold_batchnorm_params(Conv2D& conv, BatchNorm2D& bn, Tensor& wf, Tensor& bf) {
  const Tensor& w = conv.live_weight();
  const int64_t out_c = conv.out_channels();
  const int64_t k2 = w.dim(1);
  wf = Tensor(w.shape());
  bf = Tensor({out_c});
  const float* pw = w.data();
  const float* pb = conv.bias().value.data();
  const float* g = bn.gamma().value.data();
  const float* beta = bn.beta().value.data();
  const float* rm = bn.running_mean().data();
  const float* rv = bn.running_var().data();
  const float eps = bn.eps();
  for (int64_t c = 0; c < out_c; ++c) {
    const float inv_std = 1.0f / std::sqrt(rv[c] + eps);
    const float s = g[c] * inv_std;
    float* wrow = wf.data() + c * k2;
    const float* srow = pw + c * k2;
    for (int64_t k = 0; k < k2; ++k) wrow[k] = srow[k] * s;
    bf[c] = (pb[c] - rm[c]) * s + beta[c];
  }
}

}  // namespace

FusedPlan::FusedPlan(Sequential& model, const FusionOptions& opts)
    : graph_(LayerGraph::build(model, /*train=*/false)) {
  stats_ = run_fusion_passes(graph_, opts);
  obs::metrics().counter("fusion.plans").add(1);
}

Tensor FusedPlan::run_node(GraphNode& n, const Tensor& x) {
  if (n.op == OpKind::kConv2D) {
    if (auto* conv = dynamic_cast<Conv2D*>(n.layer)) {
      const PrePool* pp = n.pre_pool.window > 0 ? &n.pre_pool : nullptr;
      const PrePool* post = n.post_pool.window > 0 ? &n.post_pool : nullptr;
      if (n.folded_bn) {
        // Folded per call: weights are always read live (variation factors,
        // weight edits); the fold is O(weights), negligible next to the conv.
        Tensor wf, bf;
        fold_batchnorm_params(*conv, *n.folded_bn, wf, bf);
        return conv->forward_fused(x, wf.data(), bf.data(), pp, n.relu_epilogue,
                                   post);
      }
      return conv->forward_fused(x, conv->live_weight().data(),
                                 conv->bias().value.data(), pp, n.relu_epilogue,
                                 post);
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
  // Empty or fully-elided graph: identity, matching the plain layer loop.
  return ran ? std::move(h) : Tensor(x);
}

}  // namespace cn::nn
