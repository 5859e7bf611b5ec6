#include "nn/graph.h"

#include <sstream>

namespace cn::nn {

OpKind classify_op(const std::string& kind) {
  if (kind == "conv2d") return OpKind::kConv2D;
  if (kind == "dense") return OpKind::kDense;
  if (kind == "relu") return OpKind::kReLU;
  if (kind == "maxpool") return OpKind::kMaxPool;
  if (kind == "avgpool") return OpKind::kAvgPool;
  if (kind == "flatten") return OpKind::kFlatten;
  if (kind == "crossbar_conv2d") return OpKind::kCrossbarConv2D;
  if (kind == "crossbar_dense") return OpKind::kCrossbarDense;
  return OpKind::kOpaque;
}

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kConv2D: return "conv2d";
    case OpKind::kDense: return "dense";
    case OpKind::kReLU: return "relu";
    case OpKind::kMaxPool: return "maxpool";
    case OpKind::kAvgPool: return "avgpool";
    case OpKind::kFlatten: return "flatten";
    case OpKind::kCrossbarConv2D: return "crossbar_conv2d";
    case OpKind::kCrossbarDense: return "crossbar_dense";
    case OpKind::kOpaque: return "opaque";
  }
  return "?";
}

LayerGraph LayerGraph::build(Sequential& model) {
  LayerGraph g;
  const int64_t n = model.num_layers();
  g.nodes.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    GraphNode node;
    node.id = i;
    node.layer = &model.layer(i);
    node.op = classify_op(node.layer->kind());
    if (i > 0) node.producers.push_back(i - 1);
    if (i + 1 < n) node.consumers.push_back(i + 1);
    g.nodes.push_back(std::move(node));
  }
  return g;
}

std::string LayerGraph::to_string() const {
  std::ostringstream os;
  for (const GraphNode& n : nodes) {
    os << "#" << n.id << " " << cn::nn::to_string(n.op) << " '"
       << (n.layer ? n.layer->label() : "<null>") << "'";
    os << " <-[";
    for (size_t i = 0; i < n.producers.size(); ++i)
      os << (i ? "," : "") << n.producers[i];
    os << "] ->[";
    for (size_t i = 0; i < n.consumers.size(); ++i)
      os << (i ? "," : "") << n.consumers[i];
    os << "]";
    if (n.skip) os << " skip";
    if (n.relu_epilogue) os << " +relu";
    if (n.pre_pool.window > 0)
      os << " +pre-" << (n.pre_pool.kind == PrePool::Kind::kMax ? "max" : "avg")
         << "pool" << n.pre_pool.window;
    if (n.post_pool.window > 0)
      os << " +post-" << (n.post_pool.kind == PrePool::Kind::kMax ? "max" : "avg")
         << "pool" << n.post_pool.window;
    os << "\n";
  }
  return os.str();
}

}  // namespace cn::nn
