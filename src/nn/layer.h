// Layer interface for the feed-forward NN stack.
//
// Layers own their parameters and the activation caches needed by backward.
// The model is a Sequential of Layers; composite layers (e.g. CorrectNet's
// CompensatedConv2D) nest further layers and recurse in params()/analog
// traversal.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/param.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace cn::nn {

/// Interface to a weight tensor that is physically realized on an analog
/// crossbar and therefore subject to programming variation (paper Eq. 1-2).
///
/// The Monte-Carlo evaluator perturbs every site of a model via
/// `set_weight_factors` (w_eff = w ∘ f, f = e^θ) and restores with
/// `clear_weight_factors`. Digital layers (compensation blocks) are simply
/// never registered as sites.
class PerturbableWeight {
 public:
  virtual ~PerturbableWeight() = default;
  /// The trained nominal weight tensor.
  virtual const Tensor& nominal_weight() const = 0;
  /// Applies multiplicative factors f (same shape as the weight).
  virtual void set_weight_factors(const Tensor& f) = 0;
  /// Restores the nominal weight.
  virtual void clear_weight_factors() = 0;
  /// Number of weight scalars at this site.
  virtual int64_t weight_count() const = 0;
  /// Owning-layer label, for reports.
  virtual const std::string& site_label() const = 0;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output; `train` also caches the activations
  /// backward needs.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input). Must be preceded by forward(x, /*train=*/true).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// All parameters, recursively for composite layers.
  virtual std::vector<Param*> params() { return {}; }

  /// Analog weight sites, recursively, in execution order.
  virtual void collect_analog(std::vector<PerturbableWeight*>&) {}

  /// Substrate hook for composite analog layers (e.g. core's compensated
  /// conv, whose base conv sits on the crossbar while its compensation
  /// blocks stay digital): visits each analog sub-layer together with an
  /// owning override slot. Installing a layer into the slot makes it execute
  /// in place of the original at inference; the composite must then reject
  /// training (backward throws). Leaves do nothing. Visit order must match
  /// collect_analog's site order.
  virtual void visit_analog_bases(
      const std::function<void(const Layer& base, std::unique_ptr<Layer>& override_slot)>&) {}

  /// Deep copy (parameters included, caches not required to be preserved).
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Short type tag, e.g. "conv2d".
  virtual std::string kind() const = 0;

  /// Instance label, e.g. "conv3_1".
  const std::string& label() const { return label_; }
  void set_label(std::string l) { label_ = std::move(l); }

  /// True if the layer carries weights that would sit on an analog crossbar.
  virtual bool is_analog() const { return false; }

  /// Eval-mode forward with a ReLU epilogue fused into the output: returns
  /// max(0, forward(x, false)) without materializing the pre-activation as a
  /// separate tensor. The default clamps in place after forward — already
  /// exact and already cheaper than a standalone ReLU layer (which deep-copies
  /// its input); layers with a bias-add epilogue override to absorb the clamp
  /// into that loop. Overrides MUST stay bitwise-identical to the default:
  /// every fusion rewrite is exact (docs/ARCHITECTURE.md).
  virtual Tensor forward_relu(const Tensor& x) {
    Tensor y = forward(x, /*train=*/false);
    float* d = y.data();
    const int64_t n = y.size();
    for (int64_t i = 0; i < n; ++i) d[i] = std::max(d[i], 0.0f);
    return y;
  }

 protected:
  std::string label_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace cn::nn
