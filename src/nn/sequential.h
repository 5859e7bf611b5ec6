// Sequential container: the top-level model type used throughout.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace cn::nn {

class FusedPlan;  // nn/fusion.h

/// Ordered composition of layers. Itself a Layer, so it can nest.
///
/// CorrectNet manipulates models at this level: the sensitivity sweep
/// perturbs analog sites by execution order, and the RL environment splices
/// CompensatedConv2D wrappers in place of plain convolutions.
///
/// Eval-mode forwards execute through a lazily-built graph plan
/// (nn/fusion.h), fused unless fusion_enabled() is false; structural edits
/// (add / replace_layer) and a fusion_enabled() flip rebuild it. Train-mode
/// forwards run the layers in order.
class Sequential final : public Layer {
 public:
  explicit Sequential(std::string label = "model");
  ~Sequential() override;
  Sequential(Sequential&&) noexcept;
  Sequential& operator=(Sequential&&) noexcept;

  /// Appends a layer; returns a reference to it for chaining/config.
  Layer& add(LayerPtr layer);

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto p = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *p;
    add(std::move(p));
    return ref;
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  void collect_analog(std::vector<PerturbableWeight*>& out) override;
  std::unique_ptr<Layer> clone() const override;
  std::string kind() const override { return "sequential"; }

  /// Deep copy with the concrete Sequential type (convenience over clone()).
  Sequential clone_model() const;

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  Layer& layer(int64_t i) { return *layers_[static_cast<size_t>(i)]; }
  const Layer& layer(int64_t i) const { return *layers_[static_cast<size_t>(i)]; }

  /// Replaces layer i, returning the old layer.
  LayerPtr replace_layer(int64_t i, LayerPtr l);

  /// All analog weight sites in execution order.
  std::vector<PerturbableWeight*> analog_sites();

  /// Restores nominal weights at every analog site.
  void clear_all_variations();

  /// Total trainable / total parameter scalar counts.
  int64_t num_params() const;
  int64_t num_trainable_params() const;

  /// Sets `trainable` on every parameter (used to freeze the base network
  /// before compensation training).
  void set_trainable(bool trainable);

 private:
  std::vector<LayerPtr> layers_;
  std::unique_ptr<FusedPlan> plan_;  // lazy eval-mode plan
};

}  // namespace cn::nn
