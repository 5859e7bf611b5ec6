// Fully-connected layer with analog-weight (variation) support.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace cn::nn {

/// y = x W^T + b, with W (out, in) mapped onto an analog crossbar.
///
/// When variation factors are set (Monte-Carlo evaluation or
/// variation-in-the-loop training), forward/backward use
/// `w_eff = W ∘ f` so gradients flow through the *perturbed* operator —
/// exactly what CorrectNet's compensation training requires.
class Dense final : public Layer, public PerturbableWeight {
 public:
  Dense(int64_t in_features, int64_t out_features, std::string label = "dense");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_relu(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Param*> params() override { return {&w_, &b_}; }
  void collect_analog(std::vector<PerturbableWeight*>& out) override {
    out.push_back(this);
  }
  std::unique_ptr<Layer> clone() const override;
  std::string kind() const override { return "dense"; }
  bool is_analog() const override { return true; }

  // PerturbableWeight
  const Tensor& nominal_weight() const override { return w_.value; }
  void set_weight_factors(const Tensor& f) override;
  void clear_weight_factors() override;
  int64_t weight_count() const override { return w_.size(); }
  const std::string& site_label() const override { return label_; }

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  Param& weight() { return w_; }
  Param& bias() { return b_; }

 private:
  /// Eval/exec kernel: packs the live weight (w, or w ∘ f when variation
  /// factors are active, re-read on every call so weight edits between
  /// forwards are reflected) transposed into the exec::digital panel
  /// layout, then y = x·Wᵀ + b with an optional relu epilogue. forward() and
  /// forward_relu() share it, so fused and unfused graphs share one
  /// accumulation order.
  Tensor forward_impl(const Tensor& x, bool relu);

  int64_t in_, out_;
  Param w_, b_;
  Tensor factors_;                // f when variation active
  bool var_active_ = false;
  std::vector<double> w_panel_;   // live weight, packed by forward_impl
  Tensor x_cache_;                // input saved by forward(train)
};

}  // namespace cn::nn
