// Pointwise activation layers.
#pragma once

#include "nn/layer.h"

namespace cn::nn {

/// ReLU. 1-Lipschitz, so it never amplifies propagated errors (paper §III-A).
class ReLU final : public Layer {
 public:
  explicit ReLU(std::string label = "relu") { label_ = std::move(label); }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> clone() const override;
  std::string kind() const override { return "relu"; }

 private:
  Tensor mask_;  // 1 where x > 0
};

/// Flatten (N, C, H, W) -> (N, C*H*W). Shape bookkeeping only.
class Flatten final : public Layer {
 public:
  explicit Flatten(std::string label = "flatten") { label_ = std::move(label); }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> clone() const override;
  std::string kind() const override { return "flatten"; }

 private:
  Shape in_shape_;
};

}  // namespace cn::nn
