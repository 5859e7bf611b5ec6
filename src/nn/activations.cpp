#include "nn/activations.h"

#include <algorithm>
#include <stdexcept>

namespace cn::nn {

Tensor ReLU::forward(const Tensor& x, bool train) {
  // Branchless: sign-random activations make the naive `if` loop pay a
  // mispredict per element, which dominated inference profiles.
  Tensor y = x;
  float* yd = y.data();
  if (train) {
    mask_ = Tensor(x.shape());
    float* md = mask_.data();
    for (int64_t i = 0; i < y.size(); ++i) {
      md[i] = yd[i] > 0.0f ? 1.0f : 0.0f;
      yd[i] = std::max(yd[i], 0.0f);
    }
  } else {
    for (int64_t i = 0; i < y.size(); ++i) yd[i] = std::max(yd[i], 0.0f);
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (mask_.empty() || mask_.size() != grad_out.size())
    throw std::logic_error(label_ + ": backward without cached forward");
  Tensor gx = grad_out;
  for (int64_t i = 0; i < gx.size(); ++i) gx[i] *= mask_[i];
  return gx;
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(label_); }

Tensor Flatten::forward(const Tensor& x, bool train) {
  if (train) in_shape_ = x.shape();
  else if (in_shape_.empty()) in_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.size() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

std::unique_ptr<Layer> Flatten::clone() const {
  auto c = std::make_unique<Flatten>(label_);
  c->in_shape_ = in_shape_;
  return c;
}

}  // namespace cn::nn
