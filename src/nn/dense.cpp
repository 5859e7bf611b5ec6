#include "nn/dense.h"

#include <stdexcept>

#include "exec/digital_kernels.h"
#include "tensor/ops.h"
#include "tensor/threadpool.h"

namespace cn::nn {

Dense::Dense(int64_t in_features, int64_t out_features, std::string label)
    : in_(in_features),
      out_(out_features),
      w_(Shape{out_features, in_features}, label + ".w"),
      b_(Shape{out_features}, label + ".b") {
  label_ = std::move(label);
}

Tensor Dense::forward(const Tensor& x, bool train) {
  Tensor y = forward_impl(x, /*relu=*/false);
  if (train) x_cache_ = x;
  return y;
}

Tensor Dense::forward_relu(const Tensor& x) { return forward_impl(x, /*relu=*/true); }

Tensor Dense::forward_impl(const Tensor& x, bool relu) {
  if (x.rank() != 2 || x.dim(1) != in_)
    throw std::invalid_argument(label_ + ": bad input shape " + to_string(x.shape()));
  if (w_.value.shape() != Shape{out_, in_} || (var_active_ && !factors_.same_shape(w_.value)))
    throw std::invalid_argument(label_ + ": weight shape changed to " +
                                to_string(w_.value.shape()));
  w_panel_.resize(static_cast<size_t>(exec::digital::packed_nt_size(out_, in_)));
  exec::digital::pack_nt(w_.value.data(), var_active_ ? factors_.data() : nullptr,
                         out_, in_, w_panel_.data());
  const int64_t N = x.dim(0);
  Tensor y({N, out_});
  parallel_for(0, N, [&](int64_t lo, int64_t hi) {
    exec::digital::matmul_nt_packed(x.data() + lo * in_, hi - lo, in_, w_panel_.data(),
                                    out_, b_.value.data(), relu, y.data() + lo * out_);
  }, 8);
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  if (x_cache_.empty())
    throw std::logic_error(label_ + ": backward without cached forward");
  const int64_t N = grad_out.dim(0);
  // dW_eff = dY^T X, db = colsum(dY), dX = dY W_eff.
  // With variation active, W_eff = W ∘ f, so dL/dW = dL/dW_eff ∘ f.
  Tensor dW = matmul_tn(grad_out, x_cache_);  // (out, in)
  if (var_active_) mul_inplace(dW, factors_);
  add_inplace(w_.grad, dW);
  for (int64_t n = 0; n < N; ++n) {
    const float* row = grad_out.data() + n * out_;
    for (int64_t o = 0; o < out_; ++o) b_.grad[o] += row[o];
  }
  if (var_active_) return matmul(grad_out, mul(w_.value, factors_));
  return matmul(grad_out, w_.value);
}

void Dense::set_weight_factors(const Tensor& f) {
  if (!f.same_shape(w_.value))
    throw std::invalid_argument(label_ + ": factor shape mismatch");
  factors_ = f;
  var_active_ = true;
}

void Dense::clear_weight_factors() {
  var_active_ = false;
  factors_ = Tensor();
}

std::unique_ptr<Layer> Dense::clone() const {
  auto c = std::make_unique<Dense>(in_, out_, label_);
  c->w_ = w_;
  c->b_ = b_;
  c->factors_ = factors_;
  c->var_active_ = var_active_;
  return c;
}

}  // namespace cn::nn
