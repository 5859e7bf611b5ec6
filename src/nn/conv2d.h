// 2-D convolution (NCHW) via im2col + matmul, with analog-weight support.
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"

namespace cn::nn {

/// A pooling stage fused ahead of a convolution's im2col producer (the
/// pool-fusion pass, nn/fusion.h): each input image is pooled into a
/// per-thread staging buffer with arithmetic identical to MaxPool2D /
/// AvgPool2D, then convolved from the staging buffer — the pooled
/// intermediate tensor is never materialized.
struct PrePool {
  enum class Kind { kMax, kAvg };
  Kind kind = Kind::kAvg;
  int64_t window = 0;  // square window == stride, matching the pool layers
};

/// Convolution with kernel W stored as (out_c, in_c*kh*kw) and bias (out_c).
///
/// Forward/backward run per-image im2col in parallel over the batch. The
/// kernel matrix is the analog crossbar payload; variation factors multiply
/// it elementwise (paper Eq. 1).
class Conv2D final : public Layer, public PerturbableWeight {
 public:
  Conv2D(int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride, int64_t pad,
         int64_t in_h, int64_t in_w, std::string label = "conv");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward_relu(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  /// Eval/exec kernel with an optional fused pre-pool stage, branchless ReLU
  /// epilogue, and optional post-pool stage (the conv's output is pooled per
  /// image from a scratch buffer before it is written back, so the
  /// full-resolution feature map is never materialized; the ReLU epilogue,
  /// when requested, applies before pooling, matching the conv→relu→pool
  /// graph order). forward() routes through this too, so the fused and
  /// unfused paths share one accumulation order (the exactness contract). A
  /// post-pool window must divide the conv output exactly (the fusion pass
  /// guarantees it).
  Tensor forward_fused(const Tensor& x, const PrePool* pre_pool, bool relu,
                       const PrePool* post_pool = nullptr);

  std::vector<Param*> params() override { return {&w_, &b_}; }
  void collect_analog(std::vector<PerturbableWeight*>& out) override {
    out.push_back(this);
  }
  std::unique_ptr<Layer> clone() const override;
  std::string kind() const override { return "conv2d"; }
  bool is_analog() const override { return true; }

  // PerturbableWeight
  const Tensor& nominal_weight() const override { return w_.value; }
  void set_weight_factors(const Tensor& f) override;
  void clear_weight_factors() override;
  int64_t weight_count() const override { return w_.size(); }
  const std::string& site_label() const override { return label_; }

  const ConvGeom& geom() const { return geom_; }
  int64_t out_channels() const { return out_c_; }
  int64_t in_channels() const { return geom_.in_c; }
  int64_t out_h() const { return geom_.out_h(); }
  int64_t out_w() const { return geom_.out_w(); }
  Param& weight() { return w_; }
  Param& bias() { return b_; }
  /// The weight tensor a forward uses right now: refreshes w ∘ f in place
  /// when variation factors are active.
  const Tensor& live_weight();

 private:
  const Tensor& effective_weight() const { return var_active_ ? w_eff_ : w_.value; }

  ConvGeom geom_;
  int64_t out_c_;
  Param w_, b_;
  Tensor w_eff_;
  Tensor factors_;     // f, kept to chain dL/dW = dL/dW_eff ∘ f
  bool var_active_ = false;
  Tensor x_cache_;     // (N, C, H, W) input for backward
};

}  // namespace cn::nn
