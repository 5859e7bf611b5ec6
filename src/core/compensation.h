// Error compensation (paper §III-B, Fig. 5).
//
// A protected conv layer gets two small digital 1×1 convolutions:
//  - generator: m filters of 1×1×(l+n) reading concat(avgpool(input), output)
//    of the base layer (average pooling matches the spatial dims);
//  - compensator: n filters of 1×1×(n+m) reading concat(output, generator
//    output), emitting the corrected n feature maps.
//
// Both run on digital circuits and are therefore variation-free; only their
// weights train (base weights frozen), with fresh variations sampled on the
// base weights every batch. The compensator is initialized to the identity
// on the base output channels so an untrained block is a no-op.
//
// Two forward paths, one result:
//  - train composes tensors: adaptive_avgpool, concat_channels, the
//    generator Conv2D, a ReLU pass that records the backward mask, a second
//    concat and the compensator Conv2D. It is the bitwise reference.
//  - eval runs one loop over the images. Each image's pooled input, base
//    output and generator output are staged as rows of one reused buffer,
//    padded to whole 16-pixel kernel blocks, and both 1x1 convs call
//    exec::digital::conv_gemm on those rows directly (the generator with its
//    relu epilogue). No pooled, concatenated or im2col'd tensor is built.
//    Each output equals the composed path bit for bit, -0 and NaN included:
//    the weights come from Conv2D::live_weight, an identity pooling window
//    computes 0.0f + x (never a copy), and any other window divides its sum
//    once by float(area). The generator relu is std::max(v, 0.0f), which
//    passes NaN and -0; the train relu zeroes only negatives too (its
//    backward mask is gen > 0), so train and eval agree there as well.
#pragma once

#include <memory>
#include <vector>

#include "analog/variation.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "nn/conv2d.h"
#include "nn/sequential.h"

namespace cn::core {

/// Adaptive average pooling to an arbitrary output size (each output cell
/// averages its fractional input region). Free function used by the
/// compensation block; exposed for tests.
Tensor adaptive_avgpool(const Tensor& x, int64_t out_h, int64_t out_w);
/// Backward of adaptive_avgpool given input/output geometry.
Tensor adaptive_avgpool_backward(const Tensor& grad_out, int64_t in_h, int64_t in_w);

/// Concatenates two NCHW tensors along channels.
Tensor concat_channels(const Tensor& a, const Tensor& b);
/// Splits grad of a channel concat back into the two parts (a: first ca ch).
void split_channels(const Tensor& g, int64_t ca, Tensor& ga, Tensor& gb);

/// A convolution wrapped with CorrectNet error compensation.
class CompensatedConv2D final : public nn::Layer {
 public:
  /// Takes ownership of the (already trained) base conv; m_filters is the
  /// generator filter count. Generator/compensator weights are initialized
  /// here (compensator ≈ identity + noise).
  CompensatedConv2D(std::unique_ptr<nn::Conv2D> base, int64_t m_filters, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<nn::Param*> params() override;
  void collect_analog(std::vector<nn::PerturbableWeight*>& out) override;
  void visit_analog_bases(
      const std::function<void(const nn::Layer&, std::unique_ptr<nn::Layer>&)>& fn)
      override;
  std::unique_ptr<nn::Layer> clone() const override;
  std::string kind() const override { return "compensated_conv2d"; }
  bool is_analog() const override { return true; }

  const nn::Conv2D& base() const { return *base_; }
  nn::Conv2D& base() { return *base_; }
  int64_t generator_filters() const { return m_; }
  /// Weight count of generator + compensator (the overhead numerator).
  int64_t compensation_weight_count() const;

 private:
  CompensatedConv2D(const CompensatedConv2D&) = default;
  /// Eval path: generator and compensator over base output `y` of input `x`.
  Tensor compensate(const Tensor& x, const Tensor& y);

  std::unique_ptr<nn::Conv2D> base_;
  // Substrate override (visit_analog_bases): when set, executes instead of
  // base_ at inference — how program_to_crossbars puts the compensated
  // conv's analog half on the crossbar while gen_/comp_ stay digital.
  // Training through an overridden base is rejected (backward throws).
  std::unique_ptr<nn::Layer> base_override_;
  std::unique_ptr<nn::Conv2D> gen_;   // digital: not collected as analog
  std::unique_ptr<nn::Conv2D> comp_;  // digital
  int64_t m_;
  Tensor relu_mask_;  // generator ReLU mask, cached for backward
};

/// A compensation plan: generator filter count per model layer index
/// (0 = no compensation at that layer).
struct CompensationPlan {
  std::vector<std::pair<int64_t, int64_t>> entries;  // (layer index, m filters)

  int64_t num_layers() const { return static_cast<int64_t>(entries.size()); }
  bool empty() const;
};

/// Wraps the conv at model layer `layer_idx` with compensation (in place).
/// Returns the new composite layer.
CompensatedConv2D& attach_compensation(nn::Sequential& model, int64_t layer_idx,
                                       int64_t m_filters, Rng& rng);

/// Applies a whole plan to a model clone and returns it.
nn::Sequential with_compensation(const nn::Sequential& model,
                                 const CompensationPlan& plan, Rng& rng);

/// Indices of plain Conv2D layers in the model, execution order.
std::vector<int64_t> conv_layer_indices(const nn::Sequential& model);

/// Total weights in compensation blocks / weights in the original network.
double compensation_overhead(nn::Sequential& model);

/// Freezes all non-compensation weights and trains the generator/compensator
/// parameters with variation-in-the-loop (paper §III-B training procedure).
TrainResult train_compensation(nn::Sequential& model, const data::Dataset& train_set,
                               const data::Dataset& test_set, const TrainConfig& cfg);

}  // namespace cn::core
