// Crossbar-backed inference: runs Dense/Conv2D layers through the
// device-level CrossbarArray substrate instead of the fast factor-injection
// path.
//
// The training pipeline injects variations as multiplicative factors
// (w_eff = w ∘ e^θ) because that is the paper's model and it is fast. This
// module executes the *same* layers through programmed conductances — tiling,
// differential pairs, optional quantization and read noise — so the shortcut
// can be validated end-to-end: at matched programming σ the two paths must
// produce statistically indistinguishable accuracy (see
// tests/test_crossbar_exec.cpp and examples/crossbar_inspect.cpp).
//
// Both layers have one forward: whole batches per tile pass through
// CrossbarArray::matmul (dense) or matmul_cols (conv, im2col columns). The
// scalar CrossbarArray::matvec is the reference the exact-equivalence tests
// hold them to with read noise off.
#pragma once

#include <memory>
#include <optional>

#include "analog/crossbar.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/sequential.h"

namespace cn::analog {

/// Inference-only Dense executed on a programmed crossbar array.
class CrossbarDense final : public nn::Layer {
 public:
  /// Programs the crossbar from the trained layer's nominal weights;
  /// `faults` (optional, non-owning) injects device faults at programming
  /// time (see analog::FaultModel), and active `remap` params run the
  /// fault-aware remapping controller over the injected defect maps.
  CrossbarDense(const nn::Dense& src, const RramDeviceParams& dev, Rng& prog_rng,
                int64_t tile = 128, const FaultList* faults = nullptr,
                const remap::RemapParams* remap = nullptr);

  Tensor forward(const Tensor& x, bool train) override;
  /// Fused ReLU epilogue (relu-epilogue pass): the clamp rides the bias-add
  /// loop. Bitwise-identical to forward + standalone ReLU.
  Tensor forward_relu(const Tensor& x) override;
  Tensor backward(const Tensor&) override;  // throws: inference only
  std::unique_ptr<nn::Layer> clone() const override;
  std::string kind() const override { return "crossbar_dense"; }
  bool is_analog() const override { return true; }

  const CrossbarArray& array() const { return *xbar_; }
  /// Enables per-read noise using an external stream (nullptr disables).
  /// The stream is shared by clones — single-threaded use only; concurrent
  /// chip instances must use set_read_seed instead.
  void set_read_rng(Rng* rng) { read_rng_ = rng; }
  /// Enables per-read noise from a layer-owned stream. Clones copy the
  /// stream state by value, so each clone draws independently — safe for
  /// concurrent chip instances (give every instance its own seed).
  void set_read_seed(uint64_t seed) { owned_read_rng_.emplace(seed); }

 private:
  Rng* effective_read_rng() {
    if (read_rng_) return read_rng_;
    return owned_read_rng_ ? &*owned_read_rng_ : nullptr;
  }

  Tensor forward_impl(const Tensor& x, bool relu);

  std::shared_ptr<CrossbarArray> xbar_;  // shared by clones (programmed once)
  Tensor bias_;
  Rng* read_rng_ = nullptr;
  std::optional<Rng> owned_read_rng_;
};

/// Inference-only Conv2D executed on a programmed crossbar array
/// (im2col columns become wordline vectors).
class CrossbarConv2D final : public nn::Layer {
 public:
  CrossbarConv2D(const nn::Conv2D& src, const RramDeviceParams& dev, Rng& prog_rng,
                 int64_t tile = 128, const FaultList* faults = nullptr,
                 const remap::RemapParams* remap = nullptr);

  Tensor forward(const Tensor& x, bool train) override;
  /// Fused ReLU epilogue (relu-epilogue pass): the clamp rides the bias-add
  /// write-out. Bitwise-identical to forward + standalone ReLU.
  Tensor forward_relu(const Tensor& x) override;
  Tensor backward(const Tensor&) override;  // throws: inference only
  std::unique_ptr<nn::Layer> clone() const override;
  std::string kind() const override { return "crossbar_conv2d"; }
  bool is_analog() const override { return true; }

  const CrossbarArray& array() const { return *xbar_; }
  void set_read_rng(Rng* rng) { read_rng_ = rng; }
  void set_read_seed(uint64_t seed) { owned_read_rng_.emplace(seed); }

 private:
  Rng* effective_read_rng() {
    if (read_rng_) return read_rng_;
    return owned_read_rng_ ? &*owned_read_rng_ : nullptr;
  }

  Tensor forward_impl(const Tensor& x, bool relu);

  std::shared_ptr<CrossbarArray> xbar_;
  ConvGeom geom_;
  int64_t out_c_;
  Tensor bias_;
  Tensor cols_cm_;  // per-image im2col staging, reused across forwards
  Rng* read_rng_ = nullptr;
  std::optional<Rng> owned_read_rng_;
};

/// Deep-copies `model`, replacing every Dense/Conv2D with its crossbar-backed
/// equivalent programmed with `dev` (one chip instance). Compensation blocks
/// and other layers are cloned unchanged (they are digital). `faults`
/// (optional, non-owning, must outlive the chip) injects device faults into
/// the analog sites with execution-order index >= first_fault_site — the
/// fault-campaign analogue of the paper's Fig. 9 "inject from the i-th layer
/// to the last layer" sweep; 0 faults every site.
/// Active `remap` params run the fault-aware remapping controller on every
/// faulted site (remapping repairs the defect maps faults inject, so it is
/// gated by the same first_fault_site window); per-chip repair accounting is
/// readable via collect_remap_stats.
nn::Sequential program_to_crossbars(const nn::Sequential& model,
                                    const RramDeviceParams& dev, Rng& prog_rng,
                                    int64_t tile = 128,
                                    const FaultList* faults = nullptr,
                                    int64_t first_fault_site = 0,
                                    const remap::RemapParams* remap = nullptr);

/// Gives every crossbar layer in `model` (recursing into nested Sequentials)
/// its own read-noise stream, seeded deterministically from `seed`. Replaces
/// the shared-Rng* pattern for concurrent chip instances.
void set_read_seeds(nn::Sequential& model, uint64_t seed);

/// Sums the remap repair accounting over every crossbar layer of a chip
/// (recursing into nested Sequentials and compensated-layer override slots).
/// All-zero when the chip was programmed without remapping or defect-free.
remap::RemapStats collect_remap_stats(nn::Sequential& model);

}  // namespace cn::analog
