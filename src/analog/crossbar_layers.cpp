#include "analog/crossbar_layers.h"

#include <algorithm>
#include <stdexcept>

namespace cn::analog {

CrossbarDense::CrossbarDense(const nn::Dense& src, const RramDeviceParams& dev,
                             Rng& prog_rng, int64_t tile, const FaultList* faults,
                             const remap::RemapParams* remap)
    : xbar_(std::make_shared<CrossbarArray>(src.nominal_weight(), dev, prog_rng,
                                            tile, faults, remap)),
      bias_(const_cast<nn::Dense&>(src).bias().value) {
  label_ = src.label() + "@xbar";
}

Tensor CrossbarDense::forward(const Tensor& x, bool) {
  return forward_impl(x, /*relu=*/false);
}

Tensor CrossbarDense::forward_relu(const Tensor& x) {
  return forward_impl(x, /*relu=*/true);
}

Tensor CrossbarDense::forward_impl(const Tensor& x, bool relu) {
  if (x.rank() != 2 || x.dim(1) != xbar_->in_dim())
    throw std::invalid_argument(label_ + ": bad input shape " + to_string(x.shape()));
  const int64_t N = x.dim(0), out = xbar_->out_dim();
  Tensor y = xbar_->matmul(x, effective_read_rng());
  // (v + bias) then max: identical values to bias-add + standalone ReLU.
  if (relu) {
    for (int64_t n = 0; n < N; ++n)
      for (int64_t o = 0; o < out; ++o)
        y[n * out + o] = std::max(y[n * out + o] + bias_[o], 0.0f);
  } else {
    for (int64_t n = 0; n < N; ++n)
      for (int64_t o = 0; o < out; ++o) y[n * out + o] += bias_[o];
  }
  return y;
}

Tensor CrossbarDense::backward(const Tensor&) {
  throw std::logic_error(label_ + ": crossbar layers are inference-only");
}

std::unique_ptr<nn::Layer> CrossbarDense::clone() const {
  auto c = std::unique_ptr<CrossbarDense>(new CrossbarDense(*this));
  return c;
}

CrossbarConv2D::CrossbarConv2D(const nn::Conv2D& src, const RramDeviceParams& dev,
                               Rng& prog_rng, int64_t tile, const FaultList* faults,
                               const remap::RemapParams* remap)
    : xbar_(std::make_shared<CrossbarArray>(src.nominal_weight(), dev, prog_rng,
                                            tile, faults, remap)),
      geom_(src.geom()),
      out_c_(src.out_channels()),
      bias_(const_cast<nn::Conv2D&>(src).bias().value) {
  label_ = src.label() + "@xbar";
}

Tensor CrossbarConv2D::forward(const Tensor& x, bool) {
  return forward_impl(x, /*relu=*/false);
}

Tensor CrossbarConv2D::forward_relu(const Tensor& x) {
  return forward_impl(x, /*relu=*/true);
}

Tensor CrossbarConv2D::forward_impl(const Tensor& x, bool relu) {
  if (x.rank() != 4 || x.dim(1) != geom_.in_c || x.dim(2) != geom_.in_h ||
      x.dim(3) != geom_.in_w)
    throw std::invalid_argument(label_ + ": bad input shape " + to_string(x.shape()));
  const int64_t N = x.dim(0);
  const int64_t OH = geom_.out_h(), OW = geom_.out_w();
  const int64_t P = OH * OW;
  const int64_t K2 = geom_.in_c * geom_.k_h * geom_.k_w;
  const int64_t img_in = geom_.in_c * geom_.in_h * geom_.in_w;
  Rng* rng = effective_read_rng();
  Tensor y({N, out_c_, OH, OW});
  // One im2col matrix per image, fed to the crossbar column-major as it
  // comes (P output pixels = P wordline vectors): whole tile passes instead
  // of P independent MVMs, with no transpose pass. The staging tensor is a
  // member so repeated forwards reuse its allocation.
  if (cols_cm_.rank() != 2 || cols_cm_.dim(0) != K2 || cols_cm_.dim(1) != P)
    cols_cm_ = Tensor({K2, P});
  for (int64_t n = 0; n < N; ++n) {
    im2col(x.data() + n * img_in, geom_, cols_cm_.data());
    Tensor acts = xbar_->matmul_cols(cols_cm_, rng);  // (P, out_c)
    float* out = y.data() + n * out_c_ * P;
    // (v + bias) then max: identical values to bias-add + standalone ReLU.
    if (relu) {
      for (int64_t o = 0; o < out_c_; ++o)
        for (int64_t p = 0; p < P; ++p)
          out[o * P + p] = std::max(acts[p * out_c_ + o] + bias_[o], 0.0f);
    } else {
      for (int64_t o = 0; o < out_c_; ++o)
        for (int64_t p = 0; p < P; ++p)
          out[o * P + p] = acts[p * out_c_ + o] + bias_[o];
    }
  }
  return y;
}

Tensor CrossbarConv2D::backward(const Tensor&) {
  throw std::logic_error(label_ + ": crossbar layers are inference-only");
}

std::unique_ptr<nn::Layer> CrossbarConv2D::clone() const {
  return std::unique_ptr<CrossbarConv2D>(new CrossbarConv2D(*this));
}

nn::Sequential program_to_crossbars(const nn::Sequential& model,
                                    const RramDeviceParams& dev, Rng& prog_rng,
                                    int64_t tile, const FaultList* faults,
                                    int64_t first_fault_site,
                                    const remap::RemapParams* remap) {
  nn::Sequential out(model.label() + "@xbar");
  int64_t site = 0;  // analog sites in execution order, matching perturb_from
  auto to_crossbar = [&](const nn::Layer& src) -> std::unique_ptr<nn::Layer> {
    const FaultList* site_faults =
        (faults && site >= first_fault_site) ? faults : nullptr;
    // Remapping repairs injected defect maps, so it rides the same window.
    const remap::RemapParams* site_remap = site_faults ? remap : nullptr;
    if (const auto* d = dynamic_cast<const nn::Dense*>(&src)) {
      ++site;
      return std::make_unique<CrossbarDense>(*d, dev, prog_rng, tile, site_faults,
                                             site_remap);
    }
    if (const auto* c = dynamic_cast<const nn::Conv2D*>(&src)) {
      ++site;
      return std::make_unique<CrossbarConv2D>(*c, dev, prog_rng, tile, site_faults,
                                              site_remap);
    }
    return nullptr;
  };
  for (int64_t i = 0; i < model.num_layers(); ++i) {
    const nn::Layer& l = model.layer(i);
    if (auto direct = to_crossbar(l)) {
      out.add(std::move(direct));
      continue;
    }
    // Composite analog layers (e.g. the compensated conv) carry their base
    // conv to the substrate through the override slot; digital parts are
    // cloned unchanged.
    auto cloned = l.clone();
    cloned->visit_analog_bases(
        [&](const nn::Layer& base, std::unique_ptr<nn::Layer>& slot) {
          if (auto converted = to_crossbar(base)) slot = std::move(converted);
        });
    out.add(std::move(cloned));
  }
  return out;
}

namespace {
template <typename Fn>
void dispatch_crossbar(nn::Layer* l, const Fn& fn) {
  if (auto* d = dynamic_cast<CrossbarDense*>(l)) fn(*d);
  else if (auto* c = dynamic_cast<CrossbarConv2D*>(l)) fn(*c);
}

template <typename Fn>
void for_each_crossbar_layer(nn::Sequential& model, const Fn& fn) {
  for (int64_t i = 0; i < model.num_layers(); ++i) {
    nn::Layer& l = model.layer(i);
    if (auto* s = dynamic_cast<nn::Sequential*>(&l)) {
      for_each_crossbar_layer(*s, fn);
      continue;
    }
    dispatch_crossbar(&l, fn);
    // Crossbar layers installed in composite override slots
    // (program_to_crossbars on compensated models).
    l.visit_analog_bases([&](const nn::Layer&, std::unique_ptr<nn::Layer>& slot) {
      dispatch_crossbar(slot.get(), fn);
    });
  }
}
}  // namespace

void set_read_seeds(nn::Sequential& model, uint64_t seed) {
  Rng derive(seed);
  for_each_crossbar_layer(model, [&](auto& l) { l.set_read_seed(derive.next_u64()); });
}

remap::RemapStats collect_remap_stats(nn::Sequential& model) {
  remap::RemapStats total;
  for_each_crossbar_layer(model,
                          [&](auto& l) { total += l.array().remap_stats(); });
  return total;
}

}  // namespace cn::analog
