#include "core/compensation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exec/digital_kernels.h"
#include "nn/init.h"
#include "tensor/ops.h"
#include "tensor/threadpool.h"

namespace cn::core {

namespace {

// Adaptive pooling windows along one axis: output cell o averages input
// [start[o], end[o]). Computed once per forward and shared by the pool, its
// backward and the compensation eval path, so all three agree on the bounds.
struct Windows {
  std::vector<int64_t> start, end;
  bool identity = false;  // in == out: every window is [o, o + 1)
};

Windows adaptive_windows(int64_t in, int64_t out) {
  Windows win;
  win.identity = in == out;
  win.start.resize(static_cast<size_t>(out));
  win.end.resize(static_cast<size_t>(out));
  for (int64_t o = 0; o < out; ++o) {
    const int64_t s = o * in / out;
    win.start[o] = s;
    win.end[o] = std::max(s + 1, (o + 1) * in / out + (((o + 1) * in) % out ? 1 : 0));
  }
  return win;
}

// Pools one channel with W columns into `out` (oh x ow, dense). Each output
// is 0.0f plus its window summed row-major, over float(area). An identity
// window is therefore 0.0f + x (dividing by 1 is exact), which turns -0 into
// +0: never a copy.
void pool_channel(const float* chan, int64_t W, const Windows& wh, const Windows& ww,
                  float* out) {
  const int64_t oh_n = static_cast<int64_t>(wh.start.size());
  const int64_t ow_n = static_cast<int64_t>(ww.start.size());
  if (wh.identity && ww.identity) {
    for (int64_t i = 0; i < oh_n * ow_n; ++i) out[i] = 0.0f + chan[i];
    return;
  }
  for (int64_t oh = 0; oh < oh_n; ++oh) {
    const int64_t h0 = wh.start[oh], h1 = wh.end[oh];
    for (int64_t ow = 0; ow < ow_n; ++ow) {
      const int64_t w0 = ww.start[ow], w1 = ww.end[ow];
      float acc = 0.0f;
      for (int64_t h = h0; h < h1; ++h)
        for (int64_t w = w0; w < w1; ++w) acc += chan[h * W + w];
      out[oh * ow_n + ow] = acc / static_cast<float>((h1 - h0) * (w1 - w0));
    }
  }
}

}  // namespace

Tensor adaptive_avgpool(const Tensor& x, int64_t out_h, int64_t out_w) {
  if (x.rank() != 4) throw std::invalid_argument("adaptive_avgpool: expected NCHW");
  const int64_t N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const Windows wh = adaptive_windows(H, out_h), ww = adaptive_windows(W, out_w);
  Tensor y({N, C, out_h, out_w});
  for (int64_t nc = 0; nc < N * C; ++nc)
    pool_channel(x.data() + nc * H * W, W, wh, ww, y.data() + nc * out_h * out_w);
  return y;
}

Tensor adaptive_avgpool_backward(const Tensor& grad_out, int64_t in_h, int64_t in_w) {
  const int64_t N = grad_out.dim(0), C = grad_out.dim(1);
  const int64_t out_h = grad_out.dim(2), out_w = grad_out.dim(3);
  const Windows wh = adaptive_windows(in_h, out_h), ww = adaptive_windows(in_w, out_w);
  Tensor gx({N, C, in_h, in_w});
  for (int64_t nc = 0; nc < N * C; ++nc) {
    float* chan = gx.data() + nc * in_h * in_w;
    const float* g = grad_out.data() + nc * out_h * out_w;
    for (int64_t oh = 0; oh < out_h; ++oh) {
      const int64_t h0 = wh.start[oh], h1 = wh.end[oh];
      for (int64_t ow = 0; ow < out_w; ++ow) {
        const int64_t w0 = ww.start[ow], w1 = ww.end[ow];
        const float gv = g[oh * out_w + ow] / static_cast<float>((h1 - h0) * (w1 - w0));
        for (int64_t h = h0; h < h1; ++h)
          for (int64_t w = w0; w < w1; ++w) chan[h * in_w + w] += gv;
      }
    }
  }
  return gx;
}

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  if (a.rank() != 4 || b.rank() != 4 || a.dim(0) != b.dim(0) || a.dim(2) != b.dim(2) ||
      a.dim(3) != b.dim(3))
    throw std::invalid_argument("concat_channels: incompatible shapes " +
                                to_string(a.shape()) + " / " + to_string(b.shape()));
  const int64_t N = a.dim(0), Ca = a.dim(1), Cb = b.dim(1), H = a.dim(2), W = a.dim(3);
  Tensor out({N, Ca + Cb, H, W});
  const int64_t hw = H * W;
  for (int64_t n = 0; n < N; ++n) {
    std::copy(a.data() + n * Ca * hw, a.data() + (n + 1) * Ca * hw,
              out.data() + n * (Ca + Cb) * hw);
    std::copy(b.data() + n * Cb * hw, b.data() + (n + 1) * Cb * hw,
              out.data() + (n * (Ca + Cb) + Ca) * hw);
  }
  return out;
}

void split_channels(const Tensor& g, int64_t ca, Tensor& ga, Tensor& gb) {
  const int64_t N = g.dim(0), C = g.dim(1), H = g.dim(2), W = g.dim(3);
  const int64_t cb = C - ca;
  ga = Tensor({N, ca, H, W});
  gb = Tensor({N, cb, H, W});
  const int64_t hw = H * W;
  for (int64_t n = 0; n < N; ++n) {
    std::copy(g.data() + n * C * hw, g.data() + n * C * hw + ca * hw,
              ga.data() + n * ca * hw);
    std::copy(g.data() + n * C * hw + ca * hw, g.data() + (n + 1) * C * hw,
              gb.data() + n * cb * hw);
  }
}

CompensatedConv2D::CompensatedConv2D(std::unique_ptr<nn::Conv2D> base,
                                     int64_t m_filters, Rng& rng)
    : base_(std::move(base)), m_(m_filters) {
  if (m_ < 1) throw std::invalid_argument("CompensatedConv2D: m_filters must be >= 1");
  label_ = base_->label() + "+comp";
  const int64_t l = base_->in_channels();
  const int64_t n = base_->out_channels();
  const int64_t oh = base_->out_h(), ow = base_->out_w();
  gen_ = std::make_unique<nn::Conv2D>(l + n, m_, 1, 1, 0, oh, ow, label_ + ".gen");
  comp_ = std::make_unique<nn::Conv2D>(n + m_, n, 1, 1, 0, oh, ow, label_ + ".comp");
  nn::he_normal(gen_->weight().value, l + n, rng);
  gen_->bias().value.zero();
  // Identity init: untrained compensation passes the base output through.
  comp_->weight().value.zero();
  for (int64_t o = 0; o < n; ++o) comp_->weight().value[o * (n + m_) + o] = 1.0f;
  // Small noise on the generator-channel taps so gradients break symmetry
  // (exactly zero taps would leave the generator without gradient signal).
  for (int64_t o = 0; o < n; ++o)
    for (int64_t k = n; k < n + m_; ++k)
      comp_->weight().value[o * (n + m_) + k] =
          static_cast<float>(rng.normal(0.0, 0.003));
  comp_->bias().value.zero();
}

Tensor CompensatedConv2D::forward(const Tensor& x, bool train) {
  const ConvGeom& g = base_->geom();
  if (x.rank() != 4 || x.dim(1) != g.in_c || x.dim(2) != g.in_h || x.dim(3) != g.in_w)
    throw std::invalid_argument(label_ + ": bad input shape " + to_string(x.shape()));
  // Substrate-backed chips execute the override (geometry mirrors base_).
  nn::Layer& analog_base =
      base_override_ ? *base_override_ : static_cast<nn::Layer&>(*base_);
  Tensor y = analog_base.forward(x, train);
  if (!train) return compensate(x, y);
  Tensor xp = adaptive_avgpool(x, base_->out_h(), base_->out_w());
  Tensor gin = concat_channels(xp, y);
  Tensor gen = gen_->forward(gin, train);
  // ReLU on the generated compensation data (documented design choice:
  // the paper draws plain conv blocks; the nonlinearity lets the generator
  // encode signed corrections through the compensator). Only negatives are
  // zeroed, so NaN and -0 pass as std::max(v, 0.0f) passes them in the eval
  // forward; the gradient flows where gen > 0.
  relu_mask_ = Tensor(gen.shape());
  for (int64_t i = 0; i < gen.size(); ++i) {
    if (gen[i] > 0.0f) relu_mask_[i] = 1.0f;
    else if (gen[i] < 0.0f) gen[i] = 0.0f;
  }
  Tensor cin = concat_channels(y, gen);
  return comp_->forward(cin, train);
}

Tensor CompensatedConv2D::compensate(const Tensor& x, const Tensor& y) {
  const ConvGeom& g = base_->geom();
  const int64_t N = x.dim(0), l = g.in_c, n = base_->out_channels();
  const int64_t OH = base_->out_h(), OW = base_->out_w(), P = OH * OW;
  const int64_t ldc = exec::digital::round_up_block(P);
  const Windows wh = adaptive_windows(g.in_h, OH), ww = adaptive_windows(g.in_w, OW);
  const float* gw = gen_->live_weight().data();
  const float* gb = gen_->bias().value.data();
  const float* cw = comp_->live_weight().data();
  const float* cb = comp_->bias().value.data();
  Tensor out({N, n, OH, OW});
  parallel_for(0, N, [&](int64_t lo, int64_t hi) {
    // One image's 1x1-conv input rows, ldc floats apart: pooled input (l),
    // base output (n), generator output (m). The generator reads rows
    // [0, l + n) and writes rows [l + n, l + n + m) whole (nd = ldc, so its
    // output rows are ldc apart too; the pad lanes it computes are never
    // read into an output). The compensator reads rows [l, l + n + m).
    std::vector<float> rows(static_cast<size_t>((l + n + m_) * ldc));
    float* const y_rows = rows.data() + l * ldc;
    for (int64_t i = lo; i < hi; ++i) {
      const float* img = x.data() + i * l * g.in_h * g.in_w;
      for (int64_t c = 0; c < l; ++c)
        pool_channel(img + c * g.in_h * g.in_w, g.in_w, wh, ww, rows.data() + c * ldc);
      const float* yi = y.data() + i * n * P;
      for (int64_t c = 0; c < n; ++c)
        std::copy(yi + c * P, yi + (c + 1) * P, y_rows + c * ldc);
      exec::digital::conv_gemm(gw, gb, m_, l + n, rows.data(), ldc, /*nd=*/ldc,
                               /*relu=*/true, y_rows + n * ldc);
      exec::digital::conv_gemm(cw, cb, n, n + m_, y_rows, ldc, P, /*relu=*/false,
                               out.data() + i * n * P);
    }
  });
  return out;
}

Tensor CompensatedConv2D::backward(const Tensor& grad_out) {
  if (base_override_)
    throw std::logic_error(label_ + ": substrate-backed base is inference-only");
  const int64_t l = base_->in_channels();
  const int64_t n = base_->out_channels();
  Tensor dcin = comp_->backward(grad_out);
  Tensor dy1, dg;
  split_channels(dcin, n, dy1, dg);
  for (int64_t i = 0; i < dg.size(); ++i) dg[i] *= relu_mask_[i];
  Tensor dgin = gen_->backward(dg);
  Tensor dxp, dy2;
  split_channels(dgin, l, dxp, dy2);
  add_inplace(dy1, dy2);
  Tensor dx = base_->backward(dy1);
  Tensor dx_pool = adaptive_avgpool_backward(dxp, base_->geom().in_h, base_->geom().in_w);
  add_inplace(dx, dx_pool);
  return dx;
}

std::vector<nn::Param*> CompensatedConv2D::params() {
  std::vector<nn::Param*> out = base_->params();
  for (nn::Param* p : gen_->params()) out.push_back(p);
  for (nn::Param* p : comp_->params()) out.push_back(p);
  return out;
}

void CompensatedConv2D::collect_analog(std::vector<nn::PerturbableWeight*>& out) {
  // Only the base conv sits on the analog crossbar; generator/compensator
  // execute digitally (paper §III-B) and are immune to variations. With a
  // substrate override installed the dormant base_ exposes no sites (factor
  // perturbation would not affect execution); the override contributes any
  // sites of its own (none for crossbar layers — variation is programmed in).
  if (base_override_) {
    base_override_->collect_analog(out);
    return;
  }
  base_->collect_analog(out);
}

void CompensatedConv2D::visit_analog_bases(
    const std::function<void(const nn::Layer&, std::unique_ptr<nn::Layer>&)>& fn) {
  fn(*base_, base_override_);
}

std::unique_ptr<nn::Layer> CompensatedConv2D::clone() const {
  // Clone via the private copy path: deep-copy each sub-layer.
  auto base_clone = std::unique_ptr<nn::Conv2D>(
      static_cast<nn::Conv2D*>(base_->clone().release()));
  Rng dummy(1);
  auto c = std::make_unique<CompensatedConv2D>(std::move(base_clone), m_, dummy);
  c->gen_ = std::unique_ptr<nn::Conv2D>(static_cast<nn::Conv2D*>(gen_->clone().release()));
  c->comp_ =
      std::unique_ptr<nn::Conv2D>(static_cast<nn::Conv2D*>(comp_->clone().release()));
  if (base_override_) c->base_override_ = base_override_->clone();
  c->label_ = label_;
  return c;
}

int64_t CompensatedConv2D::compensation_weight_count() const {
  int64_t n = 0;
  for (const nn::Param* p : const_cast<nn::Conv2D*>(gen_.get())->params()) n += p->size();
  for (const nn::Param* p : const_cast<nn::Conv2D*>(comp_.get())->params()) n += p->size();
  return n;
}

bool CompensationPlan::empty() const {
  for (const auto& [idx, m] : entries)
    if (m > 0) return false;
  return true;
}

CompensatedConv2D& attach_compensation(nn::Sequential& model, int64_t layer_idx,
                                       int64_t m_filters, Rng& rng) {
  auto* conv = dynamic_cast<nn::Conv2D*>(&model.layer(layer_idx));
  if (!conv)
    throw std::invalid_argument("attach_compensation: layer " +
                                std::to_string(layer_idx) + " is not a Conv2D");
  auto placeholder = std::make_unique<nn::Conv2D>(1, 1, 1, 1, 0, 1, 1, "tmp");
  nn::LayerPtr old = model.replace_layer(layer_idx, std::move(placeholder));
  auto base = std::unique_ptr<nn::Conv2D>(static_cast<nn::Conv2D*>(old.release()));
  auto comp = std::make_unique<CompensatedConv2D>(std::move(base), m_filters, rng);
  CompensatedConv2D& ref = *comp;
  model.replace_layer(layer_idx, std::move(comp));
  return ref;
}

nn::Sequential with_compensation(const nn::Sequential& model,
                                 const CompensationPlan& plan, Rng& rng) {
  nn::Sequential out = model.clone_model();
  for (const auto& [idx, m] : plan.entries) {
    if (m > 0) attach_compensation(out, idx, m, rng);
  }
  return out;
}

std::vector<int64_t> conv_layer_indices(const nn::Sequential& model) {
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < model.num_layers(); ++i) {
    if (model.layer(i).kind() == "conv2d") idx.push_back(i);
  }
  return idx;
}

CompensationPlan fixed_ratio_plan(const nn::Sequential& model, float ratio,
                                  int64_t layers) {
  CompensationPlan plan;
  const std::vector<int64_t> convs = conv_layer_indices(model);
  for (size_t i = 0; i < convs.size() && static_cast<int64_t>(i) < layers; ++i) {
    const auto& conv = dynamic_cast<const nn::Conv2D&>(model.layer(convs[i]));
    plan.entries.emplace_back(
        convs[i], std::max<int64_t>(1, std::llround(ratio * conv.out_channels())));
  }
  return plan;
}

double compensation_overhead(nn::Sequential& model) {
  int64_t comp_weights = 0;
  for (int64_t i = 0; i < model.num_layers(); ++i) {
    if (auto* c = dynamic_cast<CompensatedConv2D*>(&model.layer(i)))
      comp_weights += c->compensation_weight_count();
  }
  const int64_t total = model.num_params();
  const int64_t original = total - comp_weights;
  return original > 0 ? static_cast<double>(comp_weights) / static_cast<double>(original)
                      : 0.0;
}

TrainResult train_compensation(nn::Sequential& model, const data::Dataset& train_set,
                               const data::Dataset& test_set, const TrainConfig& cfg) {
  // Freeze everything, then re-enable only generator/compensator weights.
  model.set_trainable(false);
  for (int64_t i = 0; i < model.num_layers(); ++i) {
    if (auto* c = dynamic_cast<CompensatedConv2D*>(&model.layer(i))) {
      auto all = c->params();
      auto base = c->base().params();
      for (nn::Param* p : all) {
        const bool is_base =
            std::find(base.begin(), base.end(), p) != base.end();
        p->trainable = !is_base;
      }
    }
  }
  TrainConfig comp_cfg = cfg;
  comp_cfg.variation_in_loop = true;
  comp_cfg.lipschitz.enabled = false;  // base weights frozen; Eq. 11 not needed
  return train(model, train_set, test_set, comp_cfg);
}

}  // namespace cn::core
