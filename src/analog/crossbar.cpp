#include "analog/crossbar.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exec/target.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/threadpool.h"

namespace cn::analog {

namespace {
// Read noise on one current row: currents[c] *= 1 + noise[c].
void apply_read_noise(float* currents, const float* noise, int64_t n) {
  for (int64_t c = 0; c < n; ++c) currents[c] *= 1.0f + noise[c];
}

// Validates before the member initializers read dim(1).
const Tensor& rank2(const Tensor& w) {
  if (w.rank() != 2) throw std::invalid_argument("CrossbarTile: weight must be rank-2");
  return w;
}
}  // namespace

void validate_device(const RramDeviceParams& dev) {
  if (!(dev.g_max > dev.g_min))
    throw std::invalid_argument("RramDeviceParams: g_max must exceed g_min");
  const auto check_sigma = [](const char* name, float sigma) {
    if (!(std::isfinite(sigma) && sigma >= 0.0f))
      throw std::invalid_argument(std::string("RramDeviceParams: ") + name +
                                  " must be finite and >= 0, got " +
                                  std::to_string(sigma));
  };
  check_sigma("program_sigma", dev.program_sigma);
  check_sigma("read_sigma", dev.readout.read_sigma);
}

CrossbarTile::CrossbarTile(const Tensor& w, float w_absmax, const RramDeviceParams& dev,
                           Rng& rng, bool defer_lowering)
    : rows_(rank2(w).dim(0)), cols_(w.dim(1)), dev_(dev) {
  validate_device(dev);
  const float g_range = dev.g_max - dev.g_min;
  // scale maps conductance difference to weight: w = scale * (g+ - g-).
  scale_ = (w_absmax > 0.0f) ? w_absmax / g_range : 1.0f;

  const int64_t n = rows_ * cols_;
  g_pos_.resize(static_cast<size_t>(n));
  g_neg_.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float wv = w[i];
    // Differential mapping: positive weights raise G+, negative raise G-.
    float gp = dev.g_min + (wv > 0.0f ? wv / scale_ : 0.0f);
    float gn = dev.g_min + (wv < 0.0f ? -wv / scale_ : 0.0f);
    gp = std::min(gp, dev.g_max);
    gn = std::min(gn, dev.g_max);
    if (dev.conductance_levels > 1) {
      gp = quantize_uniform(gp, dev.g_min, dev.g_max, dev.conductance_levels);
      gn = quantize_uniform(gn, dev.g_min, dev.g_max, dev.conductance_levels);
    }
    g_pos_[static_cast<size_t>(i)] = gp;
    g_neg_[static_cast<size_t>(i)] = gn;
  }
  if (dev.program_sigma > 0.0f) {
    // Programming variation: two lognormal factors per weight, G+ then G-,
    // drawn as one stream in that order and applied as float products.
    constexpr int64_t kChunk = 256;  // weights per span
    float f[2 * kChunk];
    const exec::gauss::ExpNormal lognormal{0.0, dev.program_sigma, 1.0, false};
    for (int64_t i0 = 0; i0 < n; i0 += kChunk) {
      const int64_t m = std::min(kChunk, n - i0);
      rng.fill_exp_normal(f, nullptr, 2 * m, lognormal);
      for (int64_t j = 0; j < m; ++j) {
        g_pos_[static_cast<size_t>(i0 + j)] *= f[2 * j];
        g_neg_[static_cast<size_t>(i0 + j)] *= f[2 * j + 1];
      }
    }
  }
  if (!defer_lowering) lower();
}

// Out-of-line so exec::TileExec stays an incomplete type in the header.
CrossbarTile::CrossbarTile(CrossbarTile&&) noexcept = default;
CrossbarTile& CrossbarTile::operator=(CrossbarTile&&) noexcept = default;
CrossbarTile::~CrossbarTile() = default;

void CrossbarTile::lower() {
  exec::TileView view;
  view.g_pos = g_pos_.data();
  view.g_neg = g_neg_.data();
  view.rows = rows_;
  view.cols = cols_;
  view.g_min = dev_.g_min;
  view.g_max = dev_.g_max;
  exec_ = exec::default_target().lower(view);
  // Lowering volume (tiles and conductance bytes consumed). The counter
  // lookup is mutex-guarded, so skip it entirely when gated off — this runs
  // per tile per chip build.
  if (obs::metrics().enabled()) {
    obs::metrics().counter("exec.simd.tiles").add(1);
    obs::metrics().counter("exec.simd.bytes")
        .add(static_cast<uint64_t>(rows_) * static_cast<uint64_t>(cols_) * 2 *
             sizeof(float));
  }
}

void CrossbarTile::apply_faults(const FaultList& faults,
                                const FaultModel::TileCtx& ctx, Rng& rng,
                                const remap::RemapParams* remap,
                                remap::RemapStats* stats) {
  if (!remap || !remap->active()) {
    for (const FaultModel* f : faults)
      f->apply(g_pos_.data(), g_neg_.data(), ctx, dev_, rng);
    lower();
    return;
  }
  // Repairs run per model, immediately after that model's defect map is
  // known: repair targets are the conductances the model actually disturbed
  // (so stuck-at stacked on drift restores the *drifted* values, not
  // stale pre-drift ones), and soft nonidealities later in the list age
  // repaired devices exactly like every other device. The tile's spare
  // budget is shared across the whole list.
  remap::RemapParams budget = *remap;
  std::vector<float> pre_pos, pre_neg;
  for (const FaultModel* f : faults) {
    if (!f->has_defect_map()) {
      // Soft nonideality: nothing to repair, no snapshot needed.
      f->apply(g_pos_.data(), g_neg_.data(), ctx, dev_, rng);
      continue;
    }
    pre_pos = g_pos_;
    pre_neg = g_neg_;
    remap::DefectMap defects;
    f->apply_mapped(g_pos_.data(), g_neg_.data(), ctx, dev_, rng, &defects);
    if (defects.empty()) continue;
    const remap::RemapController ctl(budget);
    const remap::RemapPlan plan = ctl.plan(defects, rows_, cols_,
                                           pre_pos.data(), pre_neg.data(),
                                           dev_.g_min, dev_.g_max);
    const remap::RemapStats s = ctl.apply(plan, g_pos_.data(), g_neg_.data(),
                                          pre_pos.data(), pre_neg.data());
    budget.spare_rows -= s.spare_rows_used;
    budget.spare_cols -= s.spare_cols_used;
    if (stats) *stats += s;
  }
  lower();
}

void CrossbarTile::accumulate_matvec(const float* x, float* y, Rng* read_rng) const {
  std::vector<double> ip(static_cast<size_t>(cols_));
  std::vector<double> in(static_cast<size_t>(cols_));
  std::vector<float> cur(static_cast<size_t>(cols_));
  accumulate_row(x, y, read_rng, ip.data(), in.data(), cur.data());
}

void CrossbarTile::accumulate_row(const float* x, float* y, Rng* read_rng,
                                  double* ip, double* in_acc, float* currents) const {
  // Currents on positive/negative bitlines.
  std::fill(ip, ip + cols_, 0.0);
  std::fill(in_acc, in_acc + cols_, 0.0);
  for (int64_t r = 0; r < rows_; ++r) {
    const float v = x[r];
    if (v == 0.0f) continue;
    const float* gp = g_pos_.data() + r * cols_;
    const float* gn = g_neg_.data() + r * cols_;
    for (int64_t c = 0; c < cols_; ++c) {
      ip[c] += static_cast<double>(v) * gp[c];
      in_acc[c] += static_cast<double>(v) * gn[c];
    }
  }
  for (int64_t c = 0; c < cols_; ++c)
    currents[c] = static_cast<float>(ip[c] - in_acc[c]);
  finish_row(currents, y, read_rng);
}

void CrossbarTile::finish_row(float* currents, float* y, Rng* read_rng) const {
  if (read_rng && dev_.readout.read_sigma > 0.0f) {
    // One span draw per chunk; fill_normal is bit-identical to a scalar
    // normal(0, read_sigma) per current, however the row is split.
    constexpr int64_t kChunk = 128;
    float noise[kChunk];
    for (int64_t c0 = 0; c0 < cols_; c0 += kChunk) {
      const int64_t m = std::min(kChunk, cols_ - c0);
      read_rng->fill_normal(noise, m, 0.0f, dev_.readout.read_sigma);
      apply_read_noise(currents + c0, noise, m);
    }
  }
  read_out(currents, y);
}

void CrossbarTile::read_out(float* currents, float* y) const {
  if (dev_.readout.adc_bits > 0) {
    // Full scale: every row driving g_max differentially.
    const float fs = static_cast<float>(rows_) * (dev_.g_max - dev_.g_min);
    quantize_uniform_span(currents, cols_, -fs, fs, 1 << dev_.readout.adc_bits);
  }
  for (int64_t c = 0; c < cols_; ++c) y[c] += scale_ * currents[c];
}

void CrossbarTile::accumulate_rows(const float* x, int64_t nitems,
                                   int64_t x_item_stride, int64_t x_word_stride,
                                   float* y, int64_t ldy,
                                   const uint64_t* row_seeds, float* cur_scratch,
                                   exec::Scratch& scratch) const {
  // Item-blocking width never changes results (items accumulate
  // independently), only register/cache pressure; clamp to the 8 current
  // rows cur_scratch holds. The 8 rows after them take the block's noise.
  const int64_t row_block = std::min<int64_t>(8, exec_->row_block());
  const bool noisy = row_seeds && dev_.readout.read_sigma > 0.0f;
  float* noise = cur_scratch + 8 * cols_;
  int64_t done = 0;
  while (done < nitems) {
    const int64_t rb = std::min<int64_t>(row_block, nitems - done);
    exec_->currents(x + done * x_item_stride, rb, x_item_stride, x_word_stride,
                    cur_scratch, cols_, scratch);
    // Item i's noise row is what Rng(row_seeds[i]).fill_normal draws, the
    // stream finish_row would read it from.
    if (noisy)
      Rng::fill_normal_rows(row_seeds + done, rb, cols_, 0.0f,
                            dev_.readout.read_sigma, noise, cols_);
    for (int64_t i = 0; i < rb; ++i) {
      float* cur = cur_scratch + i * cols_;
      if (noisy) apply_read_noise(cur, noise + i * cols_, cols_);
      read_out(cur, y + (done + i) * ldy);
    }
    done += rb;
  }
}

Tensor CrossbarTile::effective_weights() const {
  Tensor w({rows_, cols_});
  for (int64_t i = 0; i < rows_ * cols_; ++i)
    w[i] = scale_ * (g_pos_[static_cast<size_t>(i)] - g_neg_[static_cast<size_t>(i)]);
  return w;
}

CrossbarArray::CrossbarArray(const Tensor& w_out_in, const RramDeviceParams& dev,
                             Rng& rng, int64_t tile, const FaultList* faults,
                             const remap::RemapParams* remap) {
  if (w_out_in.rank() != 2)
    throw std::invalid_argument("CrossbarArray: weight must be rank-2");
  if (tile < 1) throw std::invalid_argument("CrossbarArray: tile must be positive");
  dev_ = dev;
  // Nonideality models may rescale device parameters (e.g. temperature-
  // dependent sigmas) before anything is programmed.
  if (faults)
    for (const FaultModel* f : *faults) f->prepare_device(dev_);
  out_ = w_out_in.dim(0);
  in_ = w_out_in.dim(1);
  const float absmax = max_abs(w_out_in);
  // Orient as (in, out): wordlines = inputs.
  Tensor w_in_out = transpose(w_out_in);
  for (int64_t r0 = 0; r0 < in_; r0 += tile) {
    const int64_t rr = std::min(tile, in_ - r0);
    for (int64_t c0 = 0; c0 < out_; c0 += tile) {
      const int64_t cc = std::min(tile, out_ - c0);
      Tensor sub({rr, cc});
      for (int64_t r = 0; r < rr; ++r)
        for (int64_t c = 0; c < cc; ++c)
          sub[r * cc + c] = w_in_out[(r0 + r) * out_ + (c0 + c)];
      const bool have_faults = faults && !faults->empty();
      tiles_.push_back(
          Placed{r0, c0, CrossbarTile(sub, absmax, dev_, rng,
                                      /*defer_lowering=*/have_faults)});
      max_tile_cols_ = std::max(max_tile_cols_, cc);
      if (have_faults) {
        FaultModel::TileCtx ctx;
        ctx.rows = rr;
        ctx.cols = cc;
        ctx.row0 = r0;
        ctx.col0 = c0;
        ctx.array_rows = in_;
        ctx.array_cols = out_;
        tiles_.back().tile.apply_faults(*faults, ctx, rng, remap,
                                        &remap_stats_);
      }
    }
  }
  // Group tiles by output column block; construction order (ascending row0)
  // is preserved inside each group so matmul accumulates like matvec.
  const int64_t ncol_groups = (out_ + tile - 1) / tile;
  col_groups_.resize(static_cast<size_t>(ncol_groups));
  for (size_t t = 0; t < tiles_.size(); ++t)
    col_groups_[static_cast<size_t>(tiles_[t].col0 / tile)].push_back(t);
}

Tensor CrossbarArray::matvec(const Tensor& x, Rng* read_rng) const {
  if (x.size() != in_) throw std::invalid_argument("CrossbarArray::matvec: size mismatch");
  Tensor y({out_});
  // DAC quantization applies once to the shared input voltages.
  Tensor x_q = x;
  dac_quantize(x_q, dev_.readout.dac_bits);
  for (const Placed& p : tiles_) {
    p.tile.accumulate_matvec(x_q.data() + p.row0, y.data() + p.col0,
                             read_rng);
  }
  return y;
}

Tensor CrossbarArray::matmul(const Tensor& x, Rng* read_rng) const {
  if (x.rank() != 2 || x.dim(1) != in_)
    throw std::invalid_argument("CrossbarArray::matmul: input must be (batch, in)");
  const int64_t n = x.dim(0);
  // DAC quantization is per input vector (each row sees its own range),
  // exactly as matvec applies it.
  Tensor x_q;
  const float* xd = x.data();
  if (dev_.readout.dac_bits > 0 && n > 0) {
    x_q = x;
    for (int64_t i = 0; i < n; ++i)
      dac_quantize_span(x_q.data() + i * in_, in_, dev_.readout.dac_bits);
    xd = x_q.data();
  }
  return matmul_impl(xd, n, /*colmajor=*/false, read_rng);
}

Tensor CrossbarArray::matmul_cols(const Tensor& x_cm, Rng* read_rng) const {
  if (x_cm.rank() != 2 || x_cm.dim(0) != in_)
    throw std::invalid_argument(
        "CrossbarArray::matmul_cols: input must be (in, batch)");
  const int64_t n = x_cm.dim(1);
  if (dev_.readout.dac_bits > 0 && n > 0) {
    // DAC ranges are per input vector, i.e. per *column* here; materialize
    // the row-major batch and take the matmul path (quantization already
    // dominates this configuration).
    Tensor xr({n, in_});
    for (int64_t r = 0; r < in_; ++r)
      for (int64_t i = 0; i < n; ++i) xr[i * in_ + r] = x_cm[r * n + i];
    return matmul(xr, read_rng);
  }
  return matmul_impl(x_cm.data(), n, /*colmajor=*/true, read_rng);
}

Tensor CrossbarArray::matmul_impl(const float* xd, int64_t n, bool colmajor,
                                  Rng* read_rng) const {
  Tensor y({n, out_});
  if (n == 0) return y;
  const bool noisy = read_rng && dev_.readout.read_sigma > 0.0f;
  const uint64_t noise_base = noisy ? read_rng->next_u64() : 0ull;

  constexpr int64_t row_block = 64;
  const int64_t nblocks = (n + row_block - 1) / row_block;
  const int64_t ngroups = static_cast<int64_t>(col_groups_.size());
  parallel_for(0, ngroups * nblocks, [&](int64_t lo, int64_t hi) {
    // Per worker: 8 current rows and 8 noise rows, the kernel's scratch,
    // and the read-noise seeds of one item block.
    std::vector<float> cur(static_cast<size_t>(16 * max_tile_cols_));
    exec::Scratch scratch;
    uint64_t seeds[row_block];
    for (int64_t w = lo; w < hi; ++w) {
      const auto& group = col_groups_[static_cast<size_t>(w / nblocks)];
      const int64_t r0 = (w % nblocks) * row_block;
      const int64_t r1 = std::min(n, r0 + row_block);
      for (size_t t : group) {
        const Placed& p = tiles_[t];
        if (noisy)
          for (int64_t i = r0; i < r1; ++i)
            seeds[i - r0] = mix64(noise_base ^
                                  (static_cast<uint64_t>(t) * 0x100000001ull +
                                   static_cast<uint64_t>(i)));
        const float* xt = colmajor ? xd + p.row0 * n + r0 : xd + r0 * in_ + p.row0;
        const int64_t xis = colmajor ? 1 : in_;
        const int64_t xws = colmajor ? n : 1;
        p.tile.accumulate_rows(xt, r1 - r0, xis, xws,
                               y.data() + r0 * out_ + p.col0, out_,
                               noisy ? seeds : nullptr, cur.data(), scratch);
      }
    }
  }, 1);
  return y;
}

Tensor CrossbarArray::effective_weights() const {
  Tensor w({out_, in_});
  for (const Placed& p : tiles_) {
    Tensor sub = p.tile.effective_weights();  // (rows=in slice, cols=out slice)
    for (int64_t r = 0; r < sub.dim(0); ++r)
      for (int64_t c = 0; c < sub.dim(1); ++c)
        w[(p.col0 + c) * in_ + (p.row0 + r)] = sub[r * sub.dim(1) + c];
  }
  return w;
}

}  // namespace cn::analog
