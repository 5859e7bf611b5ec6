#include "faultsim/fault_models.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace cn::faultsim {

void StuckAtFault::apply(float* g_pos, float* g_neg, const TileCtx& ctx,
                         const analog::RramDeviceParams& dev, Rng& rng) const {
  apply_mapped(g_pos, g_neg, ctx, dev, rng, nullptr);
}

void StuckAtFault::apply_mapped(float* g_pos, float* g_neg, const TileCtx& ctx,
                                const analog::RramDeviceParams& dev, Rng& rng,
                                remap::DefectMap* defects) const {
  if (rate_low <= 0.0 && rate_high <= 0.0) return;
  const double p_any = rate_low + rate_high;
  const int64_t n = ctx.rows * ctx.cols;
  // One uniform per physical cell; G+ and G- fail independently. The draw
  // sequence is identical with and without defect recording (matched-pair
  // remap-on/off chips must realize the same defect maps).
  for (int pol = 0; pol < 2; ++pol) {
    float* g = pol == 0 ? g_pos : g_neg;
    for (int64_t i = 0; i < n; ++i) {
      const double u = rng.uniform();
      float stuck;
      if (u < rate_low) stuck = dev.g_min;
      else if (u < p_any) stuck = dev.g_max;
      else continue;
      g[i] = stuck;
      if (defects) defects->push_back({i, pol == 1, stuck});
    }
  }
}

void DriftFault::apply(float* g_pos, float* g_neg, const TileCtx& ctx,
                       const analog::RramDeviceParams&, Rng& rng) const {
  if (t_ratio == 1.0 || (nu_mean == 0.0 && nu_sigma == 0.0)) return;
  // g * (t/t0)^-nu = g * exp(-log(t/t0) * max(0, nu)), one nu per cell,
  // G+ then G-.
  const exec::gauss::ExpNormal aging{nu_mean, nu_sigma, -std::log(t_ratio), true};
  const int64_t n = ctx.rows * ctx.cols;
  for (float* g : {g_pos, g_neg}) rng.fill_exp_normal(g, g, n, aging);
}

void IrDropFault::apply(float* g_pos, float* g_neg, const TileCtx& ctx,
                        const analog::RramDeviceParams&, Rng&) const {
  if (alpha_wordline == 0.0 && alpha_bitline == 0.0) return;
  const double row_span = static_cast<double>(std::max<int64_t>(1, ctx.array_rows - 1));
  const double col_span = static_cast<double>(std::max<int64_t>(1, ctx.array_cols - 1));
  for (int64_t r = 0; r < ctx.rows; ++r) {
    const double bl = alpha_bitline * static_cast<double>(ctx.row0 + r) / row_span;
    for (int64_t c = 0; c < ctx.cols; ++c) {
      const double wl = alpha_wordline * static_cast<double>(ctx.col0 + c) / col_span;
      const float att = static_cast<float>(std::max(0.0, 1.0 - wl - bl));
      const int64_t i = r * ctx.cols + c;
      g_pos[i] *= att;
      g_neg[i] *= att;
    }
  }
}

void ThermalFault::prepare_device(analog::RramDeviceParams& dev) const {
  if (temperature == t_nominal) return;
  const float scale =
      static_cast<float>(std::sqrt(std::max(0.0, temperature / t_nominal)));
  dev.program_sigma *= scale;
  dev.readout.read_sigma *= scale;
}

void ThermalFault::apply(float* g_pos, float* g_neg, const TileCtx& ctx,
                         const analog::RramDeviceParams&, Rng& rng) const {
  const double over = temperature / t_nominal - 1.0;
  const double sigma = cell_sigma * over;
  if (sigma <= 0.0) return;
  const exec::gauss::ExpNormal lognormal{0.0, sigma, 1.0, false};
  const int64_t n = ctx.rows * ctx.cols;
  for (float* g : {g_pos, g_neg}) rng.fill_exp_normal(g, g, n, lognormal);
}

namespace {
// The grid builders' one severity check: a NaN, infinite or out-of-range
// value would otherwise program NaN conductances or silently disable the
// scenario.
void require(bool ok, const char* kind, const char* what, double value) {
  if (ok) return;
  std::ostringstream os;
  os << kind << ": " << what << ", got " << value;
  throw std::invalid_argument(os.str());
}

bool unit_interval(double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; }
bool positive(double v) { return std::isfinite(v) && v > 0.0; }
}  // namespace

FaultSpec fault_free() {
  FaultSpec s;
  s.kind = "none";
  return s;
}

FaultSpec stuck_at(double rate, double high_fraction) {
  require(unit_interval(rate), "stuck_at", "rate must be in [0, 1]", rate);
  require(unit_interval(high_fraction), "stuck_at",
          "high_fraction must be in [0, 1]", high_fraction);
  FaultSpec s;
  s.kind = "stuck_at";
  s.severity = rate;
  s.models.push_back(std::make_shared<StuckAtFault>(
      rate * (1.0 - high_fraction), rate * high_fraction));
  return s;
}

FaultSpec drift(double t_ratio, double nu_mean, double nu_sigma) {
  require(positive(t_ratio), "drift", "t_ratio must be finite and > 0", t_ratio);
  require(std::isfinite(nu_mean), "drift", "nu must be finite", nu_mean);
  require(std::isfinite(nu_sigma), "drift", "nu_sigma must be finite", nu_sigma);
  FaultSpec s;
  s.kind = "drift";
  s.severity = t_ratio;
  s.models.push_back(std::make_shared<DriftFault>(t_ratio, nu_mean, nu_sigma));
  return s;
}

FaultSpec ir_drop(double alpha) {
  require(unit_interval(alpha), "ir_drop", "alpha must be in [0, 1]", alpha);
  FaultSpec s;
  s.kind = "ir_drop";
  s.severity = alpha;
  s.models.push_back(std::make_shared<IrDropFault>(alpha, alpha));
  return s;
}

FaultSpec thermal(double temperature, double t_nominal) {
  require(positive(temperature), "thermal",
          "temperature must be finite and > 0", temperature);
  require(positive(t_nominal), "thermal", "t0 must be finite and > 0", t_nominal);
  FaultSpec s;
  s.kind = "thermal";
  s.severity = temperature;
  s.models.push_back(std::make_shared<ThermalFault>(temperature, t_nominal));
  return s;
}

FaultSpec make_fault(const std::string& kind, double severity) {
  if (kind.empty() || kind == "none") return fault_free();
  if (kind == "stuck_at") return stuck_at(severity);
  if (kind == "drift") return drift(severity);
  if (kind == "ir_drop") return ir_drop(severity);
  if (kind == "thermal") return thermal(severity);
  throw std::invalid_argument(
      "make_fault: unknown fault kind \"" + kind +
      "\" (known: none, stuck_at, drift, ir_drop, thermal)");
}

}  // namespace cn::faultsim
