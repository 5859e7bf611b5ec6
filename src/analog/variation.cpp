#include "analog/variation.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace cn::analog {

Tensor VariationModel::sample_factors(const Tensor& weight, Rng& rng) const {
  Tensor f(weight.shape());
  switch (kind) {
    case VariationKind::kNone:
      f.fill(1.0f);
      break;
    case VariationKind::kLognormal:
      rng.fill_lognormal_factor(f, sigma);
      break;
    case VariationKind::kGaussianMultiplicative:
      rng.fill_normal(f, 0.0f, sigma);
      for (int64_t i = 0; i < f.size(); ++i) f[i] = 1.0f + f[i];
      break;
    case VariationKind::kGaussianAdditiveRel: {
      const float wmax = max_abs(weight);
      for (int64_t i = 0; i < f.size(); ++i) {
        const float w = weight[i];
        const float noise = static_cast<float>(rng.normal(0.0, sigma)) * wmax;
        // Convert additive noise to an equivalent multiplicative factor;
        // near-zero weights get factor 1 (their absolute error is kept small
        // by the relative model anyway).
        f[i] = (std::fabs(w) > 1e-12f) ? (w + noise) / w : 1.0f;
      }
      break;
    }
  }
  return f;
}

void VariationModel::perturb(nn::PerturbableWeight& site, Rng& rng) const {
  if (kind == VariationKind::kNone || sigma == 0.0f) {
    site.clear_weight_factors();
    return;
  }
  site.set_weight_factors(sample_factors(site.nominal_weight(), rng));
}

double VariationModel::lognormal_bound3(double sigma) {
  const double s2 = sigma * sigma;
  const double mean = std::exp(s2 / 2.0);
  const double stddev = std::sqrt((std::exp(s2) - 1.0) * std::exp(s2));
  return mean + 3.0 * stddev;
}

std::string VariationModel::name() const {
  switch (kind) {
    case VariationKind::kNone: return "none";
    case VariationKind::kLognormal: return "lognormal";
    case VariationKind::kGaussianMultiplicative: return "gauss-mult";
    case VariationKind::kGaussianAdditiveRel: return "gauss-add-rel";
  }
  return "?";
}

void perturb_all(nn::Sequential& model, const VariationModel& vm, Rng& rng) {
  for (nn::PerturbableWeight* s : model.analog_sites()) vm.perturb(*s, rng);
}

void perturb_from(nn::Sequential& model, const VariationModel& vm, Rng& rng,
                  int64_t first_site) {
  auto sites = model.analog_sites();
  for (int64_t i = 0; i < static_cast<int64_t>(sites.size()); ++i) {
    if (i >= first_site) {
      vm.perturb(*sites[static_cast<size_t>(i)], rng);
    } else {
      sites[static_cast<size_t>(i)]->clear_weight_factors();
    }
  }
}

void clear_variations(nn::Sequential& model) { model.clear_all_variations(); }

}  // namespace cn::analog
