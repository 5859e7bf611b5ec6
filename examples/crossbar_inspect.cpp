// Inspect the RRAM crossbar substrate directly: program a weight matrix,
// compare ideal vs perturbed/quantized MVM, and relate the crossbar's
// programming variation to the layer-level lognormal model of Eq. (1)-(2).
#include <cmath>
#include <cstdio>

#include "analog/crossbar.h"
#include "tensor/ops.h"

int main() {
  using namespace cn;

  Rng rng(11);
  Tensor w({64, 64});
  rng.fill_normal(w, 0.0f, 0.5f);
  Tensor x({64});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor ideal = matvec(w, x);

  auto report = [&](const char* name, const analog::RramDeviceParams& dev) {
    Rng prog_rng(22);
    analog::CrossbarArray xbar(w, dev, prog_rng, 32);
    Tensor y = xbar.matvec(x);
    double err = 0.0, ref = 0.0;
    for (int64_t i = 0; i < y.size(); ++i) {
      err += (y[i] - ideal[i]) * (y[i] - ideal[i]);
      ref += ideal[i] * ideal[i];
    }
    std::printf("  %-38s rel. MVM error %.4f  (%lld tiles)\n", name,
                std::sqrt(err / ref), static_cast<long long>(xbar.num_tiles()));
  };

  std::printf("crossbar MVM vs ideal matvec (64x64 weights, differential pairs):\n");
  analog::RramDeviceParams dev;
  report("ideal device", dev);

  dev.conductance_levels = 16;
  report("16-level conductance quantization", dev);

  dev.conductance_levels = 0;
  dev.program_sigma = 0.1f;
  report("programming variation sigma=0.1", dev);

  dev.program_sigma = 0.5f;
  report("programming variation sigma=0.5", dev);

  dev.program_sigma = 0.0f;
  dev.readout.adc_bits = 6;
  report("6-bit ADC readout", dev);

  dev.readout.adc_bits = 0;
  dev.readout.dac_bits = 4;
  report("4-bit DAC inputs", dev);

  // Relate crossbar programming variation to the weight-level factors the
  // training pipeline uses: the fast path (factor mode) injects the factors
  // directly, and the crossbar validates that substrate.
  std::printf("\neffective-weight deviation at sigma=0.3 vs lognormal theory:\n");
  analog::RramDeviceParams vdev;
  vdev.program_sigma = 0.3f;
  Rng prog_rng(33);
  analog::CrossbarArray xbar(w, vdev, prog_rng, 64);
  Tensor w_eff = xbar.effective_weights();
  double mean_ratio = 0.0;
  int64_t count = 0;
  for (int64_t i = 0; i < w.size(); ++i) {
    if (std::fabs(w[i]) > 0.2f) {
      mean_ratio += w_eff[i] / w[i];
      ++count;
    }
  }
  std::printf("  mean(w_eff / w) = %.3f, lognormal E[e^theta] = %.3f\n",
              mean_ratio / count, std::exp(0.3 * 0.3 / 2.0));
  return 0;
}
