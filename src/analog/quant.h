// Quantization primitives for the analog periphery: conductance levels
// (multi-level RRAM programming), DAC-limited inputs, ADC-limited outputs.
#pragma once

#include "tensor/tensor.h"

namespace cn::analog {

/// Uniform quantizer over [lo, hi] with `levels` steps (levels >= 2).
/// Values are clamped to the range first.
float quantize_uniform(float x, float lo, float hi, int levels);

/// quantize_uniform over a span in place, bit-identical to calling it per
/// element: the range is validated and `step` computed once, and rounding
/// is inline and exact (std::round's half-away-from-zero on the
/// non-negative level index, NaN passing through) instead of a libm call.
/// The ADC periphery of every crossbar read runs through this.
void quantize_uniform_span(float* x, int64_t n, float lo, float hi, int levels);

/// Quantizes every element of t in place.
void quantize_tensor(Tensor& t, float lo, float hi, int levels);

/// DAC model: quantizes an input vector to `bits` resolution over its
/// observed [min, max] range. bits <= 0 disables quantization.
void dac_quantize(Tensor& x, int bits);

/// dac_quantize over a raw span; the batched crossbar path quantizes each
/// input row independently so it stays equivalent to per-vector matvec.
void dac_quantize_span(float* x, int64_t n, int bits);

/// ADC model: quantizes accumulated bitline currents to `bits` resolution
/// over [-full_scale, full_scale]. bits <= 0 disables quantization.
void adc_quantize(Tensor& currents, int bits, float full_scale);

}  // namespace cn::analog
