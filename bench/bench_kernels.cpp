// google-benchmark microbenchmarks for the compute kernels underneath the
// experiments: matmul, conv2d forward/backward, im2col, the digital conv and
// dense kernels, the compensated conv's eval forward, crossbar MVM, the
// batched crossbar matmul, the simd tile kernel, crossbar read-noise draws
// and programming lognormals (scalar loop vs the Gaussian spans), tile
// programming, and Monte-Carlo perturbation sampling.
// Legs that run on the thread pool time real (wall) time: the main thread's
// CPU time would leave out the workers' share.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "analog/crossbar.h"
#include "analog/crossbar_layers.h"
#include "analog/variation.h"
#include "core/compensation.h"
#include "exec/digital_kernels.h"
#include "exec/target.h"
#include "nn/conv2d.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace {

using namespace cn;

void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  Tensor c({n, n});
  for (auto _ : state) {
    matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

void BM_Im2col(benchmark::State& state) {
  const int64_t hw = state.range(0);
  ConvGeom g{16, hw, hw, 3, 3, 1, 1};
  Rng rng(2);
  Tensor img({16 * hw * hw});
  rng.fill_normal(img, 0.0f, 1.0f);
  Tensor cols({16 * 9 * g.out_h() * g.out_w()});
  for (auto _ : state) {
    im2col(img.data(), g, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)->Arg(16)->Arg(32);

// The digital conv GEMM (out = bias + W*cols, relu epilogue) over one
// image's padded im2col matrix, at the auto-dispatched simd level. Args:
// out channels, K2 = in_c*kh*kw, output pixels — LeNet-5 conv1 and conv2.
void BM_DigitalConvGemm(benchmark::State& state) {
  const int64_t m = state.range(0), k = state.range(1), nd = state.range(2);
  const int64_t ldc = exec::digital::round_up_block(nd);
  Rng rng(9);
  Tensor w({m, k}), b({m}), cols({k, ldc}), out({m, nd});
  rng.fill_normal(w, 0.0f, 0.3f);
  rng.fill_normal(b, 0.0f, 0.1f);
  rng.fill_normal(cols, 0.0f, 1.0f);
  for (auto _ : state) {
    exec::digital::conv_gemm(w.data(), b.data(), m, k, cols.data(), ldc, nd,
                             /*relu=*/true, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * nd);
}
BENCHMARK(BM_DigitalConvGemm)->Args({6, 25, 784})->Args({16, 150, 100})->UseRealTime();

// The dense kernel y = x*W^T + b over a packed weight panel, packing
// included (Dense repacks its live weight every forward). Args: batch rows,
// in features, out features — LeNet-5 fc1 at batch 1 and 32.
void BM_DigitalDense(benchmark::State& state) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(10);
  Tensor x({m, k}), w({n, k}), b({n}), y({m, n});
  rng.fill_normal(x, 0.0f, 1.0f);
  rng.fill_normal(w, 0.0f, 0.3f);
  std::vector<double> panel(static_cast<size_t>(exec::digital::packed_nt_size(n, k)));
  for (auto _ : state) {
    exec::digital::pack_nt(w.data(), nullptr, n, k, panel.data());
    exec::digital::matmul_nt_packed(x.data(), m, k, panel.data(), n, b.data(),
                                    /*relu=*/true, y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_DigitalDense)->Args({1, 400, 120})->Args({32, 400, 120})->UseRealTime();

void BM_Conv2DForward(benchmark::State& state) {
  const int64_t c = state.range(0);
  Rng rng(3);
  nn::Conv2D conv(c, c, 3, 1, 1, 32, 32, "bench");
  rng.fill_normal(conv.weight().value, 0.0f, 0.1f);
  Tensor x({8, c, 32, 32});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2DForward)->Arg(16)->Arg(32)->UseRealTime();

void BM_Conv2DBackward(benchmark::State& state) {
  const int64_t c = state.range(0);
  Rng rng(4);
  nn::Conv2D conv(c, c, 3, 1, 1, 16, 16, "bench");
  rng.fill_normal(conv.weight().value, 0.0f, 0.1f);
  Tensor x({8, c, 16, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y = conv.forward(x, true);
  for (auto _ : state) {
    Tensor gx = conv.backward(y);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_Conv2DBackward)->Arg(16)->Arg(32)->UseRealTime();

// A compensated conv's eval forward: LeNet-5 conv1 (1 -> 6 channels, 5x5,
// pad 2, 28x28) with m = 3 generator filters over 32 images. Arg 0 runs
// the base conv digitally, arg 1 on a crossbar-programmed chip.
void BM_CompensatedConv2D(benchmark::State& state) {
  Rng rng(11);
  nn::Sequential model("comp");
  auto& conv = model.emplace<nn::Conv2D>(1, 6, 5, 1, 2, 28, 28, "conv1");
  rng.fill_normal(conv.weight().value, 0.0f, 0.3f);
  core::attach_compensation(model, 0, 3, rng);
  if (state.range(0) == 1) {
    analog::RramDeviceParams dev;
    dev.program_sigma = 0.1f;
    model = analog::program_to_crossbars(model, dev, rng);
  }
  Tensor x({32, 1, 28, 28});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = model.layer(0).forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_CompensatedConv2D)->Arg(0)->Arg(1)->UseRealTime();

void BM_CrossbarMatvec(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  Tensor w({n, n});
  rng.fill_normal(w, 0.0f, 0.5f);
  analog::RramDeviceParams dev;
  dev.program_sigma = 0.1f;
  analog::CrossbarArray xbar(w, dev, rng, 128);
  Tensor x({n});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = xbar.matvec(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n);
}
BENCHMARK(BM_CrossbarMatvec)->Arg(128)->Arg(512);

// The batched crossbar matmul (the simd tile kernel plus the periphery).
void BM_CrossbarMatmul(benchmark::State& state) {
  const int64_t n = state.range(0), batch = 32;
  Rng rng(7);
  Tensor w({n, n});
  rng.fill_normal(w, 0.0f, 0.5f);
  analog::RramDeviceParams dev;
  dev.program_sigma = 0.1f;
  Rng prog(8);
  analog::CrossbarArray xbar(w, dev, prog, /*tile=*/128);
  Tensor x({batch, n});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = xbar.matmul(x);
    benchmark::DoNotOptimize(y.data());
  }
  // 4 flops per cell per item (differential pair: 2 products + 2 adds).
  state.SetItemsProcessed(state.iterations() * 4 * n * n * batch);
}
// Real time: the matmul runs on the pool, not the main thread.
BENCHMARK(BM_CrossbarMatmul)->Arg(128)->Arg(512)->UseRealTime();

// One tile's bitline currents through the lowered simd target, the way the
// batched matmul calls them: 64 column-major items (an im2col block) in
// row_block() item blocks, at the auto-dispatched level, single-threaded.
// Shapes: LeNet-5 conv1 (25 wordlines x 6 bitlines) and a full 128 x 128
// tile. GFLOP/s counts 4 flops per cell per item (2 products + 2 adds).
void BM_TileCurrents(benchmark::State& state, int64_t rows, int64_t cols) {
  constexpr int64_t kItems = 64;
  Rng rng(13);
  const analog::RramDeviceParams dev;
  std::vector<float> gp(static_cast<size_t>(rows * cols)), gn(gp.size());
  for (size_t i = 0; i < gp.size(); ++i) {
    gp[i] = static_cast<float>(rng.uniform(dev.g_min, dev.g_max));
    gn[i] = static_cast<float>(rng.uniform(dev.g_min, dev.g_max));
  }
  std::vector<float> x(static_cast<size_t>(rows * kItems));
  for (float& v : x) v = static_cast<float>(rng.uniform());
  std::vector<float> cur(static_cast<size_t>(8 * cols));
  const auto tile = exec::get_target("simd").lower(
      {gp.data(), gn.data(), rows, cols, dev.g_min, dev.g_max});
  const int64_t rb = tile->row_block();
  exec::Scratch scratch;
  for (auto _ : state) {
    for (int64_t i = 0; i < kItems; i += rb)
      tile->currents(x.data() + i, std::min(rb, kItems - i), 1, kItems,
                     cur.data(), cols, scratch);
    benchmark::DoNotOptimize(cur.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      4e-9 * static_cast<double>(rows * cols * kItems),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK_CAPTURE(BM_TileCurrents, 25x6, 25, 6)->UseRealTime();
BENCHMARK_CAPTURE(BM_TileCurrents, 128x128, 128, 128)->UseRealTime();

void BM_VariationSampling(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(6);
  Tensor w({n, n});
  rng.fill_normal(w, 0.0f, 0.5f);
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.5f};
  for (auto _ : state) {
    Tensor f = vm.sample_factors(w, rng);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_VariationSampling)->Arg(128)->Arg(512);

// One 128-column read-noise row drawn from a single stream: 128 floats of
// normal(0, read_sigma) per call, what CrossbarTile::accumulate_rows draws
// per item (BM_ReadNoiseRows times its 8-stream form). `scalar` is the per-draw loop
// the span replaced, kept as the baseline; `span` is Rng::fill_normal (block
// Box–Muller kernel at the auto-dispatched simd level). Both produce the
// same bits; per_draw is the real time per draw.
void BM_ReadNoise(benchmark::State& state, bool span) {
  constexpr int64_t kRow = 128;
  const float sigma = 0.05f;
  Rng rng(10);
  std::vector<float> noise(kRow);
  for (auto _ : state) {
    if (span) {
      rng.fill_normal(noise.data(), kRow, 0.0f, sigma);
    } else {
      for (float& v : noise) v = static_cast<float>(rng.normal(0.0, sigma));
    }
    benchmark::DoNotOptimize(noise.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_draw"] = benchmark::Counter(
      static_cast<double>(kRow),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_ReadNoise, scalar, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_ReadNoise, span, true)->UseRealTime();

// Read noise for one item block of the batched crossbar path: 8 rows of n
// draws of normal(0, read_sigma), row k from its own fresh stream
// Rng(seed_k), as CrossbarTile::accumulate_rows draws them. `per_row` is one
// Rng(seed).fill_normal per row; `lanes` is Rng::fill_normal_rows (the 8
// xoshiro256** streams stepped in SIMD lanes, one Box–Muller kernel call per
// block). Same bits; per_draw is the real time per draw, seeding included.
void BM_ReadNoiseRows(benchmark::State& state, bool lanes) {
  constexpr int64_t kRows = 8;
  const int64_t n = state.range(0);
  const float sigma = 0.02f;
  std::vector<float> out(static_cast<size_t>(kRows * n));
  uint64_t seeds[kRows];
  uint64_t block = 0;
  for (auto _ : state) {
    for (int64_t k = 0; k < kRows; ++k)
      seeds[k] = mix64(block * 0x100000001ull + static_cast<uint64_t>(k));
    ++block;
    if (lanes) {
      Rng::fill_normal_rows(seeds, kRows, n, 0.0f, sigma, out.data(), n);
    } else {
      for (int64_t k = 0; k < kRows; ++k)
        Rng(seeds[k]).fill_normal(out.data() + k * n, n, 0.0f, sigma);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_draw"] = benchmark::Counter(
      static_cast<double>(kRows * n),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_ReadNoiseRows, per_row, false)->Arg(16)->Arg(128)->UseRealTime();
BENCHMARK_CAPTURE(BM_ReadNoiseRows, lanes, true)->Arg(16)->Arg(128)->UseRealTime();

// One tile's programming variation as CrossbarTile draws it: 2 * 128 * 128
// lognormal(0, 0.1) factors, G+ and G- interleaved. `scalar` is the per-draw
// loop the span replaced; `span` is Rng::fill_exp_normal (certified exp
// kernel at the auto-dispatched simd level). Same bits; per_draw is the
// real time per factor.
void BM_Lognormal(benchmark::State& state, bool span) {
  constexpr int64_t kDraws = 2 * 128 * 128;
  const double sigma = 0.1;
  Rng rng(11);
  std::vector<float> f(kDraws);
  for (auto _ : state) {
    if (span) {
      rng.fill_exp_normal(f.data(), nullptr, kDraws, {0.0, sigma, 1.0, false});
    } else {
      for (float& v : f) v = static_cast<float>(rng.lognormal(0.0, sigma));
    }
    benchmark::DoNotOptimize(f.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_draw"] = benchmark::Counter(
      static_cast<double>(kDraws),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_Lognormal, scalar, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_Lognormal, span, true)->UseRealTime();

// Programs one n x n tile at program_sigma 0.1 (the weight-to-conductance
// map plus two lognormal factors per weight), without lowering it for the
// batched path. per_draw is the real time per factor, mapping included.
void BM_ProgramTile(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(12);
  Tensor w({n, n});
  rng.fill_normal(w, 0.0f, 0.5f);
  const float absmax = max_abs(w);
  analog::RramDeviceParams dev;
  dev.program_sigma = 0.1f;
  for (auto _ : state) {
    analog::CrossbarTile tile(w, absmax, dev, rng, /*defer_lowering=*/true);
    benchmark::DoNotOptimize(&tile);
  }
  state.counters["per_draw"] = benchmark::Counter(
      static_cast<double>(2 * n * n),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ProgramTile)->Arg(128)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
