// Crossbar-backed execution of whole models, the equivalence between the
// device-level substrate and the fast factor-injection path, and the parity
// of the batched matmul path vs the per-column matvec loop across every
// periphery configuration and fault model, at every simd dispatch level the
// host supports: each must match bit for bit.
#include "analog/crossbar_layers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/montecarlo.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "exec/target.h"
#include "exec_testutil.h"
#include "faultsim/fault_models.h"
#include "models/lenet.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "tensor/ops.h"

namespace cn::analog {
namespace {

RramDeviceParams ideal() {
  RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  return dev;
}

// Shape of one parity input: wordlines, bitlines, batch rows, tile edge.
// `specials` sprinkles +-0, +-inf, NaN and float subnormals into the inputs.
struct ParityShape {
  int64_t in = 23, out = 11, batch = 6, tile = 8;  // multiple tiles both ways
  bool specials = false;
};

// Builds an array from (dev, faults) on the "simd" target and, at every simd
// dispatch level the host supports, asserts y == matvec row by row for
// matmul and matmul_cols on a random batch. matvec itself is
// level-independent and reads noise-free, so no read-noise stream is
// handed to the batched paths either.
void expect_paths_bit_identical(const RramDeviceParams& dev,
                                const FaultList* faults, uint64_t seed,
                                const std::string& what,
                                ParityShape shape = {}) {
  const int64_t kIn = shape.in, kOut = shape.out, kBatch = shape.batch;
  Rng rng(seed);
  Tensor w({kOut, kIn});
  rng.fill_normal(w, 0.0f, 0.5f);
  Tensor x({kBatch, kIn});
  rng.fill_normal(x, 0.0f, 1.0f);
  if (shape.specials) {
    const float kSpecial[] = {0.0f,
                              -0.0f,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::denorm_min(),
                              -3.0f * std::numeric_limits<float>::denorm_min(),
                              0.5f * std::numeric_limits<float>::min()};
    for (int64_t i = 0; i < x.size(); ++i)
      if (rng.uniform() < 0.1) x[i] = kSpecial[rng.uniform_int(8)];
  }
  Tensor x_cm({kIn, kBatch});
  for (int64_t n = 0; n < kBatch; ++n)
    for (int64_t k = 0; k < kIn; ++k) x_cm[k * kBatch + n] = x[n * kIn + k];
  Rng prog(seed + 1);
  CrossbarArray xbar(w, dev, prog, shape.tile, faults);
  std::vector<Tensor> ref;
  Tensor xi({kIn});
  for (int64_t n = 0; n < kBatch; ++n) {
    std::copy(x.data() + n * kIn, x.data() + (n + 1) * kIn, xi.data());
    ref.push_back(xbar.matvec(xi));
  }
  testutil::for_each_simd_level([&](int level) {
    const Tensor y_batch = xbar.matmul(x);
    const Tensor y_cols = xbar.matmul_cols(x_cm);
    for (int64_t n = 0; n < kBatch; ++n) {
      const std::string row = what + " [simd level " + std::to_string(level) +
                              "] row " + std::to_string(n);
      const float* want = ref[static_cast<size_t>(n)].data();
      // NaN payloads are not part of the contract: special inputs compare
      // NaNs as a class, everything else bit for bit.
      auto expect = [&](const float* got, const std::string& path) {
        if (shape.specials)
          testutil::expect_same_bits(got, want, kOut, row + path);
        else
          testutil::expect_bitwise_equal(got, want, kOut, row + path);
      };
      expect(y_batch.data() + n * kOut, " matmul");
      expect(y_cols.data() + n * kOut, " matmul_cols");
    }
  });
}

TEST(CrossbarExec, PeripheryCombosKeepBatchedAndMatvecBitIdentical) {
  // The periphery knobs, alone and combined — these paths were only covered
  // by the single all-on configuration in test_runtime before.
  struct Combo {
    const char* name;
    int adc_bits, dac_bits, levels;
    float program_sigma, read_sigma;
  };
  const Combo combos[] = {
      {"adc only", 6, 0, 0, 0.0f, 0.0f},
      {"dac only", 0, 5, 0, 0.0f, 0.0f},
      {"adc+dac", 4, 4, 0, 0.0f, 0.0f},
      {"adc+variation", 8, 0, 0, 0.25f, 0.0f},
      {"dac+levels", 0, 6, 8, 0.0f, 0.0f},
      {"adc+dac+levels+variation", 6, 6, 16, 0.15f, 0.0f},
      // read_sigma configured but no stream handed out: the batched noise
      // gate must stay off, as matvec has none.
      {"read_sigma without stream", 6, 4, 0, 0.1f, 0.2f},
  };
  uint64_t seed = 100;
  for (const Combo& c : combos) {
    RramDeviceParams dev = ideal();
    dev.readout.adc_bits = c.adc_bits;
    dev.readout.dac_bits = c.dac_bits;
    dev.conductance_levels = c.levels;
    dev.program_sigma = c.program_sigma;
    dev.readout.read_sigma = c.read_sigma;
    expect_paths_bit_identical(dev, nullptr, seed += 7, c.name);
  }
}

TEST(CrossbarExec, EveryFaultModelKeepsBatchedAndMatvecBitIdentical) {
  // Fault injection is a construction-time conductance transform, so the
  // bit-exactness contract must survive every model — alone, composed, and
  // stacked on the full periphery.
  using faultsim::FaultSpec;
  auto run = [](const FaultSpec& spec, const RramDeviceParams& dev,
                uint64_t seed) {
    const FaultList list = spec.list();
    expect_paths_bit_identical(dev, &list, seed, spec.kind);
  };
  RramDeviceParams plain = ideal();
  plain.program_sigma = 0.2f;
  run(faultsim::stuck_at(0.05), plain, 200);
  run(faultsim::drift(100.0), plain, 210);
  run(faultsim::ir_drop(0.1), plain, 220);
  run(faultsim::thermal(420.0), plain, 230);

  FaultSpec combined;
  combined.kind = "combined";
  combined.models.push_back(std::make_shared<faultsim::StuckAtFault>(0.02, 0.02));
  combined.models.push_back(std::make_shared<faultsim::DriftFault>(50.0));
  combined.models.push_back(std::make_shared<faultsim::IrDropFault>(0.05, 0.05));
  combined.models.push_back(std::make_shared<faultsim::ThermalFault>(380.0));
  RramDeviceParams full = ideal();
  full.program_sigma = 0.15f;
  full.conductance_levels = 16;
  full.readout.adc_bits = 8;
  full.readout.dac_bits = 6;
  run(combined, full, 240);
}

TEST(CrossbarExec, ForcedSimdDispatchLevelsAreBitIdentical) {
  // The runtime dispatcher normally picks the widest ISA the host supports.
  // Force every supported level on odd sizes (tail lanes, a partial item
  // block): each must reproduce the per-column matvec loop bit for bit
  // (the avx levels fuse multiply-adds whose products are exact in double,
  // so they round exactly like the generic level's multiply-then-add).
  RramDeviceParams dev = ideal();
  dev.program_sigma = 0.2f;
  dev.conductance_levels = 16;
  dev.readout.adc_bits = 8;
  ParityShape odd;
  odd.in = 37;
  odd.out = 13;
  odd.batch = 9;
  expect_paths_bit_identical(dev, nullptr, 400, "odd sizes", odd);

  // Unsupported levels are rejected without changing the selection.
  EXPECT_FALSE(exec::simd::force_level(-1));
  EXPECT_FALSE(exec::simd::force_level(exec::simd::max_level() + 1));
  EXPECT_EQ(exec::simd::current_level(), exec::simd::max_level());
}

TEST(CrossbarExec, WideTileKeepsBatchedAndMatvecBitIdentical) {
  // One tile far wider than the register-blocked kernels' column block:
  // per-column accumulation order must not depend on the tile width.
  RramDeviceParams dev = ideal();
  dev.program_sigma = 0.2f;
  dev.readout.adc_bits = 8;
  ParityShape wide;
  wide.in = 40;
  wide.out = 1100;
  wide.batch = 5;
  wide.tile = 2048;
  expect_paths_bit_identical(dev, nullptr, 500, "wide tile", wide);
}

TEST(CrossbarExec, SpecialInputsKeepBatchedAndMatvecBitIdentical) {
  // +-0, +-inf, NaN and float-subnormal voltages at every level: the avx
  // levels' fused multiply-adds must round, propagate and sign exactly like
  // the generic level's multiply-then-add (the products are exact in
  // double, subnormal floats included), and the matvec path's v == 0 skip
  // must stay a no-op. Odd sizes reach the column and item-block tails.
  RramDeviceParams dev = ideal();
  dev.program_sigma = 0.2f;
  ParityShape odd;
  odd.in = 37;
  odd.out = 21;
  odd.batch = 11;
  odd.specials = true;
  expect_paths_bit_identical(dev, nullptr, 600, "special inputs", odd);
  dev.readout.adc_bits = 6;
  expect_paths_bit_identical(dev, nullptr, 610, "special inputs + adc", odd);
}

// A noisy forward against a reference kept here: the noiseless currents
// times (1 + float(normal(0, read_sigma))), drawn with scalar Rng::normal in
// the stream order of the one read-noise path. matmul / matmul_cols take one
// u64 from the caller's stream and give item i of tile t its own stream
// Rng(mix64(base ^ (t * 0x100000001 + i))). Batched == matvec parity runs
// with read noise off, so it cannot catch a wrong draw; this can. The device
// maps weights to conductances with scale exactly 1 (g in [0, 1], max |w| =
// 1), so a noiseless output is the raw current, and odd tile widths (101,
// 101, 48) leave each row's last normal pair half used.
TEST(CrossbarExec, ReadNoiseMatchesScalarNormalReference) {
  const int64_t kIn = 40, kOut = 250, kBatch = 5, kTile = 101;
  const float kSigma = 0.07f;
  RramDeviceParams dev;
  dev.g_min = 0.0f;
  dev.g_max = 1.0f;
  dev.readout.read_sigma = kSigma;
  Rng rng(700);
  Tensor w({kOut, kIn});
  rng.fill_uniform(w, -0.9f, 0.9f);
  w[3] = 1.0f;
  Tensor x({kBatch, kIn});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor x_cm({kIn, kBatch});
  for (int64_t n = 0; n < kBatch; ++n)
    for (int64_t k = 0; k < kIn; ++k) x_cm[k * kBatch + n] = x[n * kIn + k];
  Rng prog(701);
  const CrossbarArray xbar(w, dev, prog, kTile);
  ASSERT_EQ(xbar.num_tiles(), 3);
  const Tensor cur = xbar.matmul(x);  // noiseless: the raw currents

  auto noisy = [&](float current, Rng& stream) {
    return current * (1.0f + static_cast<float>(stream.normal(0.0, kSigma)));
  };
  testutil::for_each_simd_level([&](int level) {
    const std::string at = " [simd level " + std::to_string(level) + "]";
    Rng rows_rng(900), cols_rng(900);
    const Tensor got_rows = xbar.matmul(x, &rows_rng);
    const Tensor got_cols = xbar.matmul_cols(x_cm, &cols_rng);
    Rng base_rng(900);
    const uint64_t base = base_rng.next_u64();
    Tensor want({kBatch, kOut});
    for (int64_t n = 0; n < kBatch; ++n)
      for (int64_t t = 0; t < 3; ++t) {
        Rng stream(mix64(base ^ (static_cast<uint64_t>(t) * 0x100000001ull +
                                 static_cast<uint64_t>(n))));
        for (int64_t c = t * kTile; c < std::min(kOut, (t + 1) * kTile); ++c)
          want[n * kOut + c] = noisy(cur[n * kOut + c], stream);
      }
    testutil::expect_bitwise_equal(got_rows, want, "matmul" + at);
    testutil::expect_bitwise_equal(got_cols, want, "matmul_cols" + at);
  });
}

// The batched path draws each item block's noise rows at once
// (Rng::fill_normal_rows): checked against the same scalar-normal reference
// at tile widths that leave the 8-stream lanes partly empty or split a row
// into several kernel blocks, with 70 items so the 8-item blocks, the
// 64-item work blocks and their tails are all crossed. Each tile spans
// every wordline (in <= width), so with g in [0, 1] and max |w| = 1 an
// output is the raw current of its one tile.
TEST(CrossbarExec, BatchedReadNoiseBlocksMatchScalarNormalReference) {
  const int64_t kBatch = 70;
  const float kSigma = 0.05f;
  for (int64_t width : {1, 6, 101, 129}) {
    const int64_t in = std::min<int64_t>(width, 40), out = 2 * width + width / 2 + 1;
    RramDeviceParams dev;
    dev.g_min = 0.0f;
    dev.g_max = 1.0f;
    dev.readout.read_sigma = kSigma;
    Rng rng(710 + static_cast<uint64_t>(width));
    Tensor w({out, in});
    rng.fill_uniform(w, -0.9f, 0.9f);
    w[0] = 1.0f;
    Tensor x({kBatch, in});
    rng.fill_normal(x, 0.0f, 1.0f);
    Tensor x_cm({in, kBatch});
    for (int64_t n = 0; n < kBatch; ++n)
      for (int64_t k = 0; k < in; ++k) x_cm[k * kBatch + n] = x[n * in + k];
    Rng prog(711);
    const CrossbarArray xbar(w, dev, prog, width);
    const int64_t ntiles = (out + width - 1) / width;
    ASSERT_EQ(xbar.num_tiles(), ntiles);
    const Tensor cur = xbar.matmul(x);  // noiseless: the raw currents

    testutil::for_each_simd_level([&](int level) {
      const std::string at = " width " + std::to_string(width) + " [simd level " +
                             std::to_string(level) + "]";
      Rng rows_rng(910), cols_rng(910), base_rng(910);
      const Tensor got_rows = xbar.matmul(x, &rows_rng);
      const Tensor got_cols = xbar.matmul_cols(x_cm, &cols_rng);
      const uint64_t base = base_rng.next_u64();
      Tensor want({kBatch, out});
      for (int64_t n = 0; n < kBatch; ++n)
        for (int64_t t = 0; t < ntiles; ++t) {
          Rng stream(mix64(base ^ (static_cast<uint64_t>(t) * 0x100000001ull +
                                   static_cast<uint64_t>(n))));
          for (int64_t c = t * width; c < std::min(out, (t + 1) * width); ++c)
            want[n * out + c] =
                cur[n * out + c] *
                (1.0f + static_cast<float>(stream.normal(0.0, kSigma)));
        }
      testutil::expect_bitwise_equal(got_rows, want, "matmul" + at);
      testutil::expect_bitwise_equal(got_cols, want, "matmul_cols" + at);
    });
  }
}

TEST(CrossbarExec, SmallTileShapesKeepBatchedAndMatvecBitIdentical) {
  // The kernel's edges: 1-3 wordlines (the widened voltage block is a few
  // doubles), and bitline counts below, at and past the 8-column register
  // block, at every forced level.
  RramDeviceParams dev = ideal();
  dev.program_sigma = 0.2f;
  dev.readout.adc_bits = 8;
  uint64_t seed = 1000;
  for (int64_t rows = 1; rows <= 3; ++rows)
    for (int64_t cols : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 129}) {
      ParityShape shape;
      shape.in = rows;
      shape.out = cols;
      shape.batch = 11;
      shape.tile = 256;
      expect_paths_bit_identical(dev, nullptr, ++seed,
                                 std::to_string(rows) + "x" + std::to_string(cols),
                                 shape);
    }
}

TEST(CrossbarExec, ReadNoisePathsAreSeedDeterministic) {
  // With read noise on, the batched read must be exactly reproducible from
  // the rng state.
  RramDeviceParams dev = ideal();
  dev.readout.read_sigma = 0.1f;
  Rng rng(300);
  Tensor w({9, 17});
  rng.fill_normal(w, 0.0f, 0.5f);
  Rng prog(301);
  CrossbarArray xbar(w, dev, prog, 8);
  Tensor x({4, 17});
  rng.fill_normal(x, 0.0f, 1.0f);

  Rng ra(77), rb(77);
  Tensor ya = xbar.matmul(x, &ra);
  Tensor yb = xbar.matmul(x, &rb);
  testutil::expect_bitwise_equal(ya, yb, "same-seed matmul reads");
  // And the noise actually engages: a different seed changes the output.
  Rng re(79);
  Tensor ye = xbar.matmul(x, &re);
  double diff = 0.0;
  for (int64_t i = 0; i < ya.size(); ++i)
    diff += std::abs(static_cast<double>(ya[i]) - ye[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(CrossbarExec, LoweringCountsTilesAndBytes) {
  // Every tile lowering adds one to exec.simd.tiles and its conductance
  // bytes (G+ and G- floats) to exec.simd.bytes; /statusz lists both under
  // "execution targets:".
  auto& reg = obs::metrics();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const uint64_t tiles0 = reg.counter("exec.simd.tiles").value();
  const uint64_t bytes0 = reg.counter("exec.simd.bytes").value();
  // (out 20, in 30) in 16-edge tiles: wordlines split 16 + 14, bitlines
  // 16 + 4, so four tiles.
  Rng rng(310);
  Tensor w({20, 30});
  rng.fill_normal(w, 0.0f, 0.5f);
  Rng prog(311);
  CrossbarArray xbar(w, ideal(), prog, /*tile=*/16);
  EXPECT_EQ(xbar.num_tiles(), 4);
  const uint64_t tiles = reg.counter("exec.simd.tiles").value();
  const uint64_t bytes = reg.counter("exec.simd.bytes").value();
  EXPECT_EQ(tiles, tiles0 + 4);
  EXPECT_EQ(bytes, bytes0 + (16 * 16 + 16 * 4 + 14 * 16 + 14 * 4) * 2 * 4);

  const std::string statusz = obs::render_statusz(true);
  const size_t section = statusz.find("\nexecution targets:\n");
  ASSERT_NE(section, std::string::npos) << statusz;
  for (const std::string& line :
       {"  exec.simd.bytes: " + std::to_string(bytes) + "\n",
        "  exec.simd.tiles: " + std::to_string(tiles) + "\n"})
    EXPECT_NE(statusz.find(line, section), std::string::npos)
        << line << statusz;
  reg.set_enabled(was_enabled);
}

TEST(CrossbarDense, IdealMatchesDigitalLayer) {
  Rng rng(1);
  nn::Dense d(6, 4, "fc");
  rng.fill_normal(d.weight().value, 0.0f, 0.5f);
  rng.fill_normal(d.bias().value, 0.0f, 0.2f);
  Rng prog(2);
  CrossbarDense xd(d, ideal(), prog);
  Tensor x({3, 6});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y_ref = d.forward(x, false);
  Tensor y_xbar = xd.forward(x, false);
  for (int64_t i = 0; i < y_ref.size(); ++i)
    EXPECT_NEAR(y_xbar[i], y_ref[i], 1e-3f);
}

TEST(CrossbarConv2D, IdealMatchesDigitalLayer) {
  Rng rng(3);
  nn::Conv2D c(2, 4, 3, 1, 1, 6, 6, "conv");
  rng.fill_normal(c.weight().value, 0.0f, 0.4f);
  rng.fill_normal(c.bias().value, 0.0f, 0.1f);
  Rng prog(4);
  CrossbarConv2D xc(c, ideal(), prog);
  Tensor x({2, 2, 6, 6});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y_ref = c.forward(x, false);
  Tensor y_xbar = xc.forward(x, false);
  ASSERT_EQ(y_ref.shape(), y_xbar.shape());
  for (int64_t i = 0; i < y_ref.size(); ++i)
    EXPECT_NEAR(y_xbar[i], y_ref[i], 2e-3f);
}

TEST(CrossbarLayers, BackwardThrows) {
  Rng rng(5);
  nn::Dense d(2, 2, "fc");
  Rng prog(6);
  CrossbarDense xd(d, ideal(), prog);
  xd.forward(Tensor({1, 2}), false);
  EXPECT_THROW(xd.backward(Tensor({1, 2})), std::logic_error);
}

TEST(ProgramToCrossbars, WholeModelIdealAccuracyMatches) {
  data::DigitsSpec spec;
  spec.train_count = 400;
  spec.test_count = 60;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(7);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  core::train(m, ds.train, ds.test, cfg);

  Rng prog(8);
  nn::Sequential xm = program_to_crossbars(m, ideal(), prog);
  const float acc_ref = core::evaluate(m, ds.test);
  const float acc_xbar = core::evaluate(xm, ds.test, /*batch=*/20);
  // The bit-exact kernels flip no logits on the ideal device.
  EXPECT_NEAR(acc_xbar, acc_ref, 1e-6f);
}

TEST(ProgramToCrossbars, VariationDegradesLikeFactorModel) {
  // The device-level programming variation and the layer-level factor model
  // must produce accuracy drops of the same order at matched sigma.
  data::DigitsSpec spec;
  spec.train_count = 400;
  spec.test_count = 60;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(9);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  core::train(m, ds.train, ds.test, cfg);

  const float sigma = 0.4f;
  // Factor path (paper Eq. 1-2), a few chips.
  VariationModel vm{VariationKind::kLognormal, sigma};
  core::McOptions mc;
  mc.samples = 4;
  core::McResult factor = core::mc_accuracy(m, ds.test, vm, mc);
  // Device path, a few programmed chips.
  RramDeviceParams dev = ideal();
  dev.program_sigma = sigma;
  double dev_acc = 0.0;
  for (int chip = 0; chip < 4; ++chip) {
    Rng prog(100 + static_cast<uint64_t>(chip));
    nn::Sequential xm = program_to_crossbars(m, dev, prog);
    dev_acc += core::evaluate(xm, ds.test, 20);
  }
  dev_acc /= 4.0;
  // Same ballpark (both well below clean, within 20 points of each other).
  const float clean = core::evaluate(m, ds.test);
  EXPECT_LT(dev_acc, clean);
  EXPECT_LT(factor.mean, clean);
  EXPECT_NEAR(dev_acc, factor.mean, 0.25);
}

TEST(ProgramToCrossbars, NonAnalogLayersPreserved) {
  Rng rng(11);
  nn::Sequential m = models::lenet5(1, 28, 10, rng);
  Rng prog(12);
  nn::Sequential xm = program_to_crossbars(m, ideal(), prog);
  ASSERT_EQ(xm.num_layers(), m.num_layers());
  EXPECT_EQ(xm.layer(0).kind(), "crossbar_conv2d");
  EXPECT_EQ(xm.layer(1).kind(), "relu");
  EXPECT_EQ(xm.layer(7).kind(), "crossbar_dense");
}

}  // namespace
}  // namespace cn::analog
