// The faultsim subsystem: fault-model math, zero-severity no-ops, chip-farm
// fault injection determinism, the layer-selective fault sweep, and the
// campaign engine's grid execution + report aggregation + JSON emitter.
#include "faultsim/campaign.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/compensation.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "exec_testutil.h"
#include "models/lenet.h"
#include "runtime/chip_farm.h"
#include "runtime/mc_engine.h"
#include "runtime/scheduler.h"

namespace cn::faultsim {
namespace {

analog::RramDeviceParams quiet_dev() {
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  return dev;
}

// Shared tiny trained model + dataset (mirrors test_runtime's fixture).
struct Fixture {
  data::SplitDataset ds;
  nn::Sequential model{"m"};

  Fixture() {
    data::DigitsSpec spec;
    spec.train_count = 400;
    spec.test_count = 60;
    ds = data::make_digits(spec);
    Rng rng(1);
    model = models::lenet5(1, 28, 10, rng);
    core::TrainConfig cfg;
    cfg.epochs = 2;
    core::train(model, ds.train, ds.test, cfg);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

Tensor random_weight(int64_t out, int64_t in, uint64_t seed) {
  Rng rng(seed);
  Tensor w({out, in});
  rng.fill_normal(w, 0.0f, 0.5f);
  return w;
}

// ---------- fault-model math ----------

TEST(FaultModels, ZeroSeverityIsABitIdenticalNoOp) {
  // A fault list of zero-severity models must leave a programmed array
  // bit-identical to a fault-free one, including the rng stream (no draws).
  analog::RramDeviceParams dev = quiet_dev();
  dev.program_sigma = 0.2f;
  Tensor w = random_weight(12, 18, 3);

  FaultSpec zero;
  zero.models.push_back(std::make_shared<StuckAtFault>(0.0, 0.0));
  zero.models.push_back(std::make_shared<DriftFault>(1.0));
  zero.models.push_back(std::make_shared<IrDropFault>(0.0, 0.0));
  zero.models.push_back(std::make_shared<ThermalFault>(300.0));
  const analog::FaultList list = zero.list();

  Rng prog_a(7), prog_b(7);
  analog::CrossbarArray clean(w, dev, prog_a, /*tile=*/8);
  analog::CrossbarArray faulted(w, dev, prog_b, /*tile=*/8, &list);
  // Same rng stream position afterwards: programming draws must line up.
  EXPECT_EQ(prog_a.next_u64(), prog_b.next_u64());
  Tensor we_clean = clean.effective_weights();
  Tensor we_fault = faulted.effective_weights();
  for (int64_t i = 0; i < we_clean.size(); ++i)
    ASSERT_EQ(we_clean[i], we_fault[i]) << "weight " << i;
}

TEST(FaultModels, StuckAtRateOneGroundsEveryCell) {
  // rate_low = 1: every physical cell sits at g_min, so every differential
  // weight collapses to exactly zero.
  analog::RramDeviceParams dev = quiet_dev();
  dev.program_sigma = 0.3f;
  Tensor w = random_weight(9, 14, 5);
  FaultSpec s = stuck_at(1.0, /*high_fraction=*/0.0);
  const analog::FaultList list = s.list();
  Rng prog(11);
  analog::CrossbarArray xbar(w, dev, prog, /*tile=*/6, &list);
  Tensor we = xbar.effective_weights();
  for (int64_t i = 0; i < we.size(); ++i) ASSERT_EQ(we[i], 0.0f) << "weight " << i;
}

TEST(FaultModels, StuckAtRateScalesDefectCount) {
  // At a moderate rate the defect count lands near rate * cells and the
  // stuck cells sit exactly at g_min or g_max (visible through weights that
  // moved to extreme values). Checked statistically on the factor grid.
  analog::RramDeviceParams dev = quiet_dev();
  Tensor w = random_weight(32, 32, 8);
  FaultSpec s = stuck_at(0.25, 0.5);
  const analog::FaultList list = s.list();
  Rng prog_a(21), prog_b(21);
  analog::CrossbarArray clean(w, dev, prog_a, 32);
  analog::CrossbarArray faulted(w, dev, prog_b, 32, &list);
  Tensor we_clean = clean.effective_weights();
  Tensor we_fault = faulted.effective_weights();
  int64_t changed = 0;
  for (int64_t i = 0; i < we_clean.size(); ++i)
    if (we_clean[i] != we_fault[i]) ++changed;
  // P(pair untouched) = (1-rate)^2 = 0.5625 -> E[changed] ~ 0.4375 * 1024.
  EXPECT_GT(changed, 300);
  EXPECT_LT(changed, 600);
}

TEST(FaultModels, DriftIsMonotoneInTimePerCell) {
  // Same seed -> same per-cell nu draws, so a longer t strictly shrinks
  // every conductance: g(t=100) <= g(t=10) <= g0 cell by cell.
  constexpr int64_t kRows = 6, kCols = 10, kN = kRows * kCols;
  analog::FaultModel::TileCtx ctx;
  ctx.rows = kRows;
  ctx.cols = kCols;
  ctx.array_rows = kRows;
  ctx.array_cols = kCols;
  const analog::RramDeviceParams dev = quiet_dev();

  std::vector<float> base(static_cast<size_t>(2 * kN));
  Rng fill(33);
  for (float& g : base)
    g = static_cast<float>(fill.uniform(dev.g_min, dev.g_max));

  auto drifted = [&](double t) {
    std::vector<float> g = base;
    DriftFault f(t, 0.05, 0.02);
    Rng rng(44);  // identical stream for every t
    f.apply(g.data(), g.data() + kN, ctx, dev, rng);
    return g;
  };
  const std::vector<float> g10 = drifted(10.0);
  const std::vector<float> g100 = drifted(100.0);
  for (size_t i = 0; i < base.size(); ++i) {
    ASSERT_LE(g10[i], base[i]) << "cell " << i;
    ASSERT_LE(g100[i], g10[i]) << "cell " << i;
  }
  // And it genuinely decays somewhere.
  double total_base = 0.0, total_100 = 0.0;
  for (size_t i = 0; i < base.size(); ++i) {
    total_base += base[i];
    total_100 += g100[i];
  }
  EXPECT_LT(total_100, 0.9 * total_base);
}

TEST(FaultModels, IrDropAttenuatesFarCellsMore) {
  constexpr int64_t kRows = 8, kCols = 8, kN = kRows * kCols;
  analog::FaultModel::TileCtx ctx;
  ctx.rows = kRows;
  ctx.cols = kCols;
  ctx.array_rows = kRows;
  ctx.array_cols = kCols;
  const analog::RramDeviceParams dev = quiet_dev();
  std::vector<float> gp(static_cast<size_t>(kN), 1e-4f);
  std::vector<float> gn(static_cast<size_t>(kN), 1e-4f);
  IrDropFault f(0.2, 0.1);
  Rng rng(1);
  f.apply(gp.data(), gn.data(), ctx, dev, rng);
  // Near corner (0,0) untouched; far corner keeps 1 - 0.2 - 0.1 = 0.7.
  EXPECT_FLOAT_EQ(gp[0], 1e-4f);
  EXPECT_NEAR(gp[static_cast<size_t>(kN - 1)], 0.7e-4f, 1e-9f);
  // Monotone along a wordline (columns) and a bitline (rows).
  for (int64_t c = 1; c < kCols; ++c) ASSERT_LT(gp[static_cast<size_t>(c)], gp[static_cast<size_t>(c - 1)]);
  for (int64_t r = 1; r < kRows; ++r)
    ASSERT_LT(gp[static_cast<size_t>(r * kCols)], gp[static_cast<size_t>((r - 1) * kCols)]);
  EXPECT_FLOAT_EQ(gn[static_cast<size_t>(kN - 1)], gp[static_cast<size_t>(kN - 1)]);
}

TEST(FaultModels, ThermalScalesSigmasAndPerturbsCells) {
  analog::RramDeviceParams dev = quiet_dev();
  dev.program_sigma = 0.2f;
  dev.readout.read_sigma = 0.1f;
  ThermalFault hot(432.0, 300.0);  // sqrt(432/300) = 1.2
  hot.prepare_device(dev);
  EXPECT_NEAR(dev.program_sigma, 0.24f, 1e-6f);
  EXPECT_NEAR(dev.readout.read_sigma, 0.12f, 1e-6f);

  // Above-nominal temperature perturbs conductances; nominal is a no-op.
  analog::RramDeviceParams ideal = quiet_dev();
  Tensor w = random_weight(10, 10, 13);
  FaultSpec hot_spec = thermal(400.0);
  const analog::FaultList hot_list = hot_spec.list();
  Rng prog_a(3), prog_b(3);
  analog::CrossbarArray clean(w, ideal, prog_a, 16);
  analog::CrossbarArray heated(w, ideal, prog_b, 16, &hot_list);
  Tensor we_clean = clean.effective_weights();
  Tensor we_hot = heated.effective_weights();
  double diff = 0.0;
  for (int64_t i = 0; i < we_clean.size(); ++i)
    diff += std::abs(static_cast<double>(we_clean[i]) - we_hot[i]);
  EXPECT_GT(diff, 0.0);
}

// The fault models' loops before the lognormal span, kept as references:
// a scalar normal plus a libm exp per cell, G+ then G-.
void reference_drift(const DriftFault& f, float* g_pos, float* g_neg, int64_t n,
                     Rng& rng) {
  if (f.t_ratio == 1.0 || (f.nu_mean == 0.0 && f.nu_sigma == 0.0)) return;
  const double log_t = std::log(f.t_ratio);
  for (float* g : {g_pos, g_neg}) {
    for (int64_t i = 0; i < n; ++i) {
      const double nu = std::max(0.0, rng.normal(f.nu_mean, f.nu_sigma));
      g[i] = static_cast<float>(g[i] * std::exp(-nu * log_t));
    }
  }
}

void reference_thermal(const ThermalFault& f, float* g_pos, float* g_neg,
                       int64_t n, Rng& rng) {
  const double sigma = f.cell_sigma * (f.temperature / f.t_nominal - 1.0);
  if (sigma <= 0.0) return;
  for (float* g : {g_pos, g_neg}) {
    for (int64_t i = 0; i < n; ++i)
      g[i] = static_cast<float>(g[i] * rng.lognormal(0.0, sigma));
  }
}

// The references as fault models, to run through arrays and remap.
struct ReferenceDrift final : analog::FaultModel {
  DriftFault f;
  explicit ReferenceDrift(DriftFault d) : f(d) {}
  void apply(float* g_pos, float* g_neg, const TileCtx& ctx,
             const analog::RramDeviceParams&, Rng& rng) const override {
    reference_drift(f, g_pos, g_neg, ctx.rows * ctx.cols, rng);
  }
  std::string name() const override { return "drift"; }
};

struct ReferenceThermal final : analog::FaultModel {
  ThermalFault f;
  explicit ReferenceThermal(ThermalFault t) : f(t) {}
  void prepare_device(analog::RramDeviceParams& dev) const override {
    f.prepare_device(dev);
  }
  void apply(float* g_pos, float* g_neg, const TileCtx& ctx,
             const analog::RramDeviceParams&, Rng& rng) const override {
    reference_thermal(f, g_pos, g_neg, ctx.rows * ctx.cols, rng);
  }
  std::string name() const override { return "thermal"; }
};

// Appends every tile's conductances as the last model of a list; draws
// nothing.
struct Probe final : analog::FaultModel {
  mutable std::vector<float> seen;
  void apply(float* g_pos, float* g_neg, const TileCtx& ctx,
             const analog::RramDeviceParams&, Rng&) const override {
    const int64_t n = ctx.rows * ctx.cols;
    seen.insert(seen.end(), g_pos, g_pos + n);
    seen.insert(seen.end(), g_neg, g_neg + n);
  }
  std::string name() const override { return "probe"; }
};

void expect_same_stream(Rng& a, Rng& b, const std::string& what) {
  const double x = a.normal(), y = b.normal();
  EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0) << what << ": next draw differs";
  EXPECT_EQ(a.next_u64(), b.next_u64()) << what << ": stream differs";
}

TEST(FaultModels, DriftAndThermalMatchTheScalarLoops) {
  // Odd tile sizes (so G- starts on the cached second normal of G+'s last
  // pair), a cached and an uncached start, clamped and gaining drift and
  // hot and cold thermal: every conductance and the stream's end state
  // equal the scalar loops at every simd level.
  struct Shape {
    int64_t rows, cols;
  };
  const Shape kShapes[] = {{1, 1}, {3, 5}, {17, 9}, {31, 33}};
  const DriftFault kDrift[] = {DriftFault(1e3), DriftFault(10.0),
                               DriftFault(0.5), DriftFault(1e4, 0.05, 0.3),
                               DriftFault(1e3, 0.0, 0.0), DriftFault(1.0)};
  const ThermalFault kThermal[] = {ThermalFault(400.0), ThermalFault(900.0),
                                   ThermalFault(350.0, 300.0, 1.0),
                                   ThermalFault(250.0), ThermalFault(300.0)};
  const analog::RramDeviceParams dev = quiet_dev();
  testutil::for_each_simd_level([&](int level) {
    uint64_t seed = 900;
    for (const Shape& sh : kShapes)
      for (bool cached : {false, true}) {
        analog::FaultModel::TileCtx ctx;
        ctx.rows = ctx.array_rows = sh.rows;
        ctx.cols = ctx.array_cols = sh.cols;
        const int64_t n = sh.rows * sh.cols;
        std::vector<float> base(static_cast<size_t>(2 * n));
        Rng fill(++seed);
        for (float& g : base) g = static_cast<float>(fill.uniform(dev.g_min, dev.g_max));
        const std::string where = "level " + std::to_string(level) + " " +
                                  std::to_string(sh.rows) + "x" +
                                  std::to_string(sh.cols) + (cached ? " cached" : "");
        auto check = [&](auto&& span, auto&& ref, const std::string& what) {
          std::vector<float> got = base, want = base;
          Rng a(seed * 3), b(seed * 3);
          if (cached) {
            a.normal();
            b.normal();
          }
          span(got.data(), got.data() + n, a);
          ref(want.data(), want.data() + n, b);
          testutil::expect_bitwise_equal(got.data(), want.data(), 2 * n, what);
          expect_same_stream(a, b, what);
        };
        for (const DriftFault& f : kDrift)
          check([&](float* gp, float* gn, Rng& r) { f.apply(gp, gn, ctx, dev, r); },
                [&](float* gp, float* gn, Rng& r) { reference_drift(f, gp, gn, n, r); },
                where + " drift t=" + std::to_string(f.t_ratio) + " nu_sigma=" +
                    std::to_string(f.nu_sigma));
        for (const ThermalFault& f : kThermal)
          check([&](float* gp, float* gn, Rng& r) { f.apply(gp, gn, ctx, dev, r); },
                [&](float* gp, float* gn, Rng& r) { reference_thermal(f, gp, gn, n, r); },
                where + " thermal T=" + std::to_string(f.temperature));
      }
  });
}

TEST(FaultModels, SpansMatchTheScalarLoopsThroughRemappedArrays) {
  // Stuck-at, drift and thermal stacked on a programmed array with odd
  // tiles, remap off and on: the array built with the span models equals
  // the one built with the reference loops, conductance for conductance,
  // and both leave the programming stream in the same place.
  analog::RramDeviceParams dev = quiet_dev();
  dev.program_sigma = 0.1f;
  const Tensor w = random_weight(23, 37, 61);
  const FaultSpec stuck = stuck_at(0.05);
  const auto span_drift = std::make_shared<DriftFault>(1e3);
  const auto span_thermal = std::make_shared<ThermalFault>(400.0);
  const ReferenceDrift ref_drift(*span_drift);
  const ReferenceThermal ref_thermal(*span_thermal);
  remap::RemapParams rp;
  rp.enabled = true;
  rp.spare_rows = 2;
  rp.spare_cols = 2;
  testutil::for_each_simd_level([&](int level) {
    for (bool remap_on : {false, true}) {
      Probe span_probe, ref_probe;
      const analog::FaultList span_list = {stuck.models[0].get(), span_drift.get(),
                                           span_thermal.get(), &span_probe};
      const analog::FaultList ref_list = {stuck.models[0].get(), &ref_drift,
                                          &ref_thermal, &ref_probe};
      Rng a(5), b(5);
      const analog::CrossbarArray got(w, dev, a, /*tile=*/16, &span_list,
                                      remap_on ? &rp : nullptr);
      const analog::CrossbarArray want(w, dev, b, /*tile=*/16, &ref_list,
                                       remap_on ? &rp : nullptr);
      const std::string what = "level " + std::to_string(level) +
                               (remap_on ? " remap on" : " remap off");
      ASSERT_EQ(span_probe.seen.size(), ref_probe.seen.size()) << what;
      testutil::expect_bitwise_equal(span_probe.seen.data(), ref_probe.seen.data(),
                                     static_cast<int64_t>(span_probe.seen.size()),
                                     what + " conductances");
      testutil::expect_bitwise_equal(got.effective_weights(), want.effective_weights(),
                                     what + " weights");
      EXPECT_EQ(got.remap_stats().defects, want.remap_stats().defects) << what;
      if (remap_on) {
        EXPECT_GT(got.remap_stats().absorbed(), 0) << what;
      }
      expect_same_stream(a, b, what);
    }
  });
}

// ---------- degenerate severities and devices ----------

TEST(FaultGrid, RejectsDegenerateSeverities) {
  // Each of these used to program NaN conductances, zero every cell or
  // silently disable the scenario.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* kind;
    double severity;
  };
  const Bad kBad[] = {{"drift", 0.0},     {"drift", -5.0},    {"drift", nan},
                      {"drift", inf},     {"thermal", nan},   {"thermal", 0.0},
                      {"thermal", -300.0}, {"ir_drop", nan},  {"ir_drop", -0.1},
                      {"ir_drop", 1.5},   {"stuck_at", nan},  {"stuck_at", -0.01},
                      {"stuck_at", 2.0}};
  for (const Bad& b : kBad) {
    try {
      make_fault(b.kind, b.severity);
      ADD_FAILURE() << b.kind << "(" << b.severity << ") was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(b.kind), std::string::npos) << msg;
      std::ostringstream v;
      v << b.severity;
      EXPECT_NE(msg.find(v.str()), std::string::npos) << msg;
    }
  }
  EXPECT_THROW(stuck_at(0.1, nan), std::invalid_argument);
  EXPECT_THROW(stuck_at(0.1, 1.5), std::invalid_argument);
  EXPECT_THROW(drift(10.0, nan), std::invalid_argument);
  EXPECT_THROW(drift(10.0, 0.05, inf), std::invalid_argument);
  EXPECT_THROW(thermal(400.0, 0.0), std::invalid_argument);
  EXPECT_THROW(thermal(400.0, nan), std::invalid_argument);
  // The edges of every range stay valid; t < t0 and T < T0 are physical.
  for (const Bad& ok : {Bad{"stuck_at", 0.0}, Bad{"stuck_at", 1.0}, Bad{"drift", 1.0},
                        Bad{"drift", 0.5}, Bad{"ir_drop", 0.0}, Bad{"ir_drop", 1.0},
                        Bad{"thermal", 300.0}, Bad{"thermal", 1.0}})
    EXPECT_NO_THROW(make_fault(ok.kind, ok.severity)) << ok.kind << " " << ok.severity;
  EXPECT_NO_THROW(make_fault("none", nan));
}

TEST(FaultGrid, CampaignConfigRejectsDegenerateValuesBeforeRunning) {
  for (const char* bad :
       {"drift.times = 0\n", "drift.times = 10, nan\n", "thermal.temps = 0\n",
        "ir.alphas = nan\n", "stuck.rates = -1\n", "stuck.rates = 0.1\nstuck.high_fraction = 2\n",
        "thermal.temps = 400\nthermal.t0 = 0\n", "program_sigma = nan\n",
        "program_sigma = -0.1\n", "read_sigma = nan\n", "batch = 0\n"}) {
    EXPECT_THROW(campaign_from_config(core::KeyValueConfig::from_string(bad)),
                 std::invalid_argument)
        << bad;
  }
  CampaignOptions co;
  co.dev.readout.read_sigma = -1.0f;
  EXPECT_THROW(Campaign{co}, std::invalid_argument);
}

// ---------- chip-farm fault injection ----------

TEST(FaultFarm, ZeroRateFaultsMatchFaultFreeChipBitForBit) {
  auto& f = fixture();
  analog::RramDeviceParams dev = quiet_dev();
  dev.program_sigma = 0.2f;
  runtime::ChipFarmOptions fo;
  fo.instances = 2;
  fo.seed = 9;

  FaultSpec zero;
  zero.models.push_back(std::make_shared<StuckAtFault>(0.0, 0.0));
  zero.models.push_back(std::make_shared<DriftFault>(1.0));
  runtime::ChipFarm clean(f.model, dev, fo);
  runtime::ChipFarm faulted(f.model, dev, fo, zero.list());
  runtime::McEngineOptions eo;
  eo.batch_size = 32;
  const core::McResult a = runtime::McEngine(clean, eo).accuracy(f.ds.test);
  const core::McResult b = runtime::McEngine(faulted, eo).accuracy(f.ds.test);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (size_t s = 0; s < a.samples.size(); ++s)
    EXPECT_DOUBLE_EQ(a.samples[s], b.samples[s]) << "chip " << s;
}

TEST(FaultFarm, FaultSweepStartSiteGatesInjection) {
  auto& f = fixture();
  const analog::RramDeviceParams dev = quiet_dev();
  FaultSpec s = stuck_at(0.1);
  const int64_t sites = static_cast<int64_t>(f.model.analog_sites().size());

  auto accuracy_from = [&](int64_t first_site) {
    runtime::ChipFarmOptions fo;
    fo.instances = 2;
    fo.seed = 31;
    fo.first_site = first_site;
    runtime::ChipFarm farm(f.model, dev, fo, s.list());
    runtime::McEngineOptions eo;
    eo.batch_size = 32;
    return runtime::McEngine(farm, eo).accuracy(f.ds.test);
  };
  // Injecting past the last site leaves the chip fault-free (ideal device).
  runtime::ChipFarmOptions fo;
  fo.instances = 2;
  fo.seed = 31;
  runtime::ChipFarm clean(f.model, dev, fo);
  runtime::McEngineOptions eo;
  eo.batch_size = 32;
  const core::McResult none = runtime::McEngine(clean, eo).accuracy(f.ds.test);
  const core::McResult past = accuracy_from(sites);
  for (size_t i = 0; i < none.samples.size(); ++i)
    EXPECT_DOUBLE_EQ(none.samples[i], past.samples[i]);
  // Injecting everywhere hurts (10% stuck cells on an ideal device).
  const core::McResult all = accuracy_from(0);
  EXPECT_LT(all.mean, none.mean);
  // Crossbar farms without faults still reject first_site.
  EXPECT_THROW(
      {
        runtime::ChipFarmOptions bad;
        bad.instances = 1;
        bad.first_site = 1;
        runtime::ChipFarm reject(f.model, dev, bad);
      },
      std::invalid_argument);
}

TEST(FaultFarm, CompensatedModelsCarryBaseConvsToTheSubstrate) {
  // The corrected protection variant wraps convs in CompensatedConv2D; its
  // analog base must be programmed to the crossbar (via the override slot)
  // and receive faults, while generator/compensator stay digital. Without
  // this, the campaign's compensation-on column would be silently fault-free
  // in its most sensitive layers.
  auto& f = fixture();
  core::CompensationPlan plan;
  const auto convs = core::conv_layer_indices(f.model);
  ASSERT_FALSE(convs.empty());
  plan.entries.emplace_back(convs[0], 3);
  Rng crng(55);
  nn::Sequential corrected = core::with_compensation(f.model, plan, crng);

  // Ideal device: the substrate-backed corrected chip matches the digital
  // corrected model, so the base conv really executes through the crossbar.
  Rng prog(56);
  nn::Sequential chip = analog::program_to_crossbars(corrected, quiet_dev(), prog);
  int overrides = 0;
  for (int64_t i = 0; i < chip.num_layers(); ++i)
    chip.layer(i).visit_analog_bases(
        [&](const nn::Layer&, std::unique_ptr<nn::Layer>& slot) {
          ASSERT_NE(slot, nullptr);
          EXPECT_EQ(slot->kind(), "crossbar_conv2d");
          ++overrides;
        });
  EXPECT_EQ(overrides, 1);
  EXPECT_EQ(chip.layer(convs[0]).kind(), "compensated_conv2d");
  const float acc_ref = core::evaluate(corrected, f.ds.test, 32);
  const float acc_chip = core::evaluate(chip, f.ds.test, 32);
  EXPECT_NEAR(acc_chip, acc_ref, 1e-6f);
  // Training through the substrate is rejected.
  Tensor x({1, 1, 28, 28});
  chip.forward(x, false);
  EXPECT_THROW(chip.layer(convs[0]).backward(Tensor({1, 6, 24, 24})),
               std::logic_error);

  // Faults reach the compensated base: grounding every cell from site 0
  // zeroes the override's effective weights too.
  FaultSpec ground = stuck_at(1.0, 0.0);
  const analog::FaultList glist = ground.list();
  Rng gprog(57);
  nn::Sequential grounded =
      analog::program_to_crossbars(corrected, quiet_dev(), gprog, 128, &glist, 0);
  grounded.layer(convs[0]).visit_analog_bases(
      [&](const nn::Layer&, std::unique_ptr<nn::Layer>& slot) {
        auto* xc = dynamic_cast<analog::CrossbarConv2D*>(slot.get());
        ASSERT_NE(xc, nullptr);
        Tensor we = xc->array().effective_weights();
        for (int64_t i = 0; i < we.size(); ++i)
          ASSERT_EQ(we[i], 0.0f) << "weight " << i;
      });
}

// ---------- campaign engine ----------

Campaign small_campaign(const Fixture& f, int64_t max_live, int threads) {
  CampaignOptions co;
  co.chips = 3;
  co.seed = 77;
  co.batch_size = 32;
  co.max_live = max_live;
  co.threads = threads;
  co.dev = quiet_dev();
  co.dev.program_sigma = 0.1f;
  Campaign c(co);
  c.add_model("baseline", f.model, false);
  c.add_fault(fault_free());
  c.add_fault(stuck_at(0.05));
  c.add_fault(drift(100.0));
  c.add_fault(ir_drop(0.1));
  return c;
}

TEST(Campaign, BitIdenticalAcrossThreadAndSlotCounts) {
  auto& f = fixture();
  const CampaignReport serial = small_campaign(f, 1, 1).run(f.ds.test);
  const CampaignReport pooled = small_campaign(f, 3, 0).run(f.ds.test);
  ASSERT_EQ(serial.scenarios.size(), 4u);
  ASSERT_EQ(pooled.scenarios.size(), serial.scenarios.size());
  for (size_t i = 0; i < serial.scenarios.size(); ++i) {
    const ScenarioResult& a = serial.scenarios[i];
    const ScenarioResult& b = pooled.scenarios[i];
    EXPECT_EQ(a.fault_kind, b.fault_kind);
    ASSERT_EQ(a.acc.samples.size(), b.acc.samples.size());
    for (size_t s = 0; s < a.acc.samples.size(); ++s)
      EXPECT_DOUBLE_EQ(a.acc.samples[s], b.acc.samples[s])
          << "scenario " << i << " chip " << s;
    EXPECT_DOUBLE_EQ(a.acc.mean, b.acc.mean);
    EXPECT_EQ(a.catastrophic, b.catastrophic);
  }
}

TEST(Campaign, GridRunsPairedVariantsAndAggregates) {
  // The acceptance grid: 4 fault kinds x severities x compensation on/off
  // = 24 scenarios. Both variants here share the same trained network, so
  // the paired per-scenario chip seeds must make their rows bit-identical —
  // the matched-pairs property the real compensation comparison relies on.
  auto& f = fixture();
  CampaignOptions co;
  co.chips = 2;
  co.seed = 5;
  co.batch_size = 32;
  co.catastrophic_below = 0.15;
  co.dev = quiet_dev();
  Campaign c(co);
  c.add_model("suppressed", f.model, false);
  c.add_model("corrected", f.model, true);
  c.add_stuck_at_grid({0.005, 0.02, 0.5});
  c.add_drift_grid({10.0, 100.0, 1000.0});
  c.add_ir_drop_grid({0.05, 0.1, 0.2});
  c.add_thermal_grid({340.0, 400.0, 500.0});
  ASSERT_EQ(c.num_scenarios(), 24);

  const CampaignReport r = c.run(f.ds.test);
  ASSERT_EQ(r.scenarios.size(), 24u);
  EXPECT_EQ(r.chips, 2);

  const auto sup = r.for_model("suppressed");
  const auto cor = r.for_model("corrected");
  ASSERT_EQ(sup.size(), 12u);
  ASSERT_EQ(cor.size(), 12u);
  for (size_t i = 0; i < sup.size(); ++i) {
    EXPECT_EQ(sup[i]->fault_kind, cor[i]->fault_kind);
    EXPECT_EQ(sup[i]->severity, cor[i]->severity);
    EXPECT_FALSE(sup[i]->compensation);
    EXPECT_TRUE(cor[i]->compensation);
    ASSERT_EQ(sup[i]->acc.samples.size(), 2u);
    for (size_t s = 0; s < 2; ++s)
      EXPECT_DOUBLE_EQ(sup[i]->acc.samples[s], cor[i]->acc.samples[s])
          << "pairing broken at scenario " << i;
  }
  EXPECT_DOUBLE_EQ(r.mean_accuracy("suppressed"), r.mean_accuracy("corrected"));

  // Catastrophic accounting: totals equal the sum over rows, and the harsh
  // scenarios (50% stuck cells) must degrade below the mild ones.
  int64_t sum = 0;
  for (const ScenarioResult& s : r.scenarios) sum += s.catastrophic;
  EXPECT_EQ(sum, r.total_catastrophic());
  double harsh = 1.0, mild = 0.0;
  for (const ScenarioResult& s : r.scenarios) {
    if (s.fault_kind == "stuck_at" && s.severity == 0.5) harsh = s.acc.mean;
    if (s.fault_kind == "stuck_at" && s.severity == 0.005) mild = s.acc.mean;
  }
  EXPECT_LT(harsh, mild);

  // JSON report: headline keys and one row per scenario.
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"name\": \"faultsim_campaign\""), std::string::npos);
  EXPECT_NE(j.find("\"scenarios\": ["), std::string::npos);
  EXPECT_NE(j.find("\"fault\": \"thermal\""), std::string::npos);
  EXPECT_NE(j.find("\"compensation\": true"), std::string::npos);
  size_t rows = 0;
  for (size_t p = j.find("\"fault\":"); p != std::string::npos;
       p = j.find("\"fault\":", p + 1))
    ++rows;
  EXPECT_EQ(rows, 24u);
}

TEST(Campaign, SequentialVsParallelReportsAreByteIdentical) {
  // The scheduling-independence contract: the CampaignReport JSON — every
  // sample, every remap defect count, every aggregate — must be
  // byte-identical whether scenarios run one at a time or N at a time, with
  // the matched-pair remap axis on (the axis most sensitive to seed
  // misalignment). Concurrency beyond the shared pool width provisions a
  // dedicated scheduler pool, so this exercises real concurrency even on a
  // 1-core box.
  auto& f = fixture();
  auto make = [&](int64_t parallel) {
    CampaignOptions co;
    co.chips = 2;
    co.seed = 77;
    co.batch_size = 32;
    co.parallel_scenarios = parallel;
    co.dev = quiet_dev();
    co.dev.program_sigma = 0.1f;
    co.dev.readout.read_sigma = 0.05f;  // the stochastic read path too
    co.remap.enabled = true;
    Campaign c(co);
    c.add_model("baseline", f.model, false);
    c.add_fault(fault_free());
    c.add_fault(stuck_at(0.05));
    c.add_fault(drift(100.0));
    c.add_fault(ir_drop(0.1));
    c.add_fault(thermal(400.0));
    return c;
  };
  CampaignReport seq = make(1).run(f.ds.test);
  ASSERT_EQ(seq.scenarios.size(), 10u);  // 5 fault specs x 2 remap variants
  seq.wall_s = 0.0;
  const std::string ref = seq.to_json();
  for (int64_t parallel : {2, 4}) {
    CampaignReport par = make(parallel).run(f.ds.test);
    par.wall_s = 0.0;
    EXPECT_EQ(par.to_json(), ref) << "parallel_scenarios=" << parallel;
  }
}

TEST(Campaign, ConcurrentFarmsOnSharedPoolMatchSequential) {
  // Stress the farm/engine concurrency contract the scheduler depends on:
  // many crossbar farms built from one shared base model, programming and
  // evaluating at once, must each reproduce exactly what they produce alone.
  // Shared inputs (base model, fault models, dataset) are read-only; every
  // mutable structure is per-farm.
  auto& f = fixture();
  const FaultSpec spec = stuck_at(0.05);
  const analog::FaultList list = spec.list();
  analog::RramDeviceParams dev = quiet_dev();
  dev.program_sigma = 0.1f;
  dev.readout.read_sigma = 0.05f;
  constexpr int64_t kJobs = 8;
  auto eval_job = [&](int64_t i) {
    runtime::ChipFarmOptions fo;
    fo.instances = 2;
    fo.seed = 100 + static_cast<uint64_t>(i);
    fo.max_live = 1;
    runtime::ChipFarm farm(f.model, dev, fo, list);
    runtime::McEngineOptions eo;
    eo.batch_size = 32;
    return runtime::McEngine(farm, eo).accuracy(f.ds.test).samples;
  };
  std::vector<std::vector<double>> alone(kJobs), together(kJobs);
  for (int64_t i = 0; i < kJobs; ++i) alone[static_cast<size_t>(i)] = eval_job(i);
  runtime::parallel_indexed(kJobs, 4, [&](int64_t i) {
    together[static_cast<size_t>(i)] = eval_job(i);
  });
  for (int64_t i = 0; i < kJobs; ++i) {
    ASSERT_EQ(alone[static_cast<size_t>(i)].size(),
              together[static_cast<size_t>(i)].size());
    for (size_t s = 0; s < alone[static_cast<size_t>(i)].size(); ++s)
      EXPECT_EQ(alone[static_cast<size_t>(i)][s],
                together[static_cast<size_t>(i)][s])
          << "farm " << i << " chip " << s;
  }
}

TEST(Campaign, RejectsNegativeParallelScenarios) {
  CampaignOptions co;
  co.parallel_scenarios = -1;
  EXPECT_THROW(Campaign{co}, std::invalid_argument);
}

TEST(Campaign, ConfigFileBuildsTheGrid) {
  const core::KeyValueConfig cfg = core::KeyValueConfig::from_string(
      "# campaign\n"
      "chips = 4\n"
      "seed = 11\n"
      "catastrophic = 0.25\n"
      "program_sigma = 0.1\n"
      "stuck.rates = 0.01, 0.05\n"
      "drift.times = 10, 100\n"
      "ir.alphas = 0.1\n"
      "thermal.temps = 400\n");
  Campaign c = campaign_from_config(cfg);
  // control + 2 + 2 + 1 + 1 fault specs; no models yet.
  EXPECT_EQ(c.num_faults(), 7);
  EXPECT_EQ(c.num_models(), 0);
  auto& f = fixture();
  c.add_model("baseline", f.model, false);
  EXPECT_EQ(c.num_scenarios(), 7);
}

}  // namespace
}  // namespace cn::faultsim
