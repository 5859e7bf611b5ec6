// Run-to-run determinism: a repeated campaign and a repeated ChipFarm
// Monte-Carlo must reproduce byte-identical results — every per-chip
// accuracy sample and the emitted JSON report. Untrained models keep this
// fast; determinism does not care about accuracy.
#include <string>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "faultsim/campaign.h"
#include "models/lenet.h"
#include "runtime/chip_farm.h"
#include "runtime/mc_engine.h"

namespace cn {
namespace {

analog::RramDeviceParams quiet_dev() {
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  dev.program_sigma = 0.1f;
  return dev;
}

// Untrained model + tiny dataset: enough to exercise every execution path.
struct Fixture {
  data::SplitDataset ds;
  nn::Sequential model{"m"};

  Fixture() {
    data::DigitsSpec spec;
    spec.train_count = 40;  // unused (no training), keep synthesis cheap
    spec.test_count = 60;
    ds = data::make_digits(spec);
    Rng rng(1);
    model = models::lenet5(1, 28, 10, rng);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

faultsim::Campaign make_campaign(const nn::Sequential& model) {
  faultsim::CampaignOptions co;
  co.chips = 2;
  co.seed = 42;
  co.batch_size = 32;
  co.dev = quiet_dev();
  co.dev.readout.read_sigma = 0.05f;  // the stochastic read path too
  co.remap.enabled = true;            // and the remap axis
  faultsim::Campaign c(co);
  c.add_model("baseline", model, false);
  c.add_fault(faultsim::fault_free());
  c.add_fault(faultsim::stuck_at(0.05));
  c.add_fault(faultsim::drift(100.0));
  c.add_fault(faultsim::ir_drop(0.1));
  c.add_fault(faultsim::thermal(400.0));
  return c;
}

TEST(Determinism, CampaignRerunIsByteIdentical) {
  auto& f = fixture();
  faultsim::CampaignReport a = make_campaign(f.model).run(f.ds.test);
  faultsim::CampaignReport b = make_campaign(f.model).run(f.ds.test);

  ASSERT_EQ(a.scenarios.size(), 10u);  // 5 fault specs x 2 remap variants
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (size_t i = 0; i < a.scenarios.size(); ++i) {
    const faultsim::ScenarioResult& x = a.scenarios[i];
    const faultsim::ScenarioResult& y = b.scenarios[i];
    ASSERT_EQ(x.acc.samples.size(), y.acc.samples.size());
    for (size_t s = 0; s < x.acc.samples.size(); ++s)
      ASSERT_EQ(x.acc.samples[s], y.acc.samples[s])
          << "scenario " << i << " chip " << s;
    EXPECT_EQ(x.absorbed, y.absorbed);
    EXPECT_EQ(x.residual, y.residual);
    EXPECT_EQ(x.catastrophic, y.catastrophic);
  }
  // Byte-identical reports once the one nondeterministic field (wall-clock)
  // is normalized away.
  a.wall_s = 0.0;
  b.wall_s = 0.0;
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(Determinism, CrossbarFarmMcRerunIsBitIdentical) {
  auto& f = fixture();
  const faultsim::FaultSpec spec = faultsim::stuck_at(0.05);
  auto run = [&]() {
    runtime::ChipFarmOptions fo;
    fo.instances = 3;
    fo.seed = 7;
    analog::RramDeviceParams dev = quiet_dev();
    dev.readout.read_sigma = 0.05f;
    runtime::ChipFarm farm(f.model, dev, fo, spec.list());
    runtime::McEngineOptions eo;
    eo.batch_size = 32;
    return runtime::McEngine(farm, eo).accuracy(f.ds.test);
  };
  const core::McResult a = run();
  const core::McResult b = run();
  ASSERT_EQ(a.samples.size(), 3u);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (size_t s = 0; s < a.samples.size(); ++s)
    ASSERT_EQ(a.samples[s], b.samples[s]) << "chip " << s;
  ASSERT_EQ(a.mean, b.mean);
  ASSERT_EQ(a.stddev, b.stddev);
}

TEST(Determinism, FactorFarmMcRerunIsBitIdentical) {
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.4f};
  auto run = [&]() {
    runtime::ChipFarmOptions fo;
    fo.instances = 4;
    fo.seed = 13;
    runtime::ChipFarm farm(f.model, vm, fo);
    runtime::McEngineOptions eo;
    eo.batch_size = 32;
    return runtime::McEngine(farm, eo).accuracy(f.ds.test);
  };
  const core::McResult a = run();
  const core::McResult b = run();
  ASSERT_EQ(a.samples.size(), 4u);
  for (size_t s = 0; s < a.samples.size(); ++s)
    ASSERT_EQ(a.samples[s], b.samples[s]) << "chip " << s;
}

}  // namespace
}  // namespace cn
