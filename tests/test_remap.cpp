// The fault-aware remapping subsystem: controller planning (benign
// classification, differential-pair swap, cost-ranked greedy spare-line
// assignment), the construction-time remap transform's determinism and
// bit-exactness contracts, and the campaign's matched-pair remap-on/off
// protection axis.
#include "remap/remap.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "analog/crossbar_layers.h"
#include "core/compensation.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "exec_testutil.h"
#include "faultsim/campaign.h"
#include "models/lenet.h"
#include "obs/metrics.h"
#include "runtime/chip_farm.h"
#include "runtime/mc_engine.h"
#include "tensor/ops.h"

namespace cn::remap {
namespace {

constexpr float kGMin = 1e-6f;
constexpr float kGMax = 1e-4f;

analog::RramDeviceParams quiet_dev() {
  analog::RramDeviceParams dev;
  dev.g_min = kGMin;
  dev.g_max = kGMax;
  return dev;
}

RemapParams full_params(int64_t spare_rows = 2, int64_t spare_cols = 2,
                        bool swap = true) {
  RemapParams p;
  p.enabled = true;
  p.spare_rows = spare_rows;
  p.spare_cols = spare_cols;
  p.pair_swap = swap;
  return p;
}

// Shared tiny trained model + dataset (mirrors test_faultsim's fixture).
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

// ---------- controller planning ----------

TEST(RemapController, PairSwapMovesTheErrorOntoTheHealthyPartner) {
  // 2x2 tile, mid-range targets; G+ of cell 1 stuck at g_max. The partner
  // must absorb the full shift so the pair difference is restored.
  const std::vector<float> gp_pre = {2e-5f, 3e-5f, 4e-5f, 5e-5f};
  const std::vector<float> gn_pre = {1e-5f, 2e-5f, 1e-5f, 1e-5f};
  DefectMap defects = {{1, /*neg=*/false, kGMax}};
  const RemapController ctl(full_params());
  const RemapPlan plan = ctl.plan(defects, 2, 2, gp_pre.data(), gn_pre.data(),
                                  kGMin, kGMax);
  ASSERT_EQ(plan.fixes.size(), 1u);
  EXPECT_EQ(plan.fixes[0].fix, Fix::kPairSwap);
  // G-' = G-_target + (stuck - G+_target); difference preserved.
  const float expect_partner = gn_pre[1] + (kGMax - gp_pre[1]);
  EXPECT_FLOAT_EQ(plan.fixes[0].partner_g, expect_partner);

  std::vector<float> gp = gp_pre, gn = gn_pre;
  gp[1] = kGMax;  // the fault the defect map describes
  const RemapStats st = ctl.apply(plan, gp.data(), gn.data(), gp_pre.data(),
                                  gn_pre.data());
  EXPECT_EQ(st.swapped, 1);
  EXPECT_EQ(st.absorbed(), 1);
  EXPECT_EQ(st.residual, 0);
  EXPECT_NEAR(gp[1] - gn[1], gp_pre[1] - gn_pre[1], 1e-10f);
}

TEST(RemapController, InfeasibleSwapFallsBackToSpares) {
  // G+ stuck LOW under a strongly positive target difference: the partner
  // would need a conductance below g_min, so the swap is infeasible and the
  // defect must consume a spare line instead.
  const std::vector<float> gp_pre = {9e-5f};
  const std::vector<float> gn_pre = {1e-6f};
  DefectMap defects = {{0, false, kGMin}};
  const RemapController ctl(full_params(1, 0));
  const RemapPlan plan =
      ctl.plan(defects, 1, 1, gp_pre.data(), gn_pre.data(), kGMin, kGMax);
  ASSERT_EQ(plan.fixes.size(), 1u);
  EXPECT_EQ(plan.fixes[0].fix, Fix::kSpareRow);

  // Without any budget the defect stays residual.
  const RemapController none(full_params(0, 0, /*swap=*/false));
  const RemapPlan stuck =
      none.plan(defects, 1, 1, gp_pre.data(), gn_pre.data(), kGMin, kGMax);
  EXPECT_EQ(stuck.fixes[0].fix, Fix::kResidual);
}

TEST(RemapController, BenignAndBothStuckPairsClassifyCorrectly) {
  // Cell 0: G- stuck exactly at its target (benign). Cell 1: both devices
  // stuck (no healthy partner) -> swap impossible.
  const std::vector<float> gp_pre = {2e-5f, 3e-5f};
  const std::vector<float> gn_pre = {kGMin, 1e-5f};
  DefectMap defects = {
      {0, true, kGMin},    // benign: target already g_min
      {1, false, kGMax},   // partner also stuck
      {1, true, kGMin},
  };
  const RemapController ctl(full_params(0, 0));  // swap only
  const RemapPlan plan =
      ctl.plan(defects, 1, 2, gp_pre.data(), gn_pre.data(), kGMin, kGMax);
  ASSERT_EQ(plan.fixes.size(), 3u);
  EXPECT_EQ(plan.fixes[0].fix, Fix::kBenign);
  EXPECT_EQ(plan.fixes[1].fix, Fix::kResidual);
  EXPECT_EQ(plan.fixes[2].fix, Fix::kResidual);

  std::vector<float> gp = {kGMax, kGMax};
  std::vector<float> gn = {kGMin, kGMin};
  const RemapStats st =
      ctl.apply(plan, gp.data(), gn.data(), gp_pre.data(), gn_pre.data());
  EXPECT_EQ(st.defects, 3);
  EXPECT_EQ(st.benign, 1);
  EXPECT_EQ(st.residual, 2);
  EXPECT_EQ(st.defects, st.benign + st.swapped + st.spared + st.residual);
}

TEST(RemapController, GreedySpareAssignmentRepairsTheWorstLinesFirst) {
  // 3x3 tile, swap disabled. Row 1 carries two large defects, column 2 one
  // medium defect, cell (0,0) one small defect. Budget: 1 spare row + 1
  // spare col -> the greedy pass must spend the row on row 1 and the column
  // on column 2, leaving the small defect residual.
  std::vector<float> gp_pre(9, 5e-5f);
  std::vector<float> gn_pre(9, 5e-5f);
  DefectMap defects = {
      {0, false, 4.5e-5f},     // (0,0): small error 0.5e-5
      {3, false, kGMin},       // (1,0): large
      {5, false, kGMin},       // (1,2): large
      {8, true, 1e-5f},        // (2,2): medium error 4e-5
  };
  const RemapController ctl(full_params(1, 1, /*swap=*/false));
  const RemapPlan plan =
      ctl.plan(defects, 3, 3, gp_pre.data(), gn_pre.data(), kGMin, kGMax);
  ASSERT_EQ(plan.spare_row_lines.size(), 1u);
  ASSERT_EQ(plan.spare_col_lines.size(), 1u);
  EXPECT_EQ(plan.spare_row_lines[0], 1);
  EXPECT_EQ(plan.spare_col_lines[0], 2);
  EXPECT_EQ(plan.fixes[0].fix, Fix::kResidual);   // small defect unlucky
  EXPECT_EQ(plan.fixes[1].fix, Fix::kSpareRow);
  EXPECT_EQ(plan.fixes[2].fix, Fix::kSpareRow);   // row repair covers (1,2)
  EXPECT_EQ(plan.fixes[3].fix, Fix::kSpareCol);

  std::vector<float> gp = gp_pre, gn = gn_pre;
  gp[0] = 4.5e-5f;
  gp[3] = kGMin;
  gp[5] = kGMin;
  gn[8] = 1e-5f;
  const RemapStats st =
      ctl.apply(plan, gp.data(), gn.data(), gp_pre.data(), gn_pre.data());
  EXPECT_EQ(st.spared, 3);
  EXPECT_EQ(st.residual, 1);
  EXPECT_EQ(st.spare_rows_used, 1);
  EXPECT_EQ(st.spare_cols_used, 1);
  // Spared devices read back their pre-fault values; the residual stays.
  EXPECT_FLOAT_EQ(gp[3], gp_pre[3]);
  EXPECT_FLOAT_EQ(gp[5], gp_pre[5]);
  EXPECT_FLOAT_EQ(gn[8], gn_pre[8]);
  EXPECT_FLOAT_EQ(gp[0], 4.5e-5f);
}

// ---------- construction-time transform contracts ----------

TEST(RemapArray, ZeroDefectMapIsANoOpWithNoRngDraws) {
  analog::RramDeviceParams dev = quiet_dev();
  dev.program_sigma = 0.2f;
  Rng wrng(3);
  Tensor w({12, 18});
  wrng.fill_normal(w, 0.0f, 0.5f);

  faultsim::FaultSpec zero;
  zero.models.push_back(std::make_shared<faultsim::StuckAtFault>(0.0, 0.0));
  const analog::FaultList list = zero.list();
  const RemapParams params = full_params();

  Rng prog_a(7), prog_b(7);
  analog::CrossbarArray clean(w, dev, prog_a, /*tile=*/8);
  analog::CrossbarArray remapped(w, dev, prog_b, /*tile=*/8, &list, &params);
  // Identical rng stream positions afterwards: remapping drew nothing.
  EXPECT_EQ(prog_a.next_u64(), prog_b.next_u64());
  const Tensor we_clean = clean.effective_weights();
  const Tensor we_remap = remapped.effective_weights();
  for (int64_t i = 0; i < we_clean.size(); ++i)
    ASSERT_EQ(we_clean[i], we_remap[i]) << "weight " << i;
  const RemapStats st = remapped.remap_stats();
  EXPECT_EQ(st.defects, 0);
  EXPECT_EQ(st.absorbed(), 0);
  EXPECT_EQ(st.residual, 0);
}

TEST(RemapArray, MatchedPairSeesIdenticalDefectMapsAndNeverLosesAccuracyPerWeight) {
  // Remap-on and remap-off arrays built from one seed realize the same
  // faults (same rng draws), and on an ideal device every remapped weight is
  // at least as close to the clean weight as its unremapped twin — repairs
  // only ever restore cells toward their targets.
  const analog::RramDeviceParams dev = quiet_dev();  // sigma 0: targets exact
  Rng wrng(5);
  Tensor w({16, 24});
  wrng.fill_normal(w, 0.0f, 0.5f);
  const faultsim::FaultSpec spec = faultsim::stuck_at(0.08);
  const analog::FaultList list = spec.list();
  const RemapParams params = full_params();

  Rng prog_clean(11), prog_off(11), prog_on(11);
  analog::CrossbarArray clean(w, dev, prog_clean, /*tile=*/8);
  analog::CrossbarArray off(w, dev, prog_off, /*tile=*/8, &list);
  analog::CrossbarArray on(w, dev, prog_on, /*tile=*/8, &list, &params);
  // Same draws either way: the streams end at the same position.
  EXPECT_EQ(prog_off.next_u64(), prog_on.next_u64());

  const Tensor wc = clean.effective_weights();
  const Tensor wo = off.effective_weights();
  const Tensor wr = on.effective_weights();
  double err_off = 0.0, err_on = 0.0;
  for (int64_t i = 0; i < wc.size(); ++i) {
    const double eo = std::abs(static_cast<double>(wo[i]) - wc[i]);
    const double er = std::abs(static_cast<double>(wr[i]) - wc[i]);
    // Each weight is clean, swap-restored (float-rounding error only), or
    // exactly the unremapped faulted value; the epsilon covers swap
    // rounding, orders of magnitude below any real defect error.
    ASSERT_LE(er, eo + 1e-5) << "weight " << i;
    err_off += eo;
    err_on += er;
  }
  const RemapStats st = on.remap_stats();
  EXPECT_GT(st.defects, 0);
  EXPECT_GT(st.absorbed(), 0);
  EXPECT_EQ(st.defects, st.benign + st.swapped + st.spared + st.residual);
  // The controller genuinely moved the needle.
  EXPECT_LT(err_on, 0.8 * err_off);
}

TEST(RemapArray, CompositeFaultListRepairsAgainstThePerModelTargets) {
  // Stuck-at stacked on drift: repairs run per model against the values
  // that model disturbed, so a repaired device reads back its *drifted*
  // value — per weight no worse than the unremapped twin when compared to a
  // drift-only reference — and the rng streams stay aligned with remap off.
  // One tile on purpose: the drift-only reference consumes no stuck-at
  // draws, so its stream only matches the full list up to the first tile.
  const analog::RramDeviceParams dev = quiet_dev();  // sigma 0: drift is the
                                                     // only soft source
  Rng wrng(17);
  Tensor w({14, 20});
  wrng.fill_normal(w, 0.0f, 0.5f);

  const auto drift_model = std::make_shared<faultsim::DriftFault>(100.0);
  const auto stuck_model = std::make_shared<faultsim::StuckAtFault>(0.05, 0.05);
  const analog::FaultList soft = {drift_model.get()};
  const analog::FaultList full = {drift_model.get(), stuck_model.get()};
  const RemapParams params = full_params();

  Rng prog_soft(41), prog_off(41), prog_on(41);
  analog::CrossbarArray ref(w, dev, prog_soft, /*tile=*/128, &soft);
  analog::CrossbarArray off(w, dev, prog_off, /*tile=*/128, &full);
  analog::CrossbarArray on(w, dev, prog_on, /*tile=*/128, &full, &params);
  // Remap draws nothing: the full-list streams end at the same position.
  EXPECT_EQ(prog_off.next_u64(), prog_on.next_u64());

  const Tensor wref = ref.effective_weights();
  const Tensor wo = off.effective_weights();
  const Tensor wr = on.effective_weights();
  double err_off = 0.0, err_on = 0.0;
  for (int64_t i = 0; i < wref.size(); ++i) {
    const double eo = std::abs(static_cast<double>(wo[i]) - wref[i]);
    const double er = std::abs(static_cast<double>(wr[i]) - wref[i]);
    ASSERT_LE(er, eo + 1e-5) << "weight " << i;
    err_off += eo;
    err_on += er;
  }
  EXPECT_GT(on.remap_stats().absorbed(), 0);
  EXPECT_LT(err_on, err_off);

  // And the bit-exactness contract holds for the composite list too.
  Tensor x({4, 20});
  wrng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y_batch = on.matmul(x);
  Tensor xi({20});
  for (int64_t n = 0; n < 4; ++n) {
    std::copy(x.data() + n * 20, x.data() + (n + 1) * 20, xi.data());
    const Tensor yi = on.matvec(xi);
    for (int64_t o = 0; o < 14; ++o)
      ASSERT_EQ(y_batch[n * 14 + o], yi[o]) << n << "," << o;
  }
}

TEST(RemapCampaign, InertRemapAxisFailsLoudly) {
  // remap = 1 with every repair move off would double the grid with no-op
  // rows; the campaign must reject it up front.
  faultsim::CampaignOptions co;
  co.remap.enabled = true;
  co.remap.spare_rows = 0;
  co.remap.spare_cols = 0;
  co.remap.pair_swap = false;
  EXPECT_THROW(faultsim::Campaign c(co), std::invalid_argument);
}

TEST(RemapArray, RemappedChipsAreSeedPure) {
  // Same seed -> same plan and same effective weights, run after run.
  const analog::RramDeviceParams dev = quiet_dev();
  Rng wrng(9);
  Tensor w({10, 14});
  wrng.fill_normal(w, 0.0f, 0.5f);
  const faultsim::FaultSpec spec = faultsim::stuck_at(0.1);
  const analog::FaultList list = spec.list();
  const RemapParams params = full_params(1, 1);

  Rng prog_a(21), prog_b(21);
  analog::CrossbarArray a(w, dev, prog_a, /*tile=*/6, &list, &params);
  analog::CrossbarArray b(w, dev, prog_b, /*tile=*/6, &list, &params);
  const Tensor wa = a.effective_weights();
  const Tensor wb = b.effective_weights();
  for (int64_t i = 0; i < wa.size(); ++i) ASSERT_EQ(wa[i], wb[i]);
  const RemapStats sa = a.remap_stats(), sb = b.remap_stats();
  EXPECT_EQ(sa.defects, sb.defects);
  EXPECT_EQ(sa.swapped, sb.swapped);
  EXPECT_EQ(sa.spared, sb.spared);
  EXPECT_EQ(sa.residual, sb.residual);
  EXPECT_EQ(sa.spare_rows_used, sb.spare_rows_used);
  EXPECT_EQ(sa.spare_cols_used, sb.spare_cols_used);
}

TEST(RemapArray, MatmulAndMatvecStayBitIdenticalUnderRemap) {
  // Remapping re-lowers the tile before any batched execution, so the
  // bit-exactness contract must survive it — including with the full
  // periphery stack on.
  analog::RramDeviceParams dev = quiet_dev();
  dev.program_sigma = 0.15f;
  dev.conductance_levels = 16;
  dev.readout.adc_bits = 8;
  dev.readout.dac_bits = 6;
  constexpr int64_t kIn = 23, kOut = 11, kBatch = 6;
  Rng rng(31);
  Tensor w({kOut, kIn});
  rng.fill_normal(w, 0.0f, 0.5f);
  const faultsim::FaultSpec spec = faultsim::stuck_at(0.1);
  const analog::FaultList list = spec.list();
  const RemapParams params = full_params();
  Rng prog(32);
  analog::CrossbarArray xbar(w, dev, prog, /*tile=*/8, &list, &params);
  EXPECT_GT(xbar.remap_stats().defects, 0);

  Tensor x({kBatch, kIn});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y_batch = xbar.matmul(x);
  Tensor x_cm({kIn, kBatch});
  for (int64_t n = 0; n < kBatch; ++n)
    for (int64_t k = 0; k < kIn; ++k) x_cm[k * kBatch + n] = x[n * kIn + k];
  const Tensor y_cols = xbar.matmul_cols(x_cm);
  Tensor xi({kIn});
  for (int64_t n = 0; n < kBatch; ++n) {
    std::copy(x.data() + n * kIn, x.data() + (n + 1) * kIn, xi.data());
    const Tensor yi = xbar.matvec(xi);
    for (int64_t o = 0; o < kOut; ++o) {
      ASSERT_EQ(y_batch[n * kOut + o], yi[o]) << "matmul " << n << "," << o;
      ASSERT_EQ(y_cols[n * kOut + o], yi[o]) << "matmul_cols " << n << "," << o;
    }
  }
}

TEST(RemapFarm, SamplesAndStatsIdenticalAcrossThreadAndSlotCounts) {
  auto& f = fixture();
  const analog::RramDeviceParams dev = quiet_dev();
  const faultsim::FaultSpec spec = faultsim::stuck_at(0.05);

  auto run = [&](int64_t max_live, int threads) {
    runtime::ChipFarmOptions fo;
    fo.instances = 3;
    fo.seed = 77;
    fo.max_live = max_live;
    fo.remap = full_params();
    runtime::ChipFarm farm(f.model, dev, fo, spec.list());
    runtime::McEngineOptions eo;
    eo.batch_size = 32;
    eo.threads = threads;
    const core::McResult acc = runtime::McEngine(farm, eo).accuracy(f.ds.test);
    RemapStats st;
    for (int64_t s = 0; s < 3; ++s) st += farm.chip_remap_stats(s);
    return std::make_pair(acc, st);
  };
  const auto [acc_serial, st_serial] = run(1, 1);
  const auto [acc_pooled, st_pooled] = run(3, 0);
  ASSERT_EQ(acc_serial.samples.size(), 3u);
  for (size_t s = 0; s < 3; ++s)
    EXPECT_DOUBLE_EQ(acc_serial.samples[s], acc_pooled.samples[s]) << "chip " << s;
  EXPECT_GT(st_serial.defects, 0);
  EXPECT_EQ(st_serial.defects, st_pooled.defects);
  EXPECT_EQ(st_serial.swapped, st_pooled.swapped);
  EXPECT_EQ(st_serial.spared, st_pooled.spared);
  EXPECT_EQ(st_serial.residual, st_pooled.residual);
}

// ---------- campaign protection axis ----------

TEST(RemapCampaign, MatchedPairGridAbsorbsDefectsAndNeverTrailsRemapOff) {
  // The acceptance grid: stuck-at ladder x {remap off, remap on} under
  // matched per-scenario seeds. Remap-on must absorb at least the per-tile
  // spare budget in defective devices and post accuracy >= remap-off at
  // every severity; the fault-free control row must be bit-identical across
  // the axis with nothing to absorb.
  auto& f = fixture();
  faultsim::CampaignOptions co;
  co.chips = 3;
  co.seed = 99;
  co.batch_size = 32;
  co.dev = quiet_dev();  // ideal device: defects are the only error source
  co.remap = full_params(2, 2);
  faultsim::Campaign c(co);
  c.add_model("baseline", f.model, false);
  c.add_fault(faultsim::fault_free());
  c.add_stuck_at_grid({0.02, 0.05, 0.1});
  ASSERT_EQ(c.num_scenarios(), 8);  // 4 fault specs x 1 model x 2 remap variants

  const faultsim::CampaignReport r = c.run(f.ds.test);
  ASSERT_EQ(r.scenarios.size(), 8u);
  const auto off = r.for_model("baseline", false);
  const auto on = r.for_model("baseline", true);
  ASSERT_EQ(off.size(), 4u);
  ASSERT_EQ(on.size(), 4u);
  const int64_t budget = co.remap.spare_rows + co.remap.spare_cols;
  for (size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off[i]->fault_kind, on[i]->fault_kind);
    ASSERT_EQ(off[i]->severity, on[i]->severity);
    if (off[i]->fault_kind == "none") {
      // Control: remapping a defect-free chip changes nothing at all.
      ASSERT_EQ(off[i]->acc.samples.size(), on[i]->acc.samples.size());
      for (size_t s = 0; s < off[i]->acc.samples.size(); ++s)
        EXPECT_DOUBLE_EQ(off[i]->acc.samples[s], on[i]->acc.samples[s]);
      EXPECT_EQ(on[i]->defects, 0);
      EXPECT_EQ(on[i]->absorbed, 0);
      continue;
    }
    // Matched pairs: any gap is the controller's doing.
    EXPECT_GE(on[i]->acc.mean, off[i]->acc.mean)
        << off[i]->fault_kind << " @ " << off[i]->severity;
    EXPECT_GE(on[i]->absorbed, budget)
        << off[i]->fault_kind << " @ " << off[i]->severity;
    EXPECT_GT(on[i]->defects, 0);
    EXPECT_GE(on[i]->defects, on[i]->absorbed + on[i]->residual);
  }
  EXPECT_GE(r.total_absorbed(), 3 * budget);

  // Report plumbing: the JSON carries the axis and the repair accounting.
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"remap\": true"), std::string::npos);
  EXPECT_NE(j.find("\"remap\": false"), std::string::npos);
  EXPECT_NE(j.find("\"absorbed\":"), std::string::npos);
  EXPECT_NE(j.find("\"total_absorbed\":"), std::string::npos);
  EXPECT_GT(r.mean_accuracy("baseline", true),
            r.mean_accuracy("baseline", false) - 1e-12);
}

TEST(RemapCampaign, InertRemapArmsEqualRealRemapOnChipsAndAreEvaluatedOnce) {
  // Soft fault specs give remapping nothing to act on, so the campaign
  // evaluates each such (fault, model) pair once and copies it into the
  // remap-on row. Each copied row must equal a really remapped farm built
  // independently with that cell's scenario seed, sample for sample.
  auto& f = fixture();
  Rng comp_rng(5);
  const nn::Sequential corrected =
      core::with_compensation(f.model, core::CompensationPlan{{{0, 2}}}, comp_rng);
  faultsim::CampaignOptions co;
  co.chips = 3;
  co.seed = 1234;
  co.batch_size = 32;
  co.dev.program_sigma = 0.1f;
  co.dev.readout.read_sigma = 0.05f;
  co.remap = full_params(2, 2);
  const std::vector<faultsim::FaultSpec> specs = {
      faultsim::fault_free(), faultsim::drift(10.0), faultsim::drift(1000.0),
      faultsim::ir_drop(0.1), faultsim::thermal(400.0), faultsim::stuck_at(0.05)};
  const std::vector<std::pair<std::string, const nn::Sequential*>> models = {
      {"baseline", &f.model}, {"corrected", &corrected}};
  auto make = [&](int64_t parallel) {
    faultsim::CampaignOptions o = co;
    o.parallel_scenarios = parallel;
    faultsim::Campaign c(o);
    for (const auto& [name, m] : models) c.add_model(name, *m, name == "corrected");
    for (const faultsim::FaultSpec& spec : specs) c.add_fault(spec);
    return c;
  };

  obs::metrics().set_enabled(true);
  const uint64_t reused0 = obs::metrics().counter("campaign.cells_reused").value();
  const uint64_t jobs0 = obs::metrics().counter("sched.jobs").value();
  const uint64_t cells0 = obs::metrics().counter("campaign.scenarios").value();
  faultsim::Campaign seq = make(1);
  ASSERT_EQ(seq.num_scenarios(), 24);  // 6 specs x 2 models x 2 remap arms
  faultsim::CampaignReport r = seq.run(f.ds.test);
  // 5 soft specs x 2 models reuse their remap-off row: 24 cells, 14 jobs.
  EXPECT_EQ(obs::metrics().counter("campaign.cells_reused").value() - reused0, 10u);
  EXPECT_EQ(obs::metrics().counter("sched.jobs").value() - jobs0, 14u);
  EXPECT_EQ(obs::metrics().counter("campaign.scenarios").value() - cells0, 24u);
  EXPECT_EQ(obs::metrics().gauge("campaign.cells_done").value(), 24.0);

  ASSERT_EQ(r.scenarios.size(), 24u);
  for (size_t fi = 0; fi < specs.size(); ++fi) {
    const uint64_t scenario_seed =
        mix64(co.seed ^ (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(fi) + 1)));
    for (size_t mi = 0; mi < models.size(); ++mi) {
      const faultsim::ScenarioResult& off = r.scenarios[(fi * 2 + mi) * 2];
      const faultsim::ScenarioResult& on = r.scenarios[(fi * 2 + mi) * 2 + 1];
      ASSERT_EQ(off.fault_kind, specs[fi].kind);
      ASSERT_EQ(on.fault_kind, specs[fi].kind);
      ASSERT_EQ(on.model_name, models[mi].first);
      ASSERT_FALSE(off.remapped);
      ASSERT_TRUE(on.remapped);
      if (specs[fi].kind == "stuck_at") {
        // Stuck-at keeps both arms: the remap-on row was really repaired.
        EXPECT_GT(on.defects, 0) << models[mi].first;
        EXPECT_GT(on.absorbed, 0) << models[mi].first;
        continue;
      }
      runtime::ChipFarmOptions fo;
      fo.instances = co.chips;
      fo.seed = scenario_seed;
      fo.tile = co.tile;
      fo.remap = co.remap;
      const faultsim::FaultSpec& spec = specs[fi];
      runtime::ChipFarm farm(*models[mi].second, co.dev, fo, spec.list());
      runtime::McEngineOptions eo;
      eo.batch_size = co.batch_size;
      const core::McResult ref = runtime::McEngine(farm, eo).accuracy(f.ds.test);
      RemapStats st;
      for (int64_t s = 0; s < co.chips; ++s) st += farm.chip_remap_stats(s);
      EXPECT_EQ(st.defects, 0) << spec.kind;
      ASSERT_EQ(on.acc.samples.size(), ref.samples.size()) << spec.kind;
      for (size_t s = 0; s < ref.samples.size(); ++s)
        EXPECT_EQ(on.acc.samples[s], ref.samples[s])
            << spec.kind << "@" << spec.severity << " x " << models[mi].first
            << " chip " << s;
      EXPECT_EQ(on.acc.mean, ref.mean) << spec.kind;
      EXPECT_EQ(on.defects, 0) << spec.kind;
      EXPECT_EQ(on.absorbed, 0) << spec.kind;
      EXPECT_EQ(on.residual, 0) << spec.kind;
    }
  }

  // The reused rows keep the report independent of scheduling.
  faultsim::Campaign par = make(4);
  faultsim::CampaignReport rp = par.run(f.ds.test);
  r.wall_s = 0.0;
  rp.wall_s = 0.0;
  EXPECT_EQ(r.to_json(), rp.to_json());
}

TEST(RemapCampaign, ConfigKeysBuildTheAxisAndTyposFailLoudly) {
  const core::KeyValueConfig cfg = core::KeyValueConfig::from_string(
      "chips = 2\n"
      "remap = 1\n"
      "remap.spare_rows = 3\n"
      "remap.spare_cols = 1\n"
      "remap.pair_swap = 0\n"
      "stuck.rates = 0.05\n");
  faultsim::Campaign c = faultsim::campaign_from_config(cfg);
  // (control + 1 stuck) x 2 remap variants per registered model.
  auto& f = fixture();
  c.add_model("baseline", f.model, false);
  EXPECT_EQ(c.num_scenarios(), 4);

  // A typo'd remap key must throw, not silently run without the axis.
  const core::KeyValueConfig bad = core::KeyValueConfig::from_string(
      "remap.spare_row = 3\nstuck.rates = 0.05\n");
  EXPECT_THROW(faultsim::campaign_from_config(bad), std::runtime_error);
}

TEST(RemapFarm, FactorModeRejectsRemap) {
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.3f};
  runtime::ChipFarmOptions fo;
  fo.instances = 1;
  fo.remap.enabled = true;
  EXPECT_THROW(runtime::ChipFarm farm(f.model, vm, fo), std::invalid_argument);
}

}  // namespace
}  // namespace cn::remap
