// Fig. 9-style layer-sensitivity sweep under stuck-at device faults.
//
// The paper sweeps *variation* injection from layer i to the last layer to
// find the layers too sensitive for suppression alone. This example runs the
// same sweep with a device-fault campaign instead: chips are programmed onto
// the crossbar substrate and stuck-at cell defects are injected only into
// analog sites >= i (runtime::ChipFarm first_site + faultsim fault list),
// reusing McEngine::sensitivity_sweep unchanged.
//
// --spare N additionally runs the sweep with the fault-aware remapping
// controller on (N spare rows + N spare columns per tile, differential-pair
// swap enabled) on the *same* chip seeds, printing the matched-pair recovery
// and how many defective devices the controller absorbed.
//
// --parallel N evaluates sweep points concurrently (N at a time; 0 = auto):
// point i gets its own farm keyed exactly like McEngine::sensitivity_sweep's
// reconfigure (seed base + i*stride, injection start i), so every printed
// number is bit-identical to the sequential sweep.
//
// Numbers parse in full; a bad, out-of-range or unknown flag exits 2 before
// training.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli_tables.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "faultsim/fault_models.h"
#include "models/lenet.h"
#include "runtime/chip_farm.h"
#include "runtime/mc_engine.h"
#include "runtime/scheduler.h"

namespace {

// The Fig. 9 sweep with scenario-level concurrency: one farm per point
// instead of re-keying a single farm, seeded to match
// McEngine::sensitivity_sweep (its exported seed stride, first_site =
// point), so the results are bit-identical to the sequential engine path
// for any --parallel value.
std::vector<cn::core::SensitivityPoint> sweep_points(
    const cn::nn::Sequential& model, const cn::analog::FaultList& list,
    const cn::runtime::ChipFarmOptions& base, const cn::data::Dataset& test,
    int64_t sites, uint64_t base_seed, int64_t parallel) {
  using namespace cn;
  std::vector<core::SensitivityPoint> out(static_cast<size_t>(sites));
  const int64_t conc = runtime::effective_concurrency(parallel, sites);
  runtime::parallel_indexed(sites, conc, [&](int64_t i) {
    runtime::ChipFarmOptions fo = base;
    fo.seed =
        base_seed + static_cast<uint64_t>(i) * runtime::McEngine::kSweepSeedStride;
    fo.first_site = i;
    if (conc > 1) fo.max_live = 1;  // one model clone per in-flight point
    runtime::ChipFarm farm(model, analog::RramDeviceParams{}, fo, list);
    runtime::McEngineOptions eo;
    if (conc > 1) eo.threads = 1;
    const core::McResult r = runtime::McEngine(farm, eo).accuracy(test);
    out[static_cast<size_t>(i)] = core::SensitivityPoint{i, r.mean, r.stddev};
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  const auto tables = examples::sweep_tables();
  const auto flags = examples::scan_or_usage(argc, argv, 1, "", tables);
  const examples::SweepArgs args =
      examples::read_or_exit(argv[0], examples::sweep_table(), {}, flags[0]);
  // Out-of-range values fail before training, like correctnet_cli faults.
  if (!(args.rate >= 0 && args.rate <= 1) || args.chips < 1 ||
      args.spare.value_or(0) < 0 || args.parallel < 0)
    examples::usage(argv[0], "", tables);

  data::DigitsSpec spec;
  spec.train_count = 800;
  spec.test_count = 200;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(2023);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  core::TrainConfig cfg;
  cfg.epochs = 3;
  std::printf("[train] LeNet5-Digits (%d epochs)...\n", cfg.epochs);
  core::train(model, ds.train, ds.test, cfg);
  const float clean = core::evaluate(model, ds.test);

  const faultsim::FaultSpec fault = faultsim::stuck_at(args.rate);
  const analog::FaultList flist = fault.list();
  const int64_t sites = static_cast<int64_t>(model.analog_sites().size());
  runtime::ChipFarmOptions fo;
  fo.instances = args.chips;
  fo.seed = 42;
  const auto sweep =
      sweep_points(model, flist, fo, ds.test, sites, /*base_seed=*/42, args.parallel);

  const bool remapping = args.spare.has_value();
  std::vector<core::SensitivityPoint> remapped;
  remap::RemapStats absorbed_at_full;
  if (remapping) {
    runtime::ChipFarmOptions ro = fo;
    ro.remap.enabled = true;
    ro.remap.spare_rows = *args.spare;
    ro.remap.spare_cols = *args.spare;
    // Same base seed: point i runs under the seed the unremapped sweep
    // used, so each pair of rows sees identical defect maps.
    remapped =
        sweep_points(model, flist, ro, ds.test, sites, /*base_seed=*/42, args.parallel);
    // Repair accounting at the full-injection point (faults from site 0).
    runtime::ChipFarm rfarm(model, analog::RramDeviceParams{}, ro, flist);
    for (int64_t s = 0; s < args.chips; ++s)
      absorbed_at_full += rfarm.chip_remap_stats(s);
  }

  std::printf("\nstuck-at layer sensitivity (rate %.3f, %d chips, clean %.2f%%):\n",
              args.rate, args.chips, 100.0f * clean);
  if (remapping)
    std::printf("  %-28s %-18s %s\n", "faults injected from site",
                "no remap", "remap");
  else
    std::printf("  %-28s %-10s %s\n", "faults injected from site", "mean", "stddev");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const auto& p = sweep[i];
    if (remapping) {
      std::printf("  site %2lld .. last               %6.2f%%          %6.2f%%\n",
                  static_cast<long long>(p.first_site), 100.0 * p.mean,
                  100.0 * remapped[i].mean);
    } else {
      std::printf("  site %2lld .. last               %6.2f%%   %5.2f%%\n",
                  static_cast<long long>(p.first_site), 100.0 * p.mean,
                  100.0 * p.stddev);
    }
  }
  if (remapping) {
    std::printf("\nremap controller at full injection (%d chips, %lld spare "
                "rows+cols per tile):\n  %lld defective devices, %lld absorbed "
                "(%lld swapped, %lld spared), %lld residual\n",
                args.chips, static_cast<long long>(*args.spare),
                static_cast<long long>(absorbed_at_full.defects),
                static_cast<long long>(absorbed_at_full.absorbed()),
                static_cast<long long>(absorbed_at_full.swapped),
                static_cast<long long>(absorbed_at_full.spared),
                static_cast<long long>(absorbed_at_full.residual));
  }
  std::printf("\nreading: the earlier the first faulty layer, the larger the "
              "drop — early\nlayers amplify device faults exactly like they "
              "amplify programming variation\n(paper Fig. 9), which is what "
              "makes them compensation candidates.\n");
  return 0;
}
