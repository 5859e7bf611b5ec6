// bench_faultsim: fault-campaign throughput on the inference runtime.
//
// Times a faultsim::Campaign — a fault kind x severity x protection grid
// executed as crossbar chip farms on McEngine — twice: once sequentially
// (parallel_scenarios = 1) and once with scenario-level concurrency
// (--threads N; default 0 = auto, one worker per core), reporting
// scenarios/sec for both and the speedup. On a multi-core box the outer
// grid is embarrassingly parallel and the auto-width leg should be
// >= 1.5x at 2+ workers; an explicit N below the core count trades away
// the sequential leg's chip-level parallelism and can report < 1x on wide
// machines (scenario-granular scheduling — see docs/ARCHITECTURE.md). On a
// 1-core box the speedup is reported, not asserted; pass an explicit
// --threads N >= 2 there to exercise the dedicated scheduler pool (CI
// does).
//
// Also asserts the campaign determinism contracts: the parallel report must
// be byte-identical to the sequential one (scheduling independence), and a
// second parallel run must reproduce it byte for byte (run-to-run).
//
// Writes BENCH_faultsim.json (see bench::BenchJson). `--quick` shrinks the
// grid for CI smoke runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "faultsim/campaign.h"
#include "nn/fusion.h"
#include "runtime/scheduler.h"

namespace {

using Clock = std::chrono::steady_clock;

cn::faultsim::Campaign make_campaign(const cn::nn::Sequential& model, bool quick,
                                     int64_t parallel) {
  using namespace cn;
  faultsim::CampaignOptions co;
  co.chips = quick ? 2 : 6;
  co.seed = 42;
  co.batch_size = 128;
  co.parallel_scenarios = parallel;
  co.dev.program_sigma = 0.1f;
  faultsim::Campaign c(co);
  c.add_model("baseline", model, false);
  if (quick) {
    c.add_fault(faultsim::fault_free());
    c.add_stuck_at_grid({0.02});
    c.add_drift_grid({100.0});
    c.add_ir_drop_grid({0.1});
    c.add_thermal_grid({400.0});
  } else {
    c.add_fault(faultsim::fault_free());
    c.add_stuck_at_grid({0.005, 0.02, 0.05});
    c.add_drift_grid({10.0, 100.0, 1000.0});
    c.add_ir_drop_grid({0.05, 0.1});
    c.add_thermal_grid({350.0, 400.0, 500.0});
  }
  return c;
}

std::string normalized_json(cn::faultsim::CampaignReport r) {
  r.wall_s = 0.0;  // the one field that legitimately differs between runs
  return r.to_json();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bool quick = false;
  int64_t threads = 0;  // parallel-leg concurrency; 0 = auto (pool width)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = std::atoll(argv[++i]);
  }
  if (threads < 0) {  // fail at parse time, not after minutes of training
    std::fprintf(stderr, "bench_faultsim: --threads must be >= 0 (0 = auto)\n");
    return 2;
  }

  const int64_t test_count = quick ? 100 : 300;
  std::printf("== bench_faultsim (%s, %lld test images) ==\n",
              quick ? "quick" : "full", static_cast<long long>(test_count));

  data::DigitsSpec spec;
  spec.train_count = 800;
  spec.test_count = test_count;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(2023);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  std::printf("  [train] LeNet5-Digits (%d epochs)...\n", cfg.epochs);
  core::train(model, ds.train, ds.test, cfg);

  const int64_t scenarios = make_campaign(model, quick, 1).num_scenarios();
  std::printf("  [campaign] %lld scenarios, sequential leg...\n",
              static_cast<long long>(scenarios));

  // The timing legs and determinism contracts run fused; the dedicated
  // fusion-off leg below is the only unfused run.
  auto timed_run = [&](int64_t parallel, double& wall) {
    faultsim::Campaign c = make_campaign(model, quick, parallel);
    const auto t0 = Clock::now();
    faultsim::CampaignReport r = c.run(ds.test);
    wall = std::chrono::duration<double>(Clock::now() - t0).count();
    return r;
  };

  double wall_seq = 0.0, wall_par = 0.0, wall_rep = 0.0;
  const faultsim::CampaignReport seq = timed_run(1, wall_seq);
  const int64_t conc = runtime::effective_concurrency(threads, scenarios);
  std::printf("  [campaign] parallel leg (%lld scenarios at a time)...\n",
              static_cast<long long>(conc));
  const faultsim::CampaignReport par = timed_run(threads, wall_par);

  const int64_t chip_evals = scenarios * seq.chips;
  const double images = static_cast<double>(chip_evals * test_count);
  const double seq_rate = static_cast<double>(scenarios) / wall_seq;
  const double par_rate = static_cast<double>(scenarios) / wall_par;
  const double speedup = wall_par > 0.0 ? wall_seq / wall_par : 0.0;
  std::printf("  [campaign] sequential: %.2fs, %.2f scenarios/s, "
              "%.1f chip-evals/s, %.0f images/s\n",
              wall_seq, seq_rate, static_cast<double>(chip_evals) / wall_seq,
              images / wall_seq);
  std::printf("  [campaign] parallel:   %.2fs, %.2f scenarios/s (%.2fx)\n",
              wall_par, par_rate, speedup);
  std::printf("  [campaign] grid mean accuracy %.3f, catastrophic chips %lld\n",
              seq.mean_accuracy("baseline"),
              static_cast<long long>(seq.total_catastrophic()));

  // Determinism contracts. Scheduling independence: the parallel report must
  // be byte-identical to the sequential one. Run-to-run: a repeated parallel
  // run must reproduce it byte for byte.
  const std::string seq_json = normalized_json(seq);
  const bool scheduling_identical = normalized_json(par) == seq_json;
  const faultsim::CampaignReport repeat = timed_run(threads, wall_rep);
  const bool rerun_identical = normalized_json(repeat) == seq_json;
  std::printf("  [campaign] sequential-vs-parallel byte-identical: %s\n",
              scheduling_identical ? "yes" : "NO");
  std::printf("  [campaign] repeat run byte-identical: %s\n",
              rerun_identical ? "yes" : "NO");

  // Fusion parity: the same sequential campaign with layer-graph fusion
  // switched off (every model runs its no-pass plan) must reproduce the fused report byte for byte (no shipped
  // model carries batchnorm; every other rewrite is bitwise-exact — the
  // docs/ARCHITECTURE.md tolerance contract). The delta is runtime only;
  // the speedup is reported, not asserted (campaign time is dominated by
  // crossbar evaluation, which fusion does not rewrite).
  std::printf("  [campaign] fusion-off leg...\n");
  double wall_foff = 0.0;
  nn::set_fusion_enabled(false);
  const faultsim::CampaignReport foff = timed_run(1, wall_foff);
  nn::set_fusion_enabled(true);
  const bool fusion_identical = normalized_json(foff) == seq_json;
  const double fusion_speedup = wall_seq > 0.0 ? wall_foff / wall_seq : 0.0;
  std::printf("  [campaign] fused: %.2fs  unfused: %.2fs  speedup: %.2fx  "
              "byte-identical: %s\n",
              wall_seq, wall_foff, fusion_speedup,
              fusion_identical ? "yes" : "NO");

  bench::BenchJson json("faultsim");
  json.set("quick", quick);
  json.set("test_images", test_count);
  json.set("scenarios", scenarios);
  json.set("chips_per_scenario", seq.chips);
  json.set("scenario_threads", conc);
  json.set("wall_s_seq", wall_seq);
  json.set("wall_s_par", wall_par);
  json.set("scenarios_per_s_seq", seq_rate);
  json.set("scenarios_per_s_par", par_rate);
  json.set("parallel_speedup", speedup);
  json.set("chip_evals_per_s", static_cast<double>(chip_evals) / wall_seq);
  json.set("images_per_s", images / wall_seq);
  json.set("grid_mean_acc", seq.mean_accuracy("baseline"));
  json.set("catastrophic", seq.total_catastrophic());
  json.set("deterministic", scheduling_identical && rerun_identical);
  json.set("fusion_wall_s_off", wall_foff);
  json.set("fusion_speedup", fusion_speedup);
  json.set("fusion_identical", fusion_identical);
  json.write();

  if (!scheduling_identical) {
    std::printf("FAIL: parallel campaign diverged from sequential\n");
    return 1;
  }
  if (!rerun_identical) {
    std::printf("FAIL: campaign re-run diverged\n");
    return 1;
  }
  if (!fusion_identical) {
    std::printf("FAIL: fusion-off campaign diverged from fused run\n");
    return 1;
  }
  std::printf("done.\n");
  return 0;
}
