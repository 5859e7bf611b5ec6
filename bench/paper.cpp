// paper: regenerates the paper's Table I, Figs. 2 and 7-10 and the design
// ablations, one subcommand per table or figure (`all` runs them in order):
//
//   ./build/bench/paper table1|fig2|fig7|fig8|fig9|fig10|ablation|all
//
// Each subcommand prints its table and writes bench_<name>.csv in the
// working directory. Every workload starts from its recipe (core/recipe.h);
// the CORRECTNET_* variables (core/config.h) scale the runs, and trained
// models are shared through ./cnet_cache/ (common.h).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "core/baselines.h"
#include "core/search.h"

namespace cn::bench {
namespace {

// Table I — the headline CorrectNet result: clean accuracy, accuracy at
// σ=0.5 for the original network, accuracy at σ=0.5 for CorrectNet
// (suppression + compensation), weight overhead, and compensation layers.
//
// Paper shape: original networks collapse at σ=0.5 (down to ~2% for the
// 100-class VGG); CorrectNet recovers to >~92% of the clean accuracy with
// only a few percent weight overhead on a handful of early layers.
void table1() {
  std::printf("=== Table I: CorrectNet experimental results ===\n");
  Csv csv("bench_table1.csv");
  csv.row({"workload", "clean_acc", "orig_sigma05", "correctnet_sigma05",
           "overhead_pct", "comp_layers", "recovery_ratio"});

  std::printf("\n%-18s %10s %12s %14s %10s %8s %9s\n", "Network-Dataset",
              "sigma=0(%)", "orig@0.5(%)", "CorrectNet(%)", "overhd(%)",
              "#layers", "recov(%)");

  for (const Workload& w : all_workloads()) {
    data::SplitDataset ds = make_dataset(w);
    nn::Sequential base = trained_model(w, ds, Stage::kBase);
    const float clean = core::evaluate(base, ds.test);
    core::McResult orig = core::mc_accuracy(base, ds.test, lognormal(0.5f),
                                            mc_options());

    core::CompensationPlan plan;
    nn::Sequential corrected = trained_model(w, ds, Stage::kCorr, &plan);
    const double overhead = core::compensation_overhead(corrected);
    core::McResult corr = core::mc_accuracy(corrected, ds.test, lognormal(0.5f),
                                            mc_options());
    int64_t layers = 0;
    for (const auto& [idx, m] : plan.entries)
      if (m > 0) ++layers;

    const double recovery = 100.0 * corr.mean / clean;
    std::printf("%-18s %10.2f %12.2f %14.2f %10.2f %8lld %9.1f\n", w.name.c_str(),
                100.0 * clean, 100.0 * orig.mean, 100.0 * corr.mean,
                100.0 * overhead, static_cast<long long>(layers), recovery);
    std::fflush(stdout);
    csv.row({w.name, fmt(100.0 * clean), fmt(100.0 * orig.mean),
             fmt(100.0 * corr.mean), fmt(100.0 * overhead), std::to_string(layers),
             fmt(recovery, 1)});
  }
  std::printf("\nExpected shape: CorrectNet recovers to >~92%% of the clean "
              "accuracy with low single-digit %% overhead.\n");
}

// Fig. 2 — inference accuracy degradation of the *unprotected* networks under
// lognormal weight variations, σ ∈ {0, 0.1, ..., 0.5}, mean ± std over
// Monte-Carlo chip instances.
//
// Paper shape: accuracy falls monotonically with σ; the deep VGG16 collapses
// far harder than LeNet-5 at the same σ (error amplification across depth).
void fig2() {
  std::printf("=== Fig. 2: accuracy degradation under weight variations ===\n");
  Csv csv("bench_fig2.csv");
  csv.row({"workload", "sigma", "acc_mean", "acc_std"});

  for (const Workload& w : all_workloads()) {
    data::SplitDataset ds = make_dataset(w);
    nn::Sequential base = trained_model(w, ds, Stage::kBase);
    std::printf("\n%s (paper: %s)\n", w.name.c_str(), w.paper_name.c_str());
    std::printf("  %-8s %-12s %-10s\n", "sigma", "acc_mean(%)", "acc_std(%)");
    for (float sigma : sigma_grid()) {
      core::McResult r = core::mc_accuracy(base, ds.test, lognormal(sigma),
                                           mc_options());
      std::printf("  %-8.2f %-12.2f %-10.2f\n", sigma, 100.0 * r.mean,
                  100.0 * r.stddev);
      std::fflush(stdout);
      csv.row({w.name, fmt(sigma, 2), fmt(100.0 * r.mean), fmt(100.0 * r.stddev)});
    }
  }
  std::printf("\nExpected shape: monotone degradation; VGG16 collapses harder "
              "than LeNet-5 at sigma=0.5.\n");
}

// Fig. 7 — CorrectNet vs the original network across the σ sweep, for all
// four network-dataset pairs (mean ± std).
//
// Paper shape: the corrected curve stays near the clean accuracy across the
// whole σ range while the original curve collapses; the gap widens with σ.
void fig7() {
  std::printf("=== Fig. 7: CorrectNet accuracy under different variations ===\n");
  Csv csv("bench_fig7.csv");
  csv.row({"workload", "sigma", "orig_mean", "orig_std", "corrected_mean",
           "corrected_std"});

  for (const Workload& w : all_workloads()) {
    data::SplitDataset ds = make_dataset(w);
    nn::Sequential base = trained_model(w, ds, Stage::kBase);
    nn::Sequential corrected = trained_model(w, ds, Stage::kCorr);
    std::printf("\n%s (paper: %s, overhead %.2f%%)\n", w.name.c_str(),
                w.paper_name.c_str(),
                100.0 * core::compensation_overhead(corrected));
    std::printf("  %-8s %-20s %-20s\n", "sigma", "original(%)", "corrected(%)");
    for (float sigma : sigma_grid()) {
      core::McResult ro =
          core::mc_accuracy(base, ds.test, lognormal(sigma), mc_options());
      core::McResult rc =
          core::mc_accuracy(corrected, ds.test, lognormal(sigma), mc_options());
      std::printf("  %-8.2f %6.2f +- %-10.2f %6.2f +- %-10.2f\n", sigma,
                  100.0 * ro.mean, 100.0 * ro.stddev, 100.0 * rc.mean,
                  100.0 * rc.stddev);
      std::fflush(stdout);
      csv.row({w.name, fmt(sigma, 2), fmt(100.0 * ro.mean), fmt(100.0 * ro.stddev),
               fmt(100.0 * rc.mean), fmt(100.0 * rc.stddev)});
    }
  }
  std::printf("\nExpected shape: corrected curves stay flat-ish; original "
              "curves collapse with sigma.\n");
}

// Fig. 8 — CorrectNet vs prior work at σ = 0.5: accuracy against weight
// overhead, on the LeNet-Objects10 and VGG16-Objects10 pairs.
//
// Comparators (mechanism re-implementations, src/core/baselines.h):
//   [8]  important-weight replication into SRAM (top-|w| protection),
//        with and without per-chip online adaptation;
//   [9]  random sparse adaptation (random protection), with/without online
//        retraining;
//   [11] variation-aware (statistical) training, no weight overhead.
//
// Paper shape: CorrectNet beats the non-retrained baselines at much lower
// overhead, and matches online-retrained baselines without their per-chip
// retraining cost.
void fig8() {
  std::printf("=== Fig. 8: CorrectNet vs state of the art (sigma = 0.5) ===\n");
  Csv csv("bench_fig8.csv");
  csv.row({"workload", "method", "overhead_pct", "acc_mean", "acc_std"});

  const analog::VariationModel vm = lognormal(0.5f);

  for (const Workload& w : {wl_lenet_obj10(), wl_vgg_obj10()}) {
    data::SplitDataset ds = make_dataset(w);
    nn::Sequential base = trained_model(w, ds, Stage::kBase);
    std::printf("\n%s (paper: %s)\n", w.name.c_str(), w.paper_name.c_str());
    std::printf("  %-34s %10s %12s %10s\n", "method", "overhd(%)", "acc_mean(%)",
                "acc_std(%)");

    auto report = [&](const std::string& method, double overhead,
                      const core::McResult& r) {
      std::printf("  %-34s %10.2f %12.2f %10.2f\n", method.c_str(),
                  100.0 * overhead, 100.0 * r.mean, 100.0 * r.stddev);
      std::fflush(stdout);
      csv.row({w.name, method, fmt(100.0 * overhead), fmt(100.0 * r.mean),
               fmt(100.0 * r.stddev)});
    };

    // CorrectNet point.
    nn::Sequential corrected = trained_model(w, ds, Stage::kCorr);
    report("CorrectNet", core::compensation_overhead(corrected),
           core::mc_accuracy(corrected, ds.test, vm, mc_options()));

    // Protection baselines across an overhead sweep.
    core::McOptions mc = mc_options();
    for (double frac : {0.02, 0.05, 0.20}) {
      Rng rng(77);
      auto topk = core::protection_masks(base, frac, /*topk=*/true, rng);
      report("[8] top-|w| SRAM, no retrain (" + fmt(100 * frac, 0) + "%)", frac,
             core::mc_accuracy_protected(base, ds.test, vm, topk, mc));
      auto rnd = core::protection_masks(base, frac, /*topk=*/false, rng);
      report("[9] random sparse, no retrain (" + fmt(100 * frac, 0) + "%)", frac,
             core::mc_accuracy_protected(base, ds.test, vm, rnd, mc));
    }

    // Online-retrained variants (expensive per chip: few MC samples).
    core::McOptions mc_online = mc_options();
    mc_online.samples = std::max(3, mc_online.samples / 5);
    core::OnlineRetrainOptions online;
    online.steps = 25;
    for (double frac : {0.10}) {
      Rng rng(78);
      auto topk = core::protection_masks(base, frac, true, rng);
      report("[8] top-|w| SRAM + online (" + fmt(100 * frac, 0) + "%)", frac,
             core::mc_accuracy_protected_online(base, ds.train, ds.test, vm, topk,
                                                mc_online, online));
      auto rnd = core::protection_masks(base, frac, false, rng);
      report("[9] random sparse + online (" + fmt(100 * frac, 0) + "%)", frac,
             core::mc_accuracy_protected_online(base, ds.train, ds.test, vm, rnd,
                                                mc_online, online));
    }

    // Variation-aware training [11]: zero overhead.
    {
      Rng rng(79);
      nn::Sequential init = core::make_model(w, rng);
      core::TrainConfig cfg = core::base_train_config(w);
      cfg.epochs = std::max(1, cfg.epochs / 2);
      cfg.variation = vm;
      nn::Sequential aware =
          core::train_variation_aware(init, ds.train, ds.test, cfg);
      report("[11] variation-aware training", 0.0,
             core::mc_accuracy(aware, ds.test, vm, mc_options()));
    }
  }
  std::printf("\nExpected shape: CorrectNet dominates non-retrained baselines at "
              "lower overhead and matches online-retrained ones without "
              "per-chip retraining.\n");
}

// Fig. 9 — effectiveness of Lipschitz regularization alone: variations are
// injected from analog site i to the last layer (sites before i stay
// nominal), compensation disabled, σ = 0.5.
//
// Paper shape: accuracy rises as the starting layer moves deeper — the
// regularization handles late-layer variations well, but early-layer
// variations still hurt (which motivates compensation in early layers).
// The 95%-of-clean line marks the compensation candidate cut.
void fig9() {
  std::printf("=== Fig. 9: Lipschitz regularization vs variation start layer ===\n");
  Csv csv("bench_fig9.csv");
  csv.row({"workload", "start_site", "acc_mean", "acc_std", "target95"});

  // The paper plots VGG16-Cifar100, VGG16-Cifar10, LeNet-5-Cifar10.
  for (const Workload& w : {wl_vgg_obj100(), wl_vgg_obj10(), wl_lenet_obj10()}) {
    data::SplitDataset ds = make_dataset(w);
    nn::Sequential lip = trained_model(w, ds, Stage::kLip);
    const float clean = core::evaluate(lip, ds.test);
    const double target = 0.95 * clean;

    core::McOptions mc = mc_options();
    mc.samples = std::max(5, mc.samples / 2);  // sweep cost scales with sites
    auto sweep = core::sensitivity_sweep(lip, ds.test, lognormal(0.5f), mc);
    const int64_t candidates =
        core::compensation_candidate_count(sweep, clean, 0.95);

    std::printf("\n%s (paper: %s; clean %.2f%%, 95%% line %.2f%%)\n",
                w.name.c_str(), w.paper_name.c_str(), 100.0 * clean,
                100.0 * target);
    std::printf("  %-12s %-12s %-10s\n", "start site", "acc_mean(%)", "acc_std(%)");
    for (const auto& p : sweep) {
      std::printf("  %-12lld %-12.2f %-10.2f%s\n",
                  static_cast<long long>(p.first_site + 1), 100.0 * p.mean,
                  100.0 * p.stddev, p.mean >= target ? "  <-- above 95% line" : "");
      csv.row({w.name, std::to_string(p.first_site + 1), fmt(100.0 * p.mean),
               fmt(100.0 * p.stddev), fmt(100.0 * target)});
    }
    std::printf("  => first %lld layers are compensation candidates\n",
                static_cast<long long>(candidates));
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: accuracy rises with the start layer; early "
              "layers stay below the 95%% line.\n");
}

// Fig. 10 — RL search over compensation locations/filter counts for
// VGG16-Objects100 at σ = 0.5: every explored plan is a dot (overhead vs
// accuracy); the RL pick is compared against exhaustive compensation of all
// candidate layers.
//
// Paper shape: the RL-selected plan reaches accuracy comparable to
// exhaustive compensation at lower overhead.
//
// Reward evaluations train compensation blocks, so this figure uses a
// shortened schedule (1 epoch on a training subset, few MC samples). Scale
// with CORRECTNET_EPOCHS / CORRECTNET_MC for higher fidelity.
void fig10() {
  std::printf("=== Fig. 10: RL search for compensation plans (VGG16-Objects100) ===\n");
  Csv csv("bench_fig10.csv");
  csv.row({"kind", "filters", "overhead_pct", "acc_mean", "acc_std", "reward"});

  const Workload w = wl_vgg_obj100();
  data::SplitDataset ds = make_dataset(w);
  nn::Sequential lip = trained_model(w, ds, Stage::kLip);

  // Candidates: first 6 conv layers (paper: first six layers of VGG16).
  core::SearchConfig cfg;
  auto convs = core::conv_layer_indices(lip);
  for (int i = 0; i < 6; ++i) cfg.candidate_layers.push_back(convs[static_cast<size_t>(i)]);
  cfg.ratio_menu = {0.0f, 0.25f, 0.5f};
  cfg.overhead_limit = 0.03f;
  cfg.reinforce.iterations = 6;
  cfg.reinforce.lr = 0.05f;
  cfg.comp_train.epochs = 1;
  cfg.comp_train.lr = w.comp_lr;
  cfg.variation = lognormal(0.5f);
  cfg.mc = mc_options();
  cfg.mc.samples = std::max(4, cfg.mc.samples / 5);

  // Subset data for the reward loop (full test for the final comparison).
  data::Dataset train_sub = ds.train.head(1500);
  data::Dataset test_sub = ds.test.head(400);

  core::SearchOutcome out = core::rl_search(lip, train_sub, test_sub, cfg);

  std::printf("\nExplored plans (dots in the figure):\n");
  std::printf("  %-26s %10s %12s %10s %9s\n", "filters per candidate", "overhd(%)",
              "acc_mean(%)", "acc_std(%)", "reward");
  for (const auto& t : out.trace) {
    std::string filt;
    for (size_t i = 0; i < t.filters.size(); ++i)
      filt += (i ? "," : "") + std::to_string(t.filters[i]);
    std::printf("  %-26s %10.2f %12.2f %10.2f %9.3f%s\n", filt.c_str(),
                100.0 * t.overhead, 100.0 * t.acc_mean, 100.0 * t.acc_std,
                t.reward, t.trained ? "" : "  (skipped: over budget)");
    csv.row({"explored", filt, fmt(100.0 * t.overhead), fmt(100.0 * t.acc_mean),
             fmt(100.0 * t.acc_std), fmt(t.reward, 3)});
  }

  // The RL pick and exhaustive compensation of all 6 candidates at ratio
  // 0.5, each retrained on a larger split and evaluated on the full test set.
  data::Dataset train_final = ds.train.head(3000);
  core::SearchConfig full = cfg;
  full.comp_train = core::comp_train_config(w);
  full.comp_train.epochs = std::max(2, full.comp_train.epochs / 2);
  full.mc = mc_options();
  full.overhead_limit = 1.0f;  // evaluate regardless
  const core::ExploredPlan best =
      core::evaluate_plan(lip, train_final, ds.test, full, out.best_plan);
  std::printf("\nRL-selected plan: overhead %.2f%%, accuracy %.2f%% +- %.2f%%\n",
              100.0 * best.overhead, 100.0 * best.acc_mean, 100.0 * best.acc_std);
  csv.row({"rl_pick", "", fmt(100.0 * best.overhead), fmt(100.0 * best.acc_mean),
           fmt(100.0 * best.acc_std), fmt(best.reward, 3)});

  const std::vector<int> actions(cfg.candidate_layers.size(), 2);  // ratio 0.5
  const core::ExploredPlan ex = core::evaluate_plan(
      lip, train_final, ds.test, full, core::plan_from_actions(lip, cfg, actions));
  std::printf("Exhaustive (all 6 layers): overhead %.2f%%, accuracy %.2f%% +- %.2f%%\n",
              100.0 * ex.overhead, 100.0 * ex.acc_mean, 100.0 * ex.acc_std);
  csv.row({"exhaustive", "", fmt(100.0 * ex.overhead), fmt(100.0 * ex.acc_mean),
           fmt(100.0 * ex.acc_std), fmt(ex.reward, 3)});
  std::printf("\nExpected shape: the RL pick approaches exhaustive-compensation "
              "accuracy at lower overhead.\n");
}

// Ablations on the reproduction's design choices (not a paper figure):
//   A. regularization strength β — robustness vs clean accuracy trade-off;
//   B. λ floor (the "modified" clamp) — unclamped Eq. 10 vs clamped;
//   C. technique decomposition: none / suppression-only / compensation-only /
//      both (CorrectNet);
//   D. variation-model generality: lognormal vs multiplicative Gaussian.
// Runs on LeNet5-Digits to stay fast.
void ablation() {
  std::printf("=== Ablations (LeNet5-Digits, sigma = 0.5) ===\n");
  Csv csv("bench_ablation.csv");
  csv.row({"ablation", "setting", "clean_acc", "acc_mean", "acc_std"});

  const Workload w = wl_lenet_digits();
  data::SplitDataset ds = make_dataset(w);
  const analog::VariationModel vm = lognormal(0.5f);

  auto train_lip = [&](float beta, float lambda_min) {
    Rng rng(31);
    nn::Sequential m = core::make_model(w, rng);
    core::TrainConfig cfg = core::lipschitz_train_config(w);
    cfg.lipschitz.enabled = beta > 0.0f;
    cfg.lipschitz.beta = beta;
    cfg.lipschitz.lambda_min = lambda_min;
    core::train(m, ds.train, ds.test, cfg);
    return m;
  };
  auto report = [&](const std::string& ab, const std::string& setting,
                    nn::Sequential& m) {
    const float clean = core::evaluate(m, ds.test);
    core::McResult r = core::mc_accuracy(m, ds.test, vm, mc_options());
    std::printf("  %-28s %-18s clean %6.2f%%  var %6.2f%% +- %5.2f%%\n", ab.c_str(),
                setting.c_str(), 100.0 * clean, 100.0 * r.mean, 100.0 * r.stddev);
    std::fflush(stdout);
    csv.row({ab, setting, fmt(100.0 * clean), fmt(100.0 * r.mean),
             fmt(100.0 * r.stddev)});
  };

  std::printf("\nA. Regularization strength beta (lambda unclamped):\n");
  for (float beta : {0.0f, 3e-3f, 3e-2f, 3e-1f}) {
    nn::Sequential m = train_lip(beta, 0.0f);
    report("beta sweep", "beta=" + fmt(beta, 3), m);
  }

  std::printf("\nB. Lambda floor (beta = 3e-2): Eq. 10 gives lambda = %.3f at "
              "sigma = 0.5\n",
              core::lipschitz_lambda(1.0, 0.5));
  for (float lmin : {0.0f, 0.5f, 1.0f, 2.0f}) {
    nn::Sequential m = train_lip(3e-2f, lmin);
    report("lambda floor", "lambda_min=" + fmt(lmin, 1), m);
  }

  std::printf("\nC. Technique decomposition:\n");
  {
    nn::Sequential plain = train_lip(0.0f, 0.0f);
    report("decomposition", "none", plain);

    nn::Sequential lip = train_lip(w.lip_beta, w.lip_lambda_min);
    report("decomposition", "suppression-only", lip);

    // Compensation on the plain model (no suppression).
    Rng crng(32);
    core::CompensationPlan plan =
        core::fixed_ratio_plan(plain, w.fixed_ratio, w.max_comp_layers);
    nn::Sequential comp_only = core::with_compensation(plain, plan, crng);
    core::train_compensation(comp_only, ds.train, ds.test, core::comp_train_config(w));
    report("decomposition", "compensation-only", comp_only);

    nn::Sequential both = core::with_compensation(lip, plan, crng);
    core::train_compensation(both, ds.train, ds.test, core::comp_train_config(w));
    report("decomposition", "both (CorrectNet)", both);
  }

  std::printf("\nD. Variation-model generality (suppression-only model):\n");
  {
    nn::Sequential lip = train_lip(w.lip_beta, w.lip_lambda_min);
    for (auto kind : {analog::VariationKind::kLognormal,
                      analog::VariationKind::kGaussianMultiplicative}) {
      analog::VariationModel m{kind, 0.3f};
      core::McResult r = core::mc_accuracy(lip, ds.test, m, mc_options());
      std::printf("  %-28s %-18s var %6.2f%% +- %5.2f%%\n", "variation model",
                  m.name().c_str(), 100.0 * r.mean, 100.0 * r.stddev);
      csv.row({"variation model", m.name(), "", fmt(100.0 * r.mean),
               fmt(100.0 * r.stddev)});
    }
  }
  std::printf("\nExpected: beta trades clean accuracy for robustness; both "
              "techniques together dominate either alone.\n");
}

struct Figure {
  const char* name;
  void (*run)();
};

constexpr Figure kFigures[] = {
    {"table1", table1}, {"fig2", fig2},   {"fig7", fig7},         {"fig8", fig8},
    {"fig9", fig9},     {"fig10", fig10}, {"ablation", ablation},
};

}  // namespace
}  // namespace cn::bench

int main(int argc, char** argv) {
  using cn::bench::kFigures;
  const char* const which = argc == 2 ? argv[1] : "";
  const bool all = std::strcmp(which, "all") == 0;
  bool known = all;
  for (const auto& f : kFigures) known = known || std::strcmp(which, f.name) == 0;
  if (!known) {
    std::string names;
    for (const auto& f : kFigures) names += std::string(f.name) + "|";
    std::fprintf(stderr, "usage: %s <%sall>\n", argv[0], names.c_str());
    return 2;
  }
  // A malformed CORRECTNET_* value fails here, before any output or CSV.
  try {
    cn::core::RuntimeConfig::get();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  // A figure that cannot finish (say, its CSV cannot be opened) exits 1.
  try {
    for (const auto& f : kFigures)
      if (all || std::strcmp(which, f.name) == 0) f.run();
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  return 0;
}
