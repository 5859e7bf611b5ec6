// Command-line front end for the CorrectNet pipeline.
//
// Usage:
//   correctnet_cli [--net lenet|vgg] [--dataset digits|objects10|objects100]
//                  [--sigma S] [--epochs N] [--comp-epochs N] [--beta B]
//                  [--lambda-min L] [--warmup N] [--ratio R] [--max-layers N]
//                  [--train N] [--test N] [--mc 15] [--rl] [--save-prefix PATH]
//                  [sink flags]
//
// Runs baseline -> suppression -> sensitivity -> compensation -> Monte-Carlo
// and prints a summary; optionally saves the trained weights.
//
// Subcommand:
//   correctnet_cli faults [--config PATH] [--out PATH] [--chips N]
//                         [--epochs N] [--comp-epochs N] [--train N] [--test N]
//                         [--sigma S] [--remap] [--parallel N]
//                         [sink flags]
//
// The defaults of the training flags (--sigma ... --test) come from the
// (--net, --dataset) recipe, core::recipe (core/recipe.h); each flag
// overrides one of its values. faults always trains LeNet on digits.
// A network or dataset with no recipe (vgg on digits, lenet on objects100)
// exits 2, and so does a numeric flag that does not parse in full
// (KeyValueConfig's rule: `--chips 1O`, `--epochs 3x`), before any output.
//
// Observability (docs/OBSERVABILITY.md): every command, `--version`
// included, reads the sink knob table (obs/sinks.h; docs/CONFIG.md lists
// each sink's env variable, config key and flag) over the environment, the
// campaign config (faults only) and the sink flags, flag > key > env. A bad
// sink value exits 2 like a bad flag. faults logs at debug unless a layer
// sets the level, so per-scenario progress stays visible. `--version`
// prints the build identity line. None of it changes results: every report
// is byte-identical with metrics and tracing on or off.
//
// Trains the CorrectNet pipeline, then drives a faultsim::Campaign — device
// faults (stuck-at cells, conductance drift, IR drop, temperature) swept
// against the baseline, suppression-only, and compensated networks on the
// crossbar substrate — and writes a JSON CampaignReport. The scenario grid
// comes from a key=value config file (see examples/fault_campaign.cfg); a
// built-in quick grid is used when --config is omitted.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>

#include "cli_flags.h"
#include "core/config.h"
#include "core/pipeline.h"
#include "faultsim/campaign.h"
#include "nn/serialize.h"
#include "obs/build_info.h"
#include "obs/sinks.h"
#include "runtime/scheduler.h"

namespace {

using cn::examples::float_flag;
using cn::examples::int_flag;

// The training flags: each overrides one value of the recipe. faults takes
// the first kFaultsRecipeFlags.
constexpr const char* kRecipeFlags[] = {
    "--epochs", "--comp-epochs", "--sigma", "--train",     "--test",
    "--beta",   "--lambda-min",  "--warmup", "--ratio", "--max-layers"};
constexpr size_t kFaultsRecipeFlags = 5;

// (flag, value) pairs in command-line order, parsed once the recipe is known.
using FlagValues = std::vector<std::pair<std::string, std::string>>;

bool is_recipe_flag(const std::string& k, size_t count) {
  return std::find(kRecipeFlags, kRecipeFlags + count, k) != kRecipeFlags + count;
}

// The recipe of `net` on `dataset` with `flags` over its values. A pair with
// no recipe or a bad value exits 2.
cn::core::Recipe recipe_from(const char* argv0, const std::string& net,
                             const std::string& dataset, const FlagValues& flags) {
  cn::core::Recipe r;
  try {
    r = cn::core::recipe(net, dataset);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv0, e.what());
    std::exit(2);
  }
  for (const auto& [k, v] : flags) {
    const char* s = v.c_str();
    if (k == "--epochs") r.epochs = int_flag<int>(argv0, k, s);
    else if (k == "--comp-epochs") r.comp_epochs = int_flag<int>(argv0, k, s);
    else if (k == "--sigma") r.sigma = float_flag(argv0, k, s);
    else if (k == "--train") r.train_count = int_flag<int64_t>(argv0, k, s);
    else if (k == "--test") r.test_count = int_flag<int64_t>(argv0, k, s);
    else if (k == "--beta") r.lip_beta = float_flag(argv0, k, s);
    else if (k == "--lambda-min") r.lip_lambda_min = float_flag(argv0, k, s);
    else if (k == "--warmup") r.lip_warmup = int_flag<int>(argv0, k, s);
    else if (k == "--ratio") r.fixed_ratio = float_flag(argv0, k, s);
    else r.max_comp_layers = int_flag<int64_t>(argv0, k, s);  // --max-layers
  }
  return r;
}

struct Args {
  std::string net = "lenet";
  std::string dataset = "digits";
  FlagValues recipe_flags;
  int mc = 15;
  bool rl = false;
  std::string save_prefix;
  cn::obs::SinkFlags sinks;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--net lenet|vgg] [--dataset digits|objects10|objects100]\n"
               "          [--sigma S] [--epochs N] [--comp-epochs N] [--beta B]\n"
               "          [--lambda-min L] [--warmup N] [--ratio R] [--max-layers N]\n"
               "          [--mc N] [--rl] [--train N] [--test N] [--save-prefix P]\n"
               "          %s\n"
               "       %s --version\n",
               argv0, cn::obs::sink_flags_usage().c_str(), argv0);
  std::exit(2);
}

// Reads the sink table over the environment, `cfg`'s sink keys and the sink
// flags, then starts the sinks. A bad value, a port that cannot be bound or
// a stream that cannot be opened exits 2 before any work starts.
cn::obs::Sinks start_sinks(const char* argv0, const cn::core::KeyValueConfig& cfg,
                           const cn::obs::SinkFlags& flags,
                           std::optional<cn::obs::LogLevel> default_log = {}) {
  try {
    cn::obs::Sinks s = cn::obs::read_sinks(cfg, flags);
    if (!s.log) s.log = default_log;
    cn::obs::start(s);
    return s;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv0, e.what());
    std::exit(2);
  }
}

// Writes and stops every sink, then points at the files it wrote.
void finish_sinks(const cn::obs::Sinks& s) {
  cn::obs::finish();
  if (!s.metrics.empty()) std::printf("metrics -> %s\n", s.metrics.c_str());
  if (!s.trace.empty()) std::printf("trace -> %s\n", s.trace.c_str());
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (k == "--net") a.net = next();
    else if (k == "--dataset") a.dataset = next();
    else if (is_recipe_flag(k, std::size(kRecipeFlags)))
      a.recipe_flags.emplace_back(k, next());
    else if (k == "--mc") a.mc = int_flag<int>(argv[0], k, next());
    else if (k == "--rl") a.rl = true;
    else if (k == "--save-prefix") a.save_prefix = next();
    else if (cn::obs::is_sink_flag(k)) a.sinks.emplace_back(k, next());
    else usage(argv[0]);
  }
  return a;
}

// ---------- faults subcommand ----------

struct FaultArgs {
  std::string config;  // key=value campaign file; empty = built-in quick grid
  std::string out = "faultsim_report.json";
  int64_t chips = 0;  // >0 overrides the config's chip count
  bool remap = false; // force the fault-aware remapping axis on
  bool parallel_set = false;  // --parallel given: override parallel_scenarios
  int64_t parallel = 0;       // passed through verbatim — negatives must throw
  FlagValues recipe_flags;
  cn::obs::SinkFlags sinks;  // beat the campaign config's sink keys
};

[[noreturn]] void usage_faults(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s faults [--config PATH] [--out PATH] [--chips N]\n"
               "          [--epochs N] [--comp-epochs N] [--train N] [--test N]\n"
               "          [--sigma S] [--remap] [--parallel N]\n"
               "          %s\n",
               argv0, cn::obs::sink_flags_usage().c_str());
  std::exit(2);
}

FaultArgs parse_faults(int argc, char** argv) {
  FaultArgs a;
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_faults(argv[0]);
      return argv[++i];
    };
    if (k == "--config") a.config = next();
    else if (k == "--out") a.out = next();
    else if (k == "--chips") a.chips = int_flag<int64_t>(argv[0], k, next());
    else if (k == "--remap") a.remap = true;
    else if (k == "--parallel") { a.parallel = int_flag<int64_t>(argv[0], k, next()); a.parallel_set = true; }
    else if (is_recipe_flag(k, kFaultsRecipeFlags))
      a.recipe_flags.emplace_back(k, next());
    else if (cn::obs::is_sink_flag(k)) a.sinks.emplace_back(k, next());
    else usage_faults(argv[0]);
  }
  return a;
}

// The grid used when no --config is given: one severity ladder per fault
// kind, small enough for smoke runs.
constexpr const char* kDefaultCampaign =
    "chips = 4\n"
    "seed = 42\n"
    "catastrophic = 0.2\n"
    "stuck.rates = 0.01, 0.05\n"
    "drift.times = 100, 1000\n"
    "ir.alphas = 0.1\n"
    "thermal.temps = 400\n";

int run_faults(int argc, char** argv) {
  using namespace cn;
  const FaultArgs args = parse_faults(argc, argv);
  const core::Recipe recipe =
      recipe_from(argv[0], "lenet", "digits", args.recipe_flags);

  // Load and parse the campaign grid and the sinks first: a bad --config
  // path or value must fail before minutes of training, not after. Flag
  // overrides go through KeyValueConfig::set (the parser rejects duplicate
  // keys).
  core::KeyValueConfig campaign_cfg;
  faultsim::Campaign campaign = [&] {
    try {
      campaign_cfg = args.config.empty()
          ? core::KeyValueConfig::from_string(kDefaultCampaign)
          : core::KeyValueConfig::from_file(args.config);
      if (args.chips > 0) campaign_cfg.set("chips", std::to_string(args.chips));
      if (args.remap) campaign_cfg.set("remap", "1");
      // Passed through unvalidated on purpose: a bad value (e.g. negative)
      // must throw from the Campaign ctor like its config-file twin would,
      // not be silently dropped here.
      if (args.parallel_set)
        campaign_cfg.set("parallel_scenarios", std::to_string(args.parallel));
      return faultsim::campaign_from_config(campaign_cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad campaign config%s%s: %s\n",
                   args.config.empty() ? "" : " ", args.config.c_str(), e.what());
      std::exit(2);
    }
  }();
  // The campaign's per-scenario progress logs at debug; faults keeps it
  // visible unless the environment, the config or a flag sets the level.
  const obs::Sinks sinks =
      start_sinks(argv[0], campaign_cfg, args.sinks, obs::LogLevel::kDebug);

  const data::SplitDataset ds = core::make_dataset(recipe);
  core::PipelineConfig cfg;
  cfg.recipe = recipe;
  cfg.mc.samples = 4;  // pipeline-internal MC; the campaign does the real sweep
  cfg.log = [](const std::string& s) { std::printf("%s\n", s.c_str()); };
  core::PipelineResult r = core::run_correctnet(ds.train, ds.test, cfg);

  campaign.add_model("baseline", r.base_model, false);
  campaign.add_model("suppressed", r.lipschitz_model, false);
  campaign.add_model("corrected", r.corrected_model, true);

  std::printf("\nrunning fault campaign: %lld scenarios (%lld fault specs x %lld "
              "protection variants%s), concurrency %lld\n",
              static_cast<long long>(campaign.num_scenarios()),
              static_cast<long long>(campaign.num_faults()),
              static_cast<long long>(campaign.num_models()),
              campaign.remap_enabled() ? " x 2 remap variants" : "",
              static_cast<long long>(runtime::effective_concurrency(
                  campaign.parallel_scenarios(), campaign.num_scenarios())));
  const faultsim::CampaignReport report = campaign.run(ds.test);

  std::printf("\n==== fault campaign (%lld chips/scenario, %.2fs) ====\n",
              static_cast<long long>(report.chips), report.wall_s);
  std::printf("%-10s %-9s | %-22s %-22s %-22s\n", "fault", "severity", "baseline",
              "suppressed", "corrected");
  for (const auto* row : report.for_model("baseline")) {
    const faultsim::ScenarioResult* sup = nullptr;
    const faultsim::ScenarioResult* cor = nullptr;
    for (const auto& s : report.scenarios) {
      if (s.fault_kind != row->fault_kind || s.severity != row->severity ||
          s.remapped != row->remapped)
        continue;
      if (s.model_name == "suppressed") sup = &s;
      if (s.model_name == "corrected") cor = &s;
    }
    auto cell = [](const faultsim::ScenarioResult* s) {
      char buf[64];
      if (!s) {
        std::snprintf(buf, sizeof(buf), "-");
      } else {
        std::snprintf(buf, sizeof(buf), "%5.2f%% +-%5.2f%% (%lldc)",
                      100.0 * s->acc.mean, 100.0 * s->acc.stddev,
                      static_cast<long long>(s->catastrophic));
      }
      return std::string(buf);
    };
    const std::string label =
        row->fault_kind + (row->remapped ? "+rm" : "");
    std::printf("%-10s %-9.4g | %-22s %-22s %-22s\n", label.c_str(),
                row->severity, cell(row).c_str(), cell(sup).c_str(),
                cell(cor).c_str());
    if (row->remapped && row->defects > 0)
      std::printf("%-10s %-9s |   defects %lld, absorbed %lld, residual %lld\n",
                  "", "", static_cast<long long>(row->defects),
                  static_cast<long long>(row->absorbed),
                  static_cast<long long>(row->residual));
  }
  std::printf("mean over grid: baseline %.2f%%, suppressed %.2f%%, corrected "
              "%.2f%%; catastrophic chips: %lld\n",
              100.0 * report.mean_accuracy("baseline"),
              100.0 * report.mean_accuracy("suppressed"),
              100.0 * report.mean_accuracy("corrected"),
              static_cast<long long>(report.total_catastrophic()));
  if (report.total_absorbed() > 0)
    std::printf("remap axis: baseline %.2f%% -> %.2f%% with remapping; "
                "defective devices absorbed across the grid: %lld\n",
                100.0 * report.mean_accuracy("baseline", false),
                100.0 * report.mean_accuracy("baseline", true),
                static_cast<long long>(report.total_absorbed()));
  report.write_json(args.out);
  std::printf("report -> %s\n", args.out.c_str());
  finish_sinks(sinks);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    start_sinks(argv[0], {}, {});
    std::printf("%s\n", obs::build_info_line().c_str());
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "faults") == 0) return run_faults(argc, argv);
  const Args args = parse(argc, argv);
  const core::Recipe recipe =
      recipe_from(argv[0], args.net, args.dataset, args.recipe_flags);
  const obs::Sinks sinks = start_sinks(argv[0], {}, args.sinks);

  const data::SplitDataset ds = core::make_dataset(recipe);
  core::PipelineConfig cfg;
  cfg.recipe = recipe;
  cfg.mc.samples = args.mc;
  cfg.plan_mode = args.rl ? core::PlanMode::kRl : core::PlanMode::kFixedRatio;
  if (args.rl) {
    cfg.search.reinforce.iterations = 10;
    cfg.search.comp_train.epochs = 1;
    cfg.search.mc.samples = std::max(3, args.mc / 4);
    cfg.search.overhead_limit = 0.05f;
  }
  cfg.log = [](const std::string& s) { std::printf("%s\n", s.c_str()); };
  core::PipelineResult r = core::run_correctnet(ds.train, ds.test, cfg);

  std::printf("\n==== %s, sigma = %.2f ====\n", recipe.name.c_str(), recipe.sigma);
  std::printf("clean:       baseline %.2f%%, lipschitz %.2f%%\n",
              100.0 * r.clean_acc_base, 100.0 * r.clean_acc_lipschitz);
  std::printf("variations:  baseline %.2f%% +- %.2f%%\n", 100.0 * r.base_var.mean,
              100.0 * r.base_var.stddev);
  std::printf("suppressed:  %.2f%% +- %.2f%%\n", 100.0 * r.lipschitz_var.mean,
              100.0 * r.lipschitz_var.stddev);
  std::printf("CorrectNet:  %.2f%% +- %.2f%%  (overhead %.2f%%, %lld layers)\n",
              100.0 * r.corrected_var.mean, 100.0 * r.corrected_var.stddev,
              100.0 * r.overhead, static_cast<long long>(r.comp_layers));
  std::printf("recovery:    %.1f%% of clean accuracy\n",
              100.0 * r.corrected_var.mean / r.clean_acc_base);

  if (!args.save_prefix.empty()) {
    nn::save_weights(r.base_model, args.save_prefix + "_base.wts");
    nn::save_weights(r.lipschitz_model, args.save_prefix + "_lip.wts");
    nn::save_weights(r.corrected_model, args.save_prefix + "_corrected.wts");
    std::printf("weights saved with prefix %s\n", args.save_prefix.c_str());
  }
  finish_sinks(sinks);
  return 0;
}
