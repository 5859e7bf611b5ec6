// Command-line front end for the CorrectNet pipeline.
//
//   correctnet_cli [flags]         baseline -> suppression -> sensitivity ->
//                                  compensation -> Monte-Carlo, a summary and
//                                  optionally the trained weights
//   correctnet_cli faults [flags]  the fault campaign below
//   correctnet_cli --version       the build identity line
//
// Every flag is a row of the tables the command reads (cli_tables.h), and
// so is the usage line. The training flags override the (network, dataset)
// recipe (core/recipe.h); faults always trains LeNet on digits. A pair with
// no recipe, an unknown flag or a value that does not parse in full ('1O')
// exits 2 before any output.
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
#include <optional>
#include <string>

#include "cli_tables.h"
#include "core/config.h"
#include "core/pipeline.h"
#include "faultsim/campaign.h"
#include "nn/serialize.h"
#include "obs/build_info.h"
#include "obs/sinks.h"
#include "runtime/scheduler.h"

namespace {

using cn::examples::or_exit;

// Reads the sink table over the environment, `cfg`'s sink keys and the sink
// flags, then starts the sinks. A bad value, a port that cannot be bound or
// a stream that cannot be opened exits 2 before any work starts.
cn::obs::Sinks start_sinks(const char* argv0, const cn::core::KeyValueConfig& cfg,
                           const cn::core::Flags& flags,
                           std::optional<cn::obs::LogLevel> default_log = {}) {
  return or_exit(argv0, [&] {
    cn::obs::Sinks s = cn::obs::read_sinks(cfg, flags);
    if (!s.log) s.log = default_log;
    cn::obs::start(s);
    return s;
  });
}

// Writes and stops every sink, then points at the files it wrote.
void finish_sinks(const cn::obs::Sinks& s) {
  cn::obs::finish();
  if (!s.metrics.empty()) std::printf("metrics -> %s\n", s.metrics.c_str());
  if (!s.trace.empty()) std::printf("trace -> %s\n", s.trace.c_str());
}

// ---------- faults subcommand ----------

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
  const auto flags =
      examples::scan_or_usage(argc, argv, 2, " faults", examples::faults_tables());
  const examples::FaultsArgs args =
      examples::read_or_exit(argv[0], examples::faults_table(), {}, flags[0]);
  const core::Recipe recipe =
      examples::read_or_exit(argv[0], examples::faults_recipe_table(),
                             or_exit(argv[0], [] { return core::recipe("lenet", "digits"); }),
                             flags[2]);

  // Load and parse the campaign grid and the sinks first: a bad --config
  // path or value must fail before minutes of training, not after. The
  // campaign flags (--chips, --remap, --parallel) beat the file's keys.
  core::KeyValueConfig campaign_cfg;
  faultsim::Campaign campaign = [&] {
    try {
      campaign_cfg = args.config.empty()
          ? core::KeyValueConfig::from_string(kDefaultCampaign)
          : core::KeyValueConfig::from_file(args.config);
      return faultsim::campaign_from_config(campaign_cfg, flags[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad campaign config%s%s: %s\n",
                   args.config.empty() ? "" : " ", args.config.c_str(), e.what());
      std::exit(2);
    }
  }();
  // The campaign's per-scenario progress logs at debug; faults keeps it
  // visible unless the environment, the config or a flag sets the level.
  const obs::Sinks sinks =
      start_sinks(argv[0], campaign_cfg, flags[3], obs::LogLevel::kDebug);

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
  const auto flags = examples::scan_or_usage(
      argc, argv, 1, "", examples::cli_tables(),
      std::string("       ") + argv[0] + " --version\n");
  const examples::CliArgs args =
      examples::read_or_exit(argv[0], examples::cli_table(), {}, flags[0]);
  const core::Recipe recipe = examples::read_or_exit(
      argv[0], core::recipe_table(),
      or_exit(argv[0], [&] { return core::recipe(args.net, args.dataset); }), flags[1]);
  const obs::Sinks sinks = start_sinks(argv[0], {}, flags[2]);

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
