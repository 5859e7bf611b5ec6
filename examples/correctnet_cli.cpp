// Command-line front end for the CorrectNet pipeline.
//
// Usage:
//   correctnet_cli [--net lenet|vgg] [--dataset digits|objects10|objects100]
//                  [--sigma 0.5] [--epochs 6] [--comp-epochs 5]
//                  [--beta 3e-2] [--lambda-min 0] [--warmup 0]
//                  [--ratio 0.5] [--max-layers 4] [--mc 15] [--rl]
//                  [--train N] [--test N] [--save-prefix PATH]
//                  [--metrics-out F] [--trace-out F] [--log-level L]
//
// Runs baseline -> suppression -> sensitivity -> compensation -> Monte-Carlo
// and prints a summary; optionally saves the trained weights.
//
// Subcommand:
//   correctnet_cli faults [--config PATH] [--out PATH] [--chips N]
//                         [--epochs N] [--comp-epochs N] [--train N] [--test N]
//                         [--sigma S] [--remap] [--parallel N]
//                         [--metrics-out F] [--trace-out F]
//                         [--log-level quiet|info|debug] [--quiet]
//
// Numeric flags must parse in full (KeyValueConfig's rule): `--chips 1O` or
// `--epochs 3x` exits 2 naming the flag, before any training starts.
//
// Observability (docs/OBSERVABILITY.md): `--metrics-out F` writes the
// MetricsRegistry snapshot, `--trace-out F` enables the span tracer and
// writes Chrome trace_event JSON, `--log-level` / `--quiet` steer the obs
// Logger (faults defaults to debug so per-scenario progress stays visible).
// `--statusz-port N` serves /metrics, /healthz and /statusz live over HTTP
// (0 = ephemeral port), `--metrics-stream F` appends 1 Hz interval-delta
// JSONL snapshots, and `--version` prints the build identity line.
// CORRECTNET_METRICS / CORRECTNET_TRACE / CORRECTNET_LOG (plus
// CORRECTNET_STATUSZ_PORT / CORRECTNET_METRICS_STREAM / CORRECTNET_SLO_P99_MS
// / CORRECTNET_SIGNAL_FLUSH) do the same from the environment. None of it
// changes results: every report is byte-identical with metrics and tracing
// on or off.
//
// Trains the CorrectNet pipeline, then drives a faultsim::Campaign — device
// faults (stuck-at cells, conductance drift, IR drop, temperature) swept
// against the baseline, suppression-only, and compensated networks on the
// crossbar substrate — and writes a JSON CampaignReport. The scenario grid
// comes from a key=value config file (see examples/fault_campaign.cfg); a
// built-in quick grid is used when --config is omitted.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/config.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "faultsim/campaign.h"
#include "models/lenet.h"
#include "models/vgg.h"
#include "nn/serialize.h"
#include "obs/build_info.h"
#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/snapshot_stream.h"
#include "obs/trace.h"
#include "runtime/scheduler.h"

namespace {

struct Args {
  std::string net = "lenet";
  std::string dataset = "digits";
  float sigma = 0.5f;
  int epochs = 6;
  int comp_epochs = 5;
  float beta = 3e-2f;
  float lambda_min = 0.0f;
  int warmup = 0;
  float ratio = 0.5f;
  int max_layers = 4;
  int mc = 15;
  bool rl = false;
  int64_t train = 2500;
  int64_t test = 600;
  std::string save_prefix;
  std::string metrics_out;  // write the metrics snapshot here at the end
  std::string trace_out;    // enable tracing, write Chrome trace JSON here
  std::string log_level;    // quiet|info|debug; empty = leave the default
  int64_t statusz_port = -1;   // >= 0: start the exposition server (0 = ephemeral)
  std::string metrics_stream;  // start the JSONL metrics snapshotter here
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--net lenet|vgg] [--dataset digits|objects10|objects100]\n"
               "          [--sigma S] [--epochs N] [--comp-epochs N] [--beta B]\n"
               "          [--lambda-min L] [--warmup N] [--ratio R] [--max-layers N]\n"
               "          [--mc N] [--rl] [--train N] [--test N] [--save-prefix P]\n"
               "          [--metrics-out F] [--trace-out F]\n"
               "          [--log-level quiet|info|debug]\n"
               "          [--statusz-port N] [--metrics-stream F]\n"
               "       %s --version\n",
               argv0, argv0);
  std::exit(2);
}

// Numeric flag values parse in full or the run stops: a silent prefix parse
// ('1O' as 1) would mis-size an experiment without a trace.
template <typename T>
T int_flag(const char* argv0, const std::string& flag, const char* v) {
  int64_t n = 0;
  if (!cn::core::parse_integer(v, n) || n < std::numeric_limits<T>::min() ||
      n > std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "%s: %s expects an integer, got '%s'\n", argv0,
                 flag.c_str(), v);
    std::exit(2);
  }
  return static_cast<T>(n);
}

float float_flag(const char* argv0, const std::string& flag, const char* v) {
  double x = 0.0;
  if (!cn::core::parse_number(v, x)) {
    std::fprintf(stderr, "%s: %s expects a number, got '%s'\n", argv0,
                 flag.c_str(), v);
    std::exit(2);
  }
  return static_cast<float>(x);
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
    else if (k == "--sigma") a.sigma = float_flag(argv[0], k, next());
    else if (k == "--epochs") a.epochs = int_flag<int>(argv[0], k, next());
    else if (k == "--comp-epochs") a.comp_epochs = int_flag<int>(argv[0], k, next());
    else if (k == "--beta") a.beta = float_flag(argv[0], k, next());
    else if (k == "--lambda-min") a.lambda_min = float_flag(argv[0], k, next());
    else if (k == "--warmup") a.warmup = int_flag<int>(argv[0], k, next());
    else if (k == "--ratio") a.ratio = float_flag(argv[0], k, next());
    else if (k == "--max-layers") a.max_layers = int_flag<int>(argv[0], k, next());
    else if (k == "--mc") a.mc = int_flag<int>(argv[0], k, next());
    else if (k == "--rl") a.rl = true;
    else if (k == "--train") a.train = int_flag<int64_t>(argv[0], k, next());
    else if (k == "--test") a.test = int_flag<int64_t>(argv[0], k, next());
    else if (k == "--save-prefix") a.save_prefix = next();
    else if (k == "--metrics-out") a.metrics_out = next();
    else if (k == "--trace-out") a.trace_out = next();
    else if (k == "--log-level") a.log_level = next();
    else if (k == "--statusz-port") a.statusz_port = int_flag<int64_t>(argv[0], k, next());
    else if (k == "--metrics-stream") a.metrics_stream = next();
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
  int epochs = 3;
  int comp_epochs = 3;
  float sigma = 0.5f;
  int64_t train = 800;
  int64_t test = 200;
  std::string metrics_out;  // campaign `metrics_out` key override
  std::string trace_out;    // campaign `trace_out` key override
  std::string log_level;    // campaign `log_level` key override
  bool quiet = false;       // shorthand for --log-level quiet (wins)
  bool statusz_set = false;   // --statusz-port given: override `statusz_port`
  int64_t statusz_port = -1;  // passed through verbatim (ctor validates)
  std::string metrics_stream; // campaign `metrics_stream` key override
};

[[noreturn]] void usage_faults(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s faults [--config PATH] [--out PATH] [--chips N]\n"
               "          [--epochs N] [--comp-epochs N] [--train N] [--test N]\n"
               "          [--sigma S] [--remap] [--parallel N]\n"
               "          [--metrics-out F] [--trace-out F]\n"
               "          [--log-level quiet|info|debug] [--quiet]\n"
               "          [--statusz-port N] [--metrics-stream F]\n",
               argv0);
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
    else if (k == "--epochs") a.epochs = int_flag<int>(argv[0], k, next());
    else if (k == "--comp-epochs") a.comp_epochs = int_flag<int>(argv[0], k, next());
    else if (k == "--train") a.train = int_flag<int64_t>(argv[0], k, next());
    else if (k == "--test") a.test = int_flag<int64_t>(argv[0], k, next());
    else if (k == "--sigma") a.sigma = float_flag(argv[0], k, next());
    else if (k == "--metrics-out") a.metrics_out = next();
    else if (k == "--trace-out") a.trace_out = next();
    else if (k == "--log-level") a.log_level = next();
    else if (k == "--quiet") a.quiet = true;
    else if (k == "--statusz-port") { a.statusz_port = int_flag<int64_t>(argv[0], k, next()); a.statusz_set = true; }
    else if (k == "--metrics-stream") a.metrics_stream = next();
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

  // Load and parse the campaign grid first: a bad --config path or value
  // must fail before minutes of training, not after. Flag overrides go
  // through KeyValueConfig::set (the parser rejects duplicate keys).
  faultsim::Campaign campaign = [&] {
    try {
      core::KeyValueConfig cfg =
          args.config.empty()
              ? core::KeyValueConfig::from_string(kDefaultCampaign)
              : core::KeyValueConfig::from_file(args.config);
      if (args.chips > 0) cfg.set("chips", std::to_string(args.chips));
      if (args.remap) cfg.set("remap", "1");
      // Passed through unvalidated on purpose: a bad value (e.g. negative)
      // must throw from the Campaign ctor like its config-file twin would,
      // not be silently dropped here.
      if (args.parallel_set)
        cfg.set("parallel_scenarios", std::to_string(args.parallel));
      if (!args.metrics_out.empty()) cfg.set("metrics_out", args.metrics_out);
      if (!args.trace_out.empty()) cfg.set("trace_out", args.trace_out);
      if (args.statusz_set)
        cfg.set("statusz_port", std::to_string(args.statusz_port));
      if (!args.metrics_stream.empty())
        cfg.set("metrics_stream", args.metrics_stream);
      // The campaign's per-scenario progress logs at debug; the faults
      // frontend keeps it visible by default (matching the CLI's historical
      // output), unless the config or a flag says otherwise. --quiet wins.
      if (args.quiet) cfg.set("log_level", "quiet");
      else if (!args.log_level.empty()) cfg.set("log_level", args.log_level);
      else if (!cfg.has("log_level")) cfg.set("log_level", "debug");
      return faultsim::campaign_from_config(cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad campaign config%s%s: %s\n",
                   args.config.empty() ? "" : " ", args.config.c_str(), e.what());
      std::exit(2);
    }
  }();

  data::DigitsSpec spec;
  spec.train_count = args.train;
  spec.test_count = args.test;
  data::SplitDataset ds = data::make_digits(spec);

  core::PipelineConfig cfg;
  cfg.name = "faults-lenet-digits";
  cfg.sigma = args.sigma;
  cfg.base_train.epochs = args.epochs;
  cfg.lipschitz_train.epochs = args.epochs;
  cfg.comp_train.epochs = args.comp_epochs;
  cfg.comp_train.lr = 2e-3f;
  cfg.mc.samples = 4;  // pipeline-internal MC; the campaign does the real sweep
  cfg.plan_mode = core::PlanMode::kFixedRatio;
  cfg.log = [](const std::string& s) { std::printf("%s\n", s.c_str()); };
  auto make_model = [](Rng& rng) { return models::lenet5(1, 28, 10, rng); };
  core::PipelineResult r = core::run_correctnet(make_model, ds.train, ds.test, cfg);

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
  obs::MetricsSnapshotter::stop_global();  // final partial-interval line
  // Campaign::run already wrote these (config keys metrics_out/trace_out);
  // just point at them.
  const std::string metrics_path = args.metrics_out;
  const std::string trace_path = args.trace_out;
  if (!metrics_path.empty()) std::printf("metrics -> %s\n", metrics_path.c_str());
  if (!trace_path.empty()) std::printf("trace -> %s\n", trace_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  // Environment observability hookup first (CORRECTNET_METRICS / _TRACE /
  // _LOG), so it covers every command including the subcommands; flags below
  // layer on top.
  try {
    obs::init_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", obs::build_info_line().c_str());
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "faults") == 0) return run_faults(argc, argv);
  const Args args = parse(argc, argv);
  if (args.statusz_port >= 0 || !args.metrics_stream.empty()) {
    try {
      if (args.statusz_port >= 0)
        obs::ExpositionServer::start_global(
            static_cast<int>(args.statusz_port))
            .set_ready(true);
      if (!args.metrics_stream.empty())
        obs::MetricsSnapshotter::start_global(args.metrics_stream);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
  }
  if (!args.log_level.empty()) {
    try {
      obs::Logger::global().set_level(obs::parse_log_level(args.log_level));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
  }
  if (!args.trace_out.empty()) obs::Tracer::global().set_enabled(true);

  // Dataset.
  data::SplitDataset ds;
  int num_classes = 10;
  int64_t in_c = 1, in_hw = 28;
  if (args.dataset == "digits") {
    data::DigitsSpec spec;
    spec.train_count = args.train;
    spec.test_count = args.test;
    ds = data::make_digits(spec);
  } else if (args.dataset == "objects10" || args.dataset == "objects100") {
    data::ObjectsSpec spec;
    spec.num_classes = (args.dataset == "objects100") ? 100 : 10;
    num_classes = static_cast<int>(spec.num_classes);
    spec.train_count = args.train;
    spec.test_count = args.test;
    if (num_classes >= 100) {
      spec.noise_std = 0.35f;
      spec.class_similarity = 0.4f;
      spec.jitter_frac = 0.1f;
    } else {
      spec.noise_std = 0.7f;
      spec.class_similarity = 0.6f;
      spec.jitter_frac = 0.15f;
    }
    ds = data::make_objects(spec);
    in_c = 3;
    in_hw = 32;
  } else {
    usage(argv[0]);
  }

  core::PipelineConfig cfg;
  cfg.name = args.net + "-" + args.dataset;
  cfg.sigma = args.sigma;
  cfg.base_train.epochs = args.epochs;
  cfg.lipschitz_train.epochs = args.epochs;
  cfg.lipschitz_train.lipschitz.beta = args.beta;
  cfg.lipschitz_train.lipschitz.lambda_min = args.lambda_min;
  cfg.lipschitz_train.lipschitz_warmup_epochs = args.warmup;
  cfg.comp_train.epochs = args.comp_epochs;
  cfg.comp_train.lr = 2e-3f;
  cfg.mc.samples = args.mc;
  cfg.fixed_ratio = args.ratio;
  cfg.max_candidates = args.max_layers;
  cfg.plan_mode = args.rl ? core::PlanMode::kRl : core::PlanMode::kFixedRatio;
  if (args.rl) {
    cfg.search.reinforce.iterations = 10;
    cfg.search.comp_train.epochs = 1;
    cfg.search.mc.samples = std::max(3, args.mc / 4);
    cfg.search.overhead_limit = 0.05f;
  }
  cfg.log = [](const std::string& s) { std::printf("%s\n", s.c_str()); };

  auto make_model = [&](Rng& rng) -> nn::Sequential {
    if (args.net == "vgg") {
      models::VggConfig vcfg;
      vcfg.num_classes = num_classes;
      return models::vgg16(vcfg, rng);
    }
    return models::lenet5(in_c, in_hw, num_classes, rng);
  };

  core::PipelineResult r =
      core::run_correctnet(make_model, ds.train, ds.test, cfg);

  std::printf("\n==== %s, sigma = %.2f ====\n", cfg.name.c_str(), args.sigma);
  std::printf("clean:       baseline %.2f%%, lipschitz %.2f%%\n",
              100.0 * r.clean_acc_base, 100.0 * r.clean_acc_lipschitz);
  std::printf("variations:  baseline %.2f%% +- %.2f%%\n", 100.0 * r.base_var.mean,
              100.0 * r.base_var.stddev);
  std::printf("suppressed:  %.2f%% +- %.2f%%\n", 100.0 * r.lipschitz_var.mean,
              100.0 * r.lipschitz_var.stddev);
  std::printf("CorrectNet:  %.2f%% +- %.2f%%  (overhead %.2f%%, %lld layers)\n",
              100.0 * r.corrected_var.mean, 100.0 * r.corrected_var.stddev,
              100.0 * r.overhead, static_cast<long long>(r.comp_layers));

  if (!args.save_prefix.empty()) {
    nn::save_weights(r.base_model, args.save_prefix + "_base.wts");
    nn::save_weights(r.lipschitz_model, args.save_prefix + "_lip.wts");
    nn::save_weights(r.corrected_model, args.save_prefix + "_corrected.wts");
    std::printf("weights saved with prefix %s\n", args.save_prefix.c_str());
  }
  if (!args.metrics_out.empty()) {
    obs::metrics().write_json(args.metrics_out);
    std::printf("metrics -> %s\n", args.metrics_out.c_str());
  }
  if (!args.trace_out.empty()) {
    obs::Tracer::global().write_json(args.trace_out);
    std::printf("trace -> %s\n", args.trace_out.c_str());
  }
  obs::MetricsSnapshotter::stop_global();  // final partial-interval line
  return 0;
}
