#include "core/config.h"

#include <array>
#include <cstdlib>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cli_tables.h"
#include "faultsim/campaign.h"
#include "obs/sinks.h"
#include "runtime/serving_config.h"

namespace cn::core {
namespace {

TEST(RuntimeConfig, SingletonIsStable) {
  const RuntimeConfig& a = RuntimeConfig::get();
  const RuntimeConfig& b = RuntimeConfig::get();
  EXPECT_EQ(&a, &b);
}

TEST(RuntimeConfig, DefaultsAreSane) {
  const RuntimeConfig& c = RuntimeConfig::get();
  EXPECT_GE(c.mc_samples, 1);
  EXPECT_GT(c.epoch_scale, 0.0);
  EXPECT_GE(c.train_cap, 1);
  EXPECT_GE(c.test_cap, 1);
}

TEST(RuntimeConfig, EnvKnobsParseInFullOrThrowNamingTheVariable) {
  // A prefix parse ran CORRECTNET_MC=1O as one sample and 'abc' as the
  // default; every scale knob now parses in full.
  const char* vars[] = {"CORRECTNET_MC", "CORRECTNET_EPOCHS",
                        "CORRECTNET_TRAIN", "CORRECTNET_TEST"};
  std::vector<std::pair<const char*, std::string>> saved;
  for (const char* var : vars) {
    if (const char* old = std::getenv(var)) saved.emplace_back(var, old);
    ::unsetenv(var);
  }
  for (const char* var : vars) {
    for (const char* v : {"1O", "abc", "25x", "-3", "99999999999"}) {
      ::setenv(var, v, 1);
      try {
        RuntimeConfig::from_env();
        ADD_FAILURE() << var << "=" << v << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
            << e.what();
      }
    }
    ::unsetenv(var);
  }
  ::setenv("CORRECTNET_TRAIN", "0", 1);  // a zero cap is no dataset
  EXPECT_THROW(RuntimeConfig::from_env(), std::invalid_argument);
  ::unsetenv("CORRECTNET_TRAIN");

  ::setenv("CORRECTNET_MC", "0", 1);  // zero samples skips Monte-Carlo
  ::setenv("CORRECTNET_EPOCHS", "250", 1);
  ::setenv("CORRECTNET_TEST", "123", 1);
  const RuntimeConfig c = RuntimeConfig::from_env();
  EXPECT_EQ(c.mc_samples, 0);
  EXPECT_DOUBLE_EQ(c.epoch_scale, 2.5);
  EXPECT_EQ(c.train_cap, RuntimeConfig{}.train_cap);
  EXPECT_EQ(c.test_cap, 123);
  for (const char* var : vars) ::unsetenv(var);
  for (const auto& [var, v] : saved) ::setenv(var, v.c_str(), 1);
}

TEST(RuntimeConfig, EpochScalingNeverBelowOne) {
  RuntimeConfig c;
  c.epoch_scale = 0.01;
  EXPECT_EQ(c.epochs(5), 1);
  c.epoch_scale = 1.0;
  EXPECT_EQ(c.epochs(5), 5);
  c.epoch_scale = 2.0;
  EXPECT_EQ(c.epochs(5), 10);
  c.epoch_scale = 0.5;
  EXPECT_EQ(c.epochs(5), 3);  // rounds to nearest
}

TEST(KeyValueConfig, ParsesCommentsWhitespaceAndEmptyValues) {
  const KeyValueConfig cfg = KeyValueConfig::from_string(
      "# a comment line\n"
      "  chips = 8   # trailing comment\n"
      "name= lenet \n"
      "rate=0.5\n"
      "list = 1, 2.5 ,3\n"
      "empty =\n"
      "\n"
      "   \t\n");
  EXPECT_TRUE(cfg.has("chips"));
  EXPECT_EQ(integer<int64_t>(cfg.str("chips")), 8);
  EXPECT_EQ(cfg.str("name", "x"), "lenet");
  EXPECT_DOUBLE_EQ(number(cfg.str("rate")), 0.5);
  const std::vector<double> list = numbers(cfg.str("list"));
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[1], 2.5);
  EXPECT_TRUE(cfg.has("empty"));
  EXPECT_EQ(cfg.str("empty", "d"), "");
  EXPECT_TRUE(numbers(cfg.str("empty")).empty());  // an empty list
  EXPECT_FALSE(cfg.has("missing"));
  EXPECT_EQ(cfg.str("missing", "d"), "d");
}

TEST(KeyValueConfig, DuplicateKeyThrows) {
  // Two values for one knob must not silently race; overrides are flags.
  EXPECT_THROW(KeyValueConfig::from_string("chips = 8\nchips = 12\n"),
               std::runtime_error);
}

TEST(KeyValueConfig, MalformedLineThrows) {
  // 'chips 8' silently ignored would run the default chip count.
  EXPECT_THROW(KeyValueConfig::from_string("chips 8\n"), std::runtime_error);
  EXPECT_THROW(KeyValueConfig::from_string("chips = 8\nnot a pair\n"),
               std::runtime_error);
  // '= value' has no key.
  EXPECT_THROW(KeyValueConfig::from_string("= 3\n"), std::runtime_error);
}

TEST(KeyValueConfig, EmptyConfigThrows) {
  // A config with no pairs at all (empty file, or only comments) is a
  // mistake, not an empty campaign.
  EXPECT_THROW(KeyValueConfig::from_string(""), std::runtime_error);
  EXPECT_THROW(KeyValueConfig::from_string("# only comments\n\n"),
               std::runtime_error);
}

TEST(KeyValueConfig, UnknownKeysFailValidation) {
  const KeyValueConfig cfg =
      KeyValueConfig::from_string("chips = 8\nstuck.ratez = 0.1\n");
  EXPECT_THROW(cfg.validate_keys({"chips", "stuck.rates"}), std::runtime_error);
  EXPECT_NO_THROW(cfg.validate_keys({"chips", "stuck.ratez"}));
}

TEST(KeyValueConfig, UnparsableListCellThrows) {
  // A typo'd severity must not silently shrink a campaign grid.
  const KeyValueConfig cfg =
      KeyValueConfig::from_string("rates = 0.1, o.2\ntrailing = 0.5x\n");
  EXPECT_THROW(numbers(cfg.str("rates")), std::invalid_argument);
  EXPECT_THROW(numbers(cfg.str("trailing")), std::invalid_argument);
}

TEST(KeyValueConfig, PartialScalarParsesThrow) {
  // 'chips = 1O' must not silently run with 1 chip instead of 10.
  const KeyValueConfig cfg =
      KeyValueConfig::from_string("chips = 1O\nrate = 0.5x\n");
  EXPECT_THROW(integer<int64_t>(cfg.str("chips")), std::invalid_argument);
  EXPECT_THROW(number(cfg.str("rate")), std::invalid_argument);
}

// ---------- the knob rows, their reader and scanner ----------

struct Toy {
  int n = 3;
  double x = 0.0;
  bool on = false;
  std::vector<int64_t> ids;
};

const Knobs<Toy>& toy_table() {
  static const Knobs<Toy> rows = {
      {"CN_TEST_TOY_N", "n", "--n", "N",
       [](Toy& t, const std::string& v) { t.n = integer<int>(v, 1); }},
      {"", "x", "--x", "X", [](Toy& t, const std::string& v) { t.x = number(v); }},
      {"", "", "--on", "", [](Toy& t, const std::string& v) { t.on = switch01(v); }},
      {"", "ids", "", "", [](Toy& t, const std::string& v) { t.ids = integers(v); }},
  };
  return rows;
}

std::string toy_error(const std::string& text, const Flags& flags = {}) {
  try {
    Toy t;
    read_knobs(toy_table(), t, KeyValueConfig::from_string(text), flags);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Knobs, FlagBeatsKeyBeatsEnvAndEveryParserIsStrict) {
  ::setenv("CN_TEST_TOY_N", "5", 1);
  Toy t;
  read_knobs(toy_table(), t);
  EXPECT_EQ(t.n, 5);
  read_knobs(toy_table(), t, KeyValueConfig::from_string("n = 6\nids = 1, 2\n"));
  EXPECT_EQ(t.n, 6);
  EXPECT_EQ(t.ids, (std::vector<int64_t>{1, 2}));
  read_knobs(toy_table(), t, KeyValueConfig::from_string("n = 6\n"),
             {{"--n", "7"}, {"--on", "1"}, {"--x", "-2.5"}});
  EXPECT_EQ(t.n, 7);
  EXPECT_TRUE(t.on);
  EXPECT_DOUBLE_EQ(t.x, -2.5);
  ::setenv("CN_TEST_TOY_N", "", 1);  // an empty variable is no value
  Toy fresh;
  read_knobs(toy_table(), fresh);
  EXPECT_EQ(fresh.n, 3);
  ::unsetenv("CN_TEST_TOY_N");

  EXPECT_EQ(toy_error("n = 0\n"), "n expects an integer >= 1, got '0'");
  EXPECT_EQ(toy_error("n = 99999999999\n"),
            "n expects an integer >= 1, got '99999999999'");
  EXPECT_EQ(toy_error("x = 1\n", {{"--n", "2x"}}),
            "--n expects an integer >= 1, got '2x'");
  EXPECT_EQ(toy_error("x = 1x\n"), "x expects a number, got '1x'");
  EXPECT_EQ(toy_error("x =\n"), "x expects a number, got ''");
  EXPECT_EQ(toy_error("x = 1\n", {{"--on", "yes"}}), "--on expects 0 or 1, got 'yes'");
  EXPECT_EQ(toy_error("ids = 0, 0.5\n"), "ids expects an integer, got '0.5'");
  EXPECT_EQ(toy_error("x = 1\n", {{"--ids", "1"}}), "unknown flag --ids");
  EXPECT_EQ(toy_error("ids = 1,, 2\n"), "");  // empty cells are skipped
}

TEST(Knobs, KeysUsageAndTheArgvScannerDeriveFromTheRows) {
  EXPECT_EQ(knob_keys(toy_table()), (std::vector<std::string>{"n", "x", "ids"}));
  const KnobTables<Toy, obs::Sinks> tables{toy_table(), obs::sink_table()};
  EXPECT_EQ(tables_usage(tables, "  "),
            "[--n N] [--x X] [--on]\n  [--metrics-out FILE] [--trace-out FILE] "
            "[--log-level quiet|info|debug] [--statusz-port PORT] "
            "[--metrics-stream FILE]");
  std::vector<std::string> args = {"prog", "--on", "--log-level", "quiet", "--n", "4"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const auto flags = scan_flags(static_cast<int>(argv.size()), argv.data(), 1, tables);
  EXPECT_EQ(flags[0], (Flags{{"--on", "1"}, {"--n", "4"}}));
  EXPECT_EQ(flags[1], (Flags{{"--log-level", "quiet"}}));

  auto scan_error = [&](std::vector<std::string> words) {
    std::vector<char*> v;
    for (std::string& w : words) v.push_back(w.data());
    try {
      scan_flags(static_cast<int>(v.size()), v.data(), 1, tables);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(scan_error({"prog", "--n"}), "--n needs a value");
  EXPECT_EQ(scan_error({"prog", "--bogus", "1"}), "unknown flag --bogus");
  EXPECT_EQ(scan_error({"prog", "4"}), "unknown flag 4");
}

// Throws std::logic_error when an env variable, key or flag appears twice
// across `tables`: the scanner would hand a flag to the first table only.
template <typename... T>
void check_distinct(const KnobTables<T...>& tables) {
  std::set<std::string> seen;
  auto add = [&seen](const auto& table) {
    for (const auto& row : table)
      for (const char* s : {row.env, row.key, row.flag})
        if (*s && !seen.insert(s).second)
          throw std::logic_error(std::string("knob '") + s + "' appears twice");
  };
  std::apply([&](const auto&... t) { (add(t), ...); }, tables);
}

template <typename T>
size_t count_flags(const Knobs<T>& table) {
  size_t n = 0;
  for (const Knob<T>& row : table) n += *row.flag ? 1 : 0;
  return n;
}

TEST(Knobs, NoSpellingAppearsTwiceAcrossTheTablesOneCommandReads) {
  // Each command scans exactly these tables (examples/cli_tables.h); the
  // paper driver reads only the runtime table.
  EXPECT_NO_THROW(check_distinct(examples::cli_tables()));
  EXPECT_NO_THROW(check_distinct(examples::faults_tables()));
  EXPECT_NO_THROW(check_distinct(examples::serve_tables()));
  EXPECT_NO_THROW(check_distinct(examples::sweep_tables()));
  EXPECT_NO_THROW(check_distinct(KnobTables<RuntimeConfig>{runtime_table()}));
  // The same flags as before the tables: main 5 own + 10 recipe + 5 sink,
  // faults 2 own + 3 campaign + 5 recipe + 5 sink, serve_demo 4 own + 5
  // serving + 5 sink, fault_sweep 4 own.
  auto flag_count = [](const auto& tables) {
    size_t n = 0;
    std::apply([&](const auto&... t) { ((n += count_flags(t)), ...); }, tables);
    return n;
  };
  EXPECT_EQ(flag_count(examples::cli_tables()), 20u);
  EXPECT_EQ(flag_count(examples::faults_tables()), 15u);
  EXPECT_EQ(flag_count(examples::serve_tables()), 14u);
  EXPECT_EQ(flag_count(examples::sweep_tables()), 4u);
  EXPECT_THROW(check_distinct(KnobTables<obs::Sinks, obs::Sinks>{obs::sink_table(),
                                                                 obs::sink_table()}),
               std::logic_error);
}

TEST(ConfigDocs, CampaignTableMatchesDeclaredKeySet) {
  // docs/CONFIG.md documents every campaign config key in a table between
  // `campaign-keys:begin/end` markers; faultsim::campaign_config_keys() is
  // the set campaign_from_config hands to validate_keys. This test diffs the
  // two, so a key added in code without documentation — or documented
  // without being declared — fails tier-1.
  std::ifstream in(std::string(CN_SOURCE_DIR) + "/docs/CONFIG.md");
  ASSERT_TRUE(in.is_open()) << "docs/CONFIG.md missing under " << CN_SOURCE_DIR;

  std::set<std::string> documented;
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line.find("campaign-keys:begin") != std::string::npos) in_table = true;
    if (line.find("campaign-keys:end") != std::string::npos) in_table = false;
    // A documented key is the first backticked token of a table row.
    if (!in_table || line.rfind("| `", 0) != 0) continue;
    const size_t open = line.find('`');
    const size_t close = line.find('`', open + 1);
    ASSERT_NE(close, std::string::npos) << "unterminated key cell: " << line;
    documented.insert(line.substr(open + 1, close - open - 1));
  }
  ASSERT_FALSE(documented.empty())
      << "campaign-keys markers or table rows missing from docs/CONFIG.md";

  const auto& declared_list = faultsim::campaign_config_keys();
  const std::set<std::string> declared(declared_list.begin(),
                                       declared_list.end());
  for (const std::string& k : declared)
    EXPECT_TRUE(documented.count(k))
        << "key `" << k << "` is declared in campaign_config_keys() but "
        << "undocumented in docs/CONFIG.md";
  for (const std::string& k : documented)
    EXPECT_TRUE(declared.count(k))
        << "key `" << k << "` is documented in docs/CONFIG.md but not "
        << "declared in campaign_config_keys()";
}

TEST(ConfigDocs, SinkTableMatchesTheKnobTable) {
  // docs/CONFIG.md's `sink-table:begin/end` table lists every observability
  // sink as env | key | flag | meaning; obs::sink_table() is the code table.
  // Rows must match in order, with "—" for a missing key or flag.
  std::ifstream in(std::string(CN_SOURCE_DIR) + "/docs/CONFIG.md");
  ASSERT_TRUE(in.is_open()) << "docs/CONFIG.md missing under " << CN_SOURCE_DIR;

  using Row = std::array<std::string, 3>;
  std::vector<Row> documented;
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line.find("sink-table:begin") != std::string::npos) in_table = true;
    if (line.find("sink-table:end") != std::string::npos) in_table = false;
    if (!in_table || line.rfind("| `", 0) != 0) continue;
    // The first three cells, each a backticked spelling or "—".
    Row row;
    size_t at = 0;
    for (std::string& cell : row) {
      const size_t open = line.find('|', at);
      const size_t close = line.find('|', open + 1);
      ASSERT_NE(close, std::string::npos) << "short row: " << line;
      std::string text = line.substr(open + 1, close - open - 1);
      const size_t b = text.find('`');
      if (b != std::string::npos)
        cell = text.substr(b + 1, text.find('`', b + 1) - b - 1);
      at = close;
    }
    documented.push_back(row);
  }
  ASSERT_FALSE(documented.empty())
      << "sink-table markers or table rows missing from docs/CONFIG.md";

  std::vector<Row> declared;
  for (const obs::SinkRow& r : obs::sink_table())
    declared.push_back(Row{r.env, r.key, r.flag});
  ASSERT_EQ(documented.size(), declared.size());
  for (size_t i = 0; i < declared.size(); ++i)
    EXPECT_EQ(documented[i], declared[i])
        << "docs/CONFIG.md sink row " << i << " (" << documented[i][0]
        << ") differs from obs::sink_table() row " << declared[i][0];
}

TEST(CampaignConfig, UnknownKeyThrows) {
  // campaign_from_config validates its key set before building anything.
  // `target` picked an execution target until the simd kernels became the
  // only one, and `fusion` switched layer-graph fusion until it became
  // always on; a config that still sets either must fail, not be ignored.
  EXPECT_NO_THROW(faultsim::campaign_from_config(
      KeyValueConfig::from_string("stuck.rates = 0.01\n")));
  EXPECT_THROW(faultsim::campaign_from_config(KeyValueConfig::from_string(
                   "stuck.rates = 0.01\ntarget = simd\n")),
               std::runtime_error);
  EXPECT_THROW(faultsim::campaign_from_config(KeyValueConfig::from_string(
                   "stuck.rates = 0.01\nfusion = 0\n")),
               std::runtime_error);
}

TEST(CampaignConfig, TheExampleConfigBuildsItsGridAndAFlagBeatsItsKey) {
  // README advertises examples/fault_campaign.cfg; CI runs it with
  // `--chips 2`, the flag column of the chips row.
  const KeyValueConfig cfg = KeyValueConfig::from_file(
      std::string(CN_SOURCE_DIR) + "/examples/fault_campaign.cfg");
  const faultsim::Campaign c = faultsim::campaign_from_config(cfg);
  // control + 3 stuck-at + 3 drift + 2 IR drop + 2 thermal
  EXPECT_EQ(c.num_faults(), 11);
  EXPECT_EQ(c.chips(), 6);
  EXPECT_FALSE(c.remap_enabled());
  const faultsim::Campaign flagged = faultsim::campaign_from_config(
      cfg, {{"--chips", "2"}, {"--remap", "1"}, {"--parallel", "2"}});
  EXPECT_EQ(flagged.num_faults(), 11);
  EXPECT_EQ(flagged.chips(), 2);
  EXPECT_TRUE(flagged.remap_enabled());
  EXPECT_EQ(flagged.parallel_scenarios(), 2);
}

TEST(KeyValueConfig, MissingFileThrows) {
  EXPECT_THROW(KeyValueConfig::from_file("/nonexistent/campaign.cfg"),
               std::runtime_error);
}

TEST(ConfigDocs, ServingTableMatchesDeclaredKeySet) {
  // Same contract as the campaign table, for the serving-policy key set:
  // docs/CONFIG.md's `serving-keys:begin/end` table must stay in lockstep
  // with runtime::serving_config_keys().
  std::ifstream in(std::string(CN_SOURCE_DIR) + "/docs/CONFIG.md");
  ASSERT_TRUE(in.is_open()) << "docs/CONFIG.md missing under " << CN_SOURCE_DIR;

  std::set<std::string> documented;
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line.find("serving-keys:begin") != std::string::npos) in_table = true;
    if (line.find("serving-keys:end") != std::string::npos) in_table = false;
    if (!in_table || line.rfind("| `", 0) != 0) continue;
    const size_t open = line.find('`');
    const size_t close = line.find('`', open + 1);
    ASSERT_NE(close, std::string::npos) << "unterminated key cell: " << line;
    documented.insert(line.substr(open + 1, close - open - 1));
  }
  ASSERT_FALSE(documented.empty())
      << "serving-keys markers or table rows missing from docs/CONFIG.md";

  const auto& declared_list = runtime::serving_config_keys();
  const std::set<std::string> declared(declared_list.begin(),
                                       declared_list.end());
  for (const std::string& k : declared)
    EXPECT_TRUE(documented.count(k))
        << "key `" << k << "` is declared in serving_config_keys() but "
        << "undocumented in docs/CONFIG.md";
  for (const std::string& k : documented)
    EXPECT_TRUE(declared.count(k))
        << "key `" << k << "` is documented in docs/CONFIG.md but not "
        << "declared in serving_config_keys()";
}

TEST(ServingConfig, ParsesOverridesAndDefaults) {
  const KeyValueConfig cfg = KeyValueConfig::from_string(
      "models = alpha, beta\nchips = 3\nworkers = 4\nqueue_limit = 32\n"
      "queue_budget_us = 5000\ndrill.kind = stuck_at\ndrill.severity = 0.05\n"
      "drill.workers = 1, 2\ndrill.action = evict\n");
  const runtime::ServingConfig sc = runtime::serving_from_config(cfg);
  ASSERT_EQ(sc.models.size(), 2u);
  EXPECT_EQ(sc.models[0], "alpha");
  EXPECT_EQ(sc.models[1], "beta");
  EXPECT_EQ(sc.chips, 3);
  EXPECT_EQ(sc.workers, 4);
  EXPECT_EQ(sc.queue_limit, 32);
  EXPECT_EQ(sc.queue_budget_us, 5000);
  EXPECT_EQ(sc.drill_kind, "stuck_at");
  EXPECT_EQ(sc.drill_action, "evict");
  ASSERT_EQ(sc.drill_workers.size(), 2u);
  EXPECT_EQ(sc.drill_workers[0], 1);
  EXPECT_EQ(sc.drill_workers[1], 2);
  // Untouched knobs keep their defaults.
  EXPECT_EQ(sc.max_batch, 16);
  EXPECT_EQ(sc.live_slots, 0);
}

TEST(ServingConfig, RejectsMalformedDeployments) {
  auto parse = [](const std::string& text) {
    return runtime::serving_from_config(KeyValueConfig::from_string(text));
  };
  EXPECT_THROW(parse("models = alpha, alpha\n"), std::runtime_error)
      << "duplicate model ids";
  EXPECT_THROW(parse("models = alpha,,beta\n"), std::runtime_error)
      << "empty model id cell";
  EXPECT_THROW(parse("models = a\nworkers = 0\n"), std::runtime_error);
  EXPECT_THROW(parse("models = a\nqueue_limit = -1\n"), std::runtime_error);
  EXPECT_THROW(parse("models = a\ndrill.action = reboot\n"),
               std::runtime_error);
  EXPECT_THROW(parse("models = a\nworkers = 2\ndrill.workers = 2\n"),
               std::runtime_error)
      << "drill worker index outside [0, workers)";
  EXPECT_THROW(parse("models = a\nbogus_key = 1\n"), std::runtime_error);
  // Worker indices are integers: 0.5 and 1.9 were truncated to 0 and 1.
  EXPECT_THROW(parse("models = a\ndrill.workers = 0.5\n"), std::invalid_argument);
  EXPECT_THROW(parse("models = a\ndrill.workers = 0, 1.9\n"), std::invalid_argument);
}

}  // namespace
}  // namespace cn::core
