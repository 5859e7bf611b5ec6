#include "core/config.h"

#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "faultsim/campaign.h"
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
  EXPECT_EQ(cfg.integer("chips", -1), 8);
  EXPECT_EQ(cfg.str("name", "x"), "lenet");
  EXPECT_DOUBLE_EQ(cfg.number("rate", 0.0), 0.5);
  const std::vector<double> list = cfg.numbers("list");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[1], 2.5);
  EXPECT_TRUE(cfg.has("empty"));
  EXPECT_EQ(cfg.str("empty", "d"), "");
  EXPECT_EQ(cfg.integer("empty", 4), 4);  // empty value -> default
  EXPECT_FALSE(cfg.has("missing"));
  EXPECT_TRUE(cfg.numbers("missing").empty());
  EXPECT_EQ(cfg.numbers("missing", {7.0}).size(), 1u);
}

TEST(KeyValueConfig, SetOverridesOrAppends) {
  // The override layer the CLI flags use now that duplicate keys throw.
  KeyValueConfig cfg = KeyValueConfig::from_string("chips = 8\n");
  cfg.set("chips", "12");
  EXPECT_EQ(cfg.integer("chips", -1), 12);
  cfg.set("remap", "1");
  EXPECT_EQ(cfg.integer("remap", 0), 1);
}

TEST(KeyValueConfig, DuplicateKeyThrows) {
  // Two values for one knob must not silently race; overrides go via set().
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
  EXPECT_THROW(cfg.numbers("rates"), std::runtime_error);
  EXPECT_THROW(cfg.numbers("trailing"), std::runtime_error);
}

TEST(KeyValueConfig, PartialScalarParsesThrow) {
  // 'chips = 1O' must not silently run with 1 chip instead of 10.
  const KeyValueConfig cfg =
      KeyValueConfig::from_string("chips = 1O\nrate = 0.5x\n");
  EXPECT_THROW(cfg.integer("chips", 8), std::runtime_error);
  EXPECT_THROW(cfg.number("rate", 0.0), std::runtime_error);
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
}

}  // namespace
}  // namespace cn::core
