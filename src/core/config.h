// Experiment scaling knobs, read once from the environment.
//
// The paper's experiments (250 variation samples, full datasets, GPU
// training) are scaled to CPU budgets by default; every knob can be raised
// to paper fidelity:
//   CORRECTNET_MC      Monte-Carlo variation samples per point (default 25)
//   CORRECTNET_EPOCHS  multiplier (x100) on training epochs  (default 100 = 1.0x)
//   CORRECTNET_TRAIN   training-set size cap                  (default none)
//   CORRECTNET_TEST    test-set size cap                      (default 800)
// Each value must parse in full as an integer (>= 0 for MC and EPOCHS, >= 1
// for the caps): '1O' or 'abc' throws std::invalid_argument naming the
// variable instead of running a prefix or the default.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace cn::core {

struct RuntimeConfig {
  int mc_samples = 25;
  double epoch_scale = 1.0;
  int64_t train_cap = std::numeric_limits<int64_t>::max();  // no cap
  int64_t test_cap = 800;

  /// Scales an epoch count by epoch_scale, min 1.
  int epochs(int base) const;

  /// Parses the environment now; throws on a malformed value.
  static RuntimeConfig from_env();
  /// Singleton, parsed from the environment on first use.
  static const RuntimeConfig& get();
};

/// Full-consumption numeric parsing, shared by KeyValueConfig's getters and
/// the CLI flags: false unless all of `s` is one number ('1O', '3x' and ''
/// all fail), so a typo can never silently parse as its prefix.
bool parse_integer(const std::string& s, int64_t& out);
bool parse_number(const std::string& s, double& out);

/// Minimal `key = value` config-file reader: one pair per line, '#' starts a
/// comment, whitespace around keys and values is trimmed. The parser fails
/// loudly on anything that would silently reshape an experiment: a non-blank
/// line without '=', a key that appears twice, and a config with no pairs at
/// all (e.g. an empty file) each throw std::runtime_error. Programmatic
/// overrides (a CLI flag beating a file value) go through set(). Values
/// parse on access: the caller default covers absent or empty keys, while a
/// present value that does not fully parse throws. Drives the fault-campaign
/// CLI (faultsim keys like `stuck.rates`, `drift.times`, `thermal.temps`;
/// see faultsim::campaign_from_config). docs/CONFIG.md is the per-key
/// reference; its campaign table is test-enforced against the declared
/// validate_keys set (faultsim::campaign_config_keys).
class KeyValueConfig {
 public:
  KeyValueConfig() = default;
  /// Throws std::runtime_error when the file cannot be opened or parsed.
  static KeyValueConfig from_file(const std::string& path);
  static KeyValueConfig from_string(const std::string& text);

  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// Sets or replaces a key: the override layer on top of a parsed file.
  void set(const std::string& key, const std::string& value);
  /// Throws std::runtime_error naming every key not in `known` — consumers
  /// declare their key set so an unknown (typo'd) key cannot be silently
  /// ignored.
  void validate_keys(const std::vector<std::string>& known) const;

  std::string str(const std::string& key, const std::string& def = "") const;
  int64_t integer(const std::string& key, int64_t def) const;
  double number(const std::string& key, double def) const;
  /// Comma-separated numeric list; `def` when the key is absent. Unlike the
  /// scalar getters, an unparsable cell throws (a dropped severity value
  /// would silently shrink a campaign grid).
  std::vector<double> numbers(const std::string& key,
                              std::vector<double> def = {}) const;

 private:
  const std::string* find(const std::string& key) const;
  std::vector<std::pair<std::string, std::string>> kv_;
};

}  // namespace cn::core
