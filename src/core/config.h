// The one knob table: every environment variable, config key and
// command-line flag is one Knob row of a table over the struct it sets
// (docs/CONFIG.md lists them all). A row parses its value with one strict
// parser per type; a bad value throws std::invalid_argument naming the
// spelling ("--chips expects an integer, got '1O'"). read_knobs layers the
// environment, a KeyValueConfig, then flags (flag > key > env) without side
// effects; the key lists, usage lines and the argv scanner derive from the
// rows.
#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace cn::core {

// ---------- strict value parsers: all of `v` or invalid_argument ----------

/// Throws std::invalid_argument("expects <want>, got '<v>'").
[[noreturn]] void bad_value(const std::string& want, const std::string& v);
/// An integer in [lo, hi]; the message names "an integer >= lo" when
/// `show_floor`, else "an integer".
int64_t integer_in(const std::string& v, int64_t lo, int64_t hi, bool show_floor);
/// An integer in the range of I and, when given, not below `floor`.
template <typename I>
I integer(const std::string& v, I floor = std::numeric_limits<I>::min()) {
  static_assert(std::is_signed_v<I>, "knob integers are signed");
  return static_cast<I>(integer_in(v, floor, std::numeric_limits<I>::max(),
                                   floor != std::numeric_limits<I>::min()));
}
double number(const std::string& v);
bool switch01(const std::string& v);  // "0" or "1"
/// Comma-separated, whitespace-trimmed cells, each parsed as above; empty
/// cells are skipped, so "" is the empty list.
std::vector<int64_t> integers(const std::string& v);
std::vector<double> numbers(const std::string& v);

/// `key = value` config-file reader: one pair per line, '#' starts a comment,
/// whitespace around keys and values is trimmed. A non-blank line without
/// '=', a duplicate key and a config with no pairs (an empty file) throw
/// std::runtime_error. read_knobs parses the values through the rows.
class KeyValueConfig {
 public:
  KeyValueConfig() = default;
  /// Throws std::runtime_error when the file cannot be opened or parsed.
  static KeyValueConfig from_file(const std::string& path);
  static KeyValueConfig from_string(const std::string& text);

  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// Throws std::runtime_error naming every key not in `known` (knob_keys),
  /// so an unknown (typo'd) key cannot be silently ignored.
  void validate_keys(const std::vector<std::string>& known) const;
  std::string str(const std::string& key, const std::string& def = "") const;

 private:
  const std::string* find(const std::string& key) const;
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// One knob over a target struct T: its env variable, config key and flag
/// ("" when absent), and the flag's value in usage lines ("" makes the flag
/// a switch that takes no value and reads as "1").
template <typename T>
struct Knob {
  const char* env;
  const char* key;
  const char* flag;
  const char* value;
  void (*set)(T&, const std::string&);  // strict; throws on a bad value
};
template <typename T>
using Knobs = std::vector<Knob<T>>;
/// The tables one command reads, in scan order.
template <typename... T>
using KnobTables = std::tuple<const Knobs<T>&...>;
/// Command-line (flag, value) pairs in the order given.
using Flags = std::vector<std::pair<std::string, std::string>>;

template <typename T>
const Knob<T>* flag_row(const Knobs<T>& table, const std::string& flag) {
  for (const Knob<T>& row : table)
    if (*row.flag && flag == row.flag) return &row;
  return nullptr;
}

template <typename T>
std::vector<std::string> knob_keys(const Knobs<T>& table) {
  std::vector<std::string> keys;
  for (const Knob<T>& row : table)
    if (*row.key) keys.emplace_back(row.key);
  return keys;
}

/// Layers env < key < flag into `out`. An unset or empty env variable is no
/// value; a flag with no row throws.
template <typename T>
void read_knobs(const Knobs<T>& table, T& out, const KeyValueConfig& cfg = {},
                const Flags& flags = {}) {
  auto apply = [&out](const Knob<T>& row, const std::string& spelling,
                      const std::string& v) {
    try {
      row.set(out, v);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(spelling + " " + e.what());
    }
  };
  for (const Knob<T>& row : table) {
    const char* v = *row.env ? std::getenv(row.env) : nullptr;
    if (v && *v) apply(row, row.env, v);
  }
  for (const Knob<T>& row : table)
    if (*row.key && cfg.has(row.key)) apply(row, row.key, cfg.str(row.key));
  for (const auto& [flag, v] : flags) {
    const Knob<T>* row = flag_row(table, flag);
    if (!row) throw std::invalid_argument("unknown flag " + flag);
    apply(*row, flag, v);
  }
}

/// "[--flag VALUE] [--switch] ..." per table with flags, joined by
/// "\n" + indent.
template <typename... T>
std::string tables_usage(const KnobTables<T...>& tables, const std::string& indent) {
  std::string out;
  auto add = [&](const auto& table) {
    std::string line;
    for (const auto& row : table)
      if (*row.flag)
        line += std::string(line.empty() ? "[" : " [") + row.flag +
                (*row.value ? std::string(" ") + row.value : "") + "]";
    if (!line.empty()) out += (out.empty() ? "" : "\n" + indent) + line;
  };
  std::apply([&](const auto&... t) { (add(t), ...); }, tables);
  return out;
}

/// Scans argv[first..] into one Flags list per table. An argument that is
/// no table's flag, or a value flag at the end of argv, throws
/// std::invalid_argument; read_knobs parses the values.
template <typename... T>
std::array<Flags, sizeof...(T)> scan_flags(int argc, char** argv, int first,
                                           const KnobTables<T...>& tables) {
  std::array<Flags, sizeof...(T)> out;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    bool found = false;
    size_t k = 0;
    auto try_table = [&](const auto& table) {
      const auto* row = found ? nullptr : flag_row(table, arg);
      if (row && !*row->value) out[k].emplace_back(arg, "1");
      else if (row && i + 1 < argc) out[k].emplace_back(arg, argv[++i]);
      else if (row) throw std::invalid_argument(arg + " needs a value");
      found = found || row;
      ++k;
    };
    std::apply([&](const auto&... t) { (try_table(t), ...); }, tables);
    if (!found) throw std::invalid_argument("unknown flag " + arg);
  }
  return out;
}

/// Experiment scaling knobs, read once from the environment (runtime_table;
/// docs/CONFIG.md). The paper's experiments (250 variation samples, full
/// datasets, GPU training) are scaled to CPU budgets by default; every knob
/// can be raised to paper fidelity.
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

const Knobs<RuntimeConfig>& runtime_table();

}  // namespace cn::core
