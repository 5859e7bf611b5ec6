#include "core/config.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cn::core {

namespace {

std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// The non-empty trimmed cells of a comma-separated list.
std::vector<std::string> cells(const std::string& v) {
  std::vector<std::string> out;
  std::istringstream is(v);
  std::string cell;
  while (std::getline(is, cell, ','))
    if (!(cell = trimmed(cell)).empty()) out.push_back(cell);
  return out;
}

}  // namespace

void bad_value(const std::string& want, const std::string& v) {
  throw std::invalid_argument("expects " + want + ", got '" + v + "'");
}

// Each parse must consume all of `v` ('1O', '3x' and '' all fail), so a
// typo can never silently parse as its prefix.
int64_t integer_in(const std::string& v, int64_t lo, int64_t hi, bool show_floor) {
  size_t pos = 0;
  int64_t n = 0;
  try {
    n = std::stoll(v, &pos);
  } catch (...) {
  }
  if (pos == 0 || pos != v.size() || n < lo || n > hi)
    bad_value(show_floor ? "an integer >= " + std::to_string(lo) : "an integer", v);
  return n;
}

double number(const std::string& v) {
  size_t pos = 0;
  double x = 0.0;
  try {
    x = std::stod(v, &pos);
  } catch (...) {
  }
  if (pos == 0 || pos != v.size()) bad_value("a number", v);
  return x;
}

bool switch01(const std::string& v) {
  if (v != "0" && v != "1") bad_value("0 or 1", v);
  return v == "1";
}

std::vector<int64_t> integers(const std::string& v) {
  std::vector<int64_t> out;
  for (const std::string& cell : cells(v)) out.push_back(integer<int64_t>(cell));
  return out;
}

std::vector<double> numbers(const std::string& v) {
  std::vector<double> out;
  for (const std::string& cell : cells(v)) out.push_back(number(cell));
  return out;
}

const Knobs<RuntimeConfig>& runtime_table() {
  // MC = 0 skips Monte-Carlo; a zero epoch scale still trains one epoch.
  using C = RuntimeConfig;
  using V = const std::string&;
  static const Knobs<RuntimeConfig> rows = {
      {"CORRECTNET_MC", "", "", "", [](C& c, V v) { c.mc_samples = integer<int>(v, 0); }},
      {"CORRECTNET_EPOCHS", "", "", "",
       [](C& c, V v) { c.epoch_scale = integer<int>(v, 0) / 100.0; }},
      {"CORRECTNET_TRAIN", "", "", "", [](C& c, V v) { c.train_cap = integer<int>(v, 1); }},
      {"CORRECTNET_TEST", "", "", "", [](C& c, V v) { c.test_cap = integer<int>(v, 1); }},
  };
  return rows;
}

int RuntimeConfig::epochs(int base) const {
  return std::max(1, static_cast<int>(base * epoch_scale + 0.5));
}

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig c;
  read_knobs(runtime_table(), c);
  return c;
}

const RuntimeConfig& RuntimeConfig::get() {
  static const RuntimeConfig cfg = from_env();
  return cfg;
}

KeyValueConfig KeyValueConfig::from_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("KeyValueConfig: cannot open " + path);
  std::stringstream ss;
  ss << is.rdbuf();
  return from_string(ss.str());
}

KeyValueConfig KeyValueConfig::from_string(const std::string& text) {
  KeyValueConfig cfg;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      // A non-blank line that is not a pair is a malformed config, not
      // decoration: 'chips 8' silently ignored would run the default.
      if (!trimmed(line).empty())
        throw std::runtime_error("KeyValueConfig: malformed line " +
                                 std::to_string(lineno) + " (no '='): '" +
                                 trimmed(line) + "'");
      continue;
    }
    const std::string key = trimmed(line.substr(0, eq));
    if (key.empty())
      throw std::runtime_error("KeyValueConfig: malformed line " +
                               std::to_string(lineno) + " (empty key)");
    // Duplicate keys throw instead of one silently winning; programmatic
    // overrides go through set().
    if (cfg.find(key))
      throw std::runtime_error("KeyValueConfig: duplicate key '" + key +
                               "' at line " + std::to_string(lineno));
    cfg.kv_.emplace_back(key, trimmed(line.substr(eq + 1)));
  }
  if (cfg.kv_.empty())
    throw std::runtime_error(
        "KeyValueConfig: no key=value pairs (empty config)");
  return cfg;
}

void KeyValueConfig::validate_keys(const std::vector<std::string>& known) const {
  std::string unknown;
  for (const auto& kv : kv_) {
    if (std::find(known.begin(), known.end(), kv.first) != known.end()) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += "'" + kv.first + "'";
  }
  if (!unknown.empty())
    throw std::runtime_error("KeyValueConfig: unknown key(s) " + unknown);
}

const std::string* KeyValueConfig::find(const std::string& key) const {
  for (const auto& kv : kv_)
    if (kv.first == key) return &kv.second;
  return nullptr;
}

std::string KeyValueConfig::str(const std::string& key, const std::string& def) const {
  const std::string* v = find(key);
  return v ? *v : def;
}

}  // namespace cn::core
