#include "core/config.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cn::core {

namespace {
int64_t env_int(const char* name, int64_t def, int64_t min) {
  const char* v = std::getenv(name);
  if (!v || !*v) return def;
  int64_t n = 0;
  if (!parse_integer(v, n) || n < min || n > std::numeric_limits<int>::max())
    throw std::invalid_argument(std::string(name) + " expects an integer >= " +
                                std::to_string(min) + ", got '" + v + "'");
  return n;
}
}  // namespace

int RuntimeConfig::epochs(int base) const {
  return std::max(1, static_cast<int>(base * epoch_scale + 0.5));
}

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig c;
  // MC = 0 skips Monte-Carlo; a zero epoch scale still trains one epoch.
  c.mc_samples = static_cast<int>(env_int("CORRECTNET_MC", c.mc_samples, 0));
  c.epoch_scale =
      static_cast<double>(env_int("CORRECTNET_EPOCHS", 100, 0)) / 100.0;
  c.train_cap = env_int("CORRECTNET_TRAIN", c.train_cap, 1);
  c.test_cap = env_int("CORRECTNET_TEST", c.test_cap, 1);
  return c;
}

const RuntimeConfig& RuntimeConfig::get() {
  static const RuntimeConfig cfg = from_env();
  return cfg;
}

bool parse_integer(const std::string& s, int64_t& out) {
  size_t pos = 0;
  try {
    out = std::stoll(s, &pos);
  } catch (...) {
    return false;
  }
  return pos == s.size();
}

bool parse_number(const std::string& s, double& out) {
  size_t pos = 0;
  try {
    out = std::stod(s, &pos);
  } catch (...) {
    return false;
  }
  return pos == s.size();
}

namespace {
std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}
}  // namespace

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

void KeyValueConfig::set(const std::string& key, const std::string& value) {
  for (auto& kv : kv_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  kv_.emplace_back(key, value);
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

int64_t KeyValueConfig::integer(const std::string& key, int64_t def) const {
  const std::string* v = find(key);
  if (!v || v->empty()) return def;
  int64_t parsed = 0;
  // Partial parses fail loudly: '1O' silently meaning 1 would mis-size runs.
  if (!parse_integer(*v, parsed))
    throw std::runtime_error("KeyValueConfig: unparsable integer '" + *v +
                             "' in key '" + key + "'");
  return parsed;
}

double KeyValueConfig::number(const std::string& key, double def) const {
  const std::string* v = find(key);
  if (!v || v->empty()) return def;
  double parsed = 0.0;
  if (!parse_number(*v, parsed))
    throw std::runtime_error("KeyValueConfig: unparsable number '" + *v +
                             "' in key '" + key + "'");
  return parsed;
}

std::vector<double> KeyValueConfig::numbers(const std::string& key,
                                            std::vector<double> def) const {
  const std::string* v = find(key);
  if (!v) return def;
  std::vector<double> out;
  std::istringstream is(*v);
  std::string cell;
  while (std::getline(is, cell, ',')) {
    cell = trimmed(cell);
    if (cell.empty()) continue;
    // A typo'd cell must fail loudly: silently dropping it would shrink a
    // campaign grid with no trace in the report.
    double parsed = 0.0;
    if (!parse_number(cell, parsed))
      throw std::runtime_error("KeyValueConfig: unparsable number '" + cell +
                               "' in key '" + key + "'");
    out.push_back(parsed);
  }
  return out;
}

}  // namespace cn::core
