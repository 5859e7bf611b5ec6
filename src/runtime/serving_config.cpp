#include "runtime/serving_config.h"

#include <set>
#include <stdexcept>

namespace cn::runtime {

namespace {

// Comma-separated id list, whitespace-trimmed; empty cells throw (a stray
// comma would silently register a ghost model).
std::vector<std::string> split_ids(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    std::string cell = s.substr(pos, comma - pos);
    const size_t b = cell.find_first_not_of(" \t");
    const size_t e = cell.find_last_not_of(" \t");
    cell = b == std::string::npos ? "" : cell.substr(b, e - b + 1);
    if (cell.empty())
      throw std::runtime_error("serving config: empty model id in \"" + s +
                               "\"");
    out.push_back(cell);
    pos = comma + 1;
  }
  return out;
}

}  // namespace

const core::Knobs<ServingConfig>& serving_table() {
  using core::integer, core::number;
  using S = ServingConfig;
  using V = const std::string&;
  static const core::Knobs<ServingConfig> rows = {
      {"", "models", "--models", "a,b", [](S& s, V v) { s.models = split_ids(v); }},
      {"", "chips", "", "", [](S& s, V v) { s.chips = integer<int64_t>(v); }},
      {"", "live_slots", "", "", [](S& s, V v) { s.live_slots = integer<int64_t>(v); }},
      {"", "workers", "", "", [](S& s, V v) { s.workers = integer<int64_t>(v); }},
      {"", "max_batch", "", "", [](S& s, V v) { s.max_batch = integer<int64_t>(v); }},
      {"", "max_wait_us", "", "", [](S& s, V v) { s.max_wait_us = integer<int64_t>(v); }},
      {"", "queue_limit", "--queue-limit", "N",
       [](S& s, V v) { s.queue_limit = integer<int64_t>(v); }},
      {"", "queue_budget_us", "--queue-budget-us", "N",
       [](S& s, V v) { s.queue_budget_us = integer<int64_t>(v); }},
      {"", "admission.burn_max", "", "", [](S& s, V v) { s.admission_burn_max = number(v); }},
      {"", "slo_p99_ms", "", "", [](S& s, V v) { s.slo_p99_ms = number(v); }},
      {"", "drill.kind", "", "", [](S& s, V v) { s.drill_kind = v; }},
      {"", "drill.severity", "", "", [](S& s, V v) { s.drill_severity = number(v); }},
      {"", "drill.workers", "", "", [](S& s, V v) { s.drill_workers = core::integers(v); }},
      {"", "drill.action", "--drill-action", "degrade|evict|remap",
       [](S& s, V v) { s.drill_action = v; }},
      // A stuck-at drill at this cell-fault rate; 0 leaves the drill as is.
      {"", "", "--drill", "RATE",
       [](S& s, V v) {
         const double rate = number(v);
         if (rate < 0) core::bad_value("a rate >= 0", v);
         if (rate > 0) {
           s.drill_kind = "stuck_at";
           s.drill_severity = rate;
         }
       }},
  };
  return rows;
}

std::vector<std::string> serving_config_keys() { return core::knob_keys(serving_table()); }

ServingConfig serving_from_config(const core::KeyValueConfig& cfg, const core::Flags& flags) {
  cfg.validate_keys(serving_config_keys());
  ServingConfig sc;
  core::read_knobs(serving_table(), sc, cfg, flags);
  {
    std::set<std::string> seen;
    for (const std::string& id : sc.models)
      if (!seen.insert(id).second)
        throw std::runtime_error("serving config: duplicate model id \"" + id +
                                 "\"");
  }

  if (sc.models.empty())
    throw std::runtime_error("serving config: no models");
  if (sc.chips < 1 || sc.workers < 1 || sc.max_batch < 1)
    throw std::runtime_error(
        "serving config: chips, workers and max_batch must be >= 1");
  if (sc.max_wait_us < 0 || sc.live_slots < 0 || sc.queue_limit < 0 ||
      sc.queue_budget_us < 0 || sc.admission_burn_max < 0 || sc.slo_p99_ms < 0)
    throw std::runtime_error("serving config: negative threshold");
  if (sc.drill_action != "degrade" && sc.drill_action != "evict" &&
      sc.drill_action != "remap")
    throw std::runtime_error("serving config: drill.action must be degrade, "
                             "evict or remap (got \"" +
                             sc.drill_action + "\")");
  for (int64_t w : sc.drill_workers)
    if (w < 0 || w >= sc.workers)
      throw std::runtime_error("serving config: drill.workers index " +
                               std::to_string(w) + " outside [0, " +
                               std::to_string(sc.workers) + ")");
  return sc;
}

}  // namespace cn::runtime
