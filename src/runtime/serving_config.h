// Serving-policy configuration: the key=value surface for standing up a
// ModelRouter deployment (model list, per-lane scheduler shape, admission
// control, the shared live-slot budget, and an optional fault drill to
// rehearse against live traffic).
//
// Each key is one core::Knob row of serving_table() (core/config.h), four
// with a flag column, plus the flag-only `--drill RATE` (a stuck-at drill).
// tests/test_config.cpp diffs the docs/CONFIG.md serving table against the
// keys. Consumed by `serve_demo`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"

namespace cn::runtime {

struct ServingConfig {
  std::vector<std::string> models = {"default"};  // one lane per id
  int64_t chips = 2;           // farm instances per lane
  int64_t live_slots = 0;      // shared live-slot budget; 0 = uncapped
  int64_t workers = 2;         // per-lane worker threads
  int64_t max_batch = 16;      // per-lane batch coalescing cap
  int64_t max_wait_us = 1500;  // per-lane partial-batch flush deadline
  // Admission control (0 = each gate off; InferenceServerOptions semantics).
  int64_t queue_limit = 0;
  int64_t queue_budget_us = 0;
  double admission_burn_max = 0;
  double slo_p99_ms = 0;  // per-lane SLO objective; 0 = none
  // Fault drill: injected mid-traffic by serve_demo when kind is non-empty.
  std::string drill_kind;            // "" = no drill; faultsim::make_fault kinds
  double drill_severity = 0;
  std::vector<int64_t> drill_workers = {0};  // worker indices to afflict
  std::string drill_action = "remap";        // degrade | evict | remap
};

const core::Knobs<ServingConfig>& serving_table();
/// The table's keys (docs/CONFIG.md serving table, test-enforced).
std::vector<std::string> serving_config_keys();

/// Builds a ServingConfig from a key=value file with `flags` over it.
/// Unknown keys, unparsable values, empty or duplicate model ids,
/// non-positive scheduler knobs, negative admission thresholds, and an
/// unknown drill.action all throw.
ServingConfig serving_from_config(const core::KeyValueConfig& cfg,
                                  const core::Flags& flags = {});

}  // namespace cn::runtime
