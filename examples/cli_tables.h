// The example binaries' own flags, one core::Knob row each (core/config.h),
// and the tables each command scans (core::scan_flags) and reads
// (core::read_knobs). tests/test_config.cpp checks that no spelling appears
// twice across one command's tables.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>

#include "core/config.h"
#include "core/recipe.h"
#include "faultsim/campaign.h"
#include "obs/sinks.h"
#include "runtime/serving_config.h"

namespace cn::examples {

using V = const std::string&;  // a knob row's value

/// Runs f(); a std::exception prints "<argv0>: <what>" and exits 2.
template <typename F>
auto or_exit(const char* argv0, F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv0, e.what());
    std::exit(2);
  }
}

/// `table` read over `base` with `flags`, or exit 2 as or_exit does.
template <typename T>
T read_or_exit(const char* argv0, const core::Knobs<T>& table, T base,
               const core::Flags& flags) {
  return or_exit(argv0, [&] {
    core::read_knobs(table, base, {}, flags);
    return base;
  });
}

/// Prints "usage: <argv0><command> <the tables' flags>", then `more`; exits 2.
template <typename Tables>
[[noreturn]] void usage(const char* argv0, const char* command,
                        const Tables& tables, const std::string& more = "") {
  std::fprintf(stderr, "usage: %s%s %s\n%s", argv0, command,
               core::tables_usage(tables, "          ").c_str(), more.c_str());
  std::exit(2);
}

/// core::scan_flags; an unknown or value-less flag prints it and the usage.
template <typename Tables>
auto scan_or_usage(int argc, char** argv, int first, const char* command,
                   const Tables& tables, const std::string& more = "") {
  try {
    return core::scan_flags(argc, argv, first, tables);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    usage(argv[0], command, tables, more);
  }
}

// ---------- correctnet_cli: the pipeline command ----------

struct CliArgs {
  std::string net = "lenet";
  std::string dataset = "digits";
  int mc = 15;
  bool rl = false;
  std::string save_prefix;
};

inline const core::Knobs<CliArgs>& cli_table() {
  static const core::Knobs<CliArgs> rows = {
      {"", "", "--net", "lenet|vgg", [](CliArgs& a, V v) { a.net = v; }},
      {"", "", "--dataset", "digits|objects10|objects100", [](CliArgs& a, V v) { a.dataset = v; }},
      {"", "", "--mc", "N", [](CliArgs& a, V v) { a.mc = core::integer<int>(v); }},
      {"", "", "--rl", "", [](CliArgs& a, V v) { a.rl = core::switch01(v); }},
      {"", "", "--save-prefix", "PATH", [](CliArgs& a, V v) { a.save_prefix = v; }},
  };
  return rows;
}

inline core::KnobTables<CliArgs, core::Recipe, obs::Sinks> cli_tables() {
  return {cli_table(), core::recipe_table(), obs::sink_table()};
}

// ---------- correctnet_cli faults ----------

struct FaultsArgs {
  std::string config;  // key=value campaign file; empty = built-in quick grid
  std::string out = "faultsim_report.json";
};

inline const core::Knobs<FaultsArgs>& faults_table() {
  static const core::Knobs<FaultsArgs> rows = {
      {"", "", "--config", "PATH", [](FaultsArgs& a, V v) { a.config = v; }},
      {"", "", "--out", "PATH", [](FaultsArgs& a, V v) { a.out = v; }},
  };
  return rows;
}

inline const core::Knobs<core::Recipe>& faults_recipe_table() {
  static const core::Knobs<core::Recipe> rows(
      core::recipe_table().begin(),
      core::recipe_table().begin() + core::kSharedRecipeFlags);
  return rows;
}

inline core::KnobTables<FaultsArgs, faultsim::CampaignSpec, core::Recipe, obs::Sinks>
faults_tables() {
  return {faults_table(), faultsim::campaign_table(), faults_recipe_table(),
          obs::sink_table()};
}

// ---------- serve_demo ----------

struct ServeArgs {
  double linger_s = 0;
  double slo_p99_ms = 50;  // small-model latencies are sub-ms; 50ms = healthy
  std::string config;      // serving-policy key=value file
  double drill_hold_s = 0;
};

inline const core::Knobs<ServeArgs>& serve_table() {
  static const core::Knobs<ServeArgs> rows = {
      {"", "", "--linger-s", "S", [](ServeArgs& a, V v) { a.linger_s = core::number(v); }},
      {"", "", "--slo-p99-ms", "X", [](ServeArgs& a, V v) { a.slo_p99_ms = core::number(v); }},
      {"", "", "--config", "FILE", [](ServeArgs& a, V v) { a.config = v; }},
      {"", "", "--drill-hold-s", "S", [](ServeArgs& a, V v) { a.drill_hold_s = core::number(v); }},
  };
  return rows;
}

inline core::KnobTables<ServeArgs, runtime::ServingConfig, obs::Sinks> serve_tables() {
  return {serve_table(), runtime::serving_table(), obs::sink_table()};
}

// ---------- fault_sweep ----------

struct SweepArgs {
  double rate = 0.05;
  int chips = 6;
  std::optional<int64_t> spare;  // unset = remap comparison off
  int64_t parallel = 1;          // sweep-point concurrency; 0 = auto
};

inline const core::Knobs<SweepArgs>& sweep_table() {
  static const core::Knobs<SweepArgs> rows = {
      {"", "", "--rate", "0..1", [](SweepArgs& a, V v) { a.rate = core::number(v); }},
      {"", "", "--chips", "N>=1", [](SweepArgs& a, V v) { a.chips = core::integer<int>(v); }},
      {"", "", "--spare", "N>=0", [](SweepArgs& a, V v) { a.spare = core::integer<int64_t>(v); }},
      {"", "", "--parallel", "N>=0",
       [](SweepArgs& a, V v) { a.parallel = core::integer<int64_t>(v); }},
  };
  return rows;
}

inline core::KnobTables<SweepArgs> sweep_tables() { return {sweep_table()}; }

}  // namespace cn::examples
