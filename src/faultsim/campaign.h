// Campaign: robustness-evaluation engine over the inference runtime.
//
// A campaign is a scenario grid — fault kind x severity x protection variant
// (compensation on/off, baseline protections) — where every scenario builds
// a crossbar-mode runtime::ChipFarm carrying the scenario's fault list and
// evaluates it with runtime::McEngine. Scenario fault realizations are
// paired across protection variants (same per-scenario chip seeds), making
// the compensation-on/off comparison a matched-pairs experiment.
//
// The outer grid itself is embarrassingly parallel and is scheduled with
// runtime::parallel_indexed, one job per distinct cell (an inert remap-on
// twin rides with its remap-off cell; see CampaignOptions::remap): up to
// `parallel_scenarios` jobs run concurrently, each with its own farm/engine
// state, and every result is written to its grid-order slot (deterministic
// reduction keyed by scenario index, never by completion order). Per-scenario chip seeds depend only on
// (campaign seed, fault index), so the CampaignReport — including its JSON —
// is byte-identical for any scheduling (asserted in tier-1:
// Campaign.SequentialVsParallelReportsAreByteIdentical).
//
// The *description* of a campaign (FaultSpecs + model variants + options) is
// plain data, separate from *execution* (run) and *reporting*
// (CampaignReport with a JSON emitter: ordered keys, %.6g numbers).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/montecarlo.h"
#include "data/dataset.h"
#include "faultsim/fault_models.h"
#include "nn/sequential.h"

namespace cn::faultsim {

struct CampaignOptions {
  int64_t chips = 8;          // MC samples (chip instances) per scenario
  uint64_t seed = 42;         // campaign seed; per-scenario seeds derive from it
  int64_t batch_size = 128;   // evaluation batch size
  int64_t max_live = 0;       // ChipFarm physical slots; 0 = auto
  int64_t tile = 128;         // crossbar tile edge
  int threads = 0;            // McEngine threads; 1 forces the serial path
  // Scenario-level concurrency: how many grid cells run at once on the
  // shared tensor pool (a dedicated pool is provisioned when the shared one
  // is narrower — see runtime::parallel_indexed). 0 = auto (pool width),
  // 1 = sequential. Results are byte-identical for every value. Parallelism
  // is scenario-granular: under any value > 1 each scenario runs serially
  // inside its worker (nested parallel_for is inline), so an explicit value
  // *below* the core count trades away the sequential path's chip-level
  // parallelism — on wide boxes use 0 (auto) or >= the core count.
  int64_t parallel_scenarios = 0;
  double catastrophic_below = 0.2;  // accuracy counted as catastrophic failure
  analog::RramDeviceParams dev;     // baseline device every scenario starts from
  // Fault-aware remapping protection axis: when `remap.enabled`, every
  // (fault, model) cell has two rows — remap off, then remap on with these
  // params — under the same per-scenario chip seeds, so the pair sees
  // identical defect maps (a matched-pairs experiment, like compensation).
  // Inert-arm rule: where no model of the fault spec reports a defect map
  // (analog::remap_can_act is false — the control, drift, IR drop,
  // thermal), the matched pair makes the remap-on chips the remap-off chips
  // bit for bit, so that pair is evaluated once and the remap-on row copies
  // it with zero repair counts. Stuck-at cells run both arms.
  remap::RemapParams remap;
};

/// One grid cell's outcome.
struct ScenarioResult {
  std::string fault_kind;
  double severity = 0.0;
  std::string model_name;     // protection variant ("baseline", "corrected", ...)
  bool compensation = false;  // variant has error compensation on
  bool remapped = false;      // fault-aware remapping was on for this cell
  core::McResult acc;         // mean/std/min/max + per-chip samples
  int64_t catastrophic = 0;   // chips with accuracy < catastrophic_below
  // Repair accounting summed over the scenario's chips (remap-on rows only;
  // the matching remap-off row realizes the same `defects` by construction).
  int64_t defects = 0;        // defective devices injected
  int64_t absorbed = 0;       // repaired by pair swap or spare lines
  int64_t residual = 0;       // left in the programmed arrays
};

struct CampaignReport {
  int64_t chips = 0;
  uint64_t seed = 0;
  double catastrophic_below = 0.0;
  double wall_s = 0.0;
  std::vector<ScenarioResult> scenarios;

  int64_t total_catastrophic() const;
  /// Defective devices absorbed by remapping, summed over remap-on rows.
  int64_t total_absorbed() const;
  /// Scenarios of one protection variant, grid order preserved (both remap
  /// variants when the remap axis is on).
  std::vector<const ScenarioResult*> for_model(const std::string& name) const;
  /// One remap variant of one protection variant, grid order preserved.
  std::vector<const ScenarioResult*> for_model(const std::string& name,
                                               bool remapped) const;
  /// Mean accuracy over every scenario of one variant (the headline
  /// robustness number the compensation-on/off comparison reads).
  double mean_accuracy(const std::string& model_name) const;
  /// Mean accuracy of one remap variant of one protection variant.
  double mean_accuracy(const std::string& model_name, bool remapped) const;

  /// JSON with ordered keys and %.6g numbers: campaign metadata at the top
  /// level plus a "scenarios" array.
  std::string to_json() const;
  void write_json(const std::string& path) const;
};

class Campaign {
 public:
  explicit Campaign(CampaignOptions opts = {});

  /// Registers a protection variant (evaluated against every fault spec).
  /// The model is cloned; `compensation` is recorded in the report rows.
  void add_model(const std::string& name, const nn::Sequential& model,
                 bool compensation);
  /// Appends one scenario column to the grid.
  void add_fault(FaultSpec spec);
  /// Convenience: severity grids of the four built-in fault kinds.
  void add_stuck_at_grid(const std::vector<double>& rates);
  void add_drift_grid(const std::vector<double>& t_ratios);
  void add_ir_drop_grid(const std::vector<double>& alphas);
  void add_thermal_grid(const std::vector<double>& temperatures);

  int64_t num_models() const { return static_cast<int64_t>(models_.size()); }
  int64_t num_faults() const { return static_cast<int64_t>(faults_.size()); }
  /// Whether the remap-on/off protection axis is part of the grid.
  bool remap_enabled() const { return opts_.remap.enabled; }
  /// The scenario-concurrency knob (0 = auto); frontends print it.
  int64_t parallel_scenarios() const { return opts_.parallel_scenarios; }
  /// Chip instances per scenario.
  int64_t chips() const { return opts_.chips; }
  /// Grid size = fault specs x protection variants x remap variants.
  int64_t num_scenarios() const {
    return num_models() * num_faults() * (opts_.remap.enabled ? 2 : 1);
  }

  /// Runs the whole grid and aggregates the report. Deterministic: scenario
  /// (fi, model) uses chip seeds derived from (opts.seed, fi) only, so the
  /// same chips and fault realizations meet every protection variant — and
  /// results land at their grid index, so the report does not depend on
  /// `parallel_scenarios` (only wall_s does).
  ///
  /// Per-cell "[k/N] scenario ..." progress goes through obs::Logger at
  /// debug level; each cell also emits an obs::Span and bumps campaign.*
  /// metrics. None of it feeds rng streams or the numeric path, and run()
  /// starts and writes no process-global sink: frontends own those
  /// (obs::start / obs::finish, obs/sinks.h).
  CampaignReport run(const data::Dataset& test);

 private:
  struct ModelEntry {
    std::string name;
    std::unique_ptr<nn::Sequential> model;  // indirection: Sequential is move-hostile
    bool compensation;
  };
  CampaignOptions opts_;
  std::vector<ModelEntry> models_;
  std::vector<FaultSpec> faults_;
};

/// What a campaign config describes: the options plus the fault grid.
struct CampaignSpec {
  CampaignOptions opts;
  bool control = true;  // include the fault-free control scenario
  std::vector<double> stuck_rates;
  double stuck_high_fraction = 0.5;
  std::vector<double> drift_times;
  double drift_nu = 0.05;
  double drift_nu_sigma = 0.02;
  std::vector<double> ir_alphas;
  std::vector<double> thermal_temps;
  double thermal_t0 = 300.0;
};

/// The campaign's config keys, one core::Knob row each; `--chips`,
/// `--remap` and `--parallel` are the flag columns of three of them.
/// docs/CONFIG.md's campaign table (type, default, validation per key) is
/// diffed against the keys in tier-1 (tests/test_config.cpp).
const core::Knobs<CampaignSpec>& campaign_table();
/// The table's keys: campaign_from_config validates a config against these
/// plus the sink table's keys (obs::sink_config_keys), which it accepts but
/// leaves to the frontend's obs::read_sinks.
std::vector<std::string> campaign_config_keys();

/// Builds a campaign grid from config-file keys with `flags` over them.
/// Sink keys are accepted and ignored (no side effect); unknown keys throw,
/// so a typo cannot silently drop a scenario axis. The Campaign ctor and the
/// grid builders check what parses. Models are registered by the caller.
Campaign campaign_from_config(const core::KeyValueConfig& cfg,
                              const core::Flags& flags = {});

}  // namespace cn::faultsim
