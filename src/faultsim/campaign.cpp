#include "faultsim/campaign.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "runtime/chip_farm.h"
#include "runtime/mc_engine.h"
#include "runtime/scheduler.h"

namespace cn::faultsim {

using obs::json_escaped;
using obs::json_num;

int64_t CampaignReport::total_catastrophic() const {
  int64_t n = 0;
  for (const ScenarioResult& s : scenarios) n += s.catastrophic;
  return n;
}

int64_t CampaignReport::total_absorbed() const {
  int64_t n = 0;
  for (const ScenarioResult& s : scenarios)
    if (s.remapped) n += s.absorbed;
  return n;
}

std::vector<const ScenarioResult*> CampaignReport::for_model(
    const std::string& name) const {
  std::vector<const ScenarioResult*> out;
  for (const ScenarioResult& s : scenarios)
    if (s.model_name == name) out.push_back(&s);
  return out;
}

std::vector<const ScenarioResult*> CampaignReport::for_model(
    const std::string& name, bool remapped) const {
  std::vector<const ScenarioResult*> out;
  for (const ScenarioResult& s : scenarios)
    if (s.model_name == name && s.remapped == remapped) out.push_back(&s);
  return out;
}

double CampaignReport::mean_accuracy(const std::string& model_name) const {
  double sum = 0.0;
  int64_t n = 0;
  for (const ScenarioResult& s : scenarios) {
    if (s.model_name != model_name) continue;
    sum += s.acc.mean;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double CampaignReport::mean_accuracy(const std::string& model_name,
                                     bool remapped) const {
  double sum = 0.0;
  int64_t n = 0;
  for (const ScenarioResult& s : scenarios) {
    if (s.model_name != model_name || s.remapped != remapped) continue;
    sum += s.acc.mean;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::string CampaignReport::to_json() const {
  std::string j = "{\n";
  j += "  \"name\": \"faultsim_campaign\",\n";
  j += "  \"chips\": " + std::to_string(chips) + ",\n";
  j += "  \"seed\": " + std::to_string(seed) + ",\n";
  j += "  \"catastrophic_below\": " + json_num(catastrophic_below) + ",\n";
  j += "  \"total_catastrophic\": " + std::to_string(total_catastrophic()) + ",\n";
  j += "  \"total_absorbed\": " + std::to_string(total_absorbed()) + ",\n";
  j += "  \"wall_s\": " + json_num(wall_s) + ",\n";
  j += "  \"scenarios\": [\n";
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioResult& s = scenarios[i];
    j += "    {\"fault\": \"" + json_escaped(s.fault_kind) + "\"";
    j += ", \"severity\": " + json_num(s.severity);
    j += ", \"model\": \"" + json_escaped(s.model_name) + "\"";
    j += std::string(", \"compensation\": ") + (s.compensation ? "true" : "false");
    j += std::string(", \"remap\": ") + (s.remapped ? "true" : "false");
    if (s.remapped) {
      j += ", \"defects\": " + std::to_string(s.defects);
      j += ", \"absorbed\": " + std::to_string(s.absorbed);
      j += ", \"residual\": " + std::to_string(s.residual);
    }
    j += ", \"mean\": " + json_num(s.acc.mean);
    j += ", \"stddev\": " + json_num(s.acc.stddev);
    j += ", \"min\": " + json_num(s.acc.min);
    j += ", \"max\": " + json_num(s.acc.max);
    j += ", \"catastrophic\": " + std::to_string(s.catastrophic);
    j += ", \"samples\": [";
    for (size_t k = 0; k < s.acc.samples.size(); ++k) {
      if (k) j += ", ";
      j += json_num(s.acc.samples[k]);
    }
    j += "]}";
    if (i + 1 < scenarios.size()) j += ",";
    j += "\n";
  }
  j += "  ]\n}\n";
  return j;
}

void CampaignReport::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("CampaignReport: cannot write " + path);
  os << to_json();
}

Campaign::Campaign(CampaignOptions opts) : opts_(opts) {
  // The tiles check their (fault-adjusted) device too; checking the base
  // device here fails a bad config before any training.
  analog::validate_device(opts_.dev);
  if (opts_.chips < 1)
    throw std::invalid_argument("Campaign: need at least one chip per scenario");
  if (opts_.batch_size < 1)
    throw std::invalid_argument("Campaign: batch must be >= 1");
  if (opts_.parallel_scenarios < 0)
    throw std::invalid_argument(
        "Campaign: parallel_scenarios must be >= 0 (0 = auto)");
  // An enabled remap axis with every repair move switched off would double
  // the grid with bit-identical no-op rows — the silent-misconfiguration
  // class the config hardening exists to stop.
  if (opts_.remap.enabled && !opts_.remap.active())
    throw std::invalid_argument(
        "Campaign: remap axis enabled but no repair moves configured "
        "(spare budget 0 and pair_swap off)");
}

void Campaign::add_model(const std::string& name, const nn::Sequential& model,
                         bool compensation) {
  models_.push_back(ModelEntry{
      name, std::make_unique<nn::Sequential>(model.clone_model()), compensation});
}

void Campaign::add_fault(FaultSpec spec) { faults_.push_back(std::move(spec)); }

void Campaign::add_stuck_at_grid(const std::vector<double>& rates) {
  for (double r : rates) add_fault(stuck_at(r));
}

void Campaign::add_drift_grid(const std::vector<double>& t_ratios) {
  for (double t : t_ratios) add_fault(drift(t));
}

void Campaign::add_ir_drop_grid(const std::vector<double>& alphas) {
  for (double a : alphas) add_fault(ir_drop(a));
}

void Campaign::add_thermal_grid(const std::vector<double>& temperatures) {
  for (double t : temperatures) add_fault(thermal(t));
}

CampaignReport Campaign::run(const data::Dataset& test) {
  if (models_.empty()) throw std::logic_error("Campaign: no models registered");
  if (faults_.empty()) throw std::logic_error("Campaign: no fault specs added");
  const auto t0 = std::chrono::steady_clock::now();

  CampaignReport report;
  report.chips = opts_.chips;
  report.seed = opts_.seed;
  report.catastrophic_below = opts_.catastrophic_below;

  // Flatten the grid in report (grid) order — fault spec outer, protection
  // variant, then the remap axis (off first, then on, under the *same*
  // scenario seed: the pair realizes identical defect maps, so any accuracy
  // gap is the controller's doing; matched pairs, like the compensation
  // variants). Cell i owns report.scenarios[i], so the report layout is
  // fixed before anything runs and never depends on completion order.
  struct Cell {
    size_t fi;
    size_t mi;
    bool remap_on;
  };
  std::vector<Cell> cells;
  cells.reserve(static_cast<size_t>(num_scenarios()));
  const int remap_variants = opts_.remap.enabled ? 2 : 1;
  for (size_t fi = 0; fi < faults_.size(); ++fi)
    for (size_t mi = 0; mi < models_.size(); ++mi)
      for (int rv = 0; rv < remap_variants; ++rv)
        cells.push_back(Cell{fi, mi, rv == 1});
  // Fault lists are shared across a spec's cells: fault models are
  // stateless (const apply, per-chip rng), so concurrent scenarios of one
  // spec can read one list.
  std::vector<analog::FaultList> lists;
  lists.reserve(faults_.size());
  for (const FaultSpec& spec : faults_) lists.push_back(spec.list());

  // Schedule only distinct cells. Where remapping has nothing to act on
  // (analog::remap_can_act is false: no model reports a defect map), the
  // remap-on cell is its remap-off twin bit for bit — same scenario seed,
  // same apply() draws, no repair plan — so one job evaluates the remap-off
  // chips and writes both rows. Job j covers cells[cell] and, when `twin`,
  // the remap-on cell right after it.
  struct Job {
    size_t cell;
    bool twin;
  };
  std::vector<Job> jobs;
  jobs.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    const bool twin = opts_.remap.enabled && !cells[i].remap_on &&
                      !analog::remap_can_act(lists[cells[i].fi]);
    jobs.push_back(Job{i, twin});
    if (twin) ++i;
  }

  const int64_t n = static_cast<int64_t>(cells.size());
  const int64_t n_jobs = static_cast<int64_t>(jobs.size());
  const int64_t conc =
      runtime::effective_concurrency(opts_.parallel_scenarios, n_jobs);
  report.scenarios.resize(static_cast<size_t>(n));

  // Observability plumbing. All of it is timing/count-only — nothing below
  // touches rng streams or the numeric path, so the report JSON is
  // byte-identical with metrics/tracing on or off (tier-1 asserted).
  // campaign.scenarios and cells_done count every grid cell, twins included.
  obs::Counter& m_scenarios = obs::metrics().counter("campaign.scenarios");
  obs::Counter& m_reused = obs::metrics().counter("campaign.cells_reused");
  obs::Gauge& m_rate = obs::metrics().gauge("campaign.scenarios_per_s");
  // Live introspection: a /statusz scrape mid-run sees the grid size and a
  // completed-cell count (progress order-independent: cells only increment).
  obs::Gauge& m_total = obs::metrics().gauge("campaign.cells_total");
  obs::Gauge& m_done = obs::metrics().gauge("campaign.cells_done");
  m_total.set(static_cast<double>(n));
  m_done.set(0);
  std::atomic<int64_t> cells_done{0};

  runtime::parallel_indexed(n_jobs, conc, [&](int64_t j) {
    const Job& job = jobs[static_cast<size_t>(j)];
    const Cell& cell = cells[job.cell];
    const FaultSpec& spec = faults_[cell.fi];
    const ModelEntry& me = models_[cell.mi];
    // Per-scenario seed depends on the fault index only: every protection
    // variant sees the same chips and the same fault realizations.
    const uint64_t scenario_seed = mix64(
        opts_.seed ^
        (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(cell.fi) + 1)));
    // The cell label is shared by the progress line and the trace span; build
    // it only when either consumer is live (string assembly is cheap, but the
    // quiet path should stay print- and allocation-free).
    const bool want_label =
        obs::Logger::global().should_log(obs::LogLevel::kDebug) ||
        obs::Tracer::global().enabled();
    std::string label;
    if (want_label) {
      label = "scenario " + spec.kind + "@" + json_num(spec.severity) + " x " +
              me.name +
              (!opts_.remap.enabled ? ""
               : job.twin           ? " x no-remap (+ inert remap twin)"
               : cell.remap_on      ? " x remap"
                                    : " x no-remap");
      // The Logger sink serializes concurrent lines; "[k/N]" carries the grid
      // index since completion order is scheduler-dependent.
      obs::log_debug("[campaign] [" + std::to_string(job.cell + 1) + "/" +
                     std::to_string(n) + "] " + label);
    }
    obs::Span cell_span(label, "campaign");
    const int64_t covered = job.twin ? 2 : 1;
    m_scenarios.add(static_cast<uint64_t>(covered));
    runtime::ChipFarmOptions fo;
    fo.instances = opts_.chips;
    fo.seed = scenario_seed;
    fo.max_live = opts_.max_live;
    // Partition farm slots across live scenarios: a scheduler worker
    // evaluates its scenario inline (nested parallel_for runs inline), so
    // extra live slots buy nothing and cost one model clone each — one slot
    // per concurrent scenario bounds memory at conc models. Chips are pure
    // functions of chip_seed(s), so the slot count never changes results.
    if (fo.max_live == 0 && conc > 1) fo.max_live = 1;
    fo.tile = opts_.tile;
    if (cell.remap_on) fo.remap = opts_.remap;
    runtime::ChipFarm farm(*me.model, opts_.dev, fo, lists[cell.fi]);
    runtime::McEngineOptions eo;
    eo.batch_size = opts_.batch_size;
    eo.threads = opts_.threads;
    ScenarioResult res;
    res.fault_kind = spec.kind;
    res.severity = spec.severity;
    res.model_name = me.name;
    res.compensation = me.compensation;
    res.remapped = cell.remap_on;
    res.acc = runtime::McEngine(farm, eo).accuracy(test);
    for (double a : res.acc.samples)
      if (a < opts_.catastrophic_below) ++res.catastrophic;
    if (cell.remap_on) {
      for (int64_t s = 0; s < opts_.chips; ++s) {
        const remap::RemapStats st = farm.chip_remap_stats(s);
        res.defects += st.defects;
        res.absorbed += st.absorbed();
        res.residual += st.residual;
      }
    }
    if (job.twin) {
      // The remap-on row: same samples, nothing repaired.
      ScenarioResult& on = report.scenarios[job.cell + 1];
      on = res;
      on.remapped = true;
      m_reused.add(1);
    }
    report.scenarios[job.cell] = std::move(res);
    m_done.set(static_cast<double>(
        cells_done.fetch_add(covered, std::memory_order_relaxed) + covered));
  });
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (report.wall_s > 0)
    m_rate.set(static_cast<double>(n) / report.wall_s);
  return report;
}

const core::Knobs<CampaignSpec>& campaign_table() {
  using core::integer, core::number, core::numbers;
  using S = CampaignSpec;
  using V = const std::string&;
  static const core::Knobs<CampaignSpec> rows = {
      {"", "chips", "--chips", "N", [](S& s, V v) { s.opts.chips = integer<int64_t>(v); }},
      {"", "seed", "", "",
       [](S& s, V v) { s.opts.seed = static_cast<uint64_t>(integer<int64_t>(v)); }},
      {"", "batch", "", "", [](S& s, V v) { s.opts.batch_size = integer<int64_t>(v); }},
      {"", "catastrophic", "", "", [](S& s, V v) { s.opts.catastrophic_below = number(v); }},
      {"", "tile", "", "", [](S& s, V v) { s.opts.tile = integer<int64_t>(v); }},
      {"", "control", "", "", [](S& s, V v) { s.control = integer<int64_t>(v) != 0; }},
      {"", "parallel_scenarios", "--parallel", "N",
       [](S& s, V v) { s.opts.parallel_scenarios = integer<int64_t>(v); }},
      {"", "program_sigma", "", "",
       [](S& s, V v) { s.opts.dev.program_sigma = static_cast<float>(number(v)); }},
      {"", "read_sigma", "", "",
       [](S& s, V v) { s.opts.dev.readout.read_sigma = static_cast<float>(number(v)); }},
      {"", "adc_bits", "", "", [](S& s, V v) { s.opts.dev.readout.adc_bits = integer<int>(v); }},
      {"", "dac_bits", "", "", [](S& s, V v) { s.opts.dev.readout.dac_bits = integer<int>(v); }},
      {"", "levels", "", "", [](S& s, V v) { s.opts.dev.conductance_levels = integer<int>(v); }},
      {"", "stuck.rates", "", "", [](S& s, V v) { s.stuck_rates = numbers(v); }},
      {"", "stuck.high_fraction", "", "", [](S& s, V v) { s.stuck_high_fraction = number(v); }},
      {"", "drift.times", "", "", [](S& s, V v) { s.drift_times = numbers(v); }},
      {"", "drift.nu", "", "", [](S& s, V v) { s.drift_nu = number(v); }},
      {"", "drift.nu_sigma", "", "", [](S& s, V v) { s.drift_nu_sigma = number(v); }},
      {"", "ir.alphas", "", "", [](S& s, V v) { s.ir_alphas = numbers(v); }},
      {"", "thermal.temps", "", "", [](S& s, V v) { s.thermal_temps = numbers(v); }},
      {"", "thermal.t0", "", "", [](S& s, V v) { s.thermal_t0 = number(v); }},
      {"", "remap", "--remap", "",
       [](S& s, V v) { s.opts.remap.enabled = integer<int64_t>(v) != 0; }},
      {"", "remap.spare_rows", "", "",
       [](S& s, V v) { s.opts.remap.spare_rows = integer<int64_t>(v); }},
      {"", "remap.spare_cols", "", "",
       [](S& s, V v) { s.opts.remap.spare_cols = integer<int64_t>(v); }},
      {"", "remap.pair_swap", "", "",
       [](S& s, V v) { s.opts.remap.pair_swap = integer<int64_t>(v) != 0; }},
  };
  return rows;
}

std::vector<std::string> campaign_config_keys() { return core::knob_keys(campaign_table()); }

Campaign campaign_from_config(const core::KeyValueConfig& cfg, const core::Flags& flags) {
  // A typo'd key must fail loudly, not silently drop a scenario axis. Sink
  // keys belong to the frontend's obs::read_sinks, not to the campaign.
  std::vector<std::string> known = campaign_config_keys();
  for (std::string& k : obs::sink_config_keys()) known.push_back(std::move(k));
  cfg.validate_keys(known);
  CampaignSpec s;
  core::read_knobs(campaign_table(), s, cfg, flags);

  Campaign c(s.opts);
  if (s.control) c.add_fault(fault_free());
  for (double r : s.stuck_rates) c.add_fault(stuck_at(r, s.stuck_high_fraction));
  for (double t : s.drift_times) c.add_fault(drift(t, s.drift_nu, s.drift_nu_sigma));
  for (double a : s.ir_alphas) c.add_fault(ir_drop(a));
  for (double t : s.thermal_temps) c.add_fault(thermal(t, s.thermal_t0));
  return c;
}

}  // namespace cn::faultsim
