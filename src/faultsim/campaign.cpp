#include "faultsim/campaign.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/snapshot_stream.h"
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
  if (opts_.chips < 1)
    throw std::invalid_argument("Campaign: need at least one chip per scenario");
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
  if (opts_.statusz_port > 65535)
    throw std::invalid_argument("Campaign: statusz_port must be <= 65535");
  if (opts_.slo_p99_ms < 0)
    throw std::invalid_argument("Campaign: slo_p99_ms must be >= 0 (0 = off)");
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

  const int64_t n = static_cast<int64_t>(cells.size());
  const int64_t conc =
      runtime::effective_concurrency(opts_.parallel_scenarios, n);
  report.scenarios.resize(static_cast<size_t>(n));

  // Observability plumbing. All of it is timing/count-only — nothing below
  // touches rng streams or the numeric path, so the report JSON is
  // byte-identical with metrics/tracing on or off (tier-1 asserted).
  if (!opts_.trace_out.empty()) obs::Tracer::global().set_enabled(true);
  obs::Counter& m_scenarios = obs::metrics().counter("campaign.scenarios");
  obs::Gauge& m_rate = obs::metrics().gauge("campaign.scenarios_per_s");
  // Live introspection: a /statusz scrape mid-run sees the grid size and a
  // completed-cell count (progress order-independent: cells only increment).
  if (opts_.slo_p99_ms > 0) obs::set_default_slo_p99_ms(opts_.slo_p99_ms);
  if (!opts_.metrics_stream.empty())
    obs::MetricsSnapshotter::start_global(opts_.metrics_stream);
  if (opts_.statusz_port >= 0)
    obs::ExpositionServer::start_global(static_cast<int>(opts_.statusz_port))
        .set_ready(true);
  obs::Gauge& m_total = obs::metrics().gauge("campaign.cells_total");
  obs::Gauge& m_done = obs::metrics().gauge("campaign.cells_done");
  m_total.set(static_cast<double>(n));
  m_done.set(0);
  std::atomic<int64_t> cells_done{0};

  runtime::parallel_indexed(n, conc, [&](int64_t i) {
    const Cell& cell = cells[static_cast<size_t>(i)];
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
              (opts_.remap.enabled
                   ? (cell.remap_on ? " x remap" : " x no-remap")
                   : "");
      // The Logger sink serializes concurrent lines; "[k/N]" carries the grid
      // index since completion order is scheduler-dependent.
      obs::log_debug("[campaign] [" + std::to_string(i + 1) + "/" +
                     std::to_string(n) + "] " + label);
    }
    obs::Span cell_span(label, "campaign");
    m_scenarios.add(1);
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
    report.scenarios[static_cast<size_t>(i)] = std::move(res);
    m_done.set(
        static_cast<double>(cells_done.fetch_add(1, std::memory_order_relaxed) +
                            1));
  });
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (report.wall_s > 0)
    m_rate.set(static_cast<double>(n) / report.wall_s);
  if (!opts_.metrics_out.empty()) obs::metrics().write_json(opts_.metrics_out);
  if (!opts_.trace_out.empty())
    obs::Tracer::global().write_json(opts_.trace_out);
  return report;
}

const std::vector<std::string>& campaign_config_keys() {
  // The single source of truth for the campaign key set: validate_keys
  // enforces it at parse time and tests/test_config.cpp diffs docs/CONFIG.md
  // against it, so a key added here without documentation (or vice versa)
  // fails tier-1.
  static const std::vector<std::string> keys = {
      "chips", "seed", "batch", "catastrophic", "tile", "control",
      "parallel_scenarios",
      "program_sigma", "read_sigma", "adc_bits", "dac_bits", "levels",
      "stuck.rates", "stuck.high_fraction", "drift.times", "drift.nu",
      "drift.nu_sigma", "ir.alphas", "thermal.temps", "thermal.t0",
      "remap", "remap.spare_rows", "remap.spare_cols", "remap.pair_swap",
      "metrics_out", "trace_out", "log_level",
      "statusz_port", "metrics_stream", "slo_p99_ms",
  };
  return keys;
}

Campaign campaign_from_config(const core::KeyValueConfig& cfg) {
  // A typo'd key must fail loudly, not silently drop a scenario axis.
  cfg.validate_keys(campaign_config_keys());
  CampaignOptions opts;
  opts.chips = cfg.integer("chips", opts.chips);
  opts.seed = static_cast<uint64_t>(cfg.integer("seed", static_cast<int64_t>(opts.seed)));
  opts.batch_size = cfg.integer("batch", opts.batch_size);
  opts.tile = cfg.integer("tile", opts.tile);
  opts.parallel_scenarios =
      cfg.integer("parallel_scenarios", opts.parallel_scenarios);
  opts.catastrophic_below = cfg.number("catastrophic", opts.catastrophic_below);
  opts.dev.program_sigma = static_cast<float>(cfg.number("program_sigma", 0.0));
  opts.dev.readout.read_sigma = static_cast<float>(cfg.number("read_sigma", 0.0));
  opts.dev.readout.adc_bits = static_cast<int>(cfg.integer("adc_bits", 0));
  opts.dev.readout.dac_bits = static_cast<int>(cfg.integer("dac_bits", 0));
  opts.dev.conductance_levels = static_cast<int>(cfg.integer("levels", 0));
  opts.remap.enabled = cfg.integer("remap", 0) != 0;
  opts.remap.spare_rows = cfg.integer("remap.spare_rows", opts.remap.spare_rows);
  opts.remap.spare_cols = cfg.integer("remap.spare_cols", opts.remap.spare_cols);
  opts.remap.pair_swap = cfg.integer("remap.pair_swap", 1) != 0;
  opts.metrics_out = cfg.str("metrics_out", opts.metrics_out);
  opts.trace_out = cfg.str("trace_out", opts.trace_out);
  opts.statusz_port = cfg.integer("statusz_port", opts.statusz_port);
  opts.metrics_stream = cfg.str("metrics_stream", opts.metrics_stream);
  opts.slo_p99_ms = cfg.number("slo_p99_ms", opts.slo_p99_ms);
  // log_level steers the process-wide Logger (the campaign's progress lines
  // go through it at debug); parse now so a typo fails at config time.
  const std::string log_level = cfg.str("log_level", "");
  if (!log_level.empty())
    obs::Logger::global().set_level(obs::parse_log_level(log_level));

  Campaign c(opts);
  if (cfg.integer("control", 1) != 0) c.add_fault(fault_free());
  const double high_frac = cfg.number("stuck.high_fraction", 0.5);
  for (double r : cfg.numbers("stuck.rates")) c.add_fault(stuck_at(r, high_frac));
  const double nu = cfg.number("drift.nu", 0.05);
  const double nu_sigma = cfg.number("drift.nu_sigma", 0.02);
  for (double t : cfg.numbers("drift.times")) c.add_fault(drift(t, nu, nu_sigma));
  for (double a : cfg.numbers("ir.alphas")) c.add_fault(ir_drop(a));
  const double t0 = cfg.number("thermal.t0", 300.0);
  for (double t : cfg.numbers("thermal.temps")) c.add_fault(thermal(t, t0));
  return c;
}

}  // namespace cn::faultsim
