#include "runtime/chip_farm.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/threadpool.h"

namespace cn::runtime {

ChipFarm::ChipFarm(const nn::Sequential& base, const analog::VariationModel& vm,
                   const ChipFarmOptions& opts)
    : base_(base.clone_model()), vm_(vm), crossbar_(false), opts_(opts) {
  if (opts.remap.enabled)
    throw std::invalid_argument(
        "ChipFarm: remapping needs crossbar mode (factor chips have no tiles)");
  init_slots();
}

ChipFarm::ChipFarm(const nn::Sequential& base, const analog::RramDeviceParams& dev,
                   const ChipFarmOptions& opts, analog::FaultList faults)
    : base_(base.clone_model()),
      dev_(dev),
      faults_(std::move(faults)),
      crossbar_(true),
      opts_(opts) {
  if (opts.first_site != 0 && faults_.empty())
    throw std::invalid_argument(
        "ChipFarm: crossbar first_site needs a fault list (no factor sites)");
  init_slots();
}

void ChipFarm::init_slots() {
  if (opts_.instances < 1)
    throw std::invalid_argument("ChipFarm: need at least one instance");
  int64_t live = opts_.max_live;
  if (live <= 0)
    live = std::min<int64_t>(opts_.instances,
                             std::max<int64_t>(1, ThreadPool::global().size()));
  live = std::min(live, opts_.instances);
  slots_.resize(static_cast<size_t>(live));
  if (crossbar_ && opts_.remap.active()) {
    remap_stats_.resize(static_cast<size_t>(opts_.instances));
    remap_stats_known_.assign(static_cast<size_t>(opts_.instances), 0);
  }
}

uint64_t ChipFarm::chip_seed(int64_t s) const {
  return mix64(opts_.seed ^ (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(s + 1)));
}

nn::Sequential& ChipFarm::chip(int64_t s) {
  if (s < 0 || s >= opts_.instances)
    throw std::out_of_range("ChipFarm::chip: bad chip index");
  const int64_t slot = s % num_live();
  Slot& sl = slots_[static_cast<size_t>(slot)];
  if (sl.sample != s) {
    populate(slot, s);
    sl.sample = s;
  } else if (crossbar_) {
    // Re-arm the read-noise streams on every handout: a persistent slot must
    // not remember noise draws a previous evaluation consumed, or repeated
    // runs would depend on how many slots the farm keeps live.
    analog::set_read_seeds(*sl.model, read_seed(s));
  }
  return *sl.model;
}

uint64_t ChipFarm::read_seed(int64_t s) const {
  return mix64(chip_seed(s) ^ 0xC2B2AE3D27D4EB4Full);
}

void ChipFarm::populate(int64_t slot, int64_t s) {
  // Build accounting is count-only; the rng below is seeded before any metric
  // call and never reads from one, so chips are byte-identical either way.
  obs::metrics().counter("farm.chip_builds").add(1);
  obs::Span span("farm.populate", "farm");
  Slot& sl = slots_[static_cast<size_t>(slot)];
  Rng rng(chip_seed(s));
  if (crossbar_) {
    bool remapping = opts_.remap.active();
    // A drilled chip programs with the farm's faults plus the drill's,
    // in table order after the base list — identical to a farm built with
    // the combined list. The shared_ptrs copied here keep the models alive
    // through programming even if clear_drill() races this build.
    analog::FaultList effective = faults_;
    DrillEntry drill_entry;
    remap::RemapParams drill_remap;
    const remap::RemapParams* rp = remapping ? &opts_.remap : nullptr;
    {
      std::lock_guard<std::mutex> lk(drill_mu_);
      const auto it = drills_.find(s);
      if (it != drills_.end()) drill_entry = it->second;
    }
    for (const auto& m : drill_entry.models) effective.push_back(m.get());
    if (drill_entry.remap_repair && !remapping) {
      drill_remap.enabled = true;
      rp = &drill_remap;
      remapping = true;
    }
    sl.model = std::make_unique<nn::Sequential>(analog::program_to_crossbars(
        base_, dev_, rng, opts_.tile,
        effective.empty() ? nullptr : &effective, opts_.first_site, rp));
    analog::set_read_seeds(*sl.model, read_seed(s));
    // remap_stats_ is sized only for farm-level remapping; a drill-only
    // repair still runs the controller but keeps no per-chip accounting.
    if (remapping && !remap_stats_.empty()) {
      remap_stats_[static_cast<size_t>(s)] = analog::collect_remap_stats(*sl.model);
      remap_stats_known_[static_cast<size_t>(s)] = 1;
      // Running totals of repair work across every chip build in the process
      // (gauges so snapshots read the current accumulation).
      const remap::RemapStats& st = remap_stats_[static_cast<size_t>(s)];
      obs::metrics().gauge("farm.remap.defects").add(static_cast<double>(st.defects));
      obs::metrics().gauge("farm.remap.absorbed").add(static_cast<double>(st.absorbed()));
      obs::metrics().gauge("farm.remap.residual").add(static_cast<double>(st.residual));
    }
    return;
  }
  if (!sl.model) sl.model = std::make_unique<nn::Sequential>(base_.clone_model());
  analog::perturb_from(*sl.model, vm_, rng, opts_.first_site);
}

remap::RemapStats ChipFarm::chip_remap_stats(int64_t s) {
  if (s < 0 || s >= opts_.instances)
    throw std::out_of_range("ChipFarm::chip_remap_stats: bad chip index");
  if (remap_stats_.empty()) return {};
  if (!remap_stats_known_[static_cast<size_t>(s)]) chip(s);
  return remap_stats_[static_cast<size_t>(s)];
}

void ChipFarm::drill(
    const std::vector<int64_t>& chips,
    std::vector<std::shared_ptr<const analog::FaultModel>> faults,
    bool remap_repair) {
  if (!crossbar_)
    throw std::invalid_argument(
        "ChipFarm::drill: fault drills need crossbar mode (factor chips have "
        "no devices to degrade)");
  if (faults.empty())
    throw std::invalid_argument("ChipFarm::drill: empty fault list");
  if (chips.empty())
    throw std::invalid_argument("ChipFarm::drill: empty chip list");
  for (int64_t s : chips)
    if (s < 0 || s >= opts_.instances)
      throw std::out_of_range("ChipFarm::drill: bad chip index " +
                              std::to_string(s));
  obs::metrics().counter("farm.drills").add(1);
  std::lock_guard<std::mutex> lk(drill_mu_);
  for (int64_t s : chips) drills_[s] = DrillEntry{faults, remap_repair};
}

void ChipFarm::clear_drill() {
  std::lock_guard<std::mutex> lk(drill_mu_);
  drills_.clear();
}

bool ChipFarm::drilled(int64_t s) const {
  std::lock_guard<std::mutex> lk(drill_mu_);
  return drills_.count(s) != 0;
}

void ChipFarm::invalidate(int64_t s) {
  if (s < 0 || s >= opts_.instances)
    throw std::out_of_range("ChipFarm::invalidate: bad chip index");
  Slot& sl = slots_[static_cast<size_t>(s % num_live())];
  if (sl.sample == s) sl.sample = -1;
  if (!remap_stats_known_.empty())
    remap_stats_known_[static_cast<size_t>(s)] = 0;
}

void ChipFarm::reconfigure(uint64_t seed, int64_t first_site) {
  if (crossbar_ && first_site != 0 && faults_.empty())
    throw std::invalid_argument(
        "ChipFarm: crossbar first_site needs a fault list (no factor sites)");
  opts_.seed = seed;
  opts_.first_site = first_site;
  for (Slot& sl : slots_) sl.sample = -1;
  if (!remap_stats_known_.empty())
    std::fill(remap_stats_known_.begin(), remap_stats_known_.end(), uint8_t{0});
}

}  // namespace cn::runtime
