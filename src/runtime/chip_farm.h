// ChipFarm: a pool of pre-instantiated "chip instances" of one trained model.
//
// The paper's Monte-Carlo evaluation (Table I, Fig. 7/9) treats every
// variation sample as one fabricated chip. The seed code re-derived each
// chip from scratch inside a sequential loop; the farm materializes chips
// once — with deterministic per-chip seeds — and reuses them across the
// whole test set, across sweep points, and across requests (InferenceServer).
//
// Two population modes:
//  - factor mode: chip s = clone of the base model with multiplicative
//    variation factors sampled from Rng(chip_seed(s)) (paper Eq. 1-2, the
//    fast path used by mc_accuracy and the Fig. 9 sweep);
//  - crossbar mode: chip s = program_to_crossbars(base, dev, Rng(chip_seed(s)))
//    — the device-level substrate with tiling, quantization and an owned
//    per-chip read-noise stream (no shared-Rng races across instances).
//
// Memory is bounded by `max_live` physical slots: logical chip s lives in
// slot s % num_live() and is re-materialized when a different sample last
// used the slot. Because chip s depends only on chip_seed(s), results are
// bit-identical no matter how many slots or threads are used.
//
// Threading contract: chip(s) mutates slot s % num_live(). Concurrent
// callers must partition slots (McEngine strides samples by slot;
// InferenceServer pins worker w to chip w).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "analog/crossbar_layers.h"
#include "analog/variation.h"
#include "nn/sequential.h"

namespace cn::runtime {

struct ChipFarmOptions {
  int64_t instances = 25;  // logical chips (one per MC sample)
  uint64_t seed = 42;      // farm seed; chip seeds derive deterministically
  int64_t max_live = 0;    // physical slots; 0 = min(instances, pool size)
  int64_t first_site = 0;  // injection start: factor sites, or fault sites
                           // when a crossbar farm carries a fault list
  int64_t tile = 128;      // crossbar mode: tile edge length
  remap::RemapParams remap;  // crossbar mode: fault-aware remapping (default off)
};

class ChipFarm {
 public:
  /// Factor-injection farm (paper Eq. 1-2 fast path).
  ChipFarm(const nn::Sequential& base, const analog::VariationModel& vm,
           const ChipFarmOptions& opts);
  /// Device-level farm: every chip programmed onto crossbars. `faults`
  /// (faultsim scenario; non-owning, models must outlive the farm) injects
  /// device faults into analog sites >= opts.first_site of every chip, each
  /// chip drawing its fault realization from its own chip seed.
  ChipFarm(const nn::Sequential& base, const analog::RramDeviceParams& dev,
           const ChipFarmOptions& opts, analog::FaultList faults = {});

  int64_t num_chips() const { return opts_.instances; }
  int64_t num_live() const { return static_cast<int64_t>(slots_.size()); }
  /// Analog sites of the base model (the Fig. 9 sweep extent).
  int64_t num_analog_sites() { return static_cast<int64_t>(base_.analog_sites().size()); }
  bool crossbar_mode() const { return crossbar_; }
  uint64_t seed() const { return opts_.seed; }
  int64_t first_site() const { return opts_.first_site; }

  /// Deterministic seed of logical chip s (independent of slot layout).
  uint64_t chip_seed(int64_t s) const;

  /// The model realizing logical chip s, materialized on demand in slot
  /// s % num_live(). Crossbar chips are handed out with freshly re-armed
  /// read-noise streams (seeded from chip s), so an evaluation starting at a
  /// handout is bit-identical no matter which slot hosts the chip or what
  /// ran before. See the threading contract above.
  nn::Sequential& chip(int64_t s);

  /// Re-keys the whole farm (the Fig. 9 sweep re-runs the same chips with a
  /// new seed and injection start site); live slots are re-materialized
  /// lazily. A crossbar farm accepts first_site only when it carries a fault
  /// list (fault-injection start); factor sites exist only in factor mode.
  void reconfigure(uint64_t seed, int64_t first_site = 0);

  /// Remap repair accounting of logical chip s (all-zero unless the farm is
  /// a crossbar farm with opts.remap enabled and chip s had defects). Cached
  /// when the chip is materialized — chips are pure functions of their seed,
  /// so the stats never change until reconfigure(); cold chips are
  /// materialized on demand.
  remap::RemapStats chip_remap_stats(int64_t s);

  /// Live fault drill (crossbar mode only): marks logical chips as degraded.
  /// The next (re)materialization of a drilled chip programs it with `faults`
  /// stacked after the farm's own fault list, drawing the realization from
  /// the chip's own seed — so a drilled chip is byte-identical to a fresh
  /// farm built with the combined list (seed purity survives the drill).
  /// `remap_repair` additionally runs the fault-aware remap controller on the
  /// drilled chip even when the farm itself has remapping off. The farm
  /// shares ownership of the models; callers may drop theirs. Does NOT
  /// invalidate live slots — call invalidate() from the thread that owns the
  /// slot (InferenceServer workers rebuild between batches).
  void drill(const std::vector<int64_t>& chips,
             std::vector<std::shared_ptr<const analog::FaultModel>> faults,
             bool remap_repair = false);
  /// Clears every drill entry; drilled chips return to their clean form at
  /// the next invalidate()+chip() cycle.
  void clear_drill();
  /// Whether logical chip s currently carries a drill entry.
  bool drilled(int64_t s) const;

  /// Drops the materialized model in chip s's slot so the next chip(s) call
  /// re-programs it — the live-drill rebuild seam. Caller must own the slot
  /// per the threading contract above.
  void invalidate(int64_t s);

  /// The clean base model the chips were derived from.
  const nn::Sequential& base() const { return base_; }

 private:
  void init_slots();
  void populate(int64_t slot, int64_t s);
  uint64_t read_seed(int64_t s) const;

  nn::Sequential base_;
  analog::VariationModel vm_;
  analog::RramDeviceParams dev_;
  analog::FaultList faults_;  // crossbar mode only; empty = fault-free
  bool crossbar_ = false;
  ChipFarmOptions opts_;

  struct Slot {
    std::unique_ptr<nn::Sequential> model;
    int64_t sample = -1;  // logical chip currently materialized, -1 = none
  };
  std::vector<Slot> slots_;
  // Per-logical-chip remap accounting, filled at populate() time (concurrent
  // populates touch distinct elements; uint8_t, not vector<bool>, so the
  // flag writes don't share words).
  std::vector<remap::RemapStats> remap_stats_;
  std::vector<uint8_t> remap_stats_known_;

  // Live-drill table: logical chip -> extra fault models (+ repair flag),
  // consulted by populate(). Guarded by its own mutex because drill() is
  // called from a control thread while workers materialize chips.
  struct DrillEntry {
    std::vector<std::shared_ptr<const analog::FaultModel>> models;
    bool remap_repair = false;
  };
  mutable std::mutex drill_mu_;
  std::map<int64_t, DrillEntry> drills_;
};

}  // namespace cn::runtime
