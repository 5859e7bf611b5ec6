// McEngine: sample-parallel Monte-Carlo accuracy evaluation over a ChipFarm.
//
// Replaces the sequential loop in the seed mc_accuracy: logical chips are
// strided across the farm's live slots and evaluated in parallel on the
// global thread pool (nested forward-pass parallelism runs inline, see
// ThreadPool::parallel_for). Because chip s is fully determined by
// chip_seed(s) and results reduce in chip order, McResult.samples is
// bit-identical for any thread count and any number of live slots.
//
// Crossbar chips run the one simd tile kernel, whose batched currents equal
// the scalar matvec bit for bit, so McResult does not depend on the batched
// path either.
#pragma once

#include "core/montecarlo.h"
#include "core/sensitivity.h"
#include "data/dataset.h"
#include "runtime/chip_farm.h"

namespace cn::runtime {

struct McEngineOptions {
  int64_t batch_size = 128;
  /// 1 forces a fully serial loop (reference path); any other value uses the
  /// global thread pool, one task per live slot.
  int threads = 0;
};

class McEngine {
 public:
  /// Default per-point seed stride of sensitivity_sweep. Exported so
  /// callers that rebuild sweep points themselves (examples/fault_sweep's
  /// parallel sweep) stay bit-identical to the engine path by construction.
  static constexpr uint64_t kSweepSeedStride = 1000003ull;

  explicit McEngine(ChipFarm& farm, McEngineOptions opts = {});

  /// Accuracy statistics over every chip of the farm; samples[s] is chip s.
  core::McResult accuracy(const data::Dataset& test);

  /// The Fig. 9 sweep on top of the farm: point i re-keys the same chips
  /// with seed `base_seed + i*seed_stride` and injection start site i, then
  /// measures accuracy. Matches core::sensitivity_sweep's seeding.
  std::vector<core::SensitivityPoint> sensitivity_sweep(
      const data::Dataset& test, int64_t num_sites, uint64_t base_seed,
      uint64_t seed_stride = kSweepSeedStride);

 private:
  ChipFarm& farm_;
  McEngineOptions opts_;
};

}  // namespace cn::runtime
