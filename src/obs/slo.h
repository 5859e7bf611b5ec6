// SLO burn-rate tracking over windowed histogram deltas.
//
// An objective is "quantile(latency) < threshold over a sliding window"
// (e.g. p99 < 5ms over 60s). The tracker keeps a ring of timestamped
// LatencyHistogram snapshots; each update() diffs the newest against the
// oldest snapshot still inside the window (Snapshot::delta_since — bucket
// sketches subtract exactly), which yields the window's own sample set:
// its exact-rank quantile, the fraction of requests over the threshold,
// and the error-budget burn rate
//
//     burn_rate = bad_fraction / (1 - quantile)
//
// — burn 1.0 means the window is consuming its error budget exactly at the
// allowed rate; 2.0 means the budget is gone in half the window. "Bad" is
// defined on bucket edges: a request counts as over-threshold when its
// bucket's lower edge is >= threshold_us (the threshold effectively rounds
// down to a sketch bucket boundary; hand-computable, which the oracle test
// pins).
//
// Consumers: InferenceServer owns a tracker over its private latency
// histogram when an objective is configured (ServerStats::summary() prints
// the status, /statusz shows it, and the tracker publishes the slo.* metric
// family — rendered as correctnet_slo_* by obs/prometheus.h). Like every obs
// primitive the tracker only reads timing data: results stay byte-identical
// with SLO tracking on or off.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace cn::obs {

struct SloConfig {
  double quantile = 0.99;       // objective quantile (0, 1)
  double threshold_us = 5000;   // objective: quantile(latency) < threshold
  double window_s = 60;         // sliding window the budget is rated over
};

class SloTracker {
 public:
  struct Status {
    bool configured = false;
    double quantile = 0.0;
    double threshold_us = 0.0;
    double window_s = 0.0;          // span actually covered by the window
    uint64_t window_count = 0;      // requests inside the window
    uint64_t window_bad = 0;        // of those, over the threshold
    double window_quantile_us = 0;  // exact-rank quantile of the window
    double bad_fraction = 0.0;      // window_bad / window_count
    double burn_rate = 0.0;         // bad_fraction / (1 - quantile)
    bool violating = false;         // window_quantile_us >= threshold_us

    /// One-line human form, e.g.
    /// "slo p99 < 5000us: window p99 812us, burn 0.31x (3/960 over, 42.0s)".
    std::string summary() const;
  };

  /// `metric_prefix` non-empty publishes the status into the global registry
  /// as <prefix>.burn_rate / <prefix>.window_quantile_us /
  /// <prefix>.bad_fraction gauges on every update. Throws on a quantile
  /// outside (0, 1), a non-positive threshold, or a non-positive window.
  explicit SloTracker(SloConfig cfg, std::string metric_prefix = "");

  /// Records `snap` (a cumulative histogram snapshot) at monotonic time
  /// `now_s`, prunes the ring to the window, and recomputes the status from
  /// the delta against the window's baseline. Deterministic given the
  /// snapshot/time sequence — the oracle test drives this directly.
  Status update(const LatencyHistogram::Snapshot& snap, double now_s);

  /// Convenience: snapshot `hist` at steady-clock now.
  Status update(const LatencyHistogram& hist);

  /// The last computed status (zero-valued before the first update).
  Status status() const;

  const SloConfig& config() const { return cfg_; }

  /// The bucket-edge "bad" rule, exposed for the oracle test: requests in
  /// buckets whose lower edge is >= threshold_us count as over-threshold.
  static uint64_t bad_count(const LatencyHistogram::Snapshot& delta,
                            double threshold_us);

 private:
  SloConfig cfg_;
  Gauge* g_burn_ = nullptr;  // registry-owned; null when prefix is empty
  Gauge* g_quantile_ = nullptr;
  Gauge* g_bad_fraction_ = nullptr;

  mutable std::mutex mu_;
  std::deque<std::pair<double, LatencyHistogram::Snapshot>> ring_;
  Status last_;
};

}  // namespace cn::obs
