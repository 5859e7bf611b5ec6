// MetricsSnapshotter: a background thread that appends interval-delta
// registry snapshots to a JSONL stream, so rate/derivative plots of a long
// run are possible post hoc without running a scraper against the
// exposition server.
//
// Each line is one self-contained JSON object:
//
//   {"t_s": 12.40, "dt_s": 1.00, "seq": 12,
//    "counters": {"server.requests": 830},            // interval deltas
//    "gauges": {"server.queue_depth": 3},             // current values
//    "hists": {"server.latency_us":
//      {"count": 830, "sum_us": 412000, "p50_us": 410, "p99_us": 2110}}}
//                                                     // interval deltas +
//                                                     // interval quantiles
//
// Counter and histogram entries are deltas against the previous tick
// (Snapshot::delta_since — bucket sketches subtract exactly, so the interval
// quantiles are rank-exact over just that interval's samples); zero-delta
// entries are omitted, gauges always report their instantaneous value. The
// first tick's baseline is the registry state at start(), and stop() (or
// flush()) emits one final partial-interval line so nothing recorded before
// shutdown is lost. Lines sum: adding a counter's deltas over all lines
// reproduces its cumulative value — pinned in tests/test_exposition.cpp.
//
// Exposure: the metrics-stream sink of the knob table (obs/sinks.h), whose
// signal flush flushes the stream before re-raising. Timing-only, like every obs surface: streaming
// never changes a result byte.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace cn::obs {

struct MetricsSnapshotterOptions {
  std::string path;          // JSONL file, appended to
  double interval_s = 1.0;   // tick period; must be > 0
};

class MetricsSnapshotter {
 public:
  /// Opens the stream (append) and starts the tick thread. Throws when the
  /// file cannot be opened or the interval is not positive.
  MetricsSnapshotter(MetricsSnapshotterOptions opts,
                     MetricsRegistry& reg = metrics());
  ~MetricsSnapshotter();  // stop()

  MetricsSnapshotter(const MetricsSnapshotter&) = delete;
  MetricsSnapshotter& operator=(const MetricsSnapshotter&) = delete;

  /// Writes one delta line now (partial interval). Thread-safe; used by the
  /// signal-flush path and by stop().
  void flush();

  /// Final flush + joins the tick thread. Idempotent.
  void stop();

  uint64_t lines_written() const;

 private:
  void tick_loop();
  void write_line_locked(double now_s);  // requires mu_ held

  MetricsSnapshotterOptions opts_;
  MetricsRegistry& reg_;
  std::FILE* f_ = nullptr;
  std::chrono::steady_clock::time_point origin_;
  RegistrySnapshot prev_;   // baseline for the next delta line
  double prev_t_ = 0.0;
  uint64_t seq_ = 0;
  uint64_t lines_ = 0;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace cn::obs
