// Process-wide metrics: counters, gauges, and fixed-bucket latency
// histograms behind a named registry.
//
// Design constraints, in order:
//  1. Instrumentation must never perturb results. No metric touches an rng
//     stream or a numeric path, so every byte-exactness contract in the repo
//     (matmul == matvec, seq == parallel CampaignReports, per-level parity)
//     holds with metrics on or off — asserted in tier-1 (tests/test_obs.cpp).
//  2. The hot path is lock-free. Callers resolve a metric by name once
//     (mutex-guarded map, setup time) and hold a stable reference; recording
//     is then a relaxed atomic add — histograms stripe one atomic per
//     bucket, so concurrent recorders never contend on a lock.
//  3. Summaries are mergeable. A histogram is a fixed vector of counts —
//     merging two is bucket-wise addition, the compact-sketch shape (cf. the
//     IBLT line of work in PAPERS.md) that lets per-thread or, later,
//     per-shard histograms combine into exactly the histogram one recorder
//     would have produced.
//
// Histogram buckets are HdrHistogram-style: integer microseconds, exact unit
// buckets below 32 us, then every power-of-two octave split into 32
// sub-buckets (3.1 % relative width) up to 2^40 us. Percentile extraction is
// rank-exact — the rank comes from exact bucket counts, and the returned
// value is the lower edge of the bucket holding that rank — so the true
// sample quantile q satisfies  p(q) <= quantile < p(q) * 33/32 + 1  (equality
// below 32 us). tests/test_obs.cpp pins this against a sorted-vector oracle.
//
// Exposure: MetricsRegistry::snapshot_json() emits the flat ordered-key
// BenchJson shape ("name" first, then sorted metric keys); the metrics sink
// of the knob table (obs/sinks.h) writes it to a file. docs/OBSERVABILITY.md
// is the metric catalog.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cn::obs {

/// Monotonic event count. Relaxed atomic increments; a registry-owned
/// counter is gated on the registry's enabled flag (one relaxed load),
/// a standalone-constructed one always records.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(uint64_t n = 1) {
    if (gate_ && !gate_->load(std::memory_order_relaxed)) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  const std::atomic<bool>* gate_ = nullptr;
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depth, scenarios/sec). add()
/// is a CAS loop — cold-path only by design.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) {
    if (gate_ && !gate_->load(std::memory_order_relaxed)) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(double d) {
    if (gate_ && !gate_->load(std::memory_order_relaxed)) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  const std::atomic<bool>* gate_ = nullptr;
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket latency histogram over integer microseconds (see the bucket
/// scheme in the header comment). Recording is one relaxed atomic add per
/// bucket plus count/sum/min/max maintenance; no allocation, no lock.
class LatencyHistogram {
 public:
  // 32 unit buckets, then 32 sub-buckets per octave for octaves 5..39.
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 32
  static constexpr int kMaxOctave = 40;              // values cap at 2^40 us
  static constexpr int kNumBuckets =
      kSubBuckets + (kMaxOctave - kSubBits) * kSubBuckets;

  LatencyHistogram();
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one value (microseconds; negatives clamp to 0, huge values to
  /// the top bucket).
  void record(double us);

  /// Bucket index of an integer-microsecond value, and the inclusive lower /
  /// exclusive upper value edges of a bucket. Exposed for the oracle test.
  static int bucket_index(uint64_t us);
  static uint64_t bucket_lower(int index);
  static uint64_t bucket_upper(int index);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_us() const {
    return static_cast<double>(sum_.load(std::memory_order_relaxed));
  }
  double mean_us() const;
  double min_us() const;  // 0 when empty
  double max_us() const;  // 0 when empty

  /// The lower edge of the bucket containing the exact rank ceil(q * count)
  /// (q clamped to (0, 1]); 0 when empty. The true sample quantile is never
  /// below the returned value and at most one bucket width above it.
  double percentile(double q) const;

  /// Bucket-wise addition of another histogram's current contents: the
  /// merged histogram equals what a single recorder would have produced.
  void merge(const LatencyHistogram& other);

  /// A coherent-enough copy for reporting: bucket counts plus the summary
  /// fields, loaded relaxed (concurrent recording may skew totals by the
  /// in-flight records; fine for observability).
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum_us = 0;
    uint64_t min_us = 0;
    uint64_t max_us = 0;
    std::vector<uint64_t> buckets;  // kNumBuckets entries
    double percentile(double q) const;
    /// Interval delta against an earlier snapshot of the same histogram:
    /// bucket-wise and count/sum subtraction (a snapshot taken later can
    /// never have smaller buckets; a reset in between clamps to this
    /// snapshot's values instead of underflowing). min/max cover the whole
    /// histogram lifetime, not the interval, and are copied through. The
    /// delta is itself a valid Snapshot — percentile() over it is the
    /// exact-rank quantile of just the interval's samples, which is what
    /// the snapshot stream and the SLO burn-rate tracker consume.
    Snapshot delta_since(const Snapshot& prev) const;
  };
  Snapshot snapshot() const;

  void reset();

 private:
  friend class MetricsRegistry;
  const std::atomic<bool>* gate_ = nullptr;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::vector<std::atomic<uint64_t>> buckets_;
};

/// One coherent copy of every registered metric, taken under the registry
/// lock. The one input shape every exposition surface consumes: the JSON
/// writer, the Prometheus text renderer (obs/prometheus.h), the interval
/// snapshot stream (obs/snapshot_stream.h), and the /statusz dump all
/// render a RegistrySnapshot rather than re-walking the registry.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, LatencyHistogram::Snapshot> histograms;
};

/// Named metric registry. Lookup is mutex-guarded and returns a stable
/// reference — resolve once, record lock-free forever. A name is bound to
/// one metric kind; asking for the same name as a different kind throws.
/// set_enabled(false) gates every registry-owned metric off (the metrics-on
/// vs metrics-off byte-identity test flips this), without touching values.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Copies every registered metric under the registry lock (histograms via
  /// LatencyHistogram::snapshot, so bucket counts are per-histogram
  /// coherent). Names keep their registry form ("server.latency_us");
  /// renderers map them to their own conventions.
  RegistrySnapshot snapshot() const;

  /// Flat BenchJson-shaped object: {"name": "metrics", <sorted keys>...}.
  /// Counters/gauges emit under their name; a histogram emits
  /// name.count/.mean_us/.min_us/.max_us/.p50_us/.p99_us/.p999_us.
  std::string snapshot_json() const;
  void write_json(const std::string& path) const;

  /// Zeroes every registered metric (registrations survive). Not safe
  /// against concurrent recorders; test/tooling use only.
  void reset();

  /// Process-wide registry (leaked singleton: safe to record from worker
  /// threads and atexit hooks in any destruction order).
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{true};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> hists_;
};

/// Shorthand for MetricsRegistry::global().
MetricsRegistry& metrics();

/// Canonical labeled-metric registry name: labeled("server.requests",
/// "model", "mnist") == "server.requests{model=mnist}". The registry treats
/// the result as an opaque name (one independent metric per distinct label
/// value); the Prometheus renderer parses the suffix back into a real
/// `{model="mnist"}` label and groups all series of one base name into one
/// family. Multiple labels compose by calling labeled() on the result —
/// pairs stay comma-separated and the renderer splits them. The label key
/// must be a valid Prometheus label name ([a-zA-Z_][a-zA-Z0-9_]*); the value
/// must not contain '{', '}', ',', '=' or newline. Violations throw
/// std::invalid_argument — a malformed name would silently corrupt the
/// exposition page.
std::string labeled(const std::string& name, const std::string& key,
                    const std::string& value);

}  // namespace cn::obs
