// Shared pieces of the repository benchmark: run configuration, results,
// statistics, the output digest, and the in-memory span recorder.
//
// The benchmark drives the correctnet library only through its public
// headers. Untraced runs measure the end-to-end metrics; traced runs time
// single layers from outside by wrapping calls into their public functions
// and recording one span per call (see SpanRecorder).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test sizes: a handful of chips and images, so every code path runs
  // in seconds. Tiny runs check against their own stored digests.
  bool tiny = false;
  // The reference digest stored with the benchmark for this workload and
  // size ("" when none is stored, which counts as a mismatch).
  std::string stored_digest;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one run reports: operations attempted and failed (digest or
/// bitwise mismatches count as failed), plus the metrics.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
};

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// FNV-1a over the raw bytes of what a workload simulated.
class Digest {
 public:
  void bytes(const void* p, size_t n);
  void floats(const float* p, size_t n) { bytes(p, n * sizeof(float)); }
  void doubles(const std::vector<double>& v) {
    bytes(v.data(), v.size() * sizeof(double));
  }
  void text(const std::string& s) { bytes(s.data(), s.size()); }
  std::string hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Compares a reference digest with the stored one and prints both.
bool digest_matches(const RunConfig& cfg, const std::string& computed);

/// Spans kept in memory and written when the run ends. Each span has a name,
/// start, end and the index of the span open when it began (its parent).
/// Single-threaded: only the benchmark's driving thread records.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0, end_us = 0;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  int begin(const std::string& name);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of one span minus the time its direct children cover.
  double self_us(int id) const;
  /// Summed self time of every span with this name.
  double self_us(const std::string& name) const;
  /// Summed duration of every span with this name.
  double total_us(const std::string& name) const;

  /// JSON: {"header": {...}, "spans": [...]}; `header` is a JSON object.
  void write_json(const std::string& path, const std::string& header) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder records nothing.
class Scoped {
 public:
  Scoped(SpanRecorder* r, const std::string& name)
      : r_(r), id_(r ? r->begin(name) : -1) {}
  ~Scoped() {
    if (r_) r_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder* r_;
  int id_;
};

/// Peak resident set of the process so far (getrusage), in MiB.
double peak_rss_mb();

// The three workloads. An untraced run reports the end-to-end metrics; a
// traced run reports only trace_overhead_frac for the workload (one
// untraced and one traced unit of its work, alternating), to which main
// adds the layer profile.
Outcome run_mc_vgg_xbar(const RunConfig& cfg, SpanRecorder& spans);
Outcome run_campaign_lenet_faults(const RunConfig& cfg, SpanRecorder& spans);
Outcome run_serve_lenet_digital(const RunConfig& cfg, SpanRecorder& spans);

/// The per-layer profile of a traced run: each layer timed through its
/// public functions on fixed, seeded inputs.
void run_layer_profile(const RunConfig& cfg, SpanRecorder& spans, Outcome& out);

}  // namespace perfbench
