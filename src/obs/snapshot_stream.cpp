#include "obs/snapshot_stream.h"

#include <stdexcept>

#include "obs/json.h"

namespace cn::obs {

MetricsSnapshotter::MetricsSnapshotter(MetricsSnapshotterOptions opts,
                                       MetricsRegistry& reg)
    : opts_(std::move(opts)), reg_(reg) {
  if (!(opts_.interval_s > 0.0))
    throw std::invalid_argument("MetricsSnapshotter: interval_s must be > 0");
  f_ = std::fopen(opts_.path.c_str(), "a");
  if (!f_)
    throw std::runtime_error("MetricsSnapshotter: cannot open " + opts_.path);
  origin_ = std::chrono::steady_clock::now();
  prev_ = reg_.snapshot();  // tick 0 baseline: deltas start at "now"
  thread_ = std::thread([this] { tick_loop(); });
}

MetricsSnapshotter::~MetricsSnapshotter() { stop(); }

void MetricsSnapshotter::tick_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  const auto period = std::chrono::duration<double>(opts_.interval_s);
  for (;;) {
    cv_.wait_for(lk, period, [this] { return stop_; });
    if (stop_) return;  // stop() writes the final line itself
    write_line_locked(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - origin_)
                          .count());
  }
}

void MetricsSnapshotter::write_line_locked(double now_s) {
  const RegistrySnapshot cur = reg_.snapshot();
  std::string line = "{\"t_s\": " + json_num(now_s) +
                     ", \"dt_s\": " + json_num(now_s - prev_t_) +
                     ", \"seq\": " + std::to_string(seq_);
  // Counters: interval deltas, zero deltas omitted (long streams stay
  // proportional to activity, not to registry size).
  std::string part;
  for (const auto& [name, v] : cur.counters) {
    const auto it = prev_.counters.find(name);
    const uint64_t p = it == prev_.counters.end() ? 0 : it->second;
    const uint64_t d = v > p ? v - p : 0;
    if (!d) continue;
    if (!part.empty()) part += ", ";
    part += "\"" + json_escaped(name) + "\": " + std::to_string(d);
  }
  if (!part.empty()) line += ", \"counters\": {" + part + "}";
  // Gauges: instantaneous values (a delta of a last-write-wins value is
  // meaningless), always emitted so plots have a continuous series.
  part.clear();
  for (const auto& [name, v] : cur.gauges) {
    if (!part.empty()) part += ", ";
    part += "\"" + json_escaped(name) + "\": " + json_num(v);
  }
  if (!part.empty()) line += ", \"gauges\": {" + part + "}";
  // Histograms: interval delta count/sum plus rank-exact quantiles of just
  // this interval's samples (bucket sketches subtract exactly).
  part.clear();
  for (const auto& [name, s] : cur.histograms) {
    const auto it = prev_.histograms.find(name);
    const LatencyHistogram::Snapshot d =
        it == prev_.histograms.end()
            ? s
            : s.delta_since(it->second);
    if (!d.count) continue;
    if (!part.empty()) part += ", ";
    part += "\"" + json_escaped(name) + "\": {\"count\": " +
            std::to_string(d.count) + ", \"sum_us\": " +
            std::to_string(d.sum_us) + ", \"p50_us\": " +
            json_num(d.percentile(0.5)) + ", \"p99_us\": " +
            json_num(d.percentile(0.99)) + "}";
  }
  if (!part.empty()) line += ", \"hists\": {" + part + "}";
  line += "}\n";
  std::fwrite(line.data(), 1, line.size(), f_);
  std::fflush(f_);
  prev_ = cur;
  prev_t_ = now_s;
  ++seq_;
  ++lines_;
}

void MetricsSnapshotter::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!f_) return;
  write_line_locked(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - origin_)
                        .count());
}

void MetricsSnapshotter::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_ && !f_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lk(mu_);
  if (!f_) return;
  // Final partial-interval line: nothing recorded before shutdown is lost.
  write_line_locked(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - origin_)
                        .count());
  std::fclose(f_);
  f_ = nullptr;
}

uint64_t MetricsSnapshotter::lines_written() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lines_;
}

}  // namespace cn::obs
