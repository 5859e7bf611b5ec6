#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Digest::bytes(const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

bool digest_matches(const RunConfig& cfg, const std::string& computed) {
  const bool ok = computed == cfg.stored_digest;
  std::printf("reference digest %s%s: computed %s stored %s -> %s\n",
              cfg.workload.c_str(), cfg.tiny ? "@tiny" : "", computed.c_str(),
              cfg.stored_digest.empty() ? "(none)" : cfg.stored_digest.c_str(),
              ok ? "match" : "MISMATCH");
  return ok;
}

int SpanRecorder::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("SpanRecorder: spans must close in LIFO order");
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

double SpanRecorder::self_us(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  double self = s.end_us - s.start_us;
  // Children are recorded after their parent, so only later spans qualify.
  for (size_t i = static_cast<size_t>(id) + 1; i < spans_.size(); ++i)
    if (spans_[i].parent == id) self -= spans_[i].end_us - spans_[i].start_us;
  return self;
}

double SpanRecorder::self_us(const std::string& name) const {
  double t = 0;
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) t += self_us(static_cast<int>(i));
  return t;
}

double SpanRecorder::total_us(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_)
    if (s.name == name) t += s.end_us - s.start_us;
  return t;
}

void SpanRecorder::write_json(const std::string& path, const std::string& header) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "{\"header\": " << header << ",\n \"spans\": [";
  char buf[64];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are benchmark-chosen identifiers; no escaping needed.
    f << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name
      << "\", \"parent\": " << s.parent;
    std::snprintf(buf, sizeof buf, ", \"start_us\": %.1f, \"end_us\": %.1f}",
                  s.start_us, s.end_us);
    f << buf;
  }
  f << "\n]}\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace perfbench
