#include "obs/trace.h"

#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

#include "obs/json.h"

namespace cn::obs {

namespace {

uint64_t us_since(Tracer::Clock::time_point origin, Tracer::Clock::time_point t) {
  if (t <= origin) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - origin)
          .count());
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

void Tracer::push(Event ev) {
  std::lock_guard<std::mutex> lk(mu_);
  if (events_.size() >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(ev));
}

void Tracer::complete(std::string name, const char* cat,
                      Clock::time_point start, Clock::time_point end) {
  if (!enabled()) return;
  Event ev;
  ev.name = std::move(name);
  ev.cat = cat;
  ev.ts_us = us_since(origin_, start);
  ev.dur_us = end > start ? us_since(start, end) : 0;
  ev.tid = std::this_thread::get_id();
  ev.ph = 'X';
  push(std::move(ev));
}

void Tracer::instant(std::string name, const char* cat) {
  if (!enabled()) return;
  Event ev;
  ev.name = std::move(name);
  ev.cat = cat;
  ev.ts_us = us_since(origin_, Clock::now());
  ev.dur_us = 0;
  ev.tid = std::this_thread::get_id();
  ev.ph = 'i';
  push(std::move(ev));
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Dense thread ids in first-appearance order: stable across identical
  // runs, and small enough for the trace viewer's track labels.
  std::map<std::thread::id, int> tids;
  for (const Event& ev : events_)
    tids.emplace(ev.tid, static_cast<int>(tids.size()) + 1);

  std::string j = "{\n\"traceEvents\": [\n";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& ev = events_[i];
    j += "{\"name\": \"" + json_escaped(ev.name) + "\"";
    j += ", \"cat\": \"" + json_escaped(ev.cat) + "\"";
    j += ", \"ph\": \"";
    j += ev.ph;
    j += "\", \"ts\": " + std::to_string(ev.ts_us);
    if (ev.ph == 'X') j += ", \"dur\": " + std::to_string(ev.dur_us);
    if (ev.ph == 'i') j += ", \"s\": \"t\"";
    j += ", \"pid\": 1, \"tid\": " + std::to_string(tids[ev.tid]) + "}";
    if (i + 1 < events_.size()) j += ",";
    j += "\n";
  }
  j += "]\n}\n";
  return j;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("Tracer: cannot write " + path);
  os << to_json();
}

Tracer& Tracer::global() {
  static Tracer* t = new Tracer();  // leaked on purpose; see MetricsRegistry
  return *t;
}

Span::Span(std::string name, const char* cat)
    : cat_(cat), active_(Tracer::global().enabled()) {
  if (!active_) return;
  name_ = std::move(name);
  start_ = Tracer::Clock::now();
}

Span::~Span() {
  if (!active_) return;
  Tracer::global().complete(std::move(name_), cat_, start_,
                            Tracer::Clock::now());
}

}  // namespace cn::obs
