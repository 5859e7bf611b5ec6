// Lightweight span tracer emitting Chrome trace_event-format JSON.
//
// The Tracer collects complete ("ph":"X") and instant ("ph":"i") events into
// a bounded in-memory buffer; write_json() emits the {"traceEvents": [...]}
// object that chrome://tracing and Perfetto load directly. Tracing is off by
// default: a disabled Span costs one relaxed atomic load and no clock read,
// so instrumented hot paths stay hot. Like every obs primitive, tracing
// never touches rng streams or numeric paths — results are byte-identical
// with tracing on or off.
//
// Enablement: the trace sink of the knob table (obs/sinks.h). Timestamps are
// steady-clock microseconds since the tracer singleton was created; thread
// ids are compacted to small integers at write time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cn::obs {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Events beyond this are counted in dropped() instead of stored, so a
  /// runaway trace bounds memory (~100 bytes/event).
  static constexpr size_t kMaxEvents = 1 << 20;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a complete event covering [start, end] on the calling thread.
  void complete(std::string name, const char* cat, Clock::time_point start,
                Clock::time_point end);
  /// Records an instant event at now() on the calling thread.
  void instant(std::string name, const char* cat);

  size_t event_count() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  void clear();

  /// Chrome trace-event JSON: {"traceEvents": [...]}. Thread ids are
  /// assigned densely in first-appearance order; pid is always 1.
  std::string to_json() const;
  void write_json(const std::string& path) const;

  /// Process-wide tracer (leaked singleton — see MetricsRegistry::global).
  static Tracer& global();

 private:
  struct Event {
    std::string name;
    const char* cat;
    uint64_t ts_us;
    uint64_t dur_us;  // 0 for instant events
    std::thread::id tid;
    char ph;  // 'X' complete, 'i' instant
  };
  void push(Event ev);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// RAII span over the global tracer: captures the start time when tracing is
/// enabled at construction, records a complete event at destruction. The
/// std::string overload takes the (possibly empty) name by value so callers
/// can build labels only when enabled() says anyone is listening.
class Span {
 public:
  Span(const char* name, const char* cat) : Span(std::string(name), cat) {}
  Span(std::string name, const char* cat);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  const char* cat_;
  Tracer::Clock::time_point start_;
  bool active_;
};

}  // namespace cn::obs
