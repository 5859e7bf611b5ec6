// Leveled logger: the one sink for progress/status prints that used to be
// scattered std::cout / fprintf calls (campaign [k/N] progress, farm
// rebuilds). Three levels:
//   kQuiet  nothing
//   kInfo   high-level milestones (default)
//   kDebug  per-cell / per-step detail (campaign progress lines)
// Frontends pick the level through the log sink of the knob table
// (obs/sinks.h); the library logs
// per-cell progress at kDebug, so test and CI output stays quiet unless a
// frontend asks for it. Lines are emitted atomically (one mutex-guarded
// sink call per message) and carry no timing/ordering guarantees beyond
// that — concurrent scenarios complete in scheduler order.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <string>

namespace cn::obs {

enum class LogLevel { kQuiet = 0, kInfo = 1, kDebug = 2 };

/// "quiet" | "info" | "debug" -> level; anything else throws
/// std::invalid_argument (config values must fail loudly).
LogLevel parse_log_level(const std::string& s);
const char* to_string(LogLevel level);

class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  Logger() = default;
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  void set_level(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  bool should_log(LogLevel level) const {
    return static_cast<int>(level) <= level_.load(std::memory_order_relaxed) &&
           level != LogLevel::kQuiet;
  }

  /// Emits one message when `level` is at or below the configured level.
  /// The message build cost is the caller's; guard expensive formatting
  /// with should_log().
  void log(LogLevel level, const std::string& msg);

  /// Replaces the output sink (default: stdout, one line per message).
  /// Pass nullptr to restore the default. The sink is called under the
  /// logger mutex — keep it fast and never log from inside it.
  void set_sink(Sink sink);

  /// Process-wide logger (leaked singleton — see MetricsRegistry::global).
  static Logger& global();

 private:
  std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
  std::mutex mu_;
  Sink sink_;  // empty = default stdout sink
};

/// Shorthands over the global logger.
void log_info(const std::string& msg);
void log_debug(const std::string& msg);

}  // namespace cn::obs
