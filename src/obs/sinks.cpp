#include "obs/sinks.h"

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/snapshot_stream.h"
#include "obs/trace.h"

namespace cn::obs {

namespace {

void set_log(Sinks& s, const std::string& v) {
  s.log.reset();
  try {
    if (!v.empty()) s.log = parse_log_level(v);
  } catch (const std::invalid_argument&) {
    core::bad_value("quiet|info|debug", v);
  }
}

void set_port(Sinks& s, const std::string& v) {
  const int64_t port = v.empty() ? -1 : core::integer<int64_t>(v);
  if (!v.empty() && (port < 0 || port > 65535)) core::bad_value("a port in 0..65535", v);
  s.statusz_port = static_cast<int>(port);
}

// What the last start() turned on, for finish() and the signal flush.
std::mutex g_mu;
std::optional<Sinks> g_live;
std::unique_ptr<MetricsSnapshotter> g_stream;

void write_files(const Sinks& s) noexcept {
  try {
    if (!s.metrics.empty()) metrics().write_json(s.metrics);
  } catch (...) {
  }
  try {
    if (!s.trace.empty()) Tracer::global().write_json(s.trace);
  } catch (...) {
  }
}

void flush_and_reraise(int sig) {
  // Not strictly async-signal-safe (it formats and writes files), but the
  // signal flush is opt-in: a long campaign cut down by Ctrl-C keeps its
  // artifacts. A finish() in progress holds the lock and writes them itself.
  {
    std::unique_lock<std::mutex> lk(g_mu, std::try_to_lock);
    if (lk.owns_lock() && g_live) write_files(*g_live);
    if (lk.owns_lock() && g_stream) g_stream->flush();
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

const core::Knobs<Sinks>& sink_table() {
  static const core::Knobs<Sinks> rows = {
      {"CORRECTNET_METRICS", "metrics_out", "--metrics-out", "FILE",
       [](Sinks& s, const std::string& v) { s.metrics = v; }},
      {"CORRECTNET_TRACE", "trace_out", "--trace-out", "FILE",
       [](Sinks& s, const std::string& v) { s.trace = v; }},
      {"CORRECTNET_LOG", "log_level", "--log-level", "quiet|info|debug",
       set_log},
      {"CORRECTNET_STATUSZ_PORT", "statusz_port", "--statusz-port", "PORT",
       set_port},
      {"CORRECTNET_METRICS_STREAM", "metrics_stream", "--metrics-stream",
       "FILE", [](Sinks& s, const std::string& v) { s.metrics_stream = v; }},
      {"CORRECTNET_SIGNAL_FLUSH", "", "", "",
       [](Sinks& s, const std::string& v) { s.signal_flush = core::switch01(v); }},
  };
  return rows;
}

std::vector<std::string> sink_config_keys() { return core::knob_keys(sink_table()); }

bool is_sink_flag(const std::string& arg) {
  return core::flag_row(sink_table(), arg) != nullptr;
}

Sinks read_sinks(const core::KeyValueConfig& cfg, const SinkFlags& flags) {
  Sinks s;
  core::read_knobs(sink_table(), s, cfg, flags);
  return s;
}

void start(const Sinks& s, bool ready) {
  static std::once_flag at_exit;
  std::call_once(at_exit, [] { std::atexit(+[] { finish(); }); });
  std::lock_guard<std::mutex> lk(g_mu);
  g_live = s;  // first, so finish() also stops what a failing start() began
  if (s.log) Logger::global().set_level(*s.log);
  if (!s.trace.empty()) Tracer::global().set_enabled(true);
  if (s.statusz_port >= 0)
    ExpositionServer::start_global(s.statusz_port).set_ready(ready);
  if (!s.metrics_stream.empty())
    g_stream = std::make_unique<MetricsSnapshotter>(
        MetricsSnapshotterOptions{s.metrics_stream});
  if (s.signal_flush) {
    std::signal(SIGINT, &flush_and_reraise);
    std::signal(SIGTERM, &flush_and_reraise);
  }
}

void finish() noexcept {
  std::lock_guard<std::mutex> lk(g_mu);
  if (!g_live) return;
  write_files(*g_live);
  g_stream.reset();  // writes the final partial-interval line
  ExpositionServer::stop_global();
  g_live.reset();
}

}  // namespace cn::obs
