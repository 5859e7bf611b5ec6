// ExpositionServer: the live introspection endpoint — a minimal embedded
// HTTP/1.0 server (plain POSIX sockets, one acceptor thread, one request per
// connection) that lets an operator look inside a running campaign or
// InferenceServer instead of waiting for exit-time artifacts:
//
//   /metrics   Prometheus text format v0.0.4 (obs/prometheus.h) over the
//              global registry — scrape it, or curl it by hand
//   /healthz   liveness (any 200/503 answer = the process is alive) plus
//              readiness: 200 "ok" once set_ready(true) — frontends flip it
//              when the chip farm is programmed — else 503 "not ready"
//   /statusz   human-readable status: build info (obs/build_info.h), uptime,
//              readiness, campaign progress, the tile kernel's tile/byte
//              counters, and every registered statusz section (e.g. the
//              InferenceServer summary + SLO status)
//
// Deliberately not a web framework: HTTP/1.0, Connection: close, GET only,
// bound to 127.0.0.1 by default. One scraper at 10 Hz is the design load
// (bench_runtime pins the overhead); requests are served on the acceptor
// thread, so a slow client delays the next scrape, never the serving path.
// Each connection gets kExpositionConnectionDeadline in total to deliver
// its request line, and response sends time out after the same span, so an
// idle or trickling client cannot wedge other scrapes; stop() does not wait
// for a dawdling client at all.
//
// The PR 7 invariant extends to the live tier: request handling only reads
// registry atomics and formats strings — no rng streams, no numeric paths —
// so a CampaignReport is byte-identical with a scraper hammering /metrics
// mid-run (tier-1, tests/test_exposition.cpp).
//
// Exposure: the statusz sink of the knob table (obs/sinks.h). Port 0 binds
// an ephemeral port; port() reports the real one.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace cn::obs {

/// Total time one accepted connection may take to send its request line
/// before it is dropped; also the send timeout for its response.
inline constexpr std::chrono::milliseconds kExpositionConnectionDeadline{2000};

struct ExpositionServerOptions {
  int port = 0;                   // 0 = ephemeral (port() reports the bound one)
  std::string bind = "127.0.0.1"; // numeric IPv4 only, by design
};

class ExpositionServer {
 public:
  /// Binds and starts the acceptor thread; throws std::runtime_error when
  /// the socket cannot be bound (port taken, bad address).
  explicit ExpositionServer(ExpositionServerOptions opts = {});
  ~ExpositionServer();  // stop()

  ExpositionServer(const ExpositionServer&) = delete;
  ExpositionServer& operator=(const ExpositionServer&) = delete;

  /// The actually-bound port (== opts.port unless that was 0).
  int port() const { return port_; }

  /// Readiness for /healthz. Starts false; InferenceServer flips it once
  /// its worker chips are programmed, Campaign::run at grid start.
  void set_ready(bool ready) {
    ready_.store(ready, std::memory_order_relaxed);
  }
  bool ready() const { return ready_.load(std::memory_order_relaxed); }

  /// Unbinds and joins the acceptor. Idempotent; also run by the dtor.
  void stop();

  /// Routes one request path to (status, body) exactly as the socket path
  /// would — the deterministic core, exposed so tests can exercise routing
  /// without a live socket.
  std::string handle(const std::string& path, int* status) const;

  /// Process-global server (nullptr until started). start_global is
  /// first-wins: an already-running server ignores later ports with a
  /// log_info notice. Leaked like the registry singletons.
  static ExpositionServer* global();
  static ExpositionServer& start_global(int port);
  /// Stops and frees the global server; no-op when none is running. Only
  /// obs::finish calls it, once no caller still holds global().
  static void stop_global() noexcept;

 private:
  void acceptor_loop();
  /// The request line from `fd`, or "" when the connection misses the
  /// deadline, closes early, or stop() begins.
  std::string read_request_line(int fd) const;

  ExpositionServerOptions opts_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> ready_{false};
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
};

/// Registers a /statusz section: `render` is called per request (keep it
/// cheap and thread-safe) and its text is printed under `title`. Returns an
/// id for statusz_remove_section — callers whose section captures `this`
/// must remove it before dying (InferenceServer does so in its dtor).
int statusz_add_section(const std::string& title,
                        std::function<std::string()> render);
void statusz_remove_section(int id);

/// Registers a /healthz readiness probe: /healthz answers 200 only while
/// set_ready(true) holds AND every registered probe returns true; failing
/// probe names are listed in the 503 body ("degraded: <name>"), so a load
/// balancer sheds traffic from a server that is alive but rejecting (e.g.
/// admission control under overload). Same lifetime rules as statusz
/// sections: a probe capturing `this` must be removed before `this` dies.
int healthz_add_probe(const std::string& name, std::function<bool()> probe);
void healthz_remove_probe(int id);

/// Names of currently-failing probes (empty = all passing). Exposed for
/// render paths and tests.
std::vector<std::string> healthz_failing_probes();

/// The /statusz body: build info, uptime, readiness, registry-derived
/// summaries (campaign progress, exec counters), then every
/// registered section. Exposed for tests.
std::string render_statusz(bool ready);

/// Blocking one-shot HTTP GET against 127.0.0.1:port — the scrape client
/// used by tests, the bench scraper leg, and nothing else. Returns the raw
/// response (status line, headers, body); throws on connect/read failure.
std::string http_get_local(int port, const std::string& path);

}  // namespace cn::obs
