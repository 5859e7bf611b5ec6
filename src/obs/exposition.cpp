#include "obs/exposition.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/build_info.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"

namespace cn::obs {

namespace {

// Static-init timestamp, close enough to process start for an uptime line.
const std::chrono::steady_clock::time_point g_process_origin =
    std::chrono::steady_clock::now();

double uptime_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_process_origin)
      .count();
}

struct StatuszSection {
  std::string title;
  std::function<std::string()> render;
};

std::mutex g_sections_mu;
std::map<int, StatuszSection>& sections() {
  static auto* s = new std::map<int, StatuszSection>();
  return *s;
}
int g_next_section_id = 1;

struct HealthzProbe {
  std::string name;
  std::function<bool()> probe;
};

std::mutex g_probes_mu;
std::map<int, HealthzProbe>& probes() {
  static auto* p = new std::map<int, HealthzProbe>();
  return *p;
}
int g_next_probe_id = 1;

void send_all(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // client went away; nothing useful to do
    }
    off += static_cast<size_t>(n);
  }
}

std::string http_response(int status, const std::string& content_type,
                          const std::string& body) {
  const char* reason = status == 200   ? "OK"
                       : status == 404 ? "Not Found"
                       : status == 503 ? "Service Unavailable"
                                       : "Error";
  std::string r = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                  "\r\nContent-Type: " + content_type +
                  "\r\nContent-Length: " + std::to_string(body.size()) +
                  "\r\nConnection: close\r\n\r\n";
  r += body;
  return r;
}

}  // namespace

int statusz_add_section(const std::string& title,
                        std::function<std::string()> render) {
  std::lock_guard<std::mutex> lk(g_sections_mu);
  const int id = g_next_section_id++;
  sections().emplace(id, StatuszSection{title, std::move(render)});
  return id;
}

void statusz_remove_section(int id) {
  std::lock_guard<std::mutex> lk(g_sections_mu);
  sections().erase(id);
}

int healthz_add_probe(const std::string& name, std::function<bool()> probe) {
  std::lock_guard<std::mutex> lk(g_probes_mu);
  const int id = g_next_probe_id++;
  probes().emplace(id, HealthzProbe{name, std::move(probe)});
  return id;
}

void healthz_remove_probe(int id) {
  std::lock_guard<std::mutex> lk(g_probes_mu);
  probes().erase(id);
}

std::vector<std::string> healthz_failing_probes() {
  std::lock_guard<std::mutex> lk(g_probes_mu);
  std::vector<std::string> failing;
  for (const auto& [id, p] : probes()) {
    (void)id;
    bool ok = false;
    try {
      ok = p.probe();
    } catch (const std::exception&) {
      ok = false;  // a throwing probe is a failing probe
    }
    if (!ok) failing.push_back(p.name);
  }
  return failing;
}

std::string render_statusz(bool ready) {
  char buf[160];
  std::string out = build_info_line() + "\n";
  std::snprintf(buf, sizeof(buf), "uptime: %.1fs\nready: %s\n", uptime_s(),
                ready ? "yes" : "no");
  out += buf;
  const std::vector<std::string> failing = healthz_failing_probes();
  if (!failing.empty()) {
    out += "degraded:";
    for (const std::string& name : failing) out += " " + name;
    out += "\n";
  }

  const RegistrySnapshot snap = metrics().snapshot();

  // Campaign progress, when a campaign published its gauges.
  const auto total_it = snap.gauges.find("campaign.cells_total");
  const auto done_it = snap.gauges.find("campaign.cells_done");
  if (total_it != snap.gauges.end() && total_it->second > 0) {
    const double done =
        done_it != snap.gauges.end() ? done_it->second : 0.0;
    std::snprintf(buf, sizeof(buf), "\ncampaign: %.0f/%.0f cells (%.1f%%)\n",
                  done, total_it->second,
                  100.0 * done / total_it->second);
    out += buf;
  }

  // Tile-kernel lowering traffic (the exec.simd.tiles / .bytes counters).
  std::string exec;
  for (const auto& [name, v] : snap.counters) {
    if (name.rfind("exec.", 0) != 0) continue;
    exec += "  " + name + ": " + std::to_string(v) + "\n";
  }
  if (!exec.empty()) out += "\nexecution targets:\n" + exec;

  std::lock_guard<std::mutex> lk(g_sections_mu);
  for (const auto& [id, sec] : sections()) {
    (void)id;
    out += "\n== " + sec.title + " ==\n";
    try {
      out += sec.render();
    } catch (const std::exception& e) {
      out += std::string("<render failed: ") + e.what() + ">";
    }
    if (out.empty() || out.back() != '\n') out += "\n";
  }
  return out;
}

ExpositionServer::ExpositionServer(ExpositionServerOptions opts)
    : opts_(std::move(opts)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("ExpositionServer: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.bind.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("ExpositionServer: bad bind address " +
                             opts_.bind);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 8) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("ExpositionServer: cannot listen on " +
                             opts_.bind + ":" + std::to_string(opts_.port) +
                             " (" + err + ")");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

ExpositionServer::~ExpositionServer() { stop(); }

void ExpositionServer::stop() {
  if (stop_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  if (listen_fd_ >= 0) {
    // shutdown() wakes the blocking accept(); close() releases the port.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (acceptor_.joinable()) acceptor_.join();
  listen_fd_ = -1;
}

std::string ExpositionServer::handle(const std::string& path,
                                     int* status) const {
  if (path == "/metrics") {
    *status = 200;
    return render_prometheus(metrics());
  }
  if (path == "/healthz") {
    const bool r = ready();
    if (!r) {
      *status = 503;
      return "not ready\n";
    }
    // Ready, but a registered probe (e.g. admission control) may be
    // shedding: list the failing probes so the 503 body says why.
    const std::vector<std::string> failing = healthz_failing_probes();
    if (failing.empty()) {
      *status = 200;
      return "ok\n";
    }
    *status = 503;
    std::string body = "degraded:";
    for (const std::string& name : failing) body += " " + name;
    body += "\n";
    return body;
  }
  if (path == "/statusz" || path == "/") {
    *status = 200;
    return render_statusz(ready());
  }
  *status = 404;
  return "not found: " + path + "\n(try /metrics, /healthz, /statusz)\n";
}

std::string ExpositionServer::read_request_line(int fd) const {
  // HTTP/1.0, GET only, so the first line is all that matters. Waits in
  // short slices so that stop() is noticed while a client dawdles.
  constexpr std::chrono::milliseconds kSlice{50};
  const auto deadline =
      std::chrono::steady_clock::now() + kExpositionConnectionDeadline;
  std::string req;
  char buf[1024];
  while (req.find('\n') == std::string::npos && req.size() < 8192) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0 || stop_.load(std::memory_order_relaxed)) return "";
    pollfd p{fd, POLLIN, 0};
    const int r =
        ::poll(&p, 1, static_cast<int>(std::min(left, kSlice).count()));
    if (r == 0 || (r < 0 && errno == EINTR)) continue;
    if (r < 0) return "";
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    req.append(buf, static_cast<size_t>(n));
  }
  return req;
}

void ExpositionServer::acceptor_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen fd shut down by stop()
    }
    const std::string req = read_request_line(fd);
    if (req.empty()) {
      ::close(fd);
      continue;
    }
    std::string method, path;
    {
      const size_t sp1 = req.find(' ');
      const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                  : req.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) {
        method = req.substr(0, sp1);
        path = req.substr(sp1 + 1, sp2 - sp1 - 1);
        const size_t q = path.find('?');  // ignore query strings
        if (q != std::string::npos) path.resize(q);
      }
    }
    std::string resp;
    if (method != "GET" || path.empty()) {
      resp = http_response(404, "text/plain; charset=utf-8",
                           "GET only\n");
    } else {
      int status = 500;
      const std::string body = handle(path, &status);
      const char* ctype =
          path == "/metrics"
              ? "text/plain; version=0.0.4; charset=utf-8"
              : "text/plain; charset=utf-8";
      resp = http_response(status, ctype, body);
    }
    // A client that stops reading must not hold the acceptor either.
    timeval tv{};
    tv.tv_sec = kExpositionConnectionDeadline.count() / 1000;
    tv.tv_usec = (kExpositionConnectionDeadline.count() % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    send_all(fd, resp);
    ::close(fd);
  }
}

// ---------- global instance ----------

namespace {
std::mutex g_server_mu;
ExpositionServer* g_server = nullptr;  // leaked, like the registry singletons
}  // namespace

ExpositionServer* ExpositionServer::global() {
  std::lock_guard<std::mutex> lk(g_server_mu);
  return g_server;
}

ExpositionServer& ExpositionServer::start_global(int port) {
  std::lock_guard<std::mutex> lk(g_server_mu);
  if (g_server) {
    if (g_server->port() != port && port != 0)
      log_info("[obs] exposition server already on port " +
               std::to_string(g_server->port()) + "; ignoring port " +
               std::to_string(port));
    return *g_server;
  }
  ExpositionServerOptions o;
  o.port = port;
  g_server = new ExpositionServer(std::move(o));
  log_info("[obs] exposition server listening on 127.0.0.1:" +
           std::to_string(g_server->port()) +
           " (/metrics, /healthz, /statusz)");
  return *g_server;
}

void ExpositionServer::stop_global() noexcept {
  ExpositionServer* s = nullptr;
  {
    std::lock_guard<std::mutex> lk(g_server_mu);
    std::swap(s, g_server);
  }
  delete s;  // the dtor stops the acceptor
}

std::string http_get_local(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("http_get_local: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw std::runtime_error("http_get_local: cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  send_all(fd, "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n");
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (resp.empty()) throw std::runtime_error("http_get_local: empty response");
  return resp;
}

}  // namespace cn::obs
