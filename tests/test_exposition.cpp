// The live introspection tier: Prometheus text-format conformance (line
// grammar, HELP/TYPE pairing, cumulative buckets, label escaping), exact-rank
// quantile gauges against a sorted-vector oracle, the SLO burn-rate math
// against hand-computed numbers, the exposition server's HTTP endpoints, the
// JSONL metrics snapshotter's deltas-sum-to-totals contract, and the tier's
// own load-bearing invariant: a CampaignReport is byte-identical with the
// exposition server live and a scraper hammering it mid-run. Idle and
// trickling connections must not wedge the server.
#include "obs/exposition.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "faultsim/campaign.h"
#include "models/lenet.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/sinks.h"
#include "obs/slo.h"
#include "obs/snapshot_stream.h"
#include "runtime/chip_farm.h"
#include "runtime/inference_server.h"
#include "runtime/model_router.h"

namespace cn {
namespace {

using obs::LatencyHistogram;

// ---------- a small Prometheus text-format checker ----------
// Independent of the renderer: it only knows the exposition-format grammar.
// Verifies line shapes, HELP-then-TYPE pairing, that every sample belongs to
// a declared family (histogram samples via _bucket/_sum/_count), that bucket
// series are cumulative with a final +Inf equal to _count, and that label
// values are correctly quoted/escaped.

bool name_char(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':')
    return true;
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

size_t parse_name(const std::string& s, size_t p, std::string* out) {
  const size_t start = p;
  while (p < s.size() && name_char(s[p], p == start)) ++p;
  *out = s.substr(start, p - start);
  return p;
}

// Parses {k="v",...}; returns npos on malformed labels.
size_t parse_labels(const std::string& s, size_t p,
                    std::map<std::string, std::string>* labels) {
  if (p >= s.size() || s[p] != '{') return p;  // no labels is fine
  ++p;
  for (;;) {
    std::string key;
    p = parse_name(s, p, &key);
    if (key.empty() || p >= s.size() || s[p] != '=') return std::string::npos;
    if (++p >= s.size() || s[p] != '"') return std::string::npos;
    ++p;
    std::string val;
    while (p < s.size() && s[p] != '"') {
      if (s[p] == '\\') {
        if (++p >= s.size()) return std::string::npos;
        if (s[p] != '\\' && s[p] != '"' && s[p] != 'n') return std::string::npos;
      }
      val.push_back(s[p]);
      ++p;
    }
    if (p >= s.size()) return std::string::npos;
    ++p;  // closing quote
    (*labels)[key] = val;
    if (p < s.size() && s[p] == ',') {
      ++p;
      continue;
    }
    if (p < s.size() && s[p] == '}') return p + 1;
    return std::string::npos;
  }
}

struct PromChecker {
  std::map<std::string, std::string> family_type;  // name -> counter|gauge|histogram
  std::map<std::string, bool> family_has_help;
  // Histogram bucket bookkeeping is per *series* (family + labels minus
  // "le"): labeled metrics put several series in one family, each with its
  // own cumulative bucket ladder and _count.
  std::map<std::string, std::vector<uint64_t>> bucket_series;
  std::map<std::string, uint64_t> inf_value, count_value;
  std::map<std::string, bool> family_saw_inf;
  std::string err;

  static std::string series_key(const std::string& family,
                                const std::map<std::string, std::string>& labels) {
    std::string key = family;
    for (const auto& [k, v] : labels)
      if (k != "le") key += "|" + k + "=" + v;
    return key;
  }

  bool fail(const std::string& e, const std::string& line) {
    err = e + ": " + line;
    return false;
  }

  // The family a sample name belongs to (histograms own the suffixed names).
  std::string family_of(const std::string& sample) {
    if (family_type.count(sample)) return sample;
    for (const char* suf : {"_bucket", "_sum", "_count"}) {
      const std::string s = suf;
      if (sample.size() > s.size() &&
          sample.compare(sample.size() - s.size(), s.size(), s) == 0) {
        const std::string base = sample.substr(0, sample.size() - s.size());
        if (family_type.count(base) && family_type[base] == "histogram")
          return base;
      }
    }
    return "";
  }

  bool check(const std::string& text) {
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty()) return fail("empty line", "<empty>");
      if (line[0] == '#') {
        std::istringstream ls(line);
        std::string hash, kind, name;
        ls >> hash >> kind >> name;
        if (kind == "HELP") {
          if (family_has_help.count(name)) return fail("duplicate HELP", line);
          family_has_help[name] = true;
        } else if (kind == "TYPE") {
          std::string type;
          ls >> type;
          if (type != "counter" && type != "gauge" && type != "histogram")
            return fail("bad TYPE", line);
          if (!family_has_help.count(name))
            return fail("TYPE without preceding HELP", line);
          if (family_type.count(name)) return fail("duplicate TYPE", line);
          family_type[name] = type;
        } else {
          return fail("unknown comment", line);
        }
        continue;
      }
      std::string name;
      size_t p = parse_name(line, 0, &name);
      if (name.empty()) return fail("bad sample name", line);
      std::map<std::string, std::string> labels;
      p = parse_labels(line, p, &labels);
      if (p == std::string::npos) return fail("bad labels", line);
      if (p >= line.size() || line[p] != ' ')
        return fail("missing value separator", line);
      const std::string value = line.substr(p + 1);
      if (value.empty() || value.find(' ') != std::string::npos)
        return fail("bad value", line);
      const std::string family = family_of(name);
      if (family.empty()) return fail("sample without TYPE", line);
      const std::string& type = family_type[family];
      if (type == "counter" || type == "gauge") {
        if (name != family) return fail("suffixed sample in " + type, line);
      } else if (name == family + "_bucket") {
        if (!labels.count("le")) return fail("_bucket without le", line);
        const uint64_t v = std::stoull(value);
        const std::string key = series_key(family, labels);
        auto& series = bucket_series[key];
        if (!series.empty() && v < series.back())
          return fail("buckets not cumulative", line);
        series.push_back(v);
        if (labels["le"] == "+Inf") {
          inf_value[key] = v;
          family_saw_inf[family] = true;
        }
      } else if (name == family + "_count") {
        count_value[series_key(family, labels)] = std::stoull(value);
      }
    }
    for (const auto& [fam, type] : family_type) {
      if (type != "histogram") continue;
      if (!family_saw_inf.count(fam)) {
        err = "histogram " + fam + " missing +Inf bucket";
        return false;
      }
    }
    for (const auto& [key, v] : inf_value) {
      if (!count_value.count(key) || count_value[key] != v) {
        err = "histogram series " + key + " +Inf != _count";
        return false;
      }
    }
    return true;
  }
};

int http_status(const std::string& response) {
  int status = 0;
  std::sscanf(response.c_str(), "HTTP/1.0 %d", &status);
  return status;
}

std::string http_body(const std::string& response) {
  const size_t p = response.find("\r\n\r\n");
  return p == std::string::npos ? "" : response.substr(p + 4);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

// ---------- Prometheus renderer ----------

TEST(Prometheus, NameMappingAndLabelEscaping) {
  EXPECT_EQ(obs::prom_name("server.latency_us"),
            "correctnet_server_latency_us");
  EXPECT_EQ(obs::prom_name("exec.int8-x86.tiles"),
            "correctnet_exec_int8_x86_tiles");
  EXPECT_EQ(obs::prom_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prom_escape_label("q\"uo\"te"), "q\\\"uo\\\"te");
  EXPECT_EQ(obs::prom_escape_label("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::prom_escape_label("new\nline"), "new\\nline");
  EXPECT_EQ(obs::prom_escape_label("all\\\"\n"), "all\\\\\\\"\\n");
}

TEST(Prometheus, RenderedPageIsConformant) {
  obs::MetricsRegistry reg;
  reg.counter("page.requests").add(42);
  reg.gauge("page.queue_depth").set(2.5);
  LatencyHistogram& h = reg.histogram("page.latency_us");
  std::mt19937_64 gen(5);
  std::lognormal_distribution<double> ln(5.0, 2.0);
  for (int i = 0; i < 5000; ++i) h.record(ln(gen));
  const std::string page = obs::render_prometheus(reg);

  PromChecker pc;
  EXPECT_TRUE(pc.check(page)) << pc.err;
  // Counters carry the _total convention; gauges and histograms map plainly.
  EXPECT_NE(page.find("# TYPE correctnet_page_requests_total counter"),
            std::string::npos);
  EXPECT_NE(page.find("correctnet_page_requests_total 42\n"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE correctnet_page_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(page.find("correctnet_page_queue_depth 2.5\n"), std::string::npos);
  EXPECT_NE(page.find("# TYPE correctnet_page_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(page.find("correctnet_page_latency_us_bucket{le=\"+Inf\"} 5000"),
            std::string::npos);
  // Build provenance closes the page.
  EXPECT_NE(page.find("correctnet_build_info{git_sha=\""), std::string::npos);
}

TEST(Prometheus, QuantileGaugesMatchSnapshotOracle) {
  obs::MetricsRegistry reg;
  LatencyHistogram& h = reg.histogram("q.lat");
  std::vector<uint64_t> vals;
  std::mt19937_64 gen(77);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t u = gen() % 2000000;
    vals.push_back(u);
    h.record(static_cast<double>(u));
  }
  std::sort(vals.begin(), vals.end());
  const std::string page = obs::render_prometheus(reg);
  for (double q : {0.5, 0.99, 0.999}) {
    // The gauge must carry the rank-exact value: the lower bucket edge of
    // the true rank-ceil(q*n) order statistic.
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(vals.size())));
    const uint64_t truth = vals[rank - 1];
    const double expect = static_cast<double>(
        LatencyHistogram::bucket_lower(LatencyHistogram::bucket_index(truth)));
    char needle[96], val[32];
    std::snprintf(val, sizeof(val), "%.17g", expect);
    std::snprintf(needle, sizeof(needle),
                  "correctnet_q_lat_quantile{q=\"%.17g\"} %s\n", q, val);
    EXPECT_NE(page.find(needle), std::string::npos)
        << "missing " << needle << " in:\n" << page;
  }
}

TEST(Prometheus, EmptyRegistryStillRendersBuildInfo) {
  obs::MetricsRegistry reg;
  const std::string page = obs::render_prometheus(reg);
  PromChecker pc;
  EXPECT_TRUE(pc.check(page)) << pc.err;
  EXPECT_NE(page.find("correctnet_build_info"), std::string::npos);
}

// ---------- build info ----------

TEST(BuildInfo, FieldsArePopulated) {
  const obs::BuildInfo& b = obs::build_info();
  EXPECT_FALSE(b.git_sha.empty());
  EXPECT_FALSE(b.compiler.empty());
  EXPECT_FALSE(b.build_type.empty());
  EXPECT_FALSE(b.simd.empty());
  const std::string line = obs::build_info_line();
  EXPECT_NE(line.find("correctnet "), std::string::npos);
  EXPECT_NE(line.find(b.git_sha), std::string::npos);
  EXPECT_NE(line.find(b.simd), std::string::npos);
}

// ---------- snapshot deltas ----------

TEST(SnapshotDelta, DeltaSinceSubtractsExactly) {
  LatencyHistogram h;
  for (int i = 0; i < 50; ++i) h.record(100.0);
  const LatencyHistogram::Snapshot before = h.snapshot();
  for (int i = 0; i < 30; ++i) h.record(9000.0);
  const LatencyHistogram::Snapshot after = h.snapshot();
  const LatencyHistogram::Snapshot d = after.delta_since(before);
  EXPECT_EQ(d.count, 30u);
  EXPECT_EQ(d.sum_us, 30u * 9000u);
  // The interval quantile sees only the interval's samples.
  EXPECT_EQ(d.percentile(0.5),
            static_cast<double>(LatencyHistogram::bucket_lower(
                LatencyHistogram::bucket_index(9000))));
  // Against a reset (prev "ahead" of cur), the delta clamps instead of
  // underflowing.
  const LatencyHistogram::Snapshot clamped = before.delta_since(after);
  EXPECT_EQ(clamped.count, 0u);
}

// ---------- SLO burn rate ----------

TEST(Slo, BurnRateMatchesHandComputedOracle) {
  // p99 < 5000us over 60s. 95 good (100us) + 5 bad (8000us) requests in the
  // window: bad_fraction 0.05, burn = 0.05 / (1 - 0.99) = 5.0, and the
  // window p99 (rank 99 of 100) lands on the 8000us bucket — violating.
  obs::SloConfig cfg;
  cfg.quantile = 0.99;
  cfg.threshold_us = 5000;
  cfg.window_s = 60;
  obs::SloTracker tracker(cfg);

  LatencyHistogram h;
  tracker.update(h.snapshot(), 0.0);  // baseline: empty window
  std::vector<double> samples(95, 100.0);
  samples.insert(samples.end(), 5, 8000.0);
  for (double v : samples) h.record(v);
  const obs::SloTracker::Status st = tracker.update(h.snapshot(), 30.0);

  // Independent oracle for the bucket-edge "bad" rule.
  uint64_t bad = 0;
  for (double v : samples)
    if (static_cast<double>(LatencyHistogram::bucket_lower(
            LatencyHistogram::bucket_index(static_cast<uint64_t>(v)))) >=
        cfg.threshold_us)
      ++bad;
  ASSERT_EQ(bad, 5u);

  EXPECT_TRUE(st.configured);
  EXPECT_EQ(st.window_count, 100u);
  EXPECT_EQ(st.window_bad, 5u);
  EXPECT_DOUBLE_EQ(st.bad_fraction, 0.05);
  EXPECT_NEAR(st.burn_rate, 5.0, 1e-9);
  EXPECT_EQ(st.window_quantile_us,
            static_cast<double>(LatencyHistogram::bucket_lower(
                LatencyHistogram::bucket_index(8000))));
  EXPECT_TRUE(st.violating);
  const std::string sum = st.summary();
  EXPECT_NE(sum.find("burn 5.00x"), std::string::npos);
  EXPECT_NE(sum.find("VIOLATING"), std::string::npos);
  // status() returns the same numbers without advancing the window.
  EXPECT_EQ(tracker.status().window_bad, 5u);
}

TEST(Slo, SlidingWindowPrunesOldSamples) {
  // Updates at t = 0, 30, 60, 90 with a 60s window: the t=90 status must be
  // the delta against t=30 (the newest snapshot at or before t-60), so the
  // t<=30 samples no longer count.
  obs::SloConfig cfg;
  cfg.quantile = 0.99;
  cfg.threshold_us = 5000;
  cfg.window_s = 60;
  obs::SloTracker tracker(cfg);
  LatencyHistogram h;
  for (int i = 0; i < 40; ++i) h.record(8000.0);  // before the window
  tracker.update(h.snapshot(), 0.0);
  for (int i = 0; i < 10; ++i) h.record(8000.0);  // also pruned at t=90
  tracker.update(h.snapshot(), 30.0);
  for (int i = 0; i < 20; ++i) h.record(100.0);
  tracker.update(h.snapshot(), 60.0);
  for (int i = 0; i < 30; ++i) h.record(100.0);
  const obs::SloTracker::Status st = tracker.update(h.snapshot(), 90.0);
  EXPECT_EQ(st.window_count, 50u);  // the t in (30, 90] samples only
  EXPECT_EQ(st.window_bad, 0u);
  EXPECT_DOUBLE_EQ(st.burn_rate, 0.0);
  EXPECT_DOUBLE_EQ(st.window_s, 60.0);
  EXPECT_FALSE(st.violating);
}

TEST(Slo, ValidatesConfig) {
  obs::SloConfig bad;
  bad.quantile = 1.0;
  EXPECT_THROW(obs::SloTracker{bad}, std::invalid_argument);
  bad.quantile = 0.99;
  bad.threshold_us = 0;
  EXPECT_THROW(obs::SloTracker{bad}, std::invalid_argument);
}

TEST(Slo, InferenceServerSurfacesSloStatus) {
  Rng rng(3);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  analog::VariationModel none{analog::VariationKind::kNone, 0.0f};
  runtime::ChipFarmOptions fo;
  fo.instances = 1;
  fo.max_live = 1;
  runtime::ChipFarm farm(model, none, fo);
  runtime::InferenceServerOptions so;
  so.max_batch = 8;
  so.max_wait_us = 200;
  so.workers = 1;
  so.slo_p99_ms = 10000;  // 10s: impossible to violate in a unit test
  runtime::InferenceServer server(farm, so);
  data::DigitsSpec spec;
  spec.train_count = 1;
  spec.test_count = 24;
  data::SplitDataset ds = data::make_digits(spec);
  std::vector<std::future<Tensor>> futs;
  for (int64_t i = 0; i < 24; ++i)
    futs.push_back(server.submit(ds.test.image(i)));
  for (auto& f : futs) f.wait();
  server.shutdown();
  (void)server.stats();  // first poll establishes the window baseline
  const runtime::ServerStats st = server.stats();
  EXPECT_TRUE(st.slo_configured);
  EXPECT_EQ(st.slo_p99_ms, 10000.0);
  EXPECT_NE(st.summary().find("slo p99 < 10000.0ms"), std::string::npos);
  // The tracker publishes the slo.* gauge family into the global registry.
  EXPECT_NE(obs::render_prometheus(obs::metrics())
                .find("correctnet_slo_burn_rate"),
            std::string::npos);
}

// ---------- exposition server ----------

TEST(ExpositionServer, RoutesAndReadiness) {
  obs::ExpositionServer srv;  // ephemeral port
  ASSERT_GT(srv.port(), 0);

  // Liveness vs readiness: /healthz answers 503 until the farm is ready.
  std::string r = obs::http_get_local(srv.port(), "/healthz");
  EXPECT_EQ(http_status(r), 503);
  srv.set_ready(true);
  r = obs::http_get_local(srv.port(), "/healthz");
  EXPECT_EQ(http_status(r), 200);
  EXPECT_EQ(http_body(r), "ok\n");

  r = obs::http_get_local(srv.port(), "/metrics");
  EXPECT_EQ(http_status(r), 200);
  EXPECT_NE(r.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  PromChecker pc;
  EXPECT_TRUE(pc.check(http_body(r))) << pc.err;

  r = obs::http_get_local(srv.port(), "/statusz");
  EXPECT_EQ(http_status(r), 200);
  EXPECT_NE(http_body(r).find(obs::build_info().git_sha), std::string::npos);
  EXPECT_NE(http_body(r).find("uptime:"), std::string::npos);
  EXPECT_NE(http_body(r).find("ready: yes"), std::string::npos);

  r = obs::http_get_local(srv.port(), "/nope");
  EXPECT_EQ(http_status(r), 404);

  // The deterministic core, without a socket.
  int status = 0;
  const std::string body = srv.handle("/metrics", &status);
  EXPECT_EQ(status, 200);
  PromChecker pc2;
  EXPECT_TRUE(pc2.check(body)) << pc2.err;
  srv.stop();
  srv.stop();  // idempotent
}

// ---------- idle and slow clients ----------

// A raw client connection to 127.0.0.1:port that sends nothing by itself;
// -1 on failure.
int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// How long a /healthz answer may take while another client dawdles: the
// per-connection deadline plus a margin for a loaded host.
constexpr auto kHealthzBound =
    obs::kExpositionConnectionDeadline + std::chrono::seconds(3);

// Each test bounds its own wait and closes the dawdling connection before
// asserting, which also frees a server without a deadline, so a regression
// fails the test instead of hanging it.

TEST(ExpositionServer, IdleConnectionDoesNotWedgeHealthz) {
  obs::ExpositionServer srv;
  srv.set_ready(true);
  const int idle = connect_local(srv.port());
  ASSERT_GE(idle, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // accepted
  auto healthz = std::async(std::launch::async, [&] {
    return obs::http_get_local(srv.port(), "/healthz");
  });
  const bool answered =
      healthz.wait_for(kHealthzBound) == std::future_status::ready;
  ::close(idle);
  ASSERT_TRUE(answered) << "/healthz stalled behind an idle connection";
  EXPECT_EQ(http_status(healthz.get()), 200);
}

TEST(ExpositionServer, TricklingConnectionDoesNotWedgeHealthz) {
  obs::ExpositionServer srv;
  srv.set_ready(true);
  const int slow = connect_local(srv.port());
  ASSERT_GE(slow, 0);
  // One byte every 200 ms and never a newline: each byte arrives well
  // inside any per-read timeout, so only a total deadline drops it.
  std::atomic<bool> done{false};
  std::thread trickler([&] {
    for (int i = 0; i < 100 && !done.load(); ++i) {
      if (::send(slow, "G", 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // accepted
  auto healthz = std::async(std::launch::async, [&] {
    return obs::http_get_local(srv.port(), "/healthz");
  });
  const bool answered =
      healthz.wait_for(kHealthzBound) == std::future_status::ready;
  done = true;
  trickler.join();
  ::close(slow);
  ASSERT_TRUE(answered) << "/healthz stalled behind a trickling connection";
  EXPECT_EQ(http_status(healthz.get()), 200);
}

TEST(ExpositionServer, StopIsPromptWithIdleConnectionOpen) {
  obs::ExpositionServer srv;
  const int idle = connect_local(srv.port());
  ASSERT_GE(idle, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // accepted
  auto stopped = std::async(std::launch::async, [&] { srv.stop(); });
  // Well inside the connection deadline: stop() must not wait it out.
  const bool prompt =
      stopped.wait_for(obs::kExpositionConnectionDeadline / 2) ==
      std::future_status::ready;
  ::close(idle);
  stopped.get();
  EXPECT_TRUE(prompt) << "stop() waited on an idle connection";
}

TEST(ExpositionServer, StatuszSectionsComeAndGo) {
  const int id = obs::statusz_add_section("unit section",
                                          [] { return "section-payload-xyz"; });
  std::string page = obs::render_statusz(false);
  EXPECT_NE(page.find("== unit section =="), std::string::npos);
  EXPECT_NE(page.find("section-payload-xyz"), std::string::npos);
  EXPECT_NE(page.find("ready: no"), std::string::npos);
  obs::statusz_remove_section(id);
  page = obs::render_statusz(false);
  EXPECT_EQ(page.find("section-payload-xyz"), std::string::npos);
}

TEST(ExpositionServer, ConcurrentScrapersSeeConsistentPages) {
  obs::ExpositionServer srv;
  srv.set_ready(true);
  obs::metrics().counter("scrape.stress").add(1);
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t)
    scrapers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        try {
          const std::string r = obs::http_get_local(srv.port(), "/metrics");
          PromChecker pc;
          if (http_status(r) != 200 || !pc.check(http_body(r)))
            failures.fetch_add(1);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  for (auto& s : scrapers) s.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------- metrics snapshotter ----------

TEST(MetricsSnapshotter, DeltaLinesSumToCumulativeTotals) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("stream.events");
  LatencyHistogram& h = reg.histogram("stream.lat_us");
  const std::string path = "test_exposition_stream.jsonl";
  std::remove(path.c_str());
  {
    obs::MetricsSnapshotterOptions o;
    o.path = path;
    o.interval_s = 3600;  // ticks never fire: flush() drives every line
    obs::MetricsSnapshotter snap(o, reg);
    c.add(5);
    for (int i = 0; i < 10; ++i) h.record(100.0);
    snap.flush();
    c.add(7);
    for (int i = 0; i < 3; ++i) h.record(9000.0);
    snap.stop();  // writes the final partial-interval line
    EXPECT_EQ(snap.lines_written(), 2u);
  }
  const std::string text = slurp(path);
  std::istringstream is(text);
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"seq\": "), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  // Interval deltas, not cumulative values: 5 then 7 (summing to the
  // counter's total of 12), and the interval histogram quantile reflects
  // only that interval's samples.
  EXPECT_NE(text.find("\"stream.events\": 5"), std::string::npos);
  EXPECT_NE(text.find("\"stream.events\": 7"), std::string::npos);
  EXPECT_EQ(text.find("\"stream.events\": 12"), std::string::npos);
  EXPECT_NE(text.find("\"count\": 10"), std::string::npos);
  EXPECT_NE(text.find("\"count\": 3"), std::string::npos);
  EXPECT_EQ(c.value(), 12u);
  std::remove(path.c_str());
}

TEST(MetricsSnapshotter, TicksOnItsOwnAndStopsCleanly) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("tick.events");
  const std::string path = "test_exposition_tick.jsonl";
  std::remove(path.c_str());
  {
    obs::MetricsSnapshotterOptions o;
    o.path = path;
    o.interval_s = 0.02;
    obs::MetricsSnapshotter snap(o, reg);
    c.add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    snap.stop();
    EXPECT_GE(snap.lines_written(), 2u);  // several ticks + the final line
  }
  obs::MetricsSnapshotterOptions bad;
  bad.path = path;
  bad.interval_s = 0;
  EXPECT_THROW(obs::MetricsSnapshotter(bad, reg), std::invalid_argument);
  std::remove(path.c_str());
}

// ---------- config keys ----------

TEST(Exposition, CampaignConfigIntrospectionKeysAreReadBySinks) {
  // The campaign accepts the introspection keys; the sink table validates
  // them, with the same rule for every surface.
  core::KeyValueConfig cfg = core::KeyValueConfig::from_string(
      "stuck.rates = 0.01\nstatusz_port = \nmetrics_stream = \n");
  faultsim::campaign_from_config(cfg);
  EXPECT_EQ(obs::read_sinks(cfg).statusz_port, -1);  // empty = off
  for (const char* port : {"70000", "-1", "-5", "8O"}) {
    core::KeyValueConfig bad = core::KeyValueConfig::from_string(
        std::string("stuck.rates = 0.01\nstatusz_port = ") + port + "\n");
    EXPECT_NO_THROW(faultsim::campaign_from_config(bad));
    EXPECT_THROW(obs::read_sinks(bad), std::invalid_argument) << port;
  }
  // The process-default objective is gone, and with it the campaign key.
  EXPECT_THROW(faultsim::campaign_from_config(core::KeyValueConfig::from_string(
                   "stuck.rates = 0.01\nslo_p99_ms = 2.5\n")),
               std::runtime_error);
}

// ---------- the invariant: a live scraper never changes results ----------

TEST(ExpositionInvariant, CampaignReportByteIdenticalUnderLiveScraping) {
  // The tier's load-bearing contract: a campaign scraped at full tilt —
  // /metrics and /statusz hammered from two threads while the grid runs —
  // produces byte-for-byte the report of an unobserved run.
  Rng rng(1);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  data::DigitsSpec spec;
  spec.train_count = 1;
  spec.test_count = 48;
  data::SplitDataset ds = data::make_digits(spec);

  auto run_campaign = [&] {
    faultsim::CampaignOptions co;
    co.chips = 2;
    co.seed = 77;
    co.batch_size = 32;
    co.parallel_scenarios = 2;
    co.dev.g_min = 1e-6f;
    co.dev.g_max = 1e-4f;
    co.dev.program_sigma = 0.1f;
    co.dev.readout.read_sigma = 0.05f;
    faultsim::Campaign c(co);
    c.add_model("baseline", model, false);
    c.add_fault(faultsim::fault_free());
    c.add_fault(faultsim::stuck_at(0.05));
    faultsim::CampaignReport r = c.run(ds.test);
    r.wall_s = 0.0;
    return r.to_json();
  };

  const std::string quiet = run_campaign();

  obs::ExpositionServer srv;
  srv.set_ready(true);
  std::atomic<bool> done{false};
  std::vector<std::thread> scrapers;
  for (const char* path : {"/metrics", "/statusz"})
    scrapers.emplace_back([&, path] {
      while (!done.load(std::memory_order_relaxed)) {
        try {
          obs::http_get_local(srv.port(), path);
        } catch (const std::exception&) {
        }
      }
    });
  const std::string scraped = run_campaign();
  done.store(true);
  for (auto& s : scrapers) s.join();

  EXPECT_EQ(scraped, quiet);
  // And the page really was live mid-run: the campaign gauges are visible.
  const std::string page = obs::render_statusz(true);
  EXPECT_NE(page.find("campaign:"), std::string::npos);
}

// ---------- labeled metrics (multi-model serving) ----------

TEST(Prometheus, LabeledSeriesShareOneFamilyPerBaseName) {
  obs::MetricsRegistry reg;
  reg.counter(obs::labeled("demo.requests", "model", "alpha")).add(3);
  reg.counter(obs::labeled("demo.requests", "model", "beta")).add(5);
  reg.histogram(obs::labeled("demo.lat_us", "model", "alpha")).record(100);
  LatencyHistogram& hb =
      reg.histogram(obs::labeled("demo.lat_us", "model", "beta"));
  hb.record(200);
  hb.record(400);
  const std::string page = obs::render_prometheus(reg);

  PromChecker pc;
  ASSERT_TRUE(pc.check(page)) << pc.err;
  // One HELP/TYPE per base name, one sample line per label set — labeled
  // series must merge into a family, not render as N clashing families.
  size_t types = 0;
  for (size_t p = page.find("# TYPE correctnet_demo_requests_total counter");
       p != std::string::npos;
       p = page.find("# TYPE correctnet_demo_requests_total counter", p + 1))
    ++types;
  EXPECT_EQ(types, 1u);
  EXPECT_NE(page.find("correctnet_demo_requests_total{model=\"alpha\"} 3\n"),
            std::string::npos);
  EXPECT_NE(page.find("correctnet_demo_requests_total{model=\"beta\"} 5\n"),
            std::string::npos);
  // Histogram series carry the model label on every bucket, with le last.
  EXPECT_NE(page.find("correctnet_demo_lat_us_bucket{model=\"alpha\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("correctnet_demo_lat_us_bucket{model=\"beta\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(page.find("correctnet_demo_lat_us_count{model=\"beta\"} 2"),
            std::string::npos);

  // The composer validates: label keys and values must stay inside the
  // registry-name-safe alphabet.
  EXPECT_THROW(obs::labeled("x.y", "bad key", "v"), std::invalid_argument);
  EXPECT_THROW(obs::labeled("x.y", "k", "a,b"), std::invalid_argument);
  EXPECT_THROW(obs::labeled("x.y", "k", "a=b"), std::invalid_argument);
  // Composition: a second label extends the existing set.
  EXPECT_EQ(obs::labeled(obs::labeled("x.y", "k", "v"), "k2", "v2"),
            "x.y{k=v,k2=v2}");
}

// ---------- serving lifecycle on /healthz ----------

TEST(ExpositionServer, ReadinessClearsAfterLastServerShutdown) {
  obs::ExpositionServer& srv = obs::ExpositionServer::start_global(0);
  Rng rng(3);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  analog::VariationModel none{analog::VariationKind::kNone, 0.0f};
  runtime::ChipFarmOptions fo;
  fo.instances = 1;
  fo.max_live = 1;
  runtime::ChipFarm farm_a(model, none, fo);
  runtime::ChipFarm farm_b(model, none, fo);
  runtime::InferenceServerOptions so;
  so.workers = 1;
  runtime::InferenceServer a(farm_a, so);
  runtime::InferenceServer b(farm_b, so);
  EXPECT_EQ(http_status(obs::http_get_local(srv.port(), "/healthz")), 200);

  // Regression: readiness is refcounted — the first shutdown must NOT clear
  // it while a sibling server can still serve...
  a.shutdown();
  EXPECT_EQ(http_status(obs::http_get_local(srv.port(), "/healthz")), 200);
  // ...but the last shutdown must. (The original bug: /healthz kept
  // answering "ok" forever after every server was gone.)
  b.shutdown();
  const std::string r = obs::http_get_local(srv.port(), "/healthz");
  EXPECT_EQ(http_status(r), 503);
  EXPECT_EQ(http_body(r), "not ready\n");
}

TEST(ExpositionServer, AdmissionProbeFlipsHealthzAndRecovers) {
  obs::ExpositionServer& srv = obs::ExpositionServer::start_global(0);
  Rng rng(3);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  analog::VariationModel none{analog::VariationKind::kNone, 0.0f};
  runtime::ChipFarmOptions fo;
  fo.instances = 1;
  fo.max_live = 1;
  runtime::ChipFarm farm(model, none, fo);
  runtime::InferenceServerOptions so;
  so.max_batch = 32;        // worker only pulls on a 300ms-old request, so
  so.max_wait_us = 300000;  // the queue stalls deterministically
  so.workers = 1;
  so.queue_limit = 4;
  so.model = "probe";
  data::DigitsSpec spec;
  spec.train_count = 1;
  spec.test_count = 8;
  data::SplitDataset ds = data::make_digits(spec);
  {
    runtime::InferenceServer server(farm, so);
    EXPECT_EQ(http_status(obs::http_get_local(srv.port(), "/healthz")), 200);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 5; ++i) futs.push_back(server.submit(ds.test.image(i)));
    // The 5th submit was rejected: the admission probe now fails readiness,
    // and the body names the degraded probe.
    EXPECT_FALSE(server.accepting());
    std::string r = obs::http_get_local(srv.port(), "/healthz");
    EXPECT_EQ(http_status(r), 503);
    EXPECT_NE(http_body(r).find("degraded:"), std::string::npos);
    EXPECT_NE(http_body(r).find("[probe] admission"), std::string::npos);
    // Drain; admission recovery flips /healthz back to 200.
    for (int i = 0; i < 4; ++i) futs[static_cast<size_t>(i)].get();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!server.accepting() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(http_status(obs::http_get_local(srv.port(), "/healthz")), 200);
  }
  // The probe unregisters with the server: no dangling 503 after its death.
  // (Readiness itself is cleared now — that is the not-ready 503, not the
  // degraded one.)
  const std::string r = obs::http_get_local(srv.port(), "/healthz");
  EXPECT_EQ(http_status(r), 503);
  EXPECT_EQ(http_body(r), "not ready\n");
}

TEST(ExpositionServer, StatuszSectionsDisambiguateServers) {
  Rng rng(3);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  analog::VariationModel none{analog::VariationKind::kNone, 0.0f};
  runtime::ChipFarmOptions fo;
  fo.instances = 1;
  fo.max_live = 1;
  runtime::ChipFarm farm_a(model, none, fo);
  runtime::ChipFarm farm_b(model, none, fo);
  runtime::InferenceServerOptions so;
  so.workers = 1;
  runtime::InferenceServer plain(farm_a, so);
  so.model = "alpha";
  runtime::InferenceServer labeled(farm_b, so);
  // Regression: two live servers used to both register a section titled
  // "inference server" — indistinguishable on the page. Now each carries a
  // unique ordinal, and routed servers their model id.
  const std::string page = obs::render_statusz(true);
  std::vector<std::string> titles;
  for (size_t p = page.find("== inference server #"); p != std::string::npos;
       p = page.find("== inference server #", p + 1))
    titles.push_back(page.substr(p, page.find(" ==", p) - p));
  ASSERT_GE(titles.size(), 2u);
  std::sort(titles.begin(), titles.end());
  EXPECT_EQ(std::adjacent_find(titles.begin(), titles.end()), titles.end())
      << "duplicate section titles on /statusz";
  EXPECT_NE(page.find("[alpha]"), std::string::npos);
}

// ---------- the invariant, with the serving-policy tier live ----------

TEST(ExpositionInvariant, CampaignReportByteIdenticalWithRouterServing) {
  // Same contract as above, one tier up: a ModelRouter serving labeled
  // traffic (its own farms, servers, admission bookkeeping, and metric
  // series) while the campaign runs must not move a single report byte.
  Rng rng(1);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  data::DigitsSpec spec;
  spec.train_count = 1;
  spec.test_count = 48;
  data::SplitDataset ds = data::make_digits(spec);

  auto run_campaign = [&] {
    faultsim::CampaignOptions co;
    co.chips = 2;
    co.seed = 77;
    co.batch_size = 32;
    co.parallel_scenarios = 2;
    co.dev.g_min = 1e-6f;
    co.dev.g_max = 1e-4f;
    co.dev.program_sigma = 0.1f;
    faultsim::Campaign c(co);
    c.add_model("baseline", model, false);
    c.add_fault(faultsim::fault_free());
    c.add_fault(faultsim::stuck_at(0.05));
    faultsim::CampaignReport r = c.run(ds.test);
    r.wall_s = 0.0;
    return r.to_json();
  };

  const std::string quiet = run_campaign();

  runtime::ModelRouter router;
  analog::VariationModel none{analog::VariationKind::kNone, 0.0f};
  runtime::ChipFarmOptions fo;
  fo.instances = 1;
  fo.max_live = 1;
  runtime::InferenceServerOptions so;
  so.max_batch = 8;
  so.max_wait_us = 200;
  so.workers = 1;
  so.queue_limit = 256;
  router.add_model("alpha", model, none, fo, so);
  router.add_model("beta", model, none, fo, so);
  std::atomic<bool> done{false};
  std::thread traffic([&] {
    int64_t i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      try {
        router.submit(i % 2 ? "alpha" : "beta", ds.test.image(i % ds.test.size()))
            .wait();
      } catch (const std::exception&) {
      }
      ++i;
    }
  });
  const std::string served = run_campaign();
  done.store(true);
  traffic.join();
  router.shutdown();

  EXPECT_EQ(served, quiet);
  // The labeled series really were live alongside the campaign.
  PromChecker pc;
  const std::string page = obs::render_prometheus(obs::metrics());
  EXPECT_TRUE(pc.check(page)) << pc.err;
  EXPECT_NE(page.find("correctnet_server_requests_total{model=\"alpha\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace cn
