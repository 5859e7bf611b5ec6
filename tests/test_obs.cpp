// The obs subsystem: histogram bucket math and rank-exact percentiles
// against a sorted-vector oracle, registry thread-safety under the scenario
// scheduler, trace JSON well-formedness, logger levels, and the load-bearing
// invariant of the whole layer — metrics/tracing on vs off never changes a
// CampaignReport byte.
#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "faultsim/campaign.h"
#include "models/lenet.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/snapshot_stream.h"
#include "obs/trace.h"
#include "runtime/chip_farm.h"
#include "runtime/inference_server.h"
#include "runtime/scheduler.h"

namespace cn {
namespace {

using obs::LatencyHistogram;

// ---------- minimal JSON well-formedness checker ----------
// Recursive-descent over the full JSON grammar (objects, arrays, strings
// with escapes, numbers, literals). Deliberately independent of the
// emitters under test: it knows nothing about BenchJson or trace_event
// shapes, only whether the bytes are JSON.
struct JsonParser {
  const std::string& s;
  size_t p = 0;
  explicit JsonParser(const std::string& str) : s(str) {}

  void ws() {
    while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) ++p;
  }
  bool lit(const char* t) {
    const size_t n = std::char_traits<char>::length(t);
    if (s.compare(p, n, t) != 0) return false;
    p += n;
    return true;
  }
  bool string_lit() {
    if (p >= s.size() || s[p] != '"') return false;
    ++p;
    while (p < s.size()) {
      const char c = s[p];
      if (c == '"') {
        ++p;
        return true;
      }
      if (c == '\\') {
        ++p;
        if (p >= s.size()) return false;
        const char e = s[p];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i)
            if (++p >= s.size() ||
                !std::isxdigit(static_cast<unsigned char>(s[p])))
              return false;
        } else if (!std::strchr("\"\\/bfnrt", e)) {
          return false;
        }
      }
      ++p;
    }
    return false;
  }
  bool number() {
    const size_t start = p;
    if (p < s.size() && s[p] == '-') ++p;
    size_t digits = 0;
    while (p < s.size() && std::isdigit(static_cast<unsigned char>(s[p]))) {
      ++p;
      ++digits;
    }
    if (!digits) return false;
    if (p < s.size() && s[p] == '.') {
      ++p;
      digits = 0;
      while (p < s.size() && std::isdigit(static_cast<unsigned char>(s[p]))) {
        ++p;
        ++digits;
      }
      if (!digits) return false;
    }
    if (p < s.size() && (s[p] == 'e' || s[p] == 'E')) {
      ++p;
      if (p < s.size() && (s[p] == '+' || s[p] == '-')) ++p;
      digits = 0;
      while (p < s.size() && std::isdigit(static_cast<unsigned char>(s[p]))) {
        ++p;
        ++digits;
      }
      if (!digits) return false;
    }
    return p > start;
  }
  bool object() {
    if (p >= s.size() || s[p] != '{') return false;
    ++p;
    ws();
    if (p < s.size() && s[p] == '}') {
      ++p;
      return true;
    }
    for (;;) {
      ws();
      if (!string_lit()) return false;
      ws();
      if (p >= s.size() || s[p] != ':') return false;
      ++p;
      if (!value()) return false;
      ws();
      if (p < s.size() && s[p] == ',') {
        ++p;
        continue;
      }
      if (p < s.size() && s[p] == '}') {
        ++p;
        return true;
      }
      return false;
    }
  }
  bool array() {
    if (p >= s.size() || s[p] != '[') return false;
    ++p;
    ws();
    if (p < s.size() && s[p] == ']') {
      ++p;
      return true;
    }
    for (;;) {
      if (!value()) return false;
      ws();
      if (p < s.size() && s[p] == ',') {
        ++p;
        continue;
      }
      if (p < s.size() && s[p] == ']') {
        ++p;
        return true;
      }
      return false;
    }
  }
  bool value() {
    ws();
    if (p >= s.size()) return false;
    switch (s[p]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_lit();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }
};

bool valid_json(const std::string& s) {
  JsonParser jp(s);
  if (!jp.value()) return false;
  jp.ws();
  return jp.p == s.size();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::string out((std::istreambuf_iterator<char>(is)),
                  std::istreambuf_iterator<char>());
  return out;
}

// ---------- histogram bucket math ----------

TEST(Histogram, BucketEdgesContainTheirValues) {
  // Every value lands in a bucket whose [lower, upper) range contains it,
  // indices are monotone in the value, and values below 32us get unit-exact
  // buckets.
  std::mt19937_64 gen(11);
  int prev_idx = -1;
  uint64_t prev_u = 0;
  for (int e = 0; e < 40; ++e) {
    for (int r = 0; r < 8; ++r) {
      const uint64_t u = (uint64_t{1} << e) +
                         gen() % std::max<uint64_t>(1, uint64_t{1} << e);
      const int idx = LatencyHistogram::bucket_index(u);
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, LatencyHistogram::kNumBuckets);
      EXPECT_LE(LatencyHistogram::bucket_lower(idx), u);
      EXPECT_GT(LatencyHistogram::bucket_upper(idx), u);
      if (u >= prev_u) {
        EXPECT_GE(idx, prev_idx) << "index not monotone at " << u;
      }
      prev_u = u;
      prev_idx = idx;
    }
  }
  for (uint64_t u = 0; u < LatencyHistogram::kSubBuckets; ++u) {
    EXPECT_EQ(LatencyHistogram::bucket_index(u), static_cast<int>(u));
    EXPECT_EQ(LatencyHistogram::bucket_lower(static_cast<int>(u)), u);
    EXPECT_EQ(LatencyHistogram::bucket_upper(static_cast<int>(u)), u + 1);
  }
  // Buckets tile the range: each upper edge is the next lower edge.
  for (int i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i)
    EXPECT_EQ(LatencyHistogram::bucket_upper(i),
              LatencyHistogram::bucket_lower(i + 1));
}

TEST(Histogram, PercentilesMatchSortedVectorOracle) {
  // Rank-exact extraction: percentile(q) must equal the lower edge of the
  // bucket holding the true rank-ceil(q*n) order statistic, for values
  // spanning many octaves.
  LatencyHistogram h;
  std::vector<uint64_t> vals;
  std::mt19937_64 gen(42);
  std::lognormal_distribution<double> ln(6.0, 2.5);  // ~4us .. ~10s spread
  for (int i = 0; i < 20000; ++i) {
    const uint64_t u = static_cast<uint64_t>(ln(gen));
    vals.push_back(u);
    h.record(static_cast<double>(u));
  }
  std::sort(vals.begin(), vals.end());
  ASSERT_EQ(h.count(), vals.size());
  const LatencyHistogram::Snapshot s = h.snapshot();
  for (double q : {0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const size_t rank = std::max<size_t>(
        1, std::min<size_t>(
               vals.size(),
               static_cast<size_t>(
                   std::ceil(q * static_cast<double>(vals.size())))));
    const uint64_t truth = vals[rank - 1];
    const double p = s.percentile(q);
    // Exactly the truth's bucket floor — and therefore within one bucket
    // width (3.1%) of the true order statistic.
    EXPECT_EQ(p, static_cast<double>(LatencyHistogram::bucket_lower(
                     LatencyHistogram::bucket_index(truth))))
        << "q=" << q;
    EXPECT_LE(p, static_cast<double>(truth)) << "q=" << q;
    EXPECT_LT(static_cast<double>(truth), p + p / 32.0 + 1.0) << "q=" << q;
  }
  EXPECT_EQ(h.min_us(), static_cast<double>(vals.front()));
  EXPECT_EQ(h.max_us(), static_cast<double>(vals.back()));
}

TEST(Histogram, SmallValuesAreUnitExact) {
  LatencyHistogram h;
  for (int v = 0; v < 32; ++v) h.record(v);
  for (int v = 1; v <= 32; ++v) {
    const double q = static_cast<double>(v) / 32.0;
    EXPECT_EQ(h.percentile(q), static_cast<double>(v - 1)) << "q=" << q;
  }
  // Negative and sub-microsecond values clamp to the zero bucket.
  LatencyHistogram neg;
  neg.record(-5.0);
  neg.record(0.4);
  EXPECT_EQ(neg.count(), 2u);
  EXPECT_EQ(neg.percentile(1.0), 0.0);
}

TEST(Histogram, MergeEqualsSingleRecorder) {
  // Bucket-wise merge: two shards merged must be indistinguishable from one
  // recorder that saw every value (the mergeable-summary contract).
  LatencyHistogram a, b, all;
  std::mt19937_64 gen(7);
  for (int i = 0; i < 500; ++i) {
    const double v = static_cast<double>(gen() % 1000000);
    ((i % 2) ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  const auto sa = a.snapshot();
  const auto sall = all.snapshot();
  EXPECT_EQ(sa.count, sall.count);
  EXPECT_EQ(sa.sum_us, sall.sum_us);
  EXPECT_EQ(sa.min_us, sall.min_us);
  EXPECT_EQ(sa.max_us, sall.max_us);
  EXPECT_EQ(sa.buckets, sall.buckets);
  for (double q : {0.5, 0.99})
    EXPECT_EQ(sa.percentile(q), sall.percentile(q));
}

// ---------- registry ----------

TEST(MetricsRegistry, NamesAreStableAndKindsCollide) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("x.count");
  c.add(3);
  EXPECT_EQ(&reg.counter("x.count"), &c);  // stable reference
  EXPECT_EQ(reg.counter("x.count").value(), 3u);
  reg.gauge("x.gauge").set(1.5);
  reg.histogram("x.hist").record(10.0);
  EXPECT_THROW(reg.gauge("x.count"), std::invalid_argument);
  EXPECT_THROW(reg.counter("x.gauge"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x.count"), std::invalid_argument);
  EXPECT_THROW(reg.counter("x.hist"), std::invalid_argument);
}

TEST(MetricsRegistry, GateStopsRecordingWithoutClearing) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("g.c");
  obs::Gauge& g = reg.gauge("g.g");
  obs::LatencyHistogram& h = reg.histogram("g.h");
  c.add(2);
  g.set(4.0);
  h.record(8.0);
  reg.set_enabled(false);
  c.add(100);
  g.set(100.0);
  g.add(100.0);
  h.record(100.0);
  EXPECT_EQ(c.value(), 2u);
  EXPECT_EQ(g.value(), 4.0);
  EXPECT_EQ(h.count(), 1u);
  reg.set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 3u);
}

TEST(MetricsRegistry, SnapshotJsonIsWellFormed) {
  obs::MetricsRegistry reg;
  reg.counter("snap.count").add(7);
  reg.gauge("snap.gauge").set(2.25);
  obs::LatencyHistogram& h = reg.histogram("snap.lat_us");
  for (int i = 1; i <= 100; ++i) h.record(i * 10.0);
  const std::string j = reg.snapshot_json();
  EXPECT_TRUE(valid_json(j)) << j;
  EXPECT_NE(j.find("\"name\": \"metrics\""), std::string::npos);
  EXPECT_NE(j.find("\"snap.count\": 7"), std::string::npos);
  EXPECT_NE(j.find("\"snap.lat_us.count\": 100"), std::string::npos);
  EXPECT_NE(j.find("\"snap.lat_us.p99_us\":"), std::string::npos);
}

// ---------- JSON string escaping ----------

// Decodes the body of a JSON string literal (the bytes between the quotes),
// independently of obs/json.h: RFC 8259's two-character escapes plus
// \u00XX. Returns false on a raw control byte, a lone backslash, or any
// other malformed escape.
bool decode_json_string(const std::string& body, std::string* out) {
  out->clear();
  for (size_t i = 0; i < body.size(); ++i) {
    const auto c = static_cast<unsigned char>(body[i]);
    if (c < 0x20 || c == '"') return false;
    if (c != '\\') {
      out->push_back(static_cast<char>(c));
      continue;
    }
    if (++i >= body.size()) return false;
    switch (body[i]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (i + 4 >= body.size() || body.compare(i + 1, 2, "00") != 0)
          return false;
        const std::string hex = body.substr(i + 3, 2);
        if (!std::isxdigit(static_cast<unsigned char>(hex[0])) ||
            !std::isxdigit(static_cast<unsigned char>(hex[1])))
          return false;
        out->push_back(static_cast<char>(std::stoi(hex, nullptr, 16)));
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return true;
}

TEST(JsonEscape, EveryAsciiByteRoundTrips) {
  std::string ascii;
  for (int b = 0; b < 0x80; ++b) ascii.push_back(static_cast<char>(b));
  const std::string esc = obs::json_escaped(ascii);
  for (const char c : esc)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  std::string back;
  ASSERT_TRUE(decode_json_string(esc, &back)) << esc;
  EXPECT_EQ(back, ascii);
  EXPECT_TRUE(valid_json("\"" + esc + "\""));
  // The escapes existing reports contain are unchanged; other control
  // bytes take the \u00XX form.
  EXPECT_EQ(obs::json_escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::json_escaped("\t\r\x01"), "\\u0009\\u000d\\u0001");
}

TEST(JsonEscape, SnapshotLineForControlByteNameIsValidJson) {
  obs::MetricsRegistry reg;
  const std::string name = "ctl.\t\r\x01\x1f.events";
  obs::Counter& c = reg.counter(name);
  const std::string path = "test_obs_ctl_stream.jsonl";
  std::remove(path.c_str());
  {
    obs::MetricsSnapshotterOptions o;
    o.path = path;
    o.interval_s = 3600;  // stop() writes the only line
    obs::MetricsSnapshotter snap(o, reg);
    c.add(3);
    snap.stop();
  }
  std::string text = slurp(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  for (const char ch : text)
    EXPECT_GE(static_cast<unsigned char>(ch), 0x20) << "raw control byte";
  EXPECT_TRUE(valid_json(text)) << text;
  EXPECT_NE(text.find("\"" + obs::json_escaped(name) + "\": 3"),
            std::string::npos)
      << text;
}

TEST(JsonNum, NonFiniteGaugesSnapshotAsNull) {
  // JSON has no NaN or infinity: a bare `nan` / `inf` would make the whole
  // snapshot unparsable. Finite values keep their %.6g bytes.
  obs::MetricsRegistry reg;
  reg.gauge("g.nan").set(std::nan(""));
  reg.gauge("g.inf").set(std::numeric_limits<double>::infinity());
  reg.gauge("g.finite").set(0.125);
  const std::string j = reg.snapshot_json();
  EXPECT_TRUE(valid_json(j)) << j;
  EXPECT_NE(j.find("\"g.nan\": null"), std::string::npos) << j;
  EXPECT_NE(j.find("\"g.inf\": null"), std::string::npos) << j;
  EXPECT_NE(j.find("\"g.finite\": 0.125"), std::string::npos) << j;
  EXPECT_EQ(obs::json_num(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_num(1.0 / 3.0), "0.333333");
}

TEST(MetricsRegistry, ConcurrentRecordingUnderSchedulerIsExact) {
  // The thread-safety stress: scheduler workers hammer one shared counter
  // and histogram while concurrently registering fresh names. Relaxed
  // atomics must still account every event exactly.
  obs::MetricsRegistry& reg = obs::metrics();
  obs::Counter& shared = reg.counter("stress.shared");
  obs::LatencyHistogram& hist = reg.histogram("stress.lat");
  const uint64_t c0 = shared.value();
  const uint64_t h0 = hist.count();
  constexpr int64_t kJobs = 2000;
  runtime::parallel_indexed(kJobs, 8, [&](int64_t i) {
    shared.add(1);
    hist.record(static_cast<double>(i % 4096));
    // Concurrent lookups: same-name resolution from many threads plus a
    // rotating set of fresh registrations.
    reg.counter("stress.shared").add(1);
    reg.counter("stress.dyn." + std::to_string(i % 13)).add(1);
  });
  EXPECT_EQ(shared.value() - c0, static_cast<uint64_t>(2 * kJobs));
  EXPECT_EQ(hist.count() - h0, static_cast<uint64_t>(kJobs));
  uint64_t dyn = 0;
  for (int k = 0; k < 13; ++k)
    dyn += reg.counter("stress.dyn." + std::to_string(k)).value();
  EXPECT_EQ(dyn, static_cast<uint64_t>(kJobs));
  EXPECT_TRUE(valid_json(reg.snapshot_json()));
}

// ---------- tracer ----------

TEST(Tracer, EmitsValidChromeTraceJsonAcrossThreads) {
  obs::Tracer& tr = obs::Tracer::global();
  tr.clear();
  tr.set_enabled(true);
  // Hostile names: quotes, backslashes, newlines must all be escaped.
  {
    obs::Span s("outer \"quoted\" \\slash\\\nnewline", "test");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([t] {
        for (int i = 0; i < 5; ++i)
          obs::Span inner("worker " + std::to_string(t), "test");
      });
    for (auto& th : threads) th.join();
  }
  tr.instant("marker", "test");
  tr.set_enabled(false);
  EXPECT_EQ(tr.event_count(), 22u);  // 1 outer + 4*5 spans + 1 instant
  EXPECT_EQ(tr.dropped(), 0u);
  const std::string j = tr.to_json();
  EXPECT_TRUE(valid_json(j)) << j;
  EXPECT_NE(j.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(j.find("\\\"quoted\\\""), std::string::npos);
  // 5 distinct threads: main plus the 4 workers, densely numbered.
  EXPECT_NE(j.find("\"tid\": 5"), std::string::npos);
  EXPECT_EQ(j.find("\"tid\": 6"), std::string::npos);
  tr.clear();
}

TEST(Tracer, DisabledSpansRecordNothing) {
  obs::Tracer& tr = obs::Tracer::global();
  tr.clear();
  ASSERT_FALSE(tr.enabled());
  { obs::Span s("invisible", "test"); }
  // Enabling mid-span must not produce a half-armed event either: activity
  // is latched at construction.
  {
    obs::Span s("latched-off", "test");
    tr.set_enabled(true);
  }
  tr.set_enabled(false);
  EXPECT_EQ(tr.event_count(), 0u);
}

// ---------- logger ----------

TEST(Logger, LevelsGateAndSinkCaptures) {
  obs::Logger& lg = obs::Logger::global();
  std::vector<std::string> lines;
  lg.set_sink([&](obs::LogLevel, const std::string& m) { lines.push_back(m); });
  lg.set_level(obs::LogLevel::kInfo);
  obs::log_info("at-info");
  obs::log_debug("hidden-debug");
  lg.set_level(obs::LogLevel::kDebug);
  obs::log_debug("visible-debug");
  lg.set_level(obs::LogLevel::kQuiet);
  obs::log_info("hidden-info");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "at-info");
  EXPECT_EQ(lines[1], "visible-debug");
  EXPECT_TRUE(lg.should_log(obs::LogLevel::kQuiet) == false);
  lg.set_sink(nullptr);
  lg.set_level(obs::LogLevel::kInfo);
}

TEST(Logger, ParseLevelRoundTripsAndThrows) {
  EXPECT_EQ(obs::parse_log_level("quiet"), obs::LogLevel::kQuiet);
  EXPECT_EQ(obs::parse_log_level("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::kDebug);
  EXPECT_STREQ(obs::to_string(obs::LogLevel::kDebug), "debug");
  EXPECT_THROW(obs::parse_log_level("verbose"), std::invalid_argument);
  EXPECT_THROW(obs::parse_log_level(""), std::invalid_argument);
}

TEST(Logger, InitFromEnvSetsLevel) {
  ::unsetenv("CORRECTNET_METRICS");
  ::unsetenv("CORRECTNET_TRACE");
  ::setenv("CORRECTNET_LOG", "debug", 1);
  obs::init_from_env();
  EXPECT_EQ(obs::Logger::global().level(), obs::LogLevel::kDebug);
  ::unsetenv("CORRECTNET_LOG");
  obs::Logger::global().set_level(obs::LogLevel::kInfo);
}

// ---------- server stats percentiles ----------

TEST(ServerStats, PercentilesComeFromRealLatencies) {
  // An untrained model is fine: the percentiles are a latency feature, not
  // an accuracy one.
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
  runtime::InferenceServer server(farm, so);
  data::DigitsSpec spec;
  spec.train_count = 1;
  spec.test_count = 40;
  data::SplitDataset ds = data::make_digits(spec);
  std::vector<std::future<Tensor>> futs;
  for (int64_t i = 0; i < 40; ++i) futs.push_back(server.submit(ds.test.image(i)));
  for (auto& f : futs) f.wait();
  server.shutdown();
  const runtime::ServerStats st = server.stats();
  EXPECT_EQ(st.requests, 40u);
  EXPECT_GT(st.max_latency_us, 0.0);
  EXPECT_LE(st.p50_latency_us, st.p99_latency_us);
  EXPECT_LE(st.p99_latency_us, st.p999_latency_us);
  EXPECT_LE(st.p999_latency_us, st.max_latency_us);
  // One formatting for all of it.
  const std::string sum = st.summary();
  EXPECT_NE(sum.find("p50"), std::string::npos);
  EXPECT_NE(sum.find("p999"), std::string::npos);
}

// ---------- the invariant: instrumentation never changes results ----------

TEST(ObsInvariant, CampaignReportByteIdenticalWithMetricsAndTracingOnOrOff) {
  // The load-bearing contract of the whole obs layer, on the axis most
  // sensitive to hidden state (remap matched pairs + stochastic read path):
  // a campaign run with metrics gated off and tracing disabled must produce
  // byte-for-byte the same report JSON as one with both fully on and
  // writing files.
  Rng rng(1);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  data::DigitsSpec spec;
  spec.train_count = 1;
  spec.test_count = 48;
  data::SplitDataset ds = data::make_digits(spec);

  // Relative to the ctest working directory (the build tree).
  const std::string metrics_path = "test_obs_metrics.json";
  const std::string trace_path = "test_obs_trace.json";
  auto run_campaign = [&](bool instrumented) {
    faultsim::CampaignOptions co;
    co.chips = 2;
    co.seed = 77;
    co.batch_size = 32;
    co.parallel_scenarios = 2;
    co.dev.g_min = 1e-6f;
    co.dev.g_max = 1e-4f;
    co.dev.program_sigma = 0.1f;
    co.dev.readout.read_sigma = 0.05f;
    co.remap.enabled = true;
    if (instrumented) {
      co.metrics_out = metrics_path;
      co.trace_out = trace_path;
    }
    faultsim::Campaign c(co);
    c.add_model("baseline", model, false);
    c.add_fault(faultsim::fault_free());
    c.add_fault(faultsim::stuck_at(0.05));
    c.add_fault(faultsim::drift(100.0));
    faultsim::CampaignReport r = c.run(ds.test);
    r.wall_s = 0.0;
    return r.to_json();
  };

  obs::metrics().set_enabled(false);
  obs::Tracer::global().set_enabled(false);
  const std::string off = run_campaign(false);

  obs::metrics().set_enabled(true);
  obs::Tracer::global().clear();
  const std::string on = run_campaign(true);  // enables tracing itself
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().clear();

  EXPECT_EQ(on, off);

  // The instrumented run's artifacts must be real: parseable JSON in the
  // right shapes, with campaign activity actually recorded.
  const std::string mj = slurp(metrics_path);
  ASSERT_FALSE(mj.empty());
  EXPECT_TRUE(valid_json(mj)) << mj;
  EXPECT_NE(mj.find("\"campaign.scenarios\":"), std::string::npos);
  EXPECT_NE(mj.find("\"farm.chip_builds\":"), std::string::npos);
  const std::string tj = slurp(trace_path);
  ASSERT_FALSE(tj.empty());
  EXPECT_TRUE(valid_json(tj)) << tj;
  EXPECT_NE(tj.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(tj.find("scenario "), std::string::npos);
}

TEST(ObsInvariant, ConfigKeysCoverObservability) {
  const auto& keys = faultsim::campaign_config_keys();
  auto has = [&](const char* k) {
    return std::find(keys.begin(), keys.end(), k) != keys.end();
  };
  EXPECT_TRUE(has("metrics_out"));
  EXPECT_TRUE(has("trace_out"));
  EXPECT_TRUE(has("log_level"));
  EXPECT_TRUE(has("statusz_port"));
  EXPECT_TRUE(has("metrics_stream"));
  EXPECT_TRUE(has("slo_p99_ms"));
  // And they parse end to end, including the loud failure on a bad level.
  core::KeyValueConfig cfg = core::KeyValueConfig::from_string(
      "stuck.rates = 0.01\nlog_level = info\nmetrics_out = \n");
  faultsim::campaign_from_config(cfg);
  core::KeyValueConfig bad =
      core::KeyValueConfig::from_string("stuck.rates = 0.01\nlog_level = loud\n");
  EXPECT_THROW(faultsim::campaign_from_config(bad), std::invalid_argument);
  obs::Logger::global().set_level(obs::LogLevel::kInfo);
}

}  // namespace
}  // namespace cn
