// cn_perfbench: the repository benchmark.
//
//   cn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --digests <file> [--spans-out <file>] [--tiny]
//
// Prints human-readable lines, then as the last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Untraced runs report the end-to-end metrics; traced runs report the
// layer profile. Run it through perfbench/run.py, which builds it first.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "exec/target.h"
#include "nn/fusion.h"
#include "obs/build_info.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/threadpool.h"

namespace {

using namespace perfbench;

const char* const kWorkloads[] = {"mc-vgg-xbar", "campaign-lenet-faults",
                                  "serve-lenet-digital"};

int usage(const char* msg) {
  std::fprintf(stderr,
               "cn_perfbench: %s\n"
               "usage: cn_perfbench --workload mc-vgg-xbar|campaign-lenet-faults|"
               "serve-lenet-digital --seed N --seconds S --trace 0|1 --digests FILE "
               "[--spans-out FILE] [--tiny]\n",
               msg);
  return 2;
}

/// The ambient knobs the library reads from the environment. Every one is
/// cleared, so a run measures the same configuration on every host; the
/// execution target and fusion are then set explicitly.
void pin_knobs() {
  for (const char* var :
       {"CORRECTNET_TARGET", "CORRECTNET_FUSION", "CORRECTNET_METRICS", "CORRECTNET_TRACE",
        "CORRECTNET_LOG", "CORRECTNET_STATUSZ_PORT", "CORRECTNET_METRICS_STREAM",
        "CORRECTNET_SLO_P99_MS", "CORRECTNET_SIGNAL_FLUSH", "CORRECTNET_MC",
        "CORRECTNET_EPOCHS", "CORRECTNET_TRAIN", "CORRECTNET_TEST"})
    unsetenv(var);
  cn::exec::set_default_target("simd");
  cn::nn::set_fusion_enabled(true);
  cn::obs::metrics().set_enabled(false);
  cn::obs::Tracer::global().set_enabled(false);
  cn::obs::Logger::global().set_level(cn::obs::LogLevel::kQuiet);
}

/// The host fingerprint recorded with every result, so results from two
/// hosts or builds are never compared silently.
std::string host_json(const RunConfig& cfg) {
  const cn::obs::BuildInfo& b = cn::obs::build_info();
  std::ostringstream o;
  o << "{\"workload\": \"" << cfg.workload << "\", \"seed\": " << cfg.seed
    << ", \"trace\": " << (cfg.trace ? 1 : 0) << ", \"tiny\": " << (cfg.tiny ? 1 : 0)
    << ", \"git_sha\": \"" << b.git_sha << "\", \"build_type\": \"" << b.build_type
    << "\", \"compiler\": \"" << b.compiler << "\", \"simd\": \"" << b.simd
    << "\", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"pool_threads\": " << cn::ThreadPool::global().size()
    << ", \"target\": \"" << cn::exec::default_target().name()
    << "\", \"fusion\": " << (cn::nn::fusion_enabled() ? "true" : "false") << "}";
  return o.str();
}

/// Digest file lines: "<workload>[@tiny] <hex>"; '#' starts a comment.
std::string stored_digest(const std::string& path, const std::string& key) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read digests file " + path);
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream ls(line);
    std::string k, v;
    if (ls >> k >> v && k[0] != '#' && k == key) return v;
  }
  return "";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string digests, spans_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") cfg.workload = value();
      else if (a == "--seed") { cfg.seed = std::stoull(value()); have_seed = true; }
      else if (a == "--seconds") { cfg.seconds = std::stod(value()); have_seconds = true; }
      else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") return usage("--trace expects 0 or 1");
        cfg.trace = t == "1";
        have_trace = true;
      } else if (a == "--digests") digests = value();
      else if (a == "--spans-out") spans_out = value();
      else if (a == "--tiny") cfg.tiny = true;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || cfg.workload == w;
  if (!known) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace || digests.empty())
    return usage("--seed, --seconds, --trace and --digests are required");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");

  try {
    pin_knobs();
    cfg.stored_digest = stored_digest(digests, cfg.workload + (cfg.tiny ? "@tiny" : ""));
    const std::string host = host_json(cfg);
    std::printf("host %s\n", host.c_str());

    SpanRecorder spans;
    Outcome out;
    if (cfg.workload == "mc-vgg-xbar") out = run_mc_vgg_xbar(cfg, spans);
    else if (cfg.workload == "campaign-lenet-faults") out = run_campaign_lenet_faults(cfg, spans);
    else out = run_serve_lenet_digital(cfg, spans);
    if (cfg.trace) run_layer_profile(cfg, spans, out);
    if (!spans_out.empty()) spans.write_json(spans_out, host);

    std::string metrics;
    for (const Metric& m : out.metrics) {
      std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      metrics += (metrics.empty() ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") +
                 json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
                out.failed == 0 ? "true" : "false", static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed), metrics.c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cn_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
