// The three workloads. Each one sets up (repeatedly, reporting the median
// set-up time), runs one untimed warm-up over the reference inputs whose
// digest is stored with the benchmark, then measures for --seconds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "bench.h"
#include "core/compensation.h"
#include "data/synthetic.h"
#include "faultsim/campaign.h"
#include "models/lenet.h"
#include "models/vgg.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/mc_engine.h"
#include "serve.h"
#include "setup.h"

namespace perfbench {

using cn::Rng;
using cn::Tensor;
using cn::nn::Sequential;
using cn::runtime::ChipFarm;

Sizes sizes(bool tiny) {
  if (tiny) return {2, 8, 2, 4, 16};
  return {8, 128, 16, 32, 256};
}

uint64_t derive_seed(uint64_t seed, uint64_t salt) { return cn::mix64(seed ^ salt); }

Sequential vgg_model() {
  Rng rng(2023);
  return cn::models::vgg16(cn::models::VggConfig{}, rng);
}

cn::analog::RramDeviceParams vgg_device() {
  cn::analog::RramDeviceParams dev;
  dev.program_sigma = 0.3f;
  dev.readout.read_sigma = 0.02f;
  dev.readout.adc_bits = 8;
  return dev;
}

std::unique_ptr<ChipFarm> vgg_farm(const Sequential& model, int64_t chips,
                                   std::vector<double>* program_s) {
  cn::runtime::ChipFarmOptions o;
  o.instances = chips;
  o.max_live = chips;
  o.seed = 42;
  o.tile = 128;
  auto farm = std::make_unique<ChipFarm>(model, vgg_device(), o);
  for (int64_t s = 0; s < chips; ++s) {
    const auto t0 = Clock::now();
    farm->chip(s);
    if (program_s) program_s->push_back(seconds_since(t0));
  }
  return farm;
}

cn::data::Dataset objects(uint64_t seed, int64_t n) {
  cn::data::ObjectsSpec spec;
  spec.num_classes = 10;
  spec.train_count = 64;  // only feeds the normalization statistics
  spec.test_count = n;
  spec.seed = seed;
  return cn::data::make_objects(spec).test;
}

Sequential lenet_model() {
  Rng rng(2024);
  return cn::models::lenet5(1, 28, 10, rng);
}

Sequential lenet_compensated(const Sequential& base) {
  cn::core::CompensationPlan plan;
  plan.entries.emplace_back(0, 3);  // conv1, 3 generator filters
  Rng rng(3);
  return cn::core::with_compensation(base, plan, rng);
}

cn::analog::RramDeviceParams campaign_device() {
  cn::analog::RramDeviceParams dev;
  dev.program_sigma = 0.1f;
  return dev;
}

cn::data::Dataset digits(uint64_t seed, int64_t n) {
  cn::data::DigitsSpec spec;
  spec.train_count = 64;
  spec.test_count = n;
  spec.seed = seed;
  return cn::data::make_digits(spec).test;
}

std::unique_ptr<ChipFarm> lenet_factor_farm(const Sequential& model) {
  cn::analog::VariationModel vm;
  vm.kind = cn::analog::VariationKind::kLognormal;
  vm.sigma = 0.5f;
  cn::runtime::ChipFarmOptions o;
  o.instances = 2;
  o.max_live = 2;
  o.seed = 7;
  auto farm = std::make_unique<ChipFarm>(model, vm, o);
  farm->chip(0);
  farm->chip(1);
  return farm;
}

namespace {

// Salts of the per-workload input streams.
constexpr uint64_t kMcData = 0x6d63;
constexpr uint64_t kCampaignData = 0x6364;
constexpr uint64_t kCampaignSeed = 0x6373;
constexpr uint64_t kServePool = 0x7370;
constexpr uint64_t kServeWarm = 0x7377;
constexpr uint64_t kServeOpen = 0x736f;
constexpr uint64_t kServeClosed = 0x7363;

constexpr double kServeRate = 4000;       // open-loop arrivals per second
constexpr int64_t kServeOutstanding = 64;  // closed-loop requests in flight

// Set-up is timed `before` times ahead of the timed phase, keeping the last
// build, and `after` times once the timed phase has released its state, so
// a slow spell of a shared host moves fewer of the samples. setup_s is their
// median. Traced and tiny runs set up once.
struct SetupReps {
  int before, after;
};
SetupReps setup_reps(const RunConfig& cfg, int before, int after) {
  if (cfg.trace || cfg.tiny) return {1, 0};
  return {before, after};
}

/// Calls `build`, appending its wall time to setup_s.
template <class Build>
auto timed_build(const Build& build, std::vector<double>& setup_s) {
  const auto t0 = Clock::now();
  auto state = build();
  setup_s.push_back(seconds_since(t0));
  return state;
}

/// Turns the library's own instrumentation (obs tracer and metrics
/// registry) on for traced units and off everywhere else.
void set_instrumented(bool on) {
  cn::obs::Tracer::global().set_enabled(on);
  cn::obs::metrics().set_enabled(on);
  if (!on) cn::obs::Tracer::global().clear();
}

/// Alternates untraced and traced units of a workload's work and returns
/// the traced median cost over the untraced one, minus 1. `unit` returns
/// its cost in seconds per operation and records spans when given a
/// recorder.
double trace_overhead(const std::function<double(SpanRecorder*)>& unit,
                      SpanRecorder& spans, int pairs) {
  std::vector<double> plain, traced;
  for (int p = 0; p < pairs; ++p) {
    plain.push_back(unit(nullptr));
    set_instrumented(true);
    traced.push_back(unit(&spans));
    set_instrumented(false);
  }
  return median(traced) / median(plain) - 1.0;
}

/// Every later repetition of one seeded computation must hash like the
/// first.
struct RepeatCheck {
  std::string first;
  bool same(const std::string& h) {
    if (first.empty()) first = h;
    return h == first;
  }
};

/// One line with every per-unit sample of a run, for judging its spread.
void print_samples(const char* label, const std::vector<double>& v) {
  std::printf("%s:", label);
  for (double x : v) std::printf(" %.4g", x);
  std::printf("\n");
}

void add_end_to_end(Outcome& out, double ops_per_s, double latency_ms,
                    const std::vector<double>& setup_s) {
  out.add("ops_per_s", "1/s", ops_per_s);
  out.add("latency_p50_ms", "ms", latency_ms);
  out.add("setup_s", "s", median(setup_s));
  out.add("peak_rss_mb", "MB", peak_rss_mb());
}

}  // namespace

// mc-vgg-xbar: runtime::McEngine::accuracy over a resident crossbar farm.
// An operation is one chip evaluating one test image.
Outcome run_mc_vgg_xbar(const RunConfig& cfg, SpanRecorder& spans) {
  const Sizes sz = sizes(cfg.tiny);
  const int64_t ops = sz.mc_chips * sz.mc_images;
  Outcome out;

  struct State {
    cn::data::Dataset ref, test;
    std::unique_ptr<ChipFarm> farm;
  };
  auto build = [&] {
    return State{objects(derive_seed(kReferenceSeed, kMcData), sz.mc_images),
                 objects(derive_seed(cfg.seed, kMcData), sz.mc_images),
                 vgg_farm(vgg_model(), sz.mc_chips)};
  };
  const SetupReps reps = setup_reps(cfg, 3, 2);
  std::vector<double> setup_s;
  State st;
  for (int r = 0; r < reps.before; ++r) {
    st = State{};  // one farm alive at a time, so peak RSS counts one
    st = timed_build(build, setup_s);
  }
  const cn::data::Dataset& ref = st.ref;
  const cn::data::Dataset& test = st.test;
  ChipFarm* farm = st.farm.get();
  cn::runtime::McEngineOptions eo;
  eo.batch_size = sz.mc_images;
  cn::runtime::McEngine engine(*farm, eo);

  {  // Warm-up over the reference images: per-chip samples + chip 0 logits.
    Scoped s(&spans, "mc.reference_pass");
    const cn::core::McResult r = engine.accuracy(ref);
    const Tensor logits = farm->chip(0).forward(ref.images, /*train=*/false);
    Digest d;
    d.doubles(r.samples);
    d.floats(logits.data(), static_cast<size_t>(logits.size()));
    out.attempted += ops;
    if (!digest_matches(cfg, d.hex())) out.failed += ops;
  }

  RepeatCheck repeat;
  auto pass = [&](SpanRecorder* rec) {
    Scoped s(rec, "mc.pass");
    const auto t0 = Clock::now();
    const cn::core::McResult r = engine.accuracy(test);
    const double dt = seconds_since(t0);
    Digest d;
    d.doubles(r.samples);
    out.attempted += ops;
    if (!repeat.same(d.hex())) out.failed += ops;
    return dt;
  };

  if (cfg.trace) {
    out.add("trace_overhead_frac", "frac",
            trace_overhead([&](SpanRecorder* rec) { return pass(rec) / ops; }, spans, 1));
    return out;
  }
  std::vector<double> pass_s;
  const auto start = Clock::now();
  do pass_s.push_back(pass(nullptr));
  while (seconds_since(start) < cfg.seconds);
  st = State{};
  for (int r = 0; r < reps.after; ++r) timed_build(build, setup_s);
  std::vector<double> rates;
  for (double s : pass_s) rates.push_back(static_cast<double>(ops) / s);
  std::printf("mc: %zu timed passes of %lld chips x %lld images\n", pass_s.size(),
              static_cast<long long>(sz.mc_chips), static_cast<long long>(sz.mc_images));
  print_samples("mc pass_s", pass_s);
  add_end_to_end(out, median(rates), median(pass_s) * 1e3, setup_s);
  return out;
}

namespace {

cn::faultsim::Campaign make_campaign(const Sequential& base, const Sequential& comp,
                                     uint64_t seed, int64_t chips) {
  cn::faultsim::CampaignOptions co;
  co.chips = chips;
  co.seed = seed;
  co.batch_size = 128;
  co.tile = 128;
  co.parallel_scenarios = 0;  // auto: the pool width
  co.dev = campaign_device();
  co.remap.enabled = true;
  cn::faultsim::Campaign c(co);
  c.add_model("baseline", base, false);
  c.add_model("corrected", comp, true);
  c.add_fault(cn::faultsim::fault_free());
  c.add_stuck_at_grid({0.005, 0.02, 0.05});
  c.add_drift_grid({10.0, 1000.0});
  c.add_ir_drop_grid({0.1});
  c.add_thermal_grid({400.0});
  return c;
}

std::string report_digest(cn::faultsim::CampaignReport r) {
  r.wall_s = 0;  // the one field that differs between identical runs
  Digest d;
  d.text(r.to_json());
  return d.hex();
}

}  // namespace

// campaign-lenet-faults: faultsim::Campaign::run over a 32-cell grid. An
// operation is one grid cell.
Outcome run_campaign_lenet_faults(const RunConfig& cfg, SpanRecorder& spans) {
  const Sizes sz = sizes(cfg.tiny);
  Outcome out;

  struct State {
    cn::data::Dataset ref, test;
    std::unique_ptr<cn::faultsim::Campaign> ref_campaign, campaign;
  };
  auto build = [&] {
    const Sequential base = lenet_model();
    const Sequential comp = lenet_compensated(base);
    return State{digits(derive_seed(kReferenceSeed, kCampaignData), sz.campaign_images),
                 digits(derive_seed(cfg.seed, kCampaignData), sz.campaign_images),
                 std::make_unique<cn::faultsim::Campaign>(make_campaign(
                     base, comp, derive_seed(kReferenceSeed, kCampaignSeed), sz.campaign_chips)),
                 std::make_unique<cn::faultsim::Campaign>(make_campaign(
                     base, comp, derive_seed(cfg.seed, kCampaignSeed), sz.campaign_chips))};
  };
  const SetupReps reps = setup_reps(cfg, 5, 4);
  std::vector<double> setup_s;
  State st;
  for (int r = 0; r < reps.before; ++r) st = timed_build(build, setup_s);
  const cn::data::Dataset& ref = st.ref;
  const cn::data::Dataset& test = st.test;
  cn::faultsim::Campaign* ref_campaign = st.ref_campaign.get();
  cn::faultsim::Campaign* campaign = st.campaign.get();
  const int64_t ops = campaign->num_scenarios();

  {  // Warm-up: the reference campaign, checked against the stored digest.
    Scoped s(&spans, "campaign.reference_run");
    out.attempted += ops;
    if (!digest_matches(cfg, report_digest(ref_campaign->run(ref)))) out.failed += ops;
  }

  RepeatCheck repeat;
  auto run = [&](SpanRecorder* rec) {
    Scoped s(rec, "campaign.run");
    const auto t0 = Clock::now();
    cn::faultsim::CampaignReport r = campaign->run(test);
    const double dt = seconds_since(t0);
    out.attempted += ops;
    if (!repeat.same(report_digest(std::move(r)))) out.failed += ops;
    return dt;
  };

  if (cfg.trace) {
    out.add("trace_overhead_frac", "frac",
            trace_overhead([&](SpanRecorder* rec) { return run(rec) / ops; }, spans, 2));
    return out;
  }
  std::vector<double> run_s;
  const auto start = Clock::now();
  do run_s.push_back(run(nullptr));
  while (seconds_since(start) < cfg.seconds);
  for (int r = 0; r < reps.after; ++r) timed_build(build, setup_s);
  std::vector<double> rates;
  for (double s : run_s) rates.push_back(static_cast<double>(ops) / s);
  std::printf("campaign: %zu timed runs of %lld cells x %lld chips x %lld images\n",
              run_s.size(), static_cast<long long>(ops),
              static_cast<long long>(sz.campaign_chips),
              static_cast<long long>(sz.campaign_images));
  print_samples("campaign run_s", run_s);
  add_end_to_end(out, median(rates), median(run_s) * 1e3, setup_s);
  return out;
}

namespace {

struct ServeState {
  std::unique_ptr<ChipFarm> farm;
  ServeRefs refs;
  // Declared after the farm it serves from, so it shuts down first.
  std::unique_ptr<cn::runtime::InferenceServer> server;
};

ServeState serve_setup(const Sizes& sz) {
  ServeState st;
  const cn::data::Dataset pool = digits(derive_seed(kReferenceSeed, kServePool), sz.serve_pool);
  st.farm = lenet_factor_farm(lenet_model());
  // References are taken before the server starts: its workers own the
  // farm's slots from then on.
  st.refs = serve_refs(*st.farm, pool);
  cn::runtime::InferenceServerOptions so;
  so.workers = 2;
  so.max_batch = 32;
  so.max_wait_us = 1000;
  st.server = std::make_unique<cn::runtime::InferenceServer>(*st.farm, so);
  return st;
}

}  // namespace

// serve-lenet-digital: an open loop at a fixed Poisson rate, then a closed
// loop. An operation is one request.
Outcome run_serve_lenet_digital(const RunConfig& cfg, SpanRecorder& spans) {
  const Sizes sz = sizes(cfg.tiny);
  Outcome out;

  auto build = [&] { return serve_setup(sz); };
  const SetupReps reps = setup_reps(cfg, 5, 4);
  std::vector<double> setup_s;
  ServeState st;
  for (int r = 0; r < reps.before; ++r) {
    st.server.reset();  // the server before the farm it serves from
    st.farm.reset();
    st = timed_build(build, setup_s);
  }
  cn::runtime::InferenceServer& server = *st.server;
  const int64_t pool = static_cast<int64_t>(st.refs.images.size());
  out.attempted += 2 * pool;
  if (!digest_matches(cfg, st.refs.digest())) out.failed += 2 * pool;

  auto open = [&](const std::vector<Arrival>& schedule, const char* phase) {
    Scoped s(&spans, std::string("serve.open.") + phase);
    OpenLoopStats o = open_loop(server, st.refs, schedule);
    out.attempted += o.attempted;
    out.failed += o.failed;
    std::printf("serve %s open loop: attempted %lld succeeded %lld failed %lld\n", phase,
                static_cast<long long>(o.attempted),
                static_cast<long long>(o.attempted - o.failed),
                static_cast<long long>(o.failed));
    return o;
  };
  Rng picks(derive_seed(cfg.seed, kServeClosed));
  auto closed = [&](double seconds, int segments, const char* phase, SpanRecorder* rec) {
    Scoped s(rec, std::string("serve.closed.") + phase);
    std::vector<ClosedLoopStats> segs;
    int64_t completed = 0, failed = 0;
    for (int k = 0; k < segments; ++k) {
      segs.push_back(closed_loop(server, st.refs, picks, kServeOutstanding, seconds / segments));
      completed += segs.back().completed;
      failed += segs.back().failed;
    }
    out.attempted += completed;
    out.failed += failed;
    std::printf("serve %s closed loop: attempted %lld succeeded %lld failed %lld\n", phase,
                static_cast<long long>(completed), static_cast<long long>(completed - failed),
                static_cast<long long>(failed));
    return segs;
  };

  const double warm_s = cfg.tiny ? 0.1 : 0.25;
  open(poisson_schedule(derive_seed(cfg.seed, kServeWarm), kServeRate, warm_s, pool), "warmup");
  closed(warm_s, 1, "warmup", &spans);

  if (cfg.trace) {
    const double unit_s = cfg.tiny ? 0.2 : 1.0;
    out.add("trace_overhead_frac", "frac", trace_overhead([&](SpanRecorder* rec) {
              const ClosedLoopStats c = closed(unit_s, 1, "unit", rec).at(0);
              return c.seconds / static_cast<double>(c.completed);
            }, spans, 2));
    return out;
  }

  // The timed phases split --seconds evenly. The open loop's p50 and the
  // closed loop's throughput are medians over one-second segments, so a
  // stall on a shared host moves one segment rather than the whole run.
  const double phase_s = cfg.seconds / 2;
  const int segments = std::max(1, static_cast<int>(std::lround(phase_s)));
  const std::vector<Arrival> schedule =
      poisson_schedule(derive_seed(cfg.seed, kServeOpen), kServeRate, phase_s, pool);
  const OpenLoopStats o = open(schedule, "timed");
  std::vector<std::vector<double>> by_segment(static_cast<size_t>(segments));
  for (size_t i = 0; i < schedule.size(); ++i) {
    const auto k = std::min<size_t>(static_cast<size_t>(schedule[i].t_s / phase_s * segments),
                                    by_segment.size() - 1);
    by_segment[k].push_back(o.latency_ms[i]);
  }
  std::vector<double> p50s;
  for (const auto& v : by_segment)
    if (!v.empty()) p50s.push_back(median(v));
  std::vector<double> rps;
  for (const ClosedLoopStats& c : closed(phase_s, segments, "timed", nullptr))
    rps.push_back(c.rps());

  const cn::runtime::ServerStats ss = server.stats();
  st.server.reset();
  st.farm.reset();
  for (int r = 0; r < reps.after; ++r) timed_build(build, setup_s);
  std::printf("serve open loop at %.0f req/s: p50 %.3f ms  p99 %.3f ms  p99.9 %.3f ms "
              "(%zu samples)\n",
              kServeRate, quantile(o.latency_ms, 0.5), quantile(o.latency_ms, 0.99),
              quantile(o.latency_ms, 0.999), o.latency_ms.size());
  std::printf("serve generator lateness: p50 %.3f ms  p99 %.3f ms  max %.3f ms\n",
              quantile(o.lateness_ms, 0.5), quantile(o.lateness_ms, 0.99),
              quantile(o.lateness_ms, 1.0));
  std::printf("serve closed loop, %lld outstanding: %.1f req/s (median of %d segments)\n",
              static_cast<long long>(kServeOutstanding), median(rps), segments);
  std::printf("serve server stats: %llu requests in %llu batches (avg batch %.2f)\n",
              static_cast<unsigned long long>(ss.requests),
              static_cast<unsigned long long>(ss.batches), ss.avg_batch());
  std::printf("metric serve.open_p99_ms = %.4f ms\n", quantile(o.latency_ms, 0.99));
  print_samples("serve open segment p50_ms", p50s);
  print_samples("serve closed segment req/s", rps);
  add_end_to_end(out, median(rps), median(p50s), setup_s);
  return out;
}

}  // namespace perfbench
