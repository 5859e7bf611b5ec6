// bench_runtime: the inference-runtime speedup bench.
//
// Measures Monte-Carlo evaluation over a farm of programmed crossbar chips
// two ways on the identical workload and chip seeds:
//   seed path   — sequential chip loop, per-column CrossbarArray::matvec
//                 (the code shape before the runtime subsystem existed);
//   runtime     — ChipFarm + McEngine with sample-level parallelism and the
//                 tile-blocked CrossbarArray::matmul batched kernel.
// The two must agree bit-for-bit (read noise off); the interesting number is
// the wall-clock ratio. Before it, two fusion legs time the fused digital
// forward; after it, the micro-batching InferenceServer is measured open
// loop, then held to its overload and fault-drill contracts.
//
// Writes BENCH_runtime.json (see bench::BenchJson). `--quick` shrinks the
// workload for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common.h"
#include "data/batcher.h"
#include "faultsim/fault_models.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/fusion.h"
#include "nn/pooling.h"
#include "obs/sinks.h"
#include "tensor/ops.h"
#include "runtime/chip_farm.h"
#include "runtime/inference_server.h"
#include "runtime/mc_engine.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  try {
    obs::start(obs::read_sinks());  // the sink table's environment layer
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const int chips = quick ? 4 : 8;
  const int64_t test_count = quick ? 120 : 400;
  std::printf("== bench_runtime (%s: %d crossbar chips, %lld test images) ==\n",
              quick ? "quick" : "full", chips, static_cast<long long>(test_count));

  data::DigitsSpec spec;
  spec.train_count = 800;
  spec.test_count = test_count;
  data::SplitDataset ds = data::make_digits(spec);
  Rng rng(2023);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  std::printf("  [train] LeNet5-Digits (%d epochs)...\n", cfg.epochs);
  core::train(model, ds.train, ds.test, cfg);
  const float clean = core::evaluate(model, ds.test);
  std::printf("  clean accuracy: %.3f\n", clean);

  bench::BenchJson json("runtime");
  json.set("quick", quick);
  json.set("chips", static_cast<int64_t>(chips));
  json.set("test_images", test_count);

  // ---------- layer-graph fusion: fused vs unfused digital forward ----------
  // Two digital-path legs, each timing FusedPlan::execute over the test set
  // in batches of 128: the no-pass plan (FusedPlan(m, /*fuse=*/false))
  // against the fused one. Timed reps interleave the legs (min of several
  // multi-pass samples), so clock drift hits both sides equally.
  //
  //   (a) the trained LeNet5 — no batchnorm, so every engaged rewrite (relu
  //       epilogues, both pools into the conv epilogues) is bitwise-exact by
  //       contract, asserted on sampled images;
  //   (b) a conv-bn stack (conv+bn+relu+pool blocks plus an eval dropout) —
  //       the workload where ALL passes engage, bn-fold included; parity is
  //       asserted per the pinned kBnFold* tolerance contract.
  //
  // Leg (b) is the headline `fusion_speedup` and gates the bench: the pass
  // pipeline exists to win wall-clock, so below 1.15x fails.
  {
    const int reps = quick ? 5 : 5;
    const int inner = quick ? 6 : 2;  // test-set passes per timed sample
    std::vector<Tensor> batches;
    data::Batcher batcher(ds.test, 128);
    for (int64_t b = 0; b < batcher.num_batches(); ++b)
      batches.push_back(batcher.get(b).images);
    auto timed_legs = [&](nn::Sequential& m, double& t_unfused,
                          double& t_fused) {
      nn::FusedPlan unfused(m, /*fuse=*/false);
      nn::FusedPlan fused(m);
      auto pass = [&](nn::FusedPlan& plan) {
        for (const Tensor& x : batches) (void)plan.execute(x);
      };
      pass(unfused);  // warm-up (caches)
      pass(fused);
      t_unfused = t_fused = 1e100;
      for (int r = 0; r < reps; ++r) {
        for (nn::FusedPlan* plan : {&unfused, &fused}) {
          const auto tt = Clock::now();
          for (int k = 0; k < inner; ++k) pass(*plan);
          double& best = plan == &fused ? t_fused : t_unfused;
          best = std::min(best, seconds_since(tt) / inner);
        }
      }
    };
    auto forward_image = [&](nn::Sequential& m, int64_t i, bool fused) {
      Tensor img = ds.test.image(i);
      img.reshape({1, ds.test.channels(), ds.test.height(), ds.test.width()});
      return nn::FusedPlan(m, fused).execute(img);
    };

    // (a) LeNet5: bitwise parity.
    double lenet_unfused = 0.0, lenet_fused = 0.0;
    timed_legs(model, lenet_unfused, lenet_fused);
    bool bit_identical = true;
    const int64_t sampled = std::min<int64_t>(test_count, 16);
    for (int64_t i = 0; i < sampled && bit_identical; ++i) {
      const Tensor a = forward_image(model, i, false);
      const Tensor b = forward_image(model, i, true);
      bit_identical = a.size() == b.size() &&
                      std::memcmp(a.data(), b.data(),
                                  static_cast<size_t>(a.size()) * sizeof(float)) == 0;
    }
    const double lenet_speedup =
        lenet_fused > 0 ? lenet_unfused / lenet_fused : 0.0;
    std::printf("  [fusion] lenet5    unfused: %.3fs  fused: %.3fs  "
                "speedup: %.2fx  bit-identical (%lld images): %s\n",
                lenet_unfused, lenet_fused, lenet_speedup,
                static_cast<long long>(sampled), bit_identical ? "yes" : "NO");

    // (b) conv-bn stack: untrained weights (timing only), batchnorm running
    // stats warmed by a few train-mode forwards so the fold is non-trivial.
    Rng frng(4242);
    nn::Sequential bnm("convbn");
    auto& c1 = bnm.emplace<nn::Conv2D>(1, 3, 3, 1, 1, 28, 28, "c1");
    frng.fill_normal(c1.weight().value, 0.0f, 0.3f);
    frng.fill_normal(c1.bias().value, 0.0f, 0.1f);
    auto& b1 = bnm.emplace<nn::BatchNorm2D>(3, 0.9f, 1e-5f, "b1");
    frng.fill_normal(b1.gamma().value, 1.0f, 0.2f);
    frng.fill_normal(b1.beta().value, 0.0f, 0.2f);
    bnm.emplace<nn::ReLU>("r1");
    bnm.emplace<nn::Dropout>(0.25f, 13, "d1");
    bnm.emplace<nn::MaxPool2D>(2, "p1");
    auto& c2 = bnm.emplace<nn::Conv2D>(3, 6, 3, 1, 1, 14, 14, "c2");
    frng.fill_normal(c2.weight().value, 0.0f, 0.3f);
    frng.fill_normal(c2.bias().value, 0.0f, 0.1f);
    auto& b2 = bnm.emplace<nn::BatchNorm2D>(6, 0.9f, 1e-5f, "b2");
    frng.fill_normal(b2.gamma().value, 1.0f, 0.2f);
    frng.fill_normal(b2.beta().value, 0.0f, 0.2f);
    bnm.emplace<nn::ReLU>("r2");
    bnm.emplace<nn::Dropout>(0.25f, 17, "d2");
    bnm.emplace<nn::AvgPool2D>(2, "p2");
    bnm.emplace<nn::Flatten>();
    auto& fc = bnm.emplace<nn::Dense>(6 * 7 * 7, 10, "fc");
    frng.fill_normal(fc.weight().value, 0.0f, 0.2f);
    frng.fill_normal(fc.bias().value, 0.0f, 0.1f);
    {
      Tensor warm({32, 1, 28, 28});
      for (int it = 0; it < 3; ++it) {
        frng.fill_normal(warm, 0.0f, 1.0f);
        (void)bnm.forward(warm, /*train=*/true);
      }
    }
    double bn_unfused = 0.0, bn_fused = 0.0;
    timed_legs(bnm, bn_unfused, bn_fused);
    // Parity per the bn-fold contract: |ulps| <= kBnFoldMaxUlps, or abs diff
    // within kBnFoldRangeTol of the unfused output range (same predicate as
    // tests/exec_testutil.h expect_within_ulps).
    auto ordinal = [](float f) {
      int32_t i;
      std::memcpy(&i, &f, sizeof(i));
      return static_cast<int64_t>(i >= 0 ? i : -(i & 0x7FFFFFFF));
    };
    bool within_tol = true;
    float range = 0.0f;
    for (int64_t i = 0; i < sampled; ++i) {
      const Tensor a = forward_image(bnm, i, false);
      for (int64_t j = 0; j < a.size(); ++j)
        range = std::max(range, std::abs(a[j]));
    }
    for (int64_t i = 0; i < sampled && within_tol; ++i) {
      const Tensor a = forward_image(bnm, i, false);
      const Tensor b = forward_image(bnm, i, true);
      within_tol = a.size() == b.size();
      for (int64_t j = 0; within_tol && j < a.size(); ++j) {
        const int64_t ulps = std::llabs(ordinal(a[j]) - ordinal(b[j]));
        within_tol = ulps <= nn::kBnFoldMaxUlps ||
                     std::abs(a[j] - b[j]) <= nn::kBnFoldRangeTol * range;
      }
    }
    const double fusion_speedup = bn_fused > 0 ? bn_unfused / bn_fused : 0.0;
    std::printf("  [fusion] conv-bn   unfused: %.3fs  fused: %.3fs  "
                "speedup: %.2fx  within bn-fold tolerance: %s\n",
                bn_unfused, bn_fused, fusion_speedup,
                within_tol ? "yes" : "NO");
    json.set("fusion_lenet_unfused_s", lenet_unfused);
    json.set("fusion_lenet_fused_s", lenet_fused);
    json.set("fusion_lenet_speedup", lenet_speedup);
    json.set("fusion_bit_identical", bit_identical);
    json.set("fusion_unfused_s", bn_unfused);
    json.set("fusion_fused_s", bn_fused);
    json.set("fusion_speedup", fusion_speedup);
    json.set("fusion_bn_within_tol", within_tol);
    if (!bit_identical) {
      std::printf("FAIL: fused LeNet5 forward diverged from the unfused path\n");
      return 1;
    }
    if (!within_tol) {
      std::printf("FAIL: fused conv-bn forward outside the bn-fold tolerance\n");
      return 1;
    }
    if (fusion_speedup < 1.15) {
      std::printf("FAIL: fusion speedup %.2fx below the 1.15x floor\n",
                  fusion_speedup);
      return 1;
    }
  }

  // ---------- MC over programmed crossbar chips: seed path vs runtime ----------
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  dev.program_sigma = 0.3f;

  runtime::ChipFarmOptions fo;
  fo.instances = chips;
  fo.max_live = chips;  // keep every chip resident: programming timed once
  fo.seed = 42;
  runtime::ChipFarm farm(model, dev, fo);

  auto t0 = Clock::now();
  for (int s = 0; s < chips; ++s) farm.chip(s);
  const double t_program = seconds_since(t0);
  std::printf("  [farm] programmed %d chips in %.2fs\n", chips, t_program);
  json.set("program_s", t_program);

  // Seed path: sequential chip loop + per-column matvec execution.
  for (int s = 0; s < chips; ++s) analog::set_batched(farm.chip(s), false);
  std::vector<double> seq_samples(static_cast<size_t>(chips));
  t0 = Clock::now();
  for (int s = 0; s < chips; ++s)
    seq_samples[static_cast<size_t>(s)] = core::evaluate(farm.chip(s), ds.test, 128);
  const double t_seq = seconds_since(t0);

  // Runtime: batched matmul kernels + sample-parallel McEngine.
  for (int s = 0; s < chips; ++s) analog::set_batched(farm.chip(s), true);
  runtime::McEngineOptions eo;
  eo.batch_size = 128;
  runtime::McEngine engine(farm, eo);
  t0 = Clock::now();
  const core::McResult rt = engine.accuracy(ds.test);
  const double t_runtime = seconds_since(t0);

  bool identical = rt.samples.size() == seq_samples.size();
  for (size_t s = 0; identical && s < seq_samples.size(); ++s)
    identical = rt.samples[s] == seq_samples[s];
  const double speedup = t_runtime > 0 ? t_seq / t_runtime : 0.0;
  std::printf("  [mc-crossbar] seed path   : %.3fs\n", t_seq);
  std::printf("  [mc-crossbar] runtime     : %.3fs  (mean acc %.3f ± %.3f)\n",
              t_runtime, rt.mean, rt.stddev);
  std::printf("  [mc-crossbar] speedup     : %.2fx  bit-identical: %s\n", speedup,
              identical ? "yes" : "NO");
  json.set("mc_crossbar_seed_s", t_seq);
  json.set("mc_crossbar_runtime_s", t_runtime);
  json.set("mc_crossbar_speedup", speedup);
  json.set("mc_crossbar_bit_identical", identical);
  json.set("mc_crossbar_mean_acc", rt.mean);

  // ---------- InferenceServer micro-batching ----------
  double base_server_rps = 0;  // open-loop capacity, the overload leg's base
  {
    analog::VariationModel none{analog::VariationKind::kNone, 0.0f};
    runtime::ChipFarmOptions sfo;
    sfo.instances = 2;
    sfo.max_live = 2;
    runtime::ChipFarm sfarm(model, none, sfo);
    runtime::InferenceServerOptions so;
    so.max_batch = 32;
    so.max_wait_us = 1000;
    so.workers = 2;
    runtime::InferenceServer server(sfarm, so);
    const int64_t requests = std::min<int64_t>(test_count, quick ? 120 : 400);
    std::vector<std::future<Tensor>> futs;
    futs.reserve(static_cast<size_t>(requests));
    t0 = Clock::now();
    std::thread client([&] {
      for (int64_t i = 0; i < requests; ++i)
        futs.push_back(server.submit(ds.test.image(i)));
    });
    client.join();
    int64_t correct = 0;
    for (int64_t i = 0; i < requests; ++i) {
      Tensor logits = futs[static_cast<size_t>(i)].get();
      logits.reshape({1, logits.size()});
      if (argmax_row(logits, 0) == ds.test.labels[static_cast<size_t>(i)]) ++correct;
    }
    const double t_serve = seconds_since(t0);
    const runtime::ServerStats st = server.stats();
    std::printf("  [server] %lld requests in %.3fs: %.0f req/s, avg batch %.1f, "
                "latency avg %.0fus p50 %.0fus p99 %.0fus p999 %.0fus, acc %.3f\n",
                static_cast<long long>(requests), t_serve, st.throughput_rps(),
                st.avg_batch(), st.avg_latency_us(), st.p50_latency_us,
                st.p99_latency_us, st.p999_latency_us,
                static_cast<double>(correct) / static_cast<double>(requests));
    base_server_rps = st.throughput_rps();
    json.set("server_requests", requests);
    json.set("server_throughput_rps", st.throughput_rps());
    json.set("server_avg_batch", st.avg_batch());
    json.set("server_avg_latency_us", st.avg_latency_us());
    json.set("server_p50_us", st.p50_latency_us);
    json.set("server_p99_us", st.p99_latency_us);
    json.set("server_p999_us", st.p999_latency_us);
  }

  // ---------- bounded-queue admission under sustained 2x overload ----------
  // A paced client offers requests at twice the measured open-loop capacity.
  // Without admission control the queue (and the tail) grows without bound
  // for as long as the overload lasts; with the bounded queue + latency
  // budget armed, the server sheds the excess as typed Overloaded rejections
  // and the admitted requests' p99 stays within the budget target. Both
  // properties are asserted — this leg is the serving-policy contract, not
  // just a trajectory.
  {
    analog::VariationModel none{analog::VariationKind::kNone, 0.0f};
    runtime::ChipFarmOptions sfo;
    sfo.instances = 2;
    sfo.max_live = 2;
    runtime::ChipFarm sfarm(model, none, sfo);
    // Per-request sustained service time from the open-loop leg; the budget
    // admits roughly 48 queued requests' worth of wait, so thresholds scale
    // with the machine instead of hard-coding microseconds.
    const double svc_us =
        base_server_rps > 0 ? 1e6 / base_server_rps : 1000.0;
    runtime::InferenceServerOptions so;
    so.max_batch = 16;
    so.max_wait_us = 500;
    so.workers = 2;
    so.queue_limit = 64;
    so.queue_budget_us =
        std::max<int64_t>(10000, static_cast<int64_t>(48.0 * svc_us));
    runtime::InferenceServer server(sfarm, so);
    const double offered_rps = 2.0 * (base_server_rps > 0 ? base_server_rps : 1000.0);
    const int64_t requests = quick ? 400 : 1600;
    const auto interval =
        std::chrono::duration<double>(1.0 / offered_rps);
    std::vector<std::future<Tensor>> futs;
    futs.reserve(static_cast<size_t>(requests));
    t0 = Clock::now();
    for (int64_t i = 0; i < requests; ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(interval * i));
      futs.push_back(server.submit(ds.test.image(i % test_count)));
    }
    int64_t accepted = 0, rejected = 0;
    for (auto& f : futs) {
      try {
        f.get();
        ++accepted;
      } catch (const runtime::Overloaded&) {
        ++rejected;
      }
    }
    const double t_over = seconds_since(t0);
    const runtime::ServerStats st = server.stats();
    // The budget bounds the admission-time queue-wait estimate; an admitted
    // request additionally rides out its own batch's service time, and the
    // histogram's power-of-two buckets round p99 up. 3x absorbs both while
    // still catching unbounded-queue regressions (which blow past any
    // constant multiple as the overload runs).
    const double p99_target_us = 3.0 * static_cast<double>(so.queue_budget_us);
    std::printf("  [overload] offered %.0f req/s (2x capacity) for %.2fs: "
                "%lld accepted, %lld rejected, max queue %lld/%lld, "
                "p99 %.0fus (target %.0fus)\n",
                offered_rps, t_over, static_cast<long long>(accepted),
                static_cast<long long>(rejected),
                static_cast<long long>(st.max_queue_depth),
                static_cast<long long>(so.queue_limit), st.p99_latency_us,
                p99_target_us);
    json.set("overload_offered_rps", offered_rps);
    json.set("overload_requests", requests);
    json.set("overload_accepted", accepted);
    json.set("overload_rejected", rejected);
    json.set("overload_queue_budget_us", so.queue_budget_us);
    json.set("overload_p99_us", st.p99_latency_us);
    json.set("overload_p99_target_us", p99_target_us);
    json.set("overload_max_queue_depth", st.max_queue_depth);
    if (rejected <= 0) {
      std::printf("FAIL: 2x overload produced no admission rejections\n");
      return 1;
    }
    if (st.max_queue_depth > so.queue_limit) {
      std::printf("FAIL: queue grew past its limit (%lld > %lld)\n",
                  static_cast<long long>(st.max_queue_depth),
                  static_cast<long long>(so.queue_limit));
      return 1;
    }
    if (st.p99_latency_us > p99_target_us) {
      std::printf("FAIL: admitted p99 %.0fus exceeded the budget target "
                  "%.0fus\n",
                  st.p99_latency_us, p99_target_us);
      return 1;
    }
  }

  // ---------- mid-traffic fault drill ----------
  // A crossbar farm serves a request stream while 1 of its 2 workers is
  // drilled (stuck-at faults + remap repair) between two traffic phases.
  // The serving contract under test: the afflicted worker rebuilds its chip
  // on its own thread between batches, so no future — queued, in-flight, or
  // post-drill — ever fails. Asserted, with the drill bookkeeping checked.
  {
    analog::RramDeviceParams sdev;
    sdev.g_min = 1e-6f;
    sdev.g_max = 1e-4f;
    sdev.program_sigma = 0.1f;
    runtime::ChipFarmOptions sfo;
    sfo.instances = 2;
    sfo.max_live = 2;
    sfo.seed = 42;
    runtime::ChipFarm sfarm(model, sdev, sfo);
    runtime::InferenceServerOptions so;
    so.max_batch = 16;
    so.max_wait_us = 500;
    so.workers = 2;
    runtime::InferenceServer server(sfarm, so);
    const int64_t phase = quick ? 60 : 200;
    std::vector<std::future<Tensor>> futs;
    futs.reserve(static_cast<size_t>(2 * phase));
    t0 = Clock::now();
    for (int64_t i = 0; i < phase; ++i)
      futs.push_back(server.submit(ds.test.image(i % test_count)));
    runtime::DrillSpec drill;
    drill.action = runtime::DrillSpec::Action::kRemap;
    drill.workers = {0};
    drill.faults = faultsim::stuck_at(0.02).models;
    server.drill(drill);  // mid-traffic: phase-1 requests still in flight
    for (int64_t i = 0; i < phase; ++i)
      futs.push_back(server.submit(ds.test.image(i % test_count)));
    int64_t failed = 0;
    for (auto& f : futs) {
      try {
        f.get();
      } catch (const std::exception&) {
        ++failed;
      }
    }
    const double t_drill = seconds_since(t0);
    const runtime::ServerStats st = server.stats();
    std::printf("  [drill]  %lld requests across a 1-of-2 worker remap drill "
                "in %.2fs: %lld failed futures, %d drilled / %d active "
                "workers, p99 %.0fus\n",
                static_cast<long long>(2 * phase), t_drill,
                static_cast<long long>(failed), st.drilled_workers,
                st.active_workers, st.p99_latency_us);
    json.set("drill_requests", 2 * phase);
    json.set("drill_failed_futures", failed);
    json.set("drill_drilled_workers", static_cast<int64_t>(st.drilled_workers));
    json.set("drill_active_workers", static_cast<int64_t>(st.active_workers));
    json.set("drill_p99_us", st.p99_latency_us);
    if (failed != 0 || st.drilled_workers != 1 || st.active_workers != 2) {
      std::printf("FAIL: drill contract violated (failed %lld, drilled %d, "
                  "active %d)\n",
                  static_cast<long long>(failed), st.drilled_workers,
                  st.active_workers);
      return 1;
    }
  }

  json.set("wall_s", t_program + t_seq + t_runtime);
  json.write();

  if (!identical) {
    std::printf("FAIL: runtime MC result diverged from the seed path\n");
    return 1;
  }
  std::printf("done.\n");
  return 0;
}
