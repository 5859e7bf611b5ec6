// Timing gates: a speed ratio and a latency bound, which only mean something
// in an optimised build with the machine to itself. Labelled `perf`, not
// `tier1`, and RUN_SERIAL (tests/CMakeLists.txt): run them with
// `ctest -L '^perf$'` on a Release build, never next to other jobs.
// Untrained weights are enough, since neither gate depends on accuracy.
//
//   - conv fusion: on a conv→relu→pool stack where the relu and post-pool
//     rewrites engage, the fused plan is at least 1.15x faster than the
//     no-pass plan;
//   - 2x sustained overload: a bounded-queue server offered twice its
//     measured open-loop capacity for at least 0.5 s rejects some requests,
//     never queues past its limit, and keeps the admitted p99 within three
//     queue budgets.
//
// The deterministic halves of these contracts (bitwise fusion parity, typed
// rejections at the queue limit) are tier-1: test_fusion and Admission.* in
// test_runtime.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/batcher.h"
#include "data/synthetic.h"
#include "models/lenet.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/fusion.h"
#include "nn/pooling.h"
#include "runtime/chip_farm.h"
#include "runtime/inference_server.h"

namespace cn {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const data::Dataset& test_images() {
  static const data::SplitDataset ds = [] {
    data::DigitsSpec spec;
    spec.train_count = 10;  // unused: nothing trains
    spec.test_count = 120;
    return data::make_digits(spec);
  }();
  return ds.test;
}

// Two conv→relu→pool blocks and a dense head: the relu epilogues and the
// post-pool rewrites fold each block into one kernel, and the flatten
// becomes an in-place reshape.
nn::Sequential conv_stack() {
  Rng rng(4242);
  nn::Sequential m("convstack");
  auto& c1 = m.emplace<nn::Conv2D>(1, 3, 3, 1, 1, 28, 28, "c1");
  rng.fill_normal(c1.weight().value, 0.0f, 0.3f);
  rng.fill_normal(c1.bias().value, 0.0f, 0.1f);
  m.emplace<nn::ReLU>("r1");
  m.emplace<nn::MaxPool2D>(2, "p1");
  auto& c2 = m.emplace<nn::Conv2D>(3, 6, 3, 1, 1, 14, 14, "c2");
  rng.fill_normal(c2.weight().value, 0.0f, 0.3f);
  rng.fill_normal(c2.bias().value, 0.0f, 0.1f);
  m.emplace<nn::ReLU>("r2");
  m.emplace<nn::AvgPool2D>(2, "p2");
  m.emplace<nn::Flatten>();
  auto& fc = m.emplace<nn::Dense>(6 * 7 * 7, 10, "fc");
  rng.fill_normal(fc.weight().value, 0.0f, 0.2f);
  rng.fill_normal(fc.bias().value, 0.0f, 0.1f);
  return m;
}

TEST(PerfGates, ConvFusionBeatsTheNoPassPlanBy115x) {
  std::vector<Tensor> batches;
  data::Batcher batcher(test_images(), 128);
  for (int64_t b = 0; b < batcher.num_batches(); ++b)
    batches.push_back(batcher.get(b).images);
  nn::Sequential m = conv_stack();
  nn::FusedPlan unfused(m, /*fuse=*/false);
  nn::FusedPlan fused(m);
  EXPECT_EQ(fused.stats().relu_fused, 2);
  EXPECT_EQ(fused.stats().post_pools_fused, 2);

  // Min of interleaved multi-pass samples, so clock drift and a noisy
  // neighbour hit both plans alike.
  constexpr int kReps = 5, kInner = 6;
  auto pass = [&](nn::FusedPlan& plan) {
    for (const Tensor& x : batches) (void)plan.execute(x);
  };
  pass(unfused);  // warm-up
  pass(fused);
  double t_unfused = 1e100, t_fused = 1e100;
  for (int r = 0; r < kReps; ++r) {
    for (nn::FusedPlan* plan : {&unfused, &fused}) {
      const auto t0 = Clock::now();
      for (int k = 0; k < kInner; ++k) pass(*plan);
      double& best = plan == &fused ? t_fused : t_unfused;
      best = std::min(best, seconds_since(t0) / kInner);
    }
  }
  const double speedup = t_unfused / t_fused;
  std::printf("[fusion] conv stack unfused %.4fs  fused %.4fs  speedup %.2fx\n",
              t_unfused, t_fused, speedup);
  EXPECT_GE(speedup, 1.15) << "fusion speedup below the 1.15x floor";
}

TEST(PerfGates, TwoTimesOverloadKeepsTheAdmittedP99WithinThreeBudgets) {
  const data::Dataset& test = test_images();
  Rng rng(2023);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  const analog::VariationModel none{analog::VariationKind::kNone, 0.0f};
  runtime::ChipFarmOptions fo;
  fo.instances = 2;
  fo.max_live = 2;

  // Open-loop capacity: one client submits back to back.
  double capacity_rps = 0.0;
  {
    runtime::ChipFarm farm(model, none, fo);
    runtime::InferenceServerOptions so;
    so.max_batch = 32;
    so.max_wait_us = 1000;
    so.workers = 2;
    runtime::InferenceServer server(farm, so);
    constexpr int64_t kRequests = 400;
    std::vector<std::future<Tensor>> futs;
    for (int64_t i = 0; i < kRequests; ++i)
      futs.push_back(server.submit(test.image(i % test.size())));
    for (auto& f : futs) f.get();
    capacity_rps = server.stats().throughput_rps();
  }
  ASSERT_GT(capacity_rps, 0.0);

  // A paced client offers twice that for at least kSeconds. Without
  // admission control the queue, and the tail with it, grows for as long as
  // the overload lasts; the bounded queue sheds the excess instead. The
  // budget admits about 48 requests' worth of queue wait, so the thresholds
  // scale with the machine.
  constexpr double kSeconds = 0.5;
  runtime::ChipFarm farm(model, none, fo);
  runtime::InferenceServerOptions so;
  so.max_batch = 16;
  so.max_wait_us = 500;
  so.workers = 2;
  so.queue_limit = 64;
  const double svc_us = 1e6 / capacity_rps;
  const int64_t budget_us =
      std::max<int64_t>(10000, static_cast<int64_t>(48.0 * svc_us));
  so.queue_budget_us = budget_us;
  runtime::InferenceServer server(farm, so);
  const double offered_rps = 2.0 * capacity_rps;
  const auto requests = static_cast<int64_t>(std::ceil(offered_rps * kSeconds));
  const auto interval = std::chrono::duration<double>(1.0 / offered_rps);
  std::vector<std::future<Tensor>> futs;
  futs.reserve(static_cast<size_t>(requests));
  const auto t0 = Clock::now();
  for (int64_t i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(interval * i));
    futs.push_back(server.submit(test.image(i % test.size())));
  }
  const double t_offer = seconds_since(t0);
  int64_t accepted = 0, rejected = 0;
  for (auto& f : futs) {
    try {
      f.get();
      ++accepted;
    } catch (const runtime::Overloaded&) {
      ++rejected;
    }
  }
  const runtime::ServerStats st = server.stats();
  // The budget bounds the admission-time wait estimate; an admitted request
  // also rides out its own batch, and the histogram's power-of-two buckets
  // round p99 up. 3x absorbs both and still catches an unbounded queue.
  const double p99_target_us = 3.0 * static_cast<double>(budget_us);
  std::printf("[overload] capacity %.0f req/s; offered %lld at %.0f req/s over "
              "%.2fs: %lld accepted, %lld rejected, max queue %lld/%lld, "
              "p99 %.0fus (target %.0fus)\n",
              capacity_rps, static_cast<long long>(requests), offered_rps,
              t_offer, static_cast<long long>(accepted),
              static_cast<long long>(rejected),
              static_cast<long long>(st.max_queue_depth),
              static_cast<long long>(so.queue_limit), st.p99_latency_us,
              p99_target_us);
  EXPECT_GT(rejected, 0) << "2x overload produced no admission rejections";
  EXPECT_LE(st.max_queue_depth, so.queue_limit);
  EXPECT_LE(st.p99_latency_us, p99_target_us)
      << "admitted p99 exceeded the budget target";
}

}  // namespace
}  // namespace cn
