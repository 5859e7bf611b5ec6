// The batched/parallel inference runtime: ChipFarm determinism, McEngine
// thread-count invariance, batched crossbar execution equivalence, the
// per-clone read-noise streams, the indexed scenario scheduler, and the
// micro-batching InferenceServer.
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analog/crossbar_layers.h"
#include "core/trainer.h"
#include "exec_testutil.h"
#include "data/batcher.h"
#include "data/synthetic.h"
#include "faultsim/fault_models.h"
#include "models/lenet.h"
#include "runtime/chip_farm.h"
#include "runtime/inference_server.h"
#include "runtime/mc_engine.h"
#include "runtime/model_router.h"
#include "runtime/scheduler.h"
#include "tensor/ops.h"
#include "tensor/threadpool.h"

namespace cn::runtime {
namespace {

analog::RramDeviceParams quiet_dev() {
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  return dev;
}

// Shared tiny trained model + dataset.
struct Fixture {
  data::SplitDataset ds;
  nn::Sequential model{"m"};

  Fixture() {
    data::DigitsSpec spec;
    spec.train_count = 500;
    spec.test_count = 150;
    ds = data::make_digits(spec);
    Rng rng(1);
    model = models::lenet5(1, 28, 10, rng);
    core::TrainConfig cfg;
    cfg.epochs = 2;
    core::train(model, ds.train, ds.test, cfg);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// ---------- indexed scenario scheduler ----------

TEST(Scheduler, EffectiveConcurrencyResolvesAutoAndClamps) {
  const int64_t width = static_cast<int64_t>(ThreadPool::global().size());
  EXPECT_EQ(effective_concurrency(0, 100), std::min<int64_t>(width, 100));
  EXPECT_EQ(effective_concurrency(-3, 100), std::min<int64_t>(width, 100));
  EXPECT_EQ(effective_concurrency(8, 3), 3);   // never more workers than jobs
  EXPECT_EQ(effective_concurrency(1, 100), 1);
  EXPECT_EQ(effective_concurrency(4, 0), 1);   // degenerate ranges stay sane
}

TEST(Scheduler, CoversEveryIndexExactlyOnce) {
  constexpr int64_t kJobs = 200;
  std::vector<std::atomic<int>> hits(kJobs);
  parallel_indexed(kJobs, 4, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ConcurrencyOneRunsInIndexOrderOnCaller) {
  const std::thread::id me = std::this_thread::get_id();
  std::vector<int64_t> order;
  parallel_indexed(10, 1, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), me);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ProvisionsWorkersBeyondTheSharedPool) {
  // Requesting more concurrency than the shared pool is wide must still put
  // that many jobs in flight at once (a dedicated pool is spun up): with 4
  // workers and 4 jobs that block on a shared barrier, the barrier only
  // clears if all 4 genuinely run concurrently.
  const int64_t conc =
      static_cast<int64_t>(ThreadPool::global().size()) + 3;
  std::atomic<int64_t> arrived{0};
  parallel_indexed(conc, conc, [&](int64_t) {
    arrived.fetch_add(1);
    // Barrier: every job waits until all have started.
    while (arrived.load() < conc) std::this_thread::yield();
  });
  EXPECT_EQ(arrived.load(), conc);
}

TEST(Scheduler, PropagatesTheFirstJobException) {
  // A throwing job must surface on the calling thread (not terminate a
  // worker), and the scheduler must stay fully usable afterwards. How many
  // queued jobs run before the failure is seen is timing-dependent, so only
  // propagation and recovery are asserted.
  EXPECT_THROW(parallel_indexed(16, 4,
                                [&](int64_t i) {
                                  if (i == 3) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  std::atomic<int64_t> ran{0};
  parallel_indexed(16, 4, [&](int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(Scheduler, NestedCallInsideAPoolWorkerRunsSequentially) {
  // A scheduler job that itself schedules must degrade to a serial loop
  // (its thread already lives inside a parallel region) instead of
  // deadlocking or spawning useless pools.
  std::atomic<int64_t> total{0};
  parallel_indexed(4, 4, [&](int64_t) {
    parallel_indexed(8, 4, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

// ---------- batched crossbar execution ----------

TEST(CrossbarMatmul, MatchesMatvecExactlyUnderQuantization) {
  // Stress every deterministic device feature: programming variation,
  // conductance levels, DAC and ADC quantization, multiple tiles.
  analog::RramDeviceParams dev = quiet_dev();
  dev.program_sigma = 0.2f;
  dev.conductance_levels = 16;
  dev.readout.adc_bits = 8;
  dev.readout.dac_bits = 6;
  Rng rng(11);
  Tensor w({9, 20});  // (out, in): 20 inputs, 9 outputs
  rng.fill_normal(w, 0.0f, 0.5f);
  Rng prog(12);
  analog::CrossbarArray xbar(w, dev, prog, /*tile=*/7);  // force tiling both ways
  Tensor x({5, 20});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y_batch = xbar.matmul(x);
  ASSERT_EQ(y_batch.dim(0), 5);
  ASSERT_EQ(y_batch.dim(1), 9);
  Tensor x_cm({20, 5});  // column-major variant (conv im2col layout)
  for (int64_t n = 0; n < 5; ++n)
    for (int64_t k = 0; k < 20; ++k) x_cm[k * 5 + n] = x[n * 20 + k];
  Tensor y_cols = xbar.matmul_cols(x_cm);
  ASSERT_EQ(y_cols.shape(), y_batch.shape());
  Tensor xi({20});
  for (int64_t n = 0; n < 5; ++n) {
    std::copy(x.data() + n * 20, x.data() + (n + 1) * 20, xi.data());
    Tensor yi = xbar.matvec(xi);
    for (int64_t o = 0; o < 9; ++o) {
      EXPECT_EQ(y_batch[n * 9 + o], yi[o]) << "row " << n << " col " << o;
      EXPECT_EQ(y_cols[n * 9 + o], yi[o]) << "row " << n << " col " << o;
    }
  }
}

TEST(CrossbarLayers, BatchedForwardMatchesPerColumnPath) {
  // A chip's batched forward == testutil::per_column_forward, one matvec per
  // input vector. The second device has tile 16, so LeNet's conv2 and its
  // dense layers span several tiles, and with its DAC on the convs run
  // matmul_cols's DAC branch.
  auto& f = fixture();
  analog::RramDeviceParams plain = quiet_dev();
  plain.program_sigma = 0.3f;
  analog::RramDeviceParams periphery = plain;
  periphery.readout.dac_bits = 6;
  periphery.readout.adc_bits = 8;
  periphery.conductance_levels = 16;
  const std::pair<analog::RramDeviceParams, int64_t> devices[] = {{plain, 128},
                                                                  {periphery, 16}};
  Tensor x({4, 1, 28, 28});
  std::copy(f.ds.test.images.data(), f.ds.test.images.data() + x.size(), x.data());
  for (const auto& [dev, tile] : devices) {
    SCOPED_TRACE("tile " + std::to_string(tile));
    Rng prog(21);
    nn::Sequential chip = analog::program_to_crossbars(f.model, dev, prog, tile);
    Tensor y_batched = chip.forward(x, false);
    Tensor y_columns = testutil::per_column_forward(chip, f.model, x);
    ASSERT_EQ(y_batched.shape(), y_columns.shape());
    for (int64_t i = 0; i < y_batched.size(); ++i)
      EXPECT_EQ(y_batched[i], y_columns[i]) << "logit " << i;
  }
}

// ---------- ChipFarm ----------

TEST(ChipFarm, ChipSeedsAreDeterministicAndDistinct) {
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.3f};
  ChipFarmOptions fo;
  fo.instances = 4;
  fo.seed = 7;
  ChipFarm a(f.model, vm, fo);
  ChipFarm b(f.model, vm, fo);
  for (int64_t s = 0; s < 4; ++s) EXPECT_EQ(a.chip_seed(s), b.chip_seed(s));
  EXPECT_NE(a.chip_seed(0), a.chip_seed(1));
  EXPECT_NE(a.chip_seed(1), a.chip_seed(2));
}

TEST(ChipFarm, SlotReuseReproducesSameChip) {
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.4f};
  ChipFarmOptions fo;
  fo.instances = 3;
  fo.max_live = 1;  // all chips share one physical slot
  ChipFarm farm(f.model, vm, fo);
  Tensor x({2, 1, 28, 28});
  std::copy(f.ds.test.images.data(), f.ds.test.images.data() + x.size(), x.data());
  Tensor y0_first = farm.chip(0).forward(x, false);
  Tensor y1 = farm.chip(1).forward(x, false);      // evicts chip 0
  Tensor y0_again = farm.chip(0).forward(x, false);  // re-materialized
  for (int64_t i = 0; i < y0_first.size(); ++i)
    EXPECT_EQ(y0_first[i], y0_again[i]);
  // And the chips genuinely differ from each other.
  double diff = 0.0;
  for (int64_t i = 0; i < y1.size(); ++i)
    diff += std::abs(static_cast<double>(y1[i]) - y0_first[i]);
  EXPECT_GT(diff, 0.0);
}

// ---------- McEngine determinism ----------

TEST(McEngine, SamplesIdenticalAcrossThreadAndSlotCounts) {
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.4f};

  auto run = [&](int64_t max_live, int threads) {
    ChipFarmOptions fo;
    fo.instances = 6;
    fo.seed = 99;
    fo.max_live = max_live;
    ChipFarm farm(f.model, vm, fo);
    McEngineOptions eo;
    eo.batch_size = 64;
    eo.threads = threads;
    return McEngine(farm, eo).accuracy(f.ds.test);
  };

  const core::McResult serial = run(1, 1);
  const core::McResult pooled = run(3, 0);
  const core::McResult wide = run(6, 0);
  ASSERT_EQ(serial.samples.size(), 6u);
  ASSERT_EQ(pooled.samples.size(), 6u);
  ASSERT_EQ(wide.samples.size(), 6u);
  for (size_t s = 0; s < 6; ++s) {
    EXPECT_DOUBLE_EQ(serial.samples[s], pooled.samples[s]) << "sample " << s;
    EXPECT_DOUBLE_EQ(serial.samples[s], wide.samples[s]) << "sample " << s;
  }
  EXPECT_DOUBLE_EQ(serial.mean, wide.mean);
  EXPECT_DOUBLE_EQ(serial.stddev, wide.stddev);
}

TEST(McEngine, CrossbarSamplesEqualTheSeedPathBitForBit) {
  // Runtime == seed path: with read noise off, McEngine's batched,
  // sample-parallel accuracies over programmed crossbar chips equal a
  // sequential per-chip core::evaluate loop over per-column matvec logits
  // (testutil::per_column_forward): same Batcher, batch 128, argmax_row.
  // Each chip's own eval forward must equal those logits bit for bit too,
  // so a wrong logit that keeps the argmax still fails.
  auto& f = fixture();
  analog::RramDeviceParams dev = quiet_dev();
  dev.program_sigma = 0.3f;
  constexpr int64_t kChips = 4;
  ChipFarmOptions fo;
  fo.instances = kChips;
  fo.max_live = kChips;  // every chip stays resident across both paths
  fo.seed = 42;
  ChipFarm farm(f.model, dev, fo);
  std::vector<double> seed_path;
  for (int64_t s = 0; s < kChips; ++s) {
    nn::Sequential& chip = farm.chip(s);
    data::Batcher batcher(f.ds.test, 128);
    int64_t correct = 0;
    for (int64_t b = 0; b < batcher.num_batches(); ++b) {
      const data::Batch batch = batcher.get(b);
      const Tensor logits = testutil::per_column_forward(chip, f.model, batch.images);
      testutil::expect_bitwise_equal(chip.forward(batch.images, false), logits,
                                     "chip " + std::to_string(s) + " batch " +
                                         std::to_string(b));
      for (int64_t i = 0; i < batch.size(); ++i)
        if (argmax_row(logits, i) == batch.labels[static_cast<size_t>(i)]) ++correct;
    }
    seed_path.push_back(static_cast<float>(correct) /
                        static_cast<float>(f.ds.test.size()));
  }
  McEngineOptions eo;
  eo.batch_size = 128;
  const core::McResult rt = McEngine(farm, eo).accuracy(f.ds.test);
  ASSERT_EQ(rt.samples.size(), seed_path.size());
  for (size_t s = 0; s < seed_path.size(); ++s)
    EXPECT_EQ(rt.samples[s], seed_path[s]) << "chip " << s;
}

TEST(McEngine, CrossbarReadNoiseIdenticalAcrossSlotCountsAndRuns) {
  // Regression: a persistent slot must not remember read-noise draws a
  // previous evaluation consumed — chip handouts re-arm the streams, so
  // results cannot depend on max_live or on how often the farm was used.
  auto& f = fixture();
  analog::RramDeviceParams dev = quiet_dev();
  dev.program_sigma = 0.2f;
  dev.readout.read_sigma = 0.05f;
  auto run = [&](int64_t max_live) {
    ChipFarmOptions fo;
    fo.instances = 3;
    fo.seed = 5;
    fo.max_live = max_live;
    ChipFarm farm(f.model, dev, fo);
    McEngineOptions eo;
    eo.batch_size = 64;
    McEngine engine(farm, eo);
    const core::McResult first = engine.accuracy(f.ds.test);
    const core::McResult second = engine.accuracy(f.ds.test);
    for (size_t s = 0; s < first.samples.size(); ++s)
      EXPECT_DOUBLE_EQ(first.samples[s], second.samples[s])
          << "repeat run, max_live " << max_live << " sample " << s;
    return first;
  };
  const core::McResult one = run(1);
  const core::McResult all = run(3);
  ASSERT_EQ(one.samples.size(), 3u);
  for (size_t s = 0; s < 3; ++s)
    EXPECT_DOUBLE_EQ(one.samples[s], all.samples[s]) << "sample " << s;
}

TEST(MonteCarlo, ZeroSampleBudgetIsANoop) {
  // CORRECTNET_MC=0 feeds samples == 0 straight through; the seed loop
  // returned empty stats instead of throwing.
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.3f};
  core::McOptions opts;
  opts.samples = 0;
  const core::McResult r = core::mc_accuracy(f.model, f.ds.test, vm, opts);
  EXPECT_TRUE(r.samples.empty());
  EXPECT_EQ(r.mean, 0.0);
  const auto sweep = core::sensitivity_sweep(f.model, f.ds.test, vm, opts);
  EXPECT_EQ(sweep.size(), 5u);  // LeNet-5: 5 analog sites, zero stats
  for (const auto& p : sweep) EXPECT_EQ(p.mean, 0.0);
}

TEST(McEngine, SensitivitySweepMatchesCoreApi) {
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.5f};
  core::McOptions opts;
  opts.samples = 3;
  opts.seed = 17;
  const auto via_core = core::sensitivity_sweep(f.model, f.ds.test, vm, opts);

  nn::Sequential probe = f.model.clone_model();
  const int64_t sites = static_cast<int64_t>(probe.analog_sites().size());
  ChipFarmOptions fo;
  fo.instances = opts.samples;
  fo.seed = opts.seed;
  ChipFarm farm(f.model, vm, fo);
  McEngineOptions eo;
  eo.batch_size = opts.batch_size;
  const auto via_engine =
      McEngine(farm, eo).sensitivity_sweep(f.ds.test, sites, opts.seed);

  ASSERT_EQ(via_core.size(), via_engine.size());
  for (size_t i = 0; i < via_core.size(); ++i) {
    EXPECT_EQ(via_core[i].first_site, via_engine[i].first_site);
    EXPECT_DOUBLE_EQ(via_core[i].mean, via_engine[i].mean);
    EXPECT_DOUBLE_EQ(via_core[i].stddev, via_engine[i].stddev);
  }
}

// ---------- read-noise streams across concurrent clones ----------

TEST(ReadNoise, OwnedStreamsAreDeterministicUnderConcurrency) {
  auto& f = fixture();
  analog::RramDeviceParams dev = quiet_dev();
  dev.readout.read_sigma = 0.05f;
  Rng prog(31);
  nn::Sequential chip = analog::program_to_crossbars(f.model, dev, prog);
  analog::set_read_seeds(chip, 555);

  Tensor x({2, 1, 28, 28});
  std::copy(f.ds.test.images.data(), f.ds.test.images.data() + x.size(), x.data());

  // Reference: one clone, K sequential forwards (each draws fresh noise, so
  // consecutive outputs differ but the whole sequence is seed-determined).
  constexpr int kForwards = 4;
  std::vector<Tensor> expected;
  {
    auto ref = chip.clone();  // clones copy the owned rng state
    for (int i = 0; i < kForwards; ++i) expected.push_back(ref->forward(x, false));
  }
  double drift = 0.0;
  for (int64_t i = 0; i < expected[0].size(); ++i)
    drift += std::abs(static_cast<double>(expected[0][i]) - expected[1][i]);
  EXPECT_GT(drift, 0.0) << "read noise should vary between reads";

  // Concurrent clones: every clone starts from the same copied stream state,
  // so each thread must reproduce the reference sequence exactly. With the
  // old shared-Rng* wiring the interleaved draws made this nondeterministic
  // (and racy).
  constexpr int kThreads = 4;
  std::vector<std::vector<Tensor>> got(kThreads);
  {
    std::vector<std::unique_ptr<nn::Layer>> clones;
    for (int t = 0; t < kThreads; ++t) clones.push_back(chip.clone());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (int i = 0; i < kForwards; ++i)
          got[static_cast<size_t>(t)].push_back(clones[static_cast<size_t>(t)]->forward(x, false));
      });
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kForwards; ++i)
      for (int64_t j = 0; j < expected[static_cast<size_t>(i)].size(); ++j)
        ASSERT_EQ(got[static_cast<size_t>(t)][static_cast<size_t>(i)][j],
                  expected[static_cast<size_t>(i)][j])
            << "thread " << t << " forward " << i << " elem " << j;
}

// ---------- InferenceServer ----------

TEST(InferenceServer, OutputsMatchDirectForwardAndStatsAddUp) {
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kNone, 0.0f};
  ChipFarmOptions fo;
  fo.instances = 1;
  fo.max_live = 1;
  ChipFarm farm(f.model, vm, fo);

  InferenceServerOptions so;
  so.max_batch = 4;
  so.max_wait_us = 500;
  so.workers = 1;
  constexpr int kRequests = 10;
  std::vector<std::future<Tensor>> futs;
  {
    InferenceServer server(farm, so);
    for (int i = 0; i < kRequests; ++i)
      futs.push_back(server.submit(f.ds.test.image(i)));
    for (auto& fut : futs) fut.wait();
    const ServerStats st = server.stats();
    EXPECT_EQ(st.requests, static_cast<uint64_t>(kRequests));
    EXPECT_GE(st.batches, 1u);
    EXPECT_LE(st.batches, static_cast<uint64_t>(kRequests));
    EXPECT_GT(st.avg_batch(), 0.0);
    EXPECT_GE(st.avg_latency_us(), 0.0);
    server.shutdown();
    EXPECT_THROW(server.submit(f.ds.test.image(0)), std::logic_error);
  }
  // sigma = 0 farm chip == clean model; single-sample forwards are the
  // ground truth (row results are batch-composition independent).
  for (int i = 0; i < kRequests; ++i) {
    Tensor img = f.ds.test.image(i);
    Shape batched_shape = img.shape();
    batched_shape.insert(batched_shape.begin(), 1);
    Tensor ref = f.model.forward(img.reshaped(batched_shape), false);
    Tensor got = futs[static_cast<size_t>(i)].get();
    ASSERT_EQ(got.size(), ref.size());
    for (int64_t j = 0; j < ref.size(); ++j)
      EXPECT_FLOAT_EQ(got[j], ref[j]) << "request " << i << " logit " << j;
  }
}

TEST(InferenceServer, CoalescesConcurrentClientsIntoBatches) {
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kNone, 0.0f};
  ChipFarmOptions fo;
  fo.instances = 2;
  fo.max_live = 2;
  ChipFarm farm(f.model, vm, fo);
  InferenceServerOptions so;
  so.max_batch = 8;
  so.max_wait_us = 20000;  // generous window so requests pile up
  so.workers = 2;
  InferenceServer server(farm, so);

  constexpr int kClients = 4, kPerClient = 8;
  std::vector<std::thread> clients;
  std::mutex futs_mu;
  std::vector<std::future<Tensor>> futs;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        auto fut = server.submit(f.ds.test.image((c * kPerClient + i) % f.ds.test.size()));
        std::lock_guard<std::mutex> lk(futs_mu);
        futs.push_back(std::move(fut));
      }
    });
  for (auto& c : clients) c.join();
  for (auto& fut : futs) fut.get();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.requests, static_cast<uint64_t>(kClients * kPerClient));
  // Micro-batching must actually coalesce: strictly fewer batches than
  // requests (with a 20ms window, most land in full batches).
  EXPECT_LT(st.batches, st.requests);
  EXPECT_GT(st.avg_batch(), 1.0);
  EXPECT_GT(st.throughput_rps(), 0.0);
}

// ---------- admission control ----------

TEST(Admission, BoundedQueueRejectsTypedOverloadedAndRecovers) {
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kNone, 0.0f};
  ChipFarmOptions fo;
  fo.instances = 1;
  fo.max_live = 1;
  ChipFarm farm(f.model, vm, fo);
  InferenceServerOptions so;
  // The worker pulls only on a full batch (32, never reached) or a 300ms-old
  // request, so 12 rapid submits hit a deterministically stalled queue.
  so.max_batch = 32;
  so.max_wait_us = 300000;
  so.workers = 1;
  so.queue_limit = 8;
  so.model = "tiny";
  InferenceServer server(farm, so);
  EXPECT_TRUE(server.accepting());

  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 12; ++i) futs.push_back(server.submit(f.ds.test.image(i)));

  // Submits 9..12 found the queue at its limit: rejected fast, future
  // already resolved with the typed error carrying the admission snapshot.
  int rejected = 0;
  for (size_t i = 8; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "rejection must resolve the future immediately";
    try {
      futs[i].get();
    } catch (const Overloaded& e) {
      ++rejected;
      EXPECT_EQ(e.model(), "tiny");
      EXPECT_EQ(e.queue_depth(), 8);
    }
  }
  EXPECT_EQ(rejected, 4);
  EXPECT_FALSE(server.accepting());
  {
    const ServerStats st = server.stats();
    EXPECT_TRUE(st.admission_configured);
    EXPECT_FALSE(st.accepting);
    EXPECT_EQ(st.rejected, 4u);
    EXPECT_EQ(st.max_queue_depth, 8);
    EXPECT_EQ(st.model, "tiny");
  }

  // Recovery: once the flush deadline fires the worker drains the queue and
  // flips admission back on; subsequent submits are admitted again.
  for (size_t i = 0; i < 8; ++i) futs[i].get();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!server.accepting() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(server.accepting());
  auto again = server.submit(f.ds.test.image(0));
  again.get();  // admitted and served
  EXPECT_EQ(server.stats().requests, 9u);
}

TEST(Admission, BurnGateRequiresSloObjective) {
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kNone, 0.0f};
  ChipFarmOptions fo;
  fo.instances = 1;
  fo.max_live = 1;
  ChipFarm farm(f.model, vm, fo);
  InferenceServerOptions so;
  so.workers = 1;
  so.admission_burn_max = 0.5;  // a control input with nothing to read
  EXPECT_THROW(InferenceServer(farm, so), std::invalid_argument);
  so.slo_p99_ms = 50;  // objective present: the gate is well-formed
  InferenceServer ok(farm, so);
  EXPECT_TRUE(ok.stats().admission_configured);
}

TEST(Admission, RejectedOrInvalidSubmitsDoNotStartTheWallClock) {
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kNone, 0.0f};
  ChipFarmOptions fo;
  fo.instances = 1;
  fo.max_live = 1;
  ChipFarm farm(f.model, vm, fo);
  InferenceServerOptions so;
  so.workers = 1;
  InferenceServer server(farm, so);
  server.shutdown();
  EXPECT_THROW(server.submit(f.ds.test.image(0)), std::logic_error);
  // Regression: the throughput clock used to be stamped before the stop /
  // shape checks, so a rejected submit skewed wall_seconds (and thus the
  // reported req/s) for the whole server lifetime.
  const ServerStats st = server.stats();
  EXPECT_EQ(st.requests, 0u);
  EXPECT_EQ(st.wall_seconds, 0.0);
}

TEST(InferenceServer, NonFiniteInputsAreRejectedBeforeTheyAreQueued) {
  // A NaN or infinite element throws naming its index; the request is never
  // queued or counted, and does not fix the server's input shape.
  auto& f = fixture();
  analog::VariationModel vm{analog::VariationKind::kNone, 0.0f};
  ChipFarmOptions fo;
  fo.instances = 1;
  fo.max_live = 1;
  ChipFarm farm(f.model, vm, fo);
  InferenceServerOptions so;
  so.workers = 1;
  InferenceServer server(farm, so);
  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  for (float bad : kBad) {
    Tensor img = f.ds.test.image(0);
    img[17] = bad;
    try {
      server.submit(img);
      ADD_FAILURE() << "accepted a non-finite input (" << bad << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("element 17"), std::string::npos)
          << e.what();
    }
  }
  // A non-finite input of another shape is refused as non-finite too.
  Tensor odd({5});
  odd[4] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(server.submit(odd), std::invalid_argument);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.requests, 0u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.wall_seconds, 0.0);
  // The first finite request still fixes the shape and is served.
  EXPECT_EQ(server.submit(f.ds.test.image(1)).get().size(), 10);
  server.shutdown();
  EXPECT_EQ(server.stats().requests, 1u);
}

// ---------- fault drills ----------

TEST(ChipFarmDrill, DrilledChipEqualsFreshFarmWithCombinedFaults) {
  auto& f = fixture();
  const analog::RramDeviceParams dev = quiet_dev();
  ChipFarmOptions fo;
  fo.instances = 2;
  fo.max_live = 2;
  fo.seed = 7;
  ChipFarm farm(f.model, dev, fo);
  Tensor x = f.ds.test.image(0);
  Shape bs = x.shape();
  bs.insert(bs.begin(), 1);
  x = x.reshaped(bs);
  const Tensor clean0 = farm.chip(0).forward(x, false);
  const Tensor clean1 = farm.chip(1).forward(x, false);

  // Drill chip 0; chip 1 must be untouched, and the drilled chip must be
  // bit-identical to a fresh farm built with the drill faults as its base
  // fault list (seed purity: a drill is indistinguishable from having
  // deployed the faulty chip from the start).
  const faultsim::FaultSpec spec = faultsim::stuck_at(0.05);
  farm.drill({0}, {spec.models.begin(), spec.models.end()});
  EXPECT_TRUE(farm.drilled(0));
  EXPECT_FALSE(farm.drilled(1));
  farm.invalidate(0);
  const Tensor drilled0 = farm.chip(0).forward(x, false);
  ChipFarm ref(f.model, dev, fo, {spec.models.front().get()});
  const Tensor ref0 = ref.chip(0).forward(x, false);
  ASSERT_EQ(drilled0.size(), ref0.size());
  for (int64_t j = 0; j < ref0.size(); ++j)
    ASSERT_EQ(drilled0[j], ref0[j]) << "logit " << j;
  for (int64_t j = 0; j < clean1.size(); ++j)
    ASSERT_EQ(farm.chip(1).forward(x, false)[j], clean1[j]) << "logit " << j;

  // clear_drill + invalidate restores the original chip exactly.
  farm.clear_drill();
  farm.invalidate(0);
  const Tensor restored0 = farm.chip(0).forward(x, false);
  for (int64_t j = 0; j < clean0.size(); ++j)
    ASSERT_EQ(restored0[j], clean0[j]) << "logit " << j;

  EXPECT_THROW(farm.drill({}, {spec.models.begin(), spec.models.end()}),
               std::invalid_argument);
  EXPECT_THROW(farm.drill({5}, {spec.models.begin(), spec.models.end()}),
               std::out_of_range);
  EXPECT_THROW(farm.drill({0}, {}), std::invalid_argument);

  // Factor-mode farms have no device substrate to inject into.
  analog::VariationModel vm{analog::VariationKind::kLognormal, 0.2f};
  ChipFarm factor_farm(f.model, vm, fo);
  EXPECT_THROW(factor_farm.drill({0}, {spec.models.begin(), spec.models.end()}),
               std::invalid_argument);
}

TEST(ServerDrill, MidTrafficDrillsNeverFailFuturesAndEvictionIsBounded) {
  auto& f = fixture();
  ChipFarmOptions fo;
  fo.instances = 2;
  fo.max_live = 2;
  fo.seed = 7;
  ChipFarm farm(f.model, quiet_dev(), fo);
  InferenceServerOptions so;
  so.max_batch = 8;
  so.max_wait_us = 500;
  so.workers = 2;
  InferenceServer server(farm, so);

  auto submit_phase = [&](int n, std::vector<std::future<Tensor>>& futs) {
    for (int i = 0; i < n; ++i)
      futs.push_back(server.submit(f.ds.test.image(i % f.ds.test.size())));
  };
  std::vector<std::future<Tensor>> futs;
  submit_phase(32, futs);

  const faultsim::FaultSpec spec = faultsim::stuck_at(0.02);
  DrillSpec evict_all;
  evict_all.action = DrillSpec::Action::kEvict;
  evict_all.workers = {0, 1};
  EXPECT_THROW(server.drill(evict_all), std::invalid_argument)
      << "a drill may never take the last active worker";
  DrillSpec no_faults;
  no_faults.action = DrillSpec::Action::kDegrade;
  no_faults.workers = {0};
  EXPECT_THROW(server.drill(no_faults), std::invalid_argument);

  DrillSpec evict0;
  evict0.action = DrillSpec::Action::kEvict;
  evict0.workers = {0};
  server.drill(evict0);  // phase-1 requests still in flight
  submit_phase(32, futs);
  for (auto& fut : futs) fut.get();  // zero failed futures, by contract
  {
    const ServerStats st = server.stats();
    EXPECT_EQ(st.requests, 64u);
    EXPECT_EQ(st.active_workers, 1);
    EXPECT_EQ(st.drills, 1u);
  }

  server.undrill();
  DrillSpec remap1;
  remap1.action = DrillSpec::Action::kRemap;
  remap1.workers = {1};
  remap1.faults = spec.models;
  futs.clear();
  submit_phase(32, futs);
  server.drill(remap1);  // phase-3 requests still in flight
  submit_phase(32, futs);
  for (auto& fut : futs) fut.get();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.requests, 128u);
  EXPECT_EQ(st.active_workers, 2);
  EXPECT_EQ(st.drilled_workers, 1);
  EXPECT_EQ(st.drills, 2u);
  server.undrill();
}

// ---------- model router ----------

TEST(ModelRouter, RoutesPerModelWithIsolatedStats) {
  auto& f = fixture();
  analog::VariationModel none{analog::VariationKind::kNone, 0.0f};
  ModelRouter router;
  ChipFarmOptions fo;
  fo.instances = 1;
  fo.max_live = 1;
  InferenceServerOptions so;
  so.max_batch = 4;
  so.max_wait_us = 500;
  so.workers = 1;
  router.add_model("alpha", f.model, none, fo, so);
  router.add_model("beta", f.model, none, fo, so);
  EXPECT_THROW(router.add_model("alpha", f.model, none, fo, so),
               std::invalid_argument);
  EXPECT_THROW(router.submit("gamma", f.ds.test.image(0)), std::out_of_range);
  EXPECT_EQ(router.server("alpha").model(), "alpha");

  // sigma = 0 lanes serve the clean model: routed outputs must match the
  // direct forward, per model.
  Tensor img = f.ds.test.image(3);
  Shape bs = img.shape();
  bs.insert(bs.begin(), 1);
  const Tensor ref = f.model.forward(img.reshaped(bs), false);
  for (const char* id : {"alpha", "beta"}) {
    Tensor got = router.submit(id, f.ds.test.image(3)).get();
    ASSERT_EQ(got.size(), ref.size());
    for (int64_t j = 0; j < ref.size(); ++j)
      EXPECT_FLOAT_EQ(got[j], ref[j]) << id << " logit " << j;
  }
  router.submit("beta", f.ds.test.image(4)).get();

  const auto ids = router.model_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "alpha");
  EXPECT_EQ(ids[1], "beta");
  auto stats = router.stats();
  EXPECT_EQ(stats.at("alpha").requests, 1u);
  EXPECT_EQ(stats.at("beta").requests, 2u);
  EXPECT_EQ(stats.at("alpha").model, "alpha");
  router.shutdown();
  router.shutdown();  // idempotent
}

TEST(ModelRouter, SharedLiveSlotBudgetClampsThenExhausts) {
  auto& f = fixture();
  analog::VariationModel none{analog::VariationKind::kNone, 0.0f};
  ModelRouterOptions ro;
  ro.max_live_total = 1;
  ModelRouter router(ro);
  ChipFarmOptions fo;
  fo.instances = 2;
  fo.max_live = 2;  // asks for 2, budget clamps to the remaining 1
  InferenceServerOptions so;
  so.workers = 2;  // clamped alongside the farm slots
  router.add_model("alpha", f.model, none, fo, so);
  EXPECT_EQ(router.live_slots_used(), 1);
  EXPECT_THROW(router.add_model("beta", f.model, none, fo, so),
               std::invalid_argument);
  // The failed add must not leak a half-registered lane or budget charge.
  EXPECT_EQ(router.live_slots_used(), 1);
  ASSERT_EQ(router.model_ids().size(), 1u);
  router.submit("alpha", f.ds.test.image(0)).get();
  EXPECT_EQ(router.stats().at("alpha").requests, 1u);
}

}  // namespace
}  // namespace cn::runtime
