// The experiment benches' trained-model cache (bench/common.h): a cached
// file may only be loaded by a run that would train the same weights, so
// its name must change with every input to training.
#include "common.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cn::bench {
namespace {

std::string base_file(const Workload& w, const core::TrainConfig& cfg) {
  return cache_file(w, "base", train_key(w, cfg, kBaseInitSeed));
}

TEST(BenchCache, TheSameRunMapsToTheSameFile) {
  const Workload w = wl_lenet_digits();
  const std::string f = base_file(w, base_train_config(w));
  EXPECT_EQ(f, base_file(w, base_train_config(w)));
  EXPECT_EQ(f.rfind("LeNet5-Digits_base_", 0), 0u) << f;
  EXPECT_EQ(f.substr(f.size() - 4), ".wts");
}

TEST(BenchCache, ChangingTheEpochsChangesTheFile) {
  // A 1-epoch run (CORRECTNET_EPOCHS=1) must not hand its weights to a
  // full-size run, nor the other way round.
  for (const Workload& w : all_workloads()) {
    const core::TrainConfig full = base_train_config(w);
    core::TrainConfig one = full;
    one.epochs = 1;
    EXPECT_NE(base_file(w, full), base_file(w, one)) << w.name;
  }
}

TEST(BenchCache, EveryTrainingInputChangesTheFile) {
  const Workload w = wl_lenet_obj10();
  const core::TrainConfig cfg = lipschitz_train_config(w);
  const std::string f = base_file(w, cfg);
  auto differs = [&](const core::TrainConfig& c, const char* what) {
    EXPECT_NE(base_file(w, c), f) << what;
  };
  core::TrainConfig c = cfg;
  c.lr *= 2;
  differs(c, "lr");
  c = cfg;
  c.batch_size = 64;
  differs(c, "batch size");
  c = cfg;
  c.seed += 1;
  differs(c, "train seed");
  c = cfg;
  c.lipschitz.beta *= 2;
  differs(c, "Lipschitz beta");
  c = cfg;
  c.lipschitz_warmup_epochs += 1;
  differs(c, "warmup");
  c = cfg;
  c.variation.sigma = 0.3f;
  differs(c, "variation");

  EXPECT_NE(cache_file(w, "base", train_key(w, cfg, kBaseInitSeed + 1)), f)
      << "init seed";
  Workload smaller = w;
  smaller.test_count = 1;  // below any CORRECTNET_TEST cap
  EXPECT_NE(cache_file(smaller, "base", train_key(smaller, cfg, kBaseInitSeed)), f)
      << "dataset size";
  EXPECT_NE(cache_file(w, "lip", train_key(w, cfg, kBaseInitSeed)), f) << "stage";
}

TEST(BenchCache, TheTrainCapReachesEveryWorkload) {
  // Uncapped, each workload trains on its own size, so the default cache
  // names stay what they were; a CORRECTNET_TRAIN-style cap of 1024 shrinks
  // all four training sets, the objects ones included, and renames the file.
  const core::RuntimeConfig uncapped{};
  core::RuntimeConfig capped{};
  capped.train_cap = 1024;
  const std::vector<Workload> ws = all_workloads();
  const int64_t full[] = {8000, 4000, 4000, 2500};
  ASSERT_EQ(ws.size(), 4u);
  for (size_t i = 0; i < ws.size(); ++i) {
    const Workload& w = ws[i];
    auto train_count = [&](const core::RuntimeConfig& rc) {
      return w.digits ? digits_spec(w, rc).train_count
                      : objects_spec(w, rc).train_count;
    };
    auto file = [&](const core::RuntimeConfig& rc) {
      return cache_file(w, "base",
                        train_key(w, base_train_config(w), kBaseInitSeed, rc));
    };
    EXPECT_EQ(train_count(uncapped), full[i]) << w.name;
    EXPECT_EQ(train_count(capped), 1024) << w.name;
    core::RuntimeConfig unbitten{};
    unbitten.train_cap = full[i];  // a cap that does not bite keeps the name
    EXPECT_EQ(file(unbitten), file(uncapped)) << w.name;
    EXPECT_NE(file(capped), file(uncapped)) << w.name;
  }
}

}  // namespace
}  // namespace cn::bench
