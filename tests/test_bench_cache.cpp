// The experiment benches' trained-model cache (bench/common.h): a cached
// file may only be loaded by a run that would train the same weights, so
// its name must change with every input to training.
#include "common.h"

#include <filesystem>
#include <stdexcept>
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


TEST(BenchCache, ThePaperRecipesKeepTheirFileNames) {
  // Recorded from the hand-written workloads that core::recipe replaced:
  // a change to a recipe, to the fixed-ratio plan (the corr names hash it)
  // or to the key retrains every cached model. The plan reads only the
  // layer structure, so an untrained model stands in for the Lipschitz one.
  const core::RuntimeConfig rc{};
  const std::pair<const char*, const char*> pairs[] = {{"vgg", "objects100"},
                                                       {"vgg", "objects10"},
                                                       {"lenet", "objects10"},
                                                       {"lenet", "digits"}};
  const char* const expected[][3] = {
      {"VGG16-Objects100_base_25afdec45b778f2c.wts",
       "VGG16-Objects100_lip_f4ee9eb5c607ca1a.wts",
       "VGG16-Objects100_corr_1b3c44340c812148.wts"},
      {"VGG16-Objects10_base_49ad37d0ca357418.wts",
       "VGG16-Objects10_lip_b1bd7925540941f4.wts",
       "VGG16-Objects10_corr_2931f766695b21d0.wts"},
      {"LeNet5-Objects10_base_a023997b784d9405.wts",
       "LeNet5-Objects10_lip_7cee423dab96a6c7.wts",
       "LeNet5-Objects10_corr_b225f35c6a81c1b2.wts"},
      {"LeNet5-Digits_base_1974ee4c1179f69f.wts",
       "LeNet5-Digits_lip_e9059b9e2996698d.wts",
       "LeNet5-Digits_corr_a472db1e4cb36d20.wts"},
  };
  for (size_t i = 0; i < std::size(pairs); ++i) {
    const Workload w = scaled(core::recipe(pairs[i].first, pairs[i].second), rc);
    Rng rng(kLipInitSeed);
    const nn::Sequential lip = core::make_model(w, rng);
    const core::CompensationPlan plan =
        core::fixed_ratio_plan(lip, w.fixed_ratio, w.max_comp_layers);
    EXPECT_EQ(stage_file(w, Stage::kBase, {}, rc), expected[i][0]);
    EXPECT_EQ(stage_file(w, Stage::kLip, {}, rc), expected[i][1]);
    EXPECT_EQ(stage_file(w, Stage::kCorr, plan, rc), expected[i][2]);
  }
}

TEST(BenchCache, ADamagedFileIsRetrainedAndOverwritten) {
  // A truncated cache file used to abort the paper driver inside
  // load_weights; now it counts as a miss.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "bench_cache_damaged";
  fs::remove_all(dir);
  fs::create_directories(dir);
  struct InDir {
    fs::path old = fs::current_path();
    explicit InDir(const fs::path& d) { fs::current_path(d); }
    ~InDir() { fs::current_path(old); }
  } in_dir(dir);

  Workload w = wl_lenet_digits();
  w.epochs = 1;
  w.train_count = 64;
  w.test_count = 64;
  const data::SplitDataset ds = core::make_dataset(w);
  trained_model(w, ds, Stage::kBase);
  const std::string path = cache_dir() + "/" + stage_file(w, Stage::kBase);
  ASSERT_TRUE(fs::exists(path));
  fs::resize_file(path, 100);

  testing::internal::CaptureStderr();
  trained_model(w, ds, Stage::kBase);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_GT(fs::file_size(path), 100u);
  Rng rng(kBaseInitSeed);
  nn::Sequential m = core::make_model(w, rng);
  EXPECT_NO_THROW(nn::load_weights(m, path));
}

TEST(BenchCsv, APathThatCannotBeOpenedThrowsNamingIt) {
  const std::string dir = testing::TempDir();  // a directory, not a file
  try {
    Csv csv(dir);
    FAIL() << "opened " << dir;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace cn::bench
