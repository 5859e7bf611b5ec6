// Shared infrastructure for the paper driver (bench/paper.cpp).
//
// Each `paper <figure>` subcommand regenerates one paper table/figure. The
// four network-dataset pairs of the paper's evaluation map to:
//   VGG16-Cifar100  -> VGG16-Objects100   (3x32x32, 100 classes)
//   VGG16-Cifar10   -> VGG16-Objects10    (3x32x32, 10 classes)
//   LeNet-5-Cifar10 -> LeNet5-Objects10   (3x32x32, 10 classes)
//   LeNet-5-MNIST   -> LeNet5-Digits      (1x28x28, 10 classes)
//
// Trained models are cached under ./cnet_cache/ so the figures share them,
// keyed on everything that decides their weights (train_key); delete the
// directory to retrain from scratch. Every figure prints aligned text
// tables (the paper's rows/series) and writes a CSV alongside.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/compensation.h"
#include "core/config.h"
#include "core/lipschitz.h"
#include "core/montecarlo.h"
#include "core/sensitivity.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "models/lenet.h"
#include "models/vgg.h"
#include "nn/serialize.h"

namespace cn::bench {

// ---------- workload definitions ----------

enum class Net { kLeNet, kVgg };

struct Workload {
  std::string name;        // e.g. "VGG16-Objects100"
  std::string paper_name;  // e.g. "VGG16-Cifar100"
  Net net = Net::kLeNet;
  bool digits = false;     // digits vs objects dataset
  int num_classes = 10;
  // training recipe (tuned in DESIGN.md; epochs scale with CORRECTNET_EPOCHS)
  int epochs = 6;
  float lr = 1e-3f;
  float lr_decay = 1.0f;
  float lip_beta = 3e-2f;
  float lip_lambda_min = 0.0f;
  int lip_warmup = 0;  // epochs before the penalty switches on (deep nets)
  int comp_epochs = 5;
  float comp_lr = 2e-3f;
  int64_t train_count = 4000;
  int64_t test_count = 800;
  float fixed_ratio = 0.5f;   // generator filters / base filters
  int64_t max_comp_layers = 4;
};

inline Workload wl_lenet_digits() {
  Workload w;
  w.name = "LeNet5-Digits";
  w.paper_name = "LeNet-5-MNIST";
  w.net = Net::kLeNet;
  w.digits = true;
  w.epochs = 8;
  w.train_count = 2500;
  w.test_count = 600;
  w.max_comp_layers = 2;
  return w;
}

inline Workload wl_lenet_obj10() {
  Workload w;
  w.name = "LeNet5-Objects10";
  w.paper_name = "LeNet-5-Cifar10";
  w.net = Net::kLeNet;
  w.epochs = 10;
  w.lr_decay = 0.85f;
  w.train_count = 4000;
  w.test_count = 800;
  w.max_comp_layers = 1;
  return w;
}

inline Workload wl_vgg_obj10() {
  Workload w;
  w.name = "VGG16-Objects10";
  w.paper_name = "VGG16-Cifar10";
  w.net = Net::kVgg;
  w.epochs = 12;
  w.lr_decay = 0.85f;
  w.lip_lambda_min = 1.0f;  // deep net: unclamped λ collapses training
  w.lip_warmup = 3;
  w.train_count = 4000;
  w.test_count = 800;
  w.max_comp_layers = 3;
  return w;
}

inline Workload wl_vgg_obj100() {
  Workload w;
  w.name = "VGG16-Objects100";
  w.paper_name = "VGG16-Cifar100";
  w.net = Net::kVgg;
  w.num_classes = 100;
  w.epochs = 14;
  w.lr = 1.5e-3f;
  w.lr_decay = 0.88f;
  w.lip_lambda_min = 1.0f;
  w.lip_warmup = 5;
  w.train_count = 8000;  // 100 classes need >= 80 samples/class to converge
  w.test_count = 800;
  w.max_comp_layers = 4;
  return w;
}

inline std::vector<Workload> all_workloads() {
  return {wl_vgg_obj100(), wl_vgg_obj10(), wl_lenet_obj10(), wl_lenet_digits()};
}

// ---------- dataset / model construction ----------

// CORRECTNET_TRAIN / CORRECTNET_TEST cap both datasets' sizes; `rc` is a
// parameter so tests can pass a config in.
inline data::DigitsSpec digits_spec(
    const Workload& w,
    const core::RuntimeConfig& rc = core::RuntimeConfig::get()) {
  data::DigitsSpec spec;
  spec.train_count = std::min(w.train_count, rc.train_cap);
  spec.test_count = std::min(w.test_count, rc.test_cap);
  return spec;
}

inline data::ObjectsSpec objects_spec(
    const Workload& w,
    const core::RuntimeConfig& rc = core::RuntimeConfig::get()) {
  data::ObjectsSpec spec = data::objects_preset(w.num_classes);
  spec.train_count = std::min(w.train_count, rc.train_cap);
  spec.test_count = std::min(w.test_count, rc.test_cap);
  return spec;
}

inline data::SplitDataset make_dataset(const Workload& w) {
  return w.digits ? data::make_digits(digits_spec(w))
                  : data::make_objects(objects_spec(w));
}

inline nn::Sequential make_model(const Workload& w, Rng& rng) {
  if (w.net == Net::kLeNet)
    return models::lenet5(w.digits ? 1 : 3, w.digits ? 28 : 32, w.num_classes, rng);
  models::VggConfig cfg;
  cfg.num_classes = w.num_classes;
  return models::vgg16(cfg, rng);
}

// ---------- cached training ----------

inline std::string cache_dir() {
  std::filesystem::create_directories("cnet_cache");
  return "cnet_cache";
}

/// Init seeds of the three cached stages' models.
inline constexpr uint64_t kBaseInitSeed = 2023, kLipInitSeed = 2024,
                          kCorrInitSeed = 2025;

/// Bump whenever the training code changes what a fixed configuration
/// trains: the cache key sees configurations, not code.
inline constexpr uint64_t kTrainingCodeVersion = 1;

/// FNV-1a over the values that decide a trained model's weights.
class CacheKey {
 public:
  template <typename T>
  CacheKey& add(const T& v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                  "CacheKey hashes plain values");
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001b3ull;
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// The key of one training run of workload `w`: the training-code version,
/// the network, the dataset spec (capped sizes and seed included), the
/// model's init seed and every TrainConfig field that reaches training
/// (all but the on_epoch callback). Callers add what else the run starts
/// from (a parent model's key, a compensation plan).
inline CacheKey train_key(
    const Workload& w, const core::TrainConfig& c, uint64_t init_seed,
    const core::RuntimeConfig& rc = core::RuntimeConfig::get()) {
  CacheKey k;
  k.add(kTrainingCodeVersion).add(w.net).add(w.digits).add(w.num_classes);
  if (w.digits) {
    const data::DigitsSpec d = digits_spec(w, rc);
    k.add(d.train_count).add(d.test_count).add(d.jitter_px).add(d.thickness)
        .add(d.noise_std).add(d.seed);
  } else {
    const data::ObjectsSpec o = objects_spec(w, rc);
    k.add(o.num_classes).add(o.train_count).add(o.test_count)
        .add(o.blobs_per_class).add(o.gratings_per_class).add(o.jitter_frac)
        .add(o.noise_std).add(o.class_similarity).add(o.seed);
  }
  k.add(init_seed).add(c.epochs).add(c.batch_size).add(c.lr).add(c.lr_decay)
      .add(c.optimizer).add(c.weight_decay).add(c.clip_norm)
      .add(c.lipschitz.enabled).add(c.lipschitz.k).add(c.lipschitz.sigma)
      .add(c.lipschitz.beta).add(c.lipschitz.lambda_min)
      .add(c.lipschitz_warmup_epochs).add(c.variation_in_loop)
      .add(c.variation.kind).add(c.variation.sigma).add(c.seed);
  return k;
}

/// Cache file name of one trained stage: <name>_<stage>_<key in hex>.wts,
/// so a run with other epochs, sizes, seeds or code never loads it.
inline std::string cache_file(const Workload& w, const std::string& stage,
                              const CacheKey& key) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(key.value()));
  return w.name + "_" + stage + "_" + hex + ".wts";
}

inline core::TrainConfig base_train_config(const Workload& w) {
  const auto& rc = core::RuntimeConfig::get();
  core::TrainConfig cfg;
  cfg.epochs = rc.epochs(w.epochs);
  cfg.lr = w.lr;
  cfg.lr_decay = w.lr_decay;
  return cfg;
}

inline core::TrainConfig lipschitz_train_config(const Workload& w, float sigma = 0.5f) {
  core::TrainConfig cfg = base_train_config(w);
  cfg.lipschitz.enabled = true;
  cfg.lipschitz.sigma = sigma;
  cfg.lipschitz.beta = w.lip_beta;
  cfg.lipschitz.lambda_min = w.lip_lambda_min;
  cfg.lipschitz_warmup_epochs = w.lip_warmup;
  return cfg;
}

inline core::TrainConfig comp_train_config(const Workload& w, float sigma = 0.5f) {
  const auto& rc = core::RuntimeConfig::get();
  core::TrainConfig cfg;
  cfg.epochs = rc.epochs(w.comp_epochs);
  cfg.lr = w.comp_lr;
  cfg.variation = analog::VariationModel{analog::VariationKind::kLognormal, sigma};
  return cfg;
}

/// The default compensation plan: fixed ratio on the first max_comp_layers
/// candidate convs (Table I's RL-chosen layer counts are mirrored by
/// max_comp_layers per workload; `paper fig10` runs the actual RL search).
inline core::CompensationPlan default_plan(const Workload& w, nn::Sequential& lip) {
  core::CompensationPlan plan;
  auto convs = core::conv_layer_indices(lip);
  for (int64_t i = 0; i < std::min<int64_t>(w.max_comp_layers,
                                            static_cast<int64_t>(convs.size()));
       ++i) {
    auto* conv = dynamic_cast<nn::Conv2D*>(&lip.layer(convs[static_cast<size_t>(i)]));
    const int64_t m = std::max<int64_t>(
        1, static_cast<int64_t>(w.fixed_ratio * conv->out_channels() + 0.5f));
    plan.entries.emplace_back(convs[static_cast<size_t>(i)], m);
  }
  return plan;
}

/// The cached training stages: the baseline, the Lipschitz-regularized
/// network, and CorrectNet (suppression + compensation).
enum class Stage { kBase, kLip, kCorr };

/// Loads stage `stage` of workload `w` from cnet_cache/ when a run with the
/// same key saved it, and otherwise trains it and saves it. kCorr trains
/// compensation with default_plan (copied to `plan_out`) on top of kLip.
inline nn::Sequential trained_model(const Workload& w, const data::SplitDataset& ds,
                                    Stage stage,
                                    core::CompensationPlan* plan_out = nullptr) {
  static const char* const kFileStage[] = {"base", "lip", "corr"};
  static const char* const kWhat[] = {"baseline", "with Lipschitz regularization",
                                      "compensation blocks"};
  nn::Sequential m;
  core::TrainConfig cfg;
  CacheKey key;
  if (stage == Stage::kCorr) {
    nn::Sequential lip = trained_model(w, ds, Stage::kLip);
    const core::CompensationPlan plan = default_plan(w, lip);
    if (plan_out) *plan_out = plan;
    Rng rng(kCorrInitSeed);
    m = core::with_compensation(lip, plan, rng);
    cfg = comp_train_config(w);
    key = train_key(w, cfg, kCorrInitSeed);
    key.add(train_key(w, lipschitz_train_config(w), kLipInitSeed).value());
    for (const auto& [layer, filters] : plan.entries) key.add(layer).add(filters);
  } else {
    const uint64_t seed = stage == Stage::kBase ? kBaseInitSeed : kLipInitSeed;
    Rng rng(seed);
    m = make_model(w, rng);
    cfg = stage == Stage::kBase ? base_train_config(w) : lipschitz_train_config(w);
    key = train_key(w, cfg, seed);
  }
  const auto i = static_cast<size_t>(stage);
  const std::string path = cache_dir() + "/" + cache_file(w, kFileStage[i], key);
  if (std::filesystem::exists(path)) {
    nn::load_weights(m, path);
    return m;
  }
  std::printf("  [train] %s %s (%d epochs)...\n", w.name.c_str(), kWhat[i],
              cfg.epochs);
  std::fflush(stdout);
  if (stage == Stage::kCorr)
    core::train_compensation(m, ds.train, ds.test, cfg);
  else
    core::train(m, ds.train, ds.test, cfg);
  nn::save_weights(m, path);
  return m;
}

// ---------- output helpers ----------

/// Minimal CSV writer: one file per figure, header + rows.
class Csv {
 public:
  explicit Csv(const std::string& path) : os_(path) {
    std::printf("  (csv -> %s)\n", path.c_str());
  }
  void row(const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i) os_ << ',';
      os_ << cells[i];
    }
    os_ << '\n';
  }

 private:
  std::ofstream os_;
};

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline analog::VariationModel lognormal(float sigma) {
  return analog::VariationModel{analog::VariationKind::kLognormal, sigma};
}

inline core::McOptions mc_options(int64_t first_site = 0) {
  core::McOptions mc;
  mc.samples = core::RuntimeConfig::get().mc_samples;
  mc.first_site = first_site;
  return mc;
}

inline const std::vector<float>& sigma_grid() {
  static const std::vector<float> grid = {0.0f, 0.1f, 0.2f, 0.3f, 0.4f, 0.5f};
  return grid;
}

}  // namespace cn::bench
