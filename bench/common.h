// Shared infrastructure for the paper driver (bench/paper.cpp).
//
// Each `paper <figure>` subcommand regenerates one paper table/figure from
// the four network-dataset pairs' recipes (core/recipe.h), scaled by the
// CORRECTNET_* knobs (core/config.h).
//
// Trained models are cached under ./cnet_cache/ so the figures share them,
// keyed on everything that decides their weights (train_key); delete the
// directory to retrain from scratch. Every figure prints aligned text
// tables (the paper's rows/series) and writes a CSV alongside.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/compensation.h"
#include "core/config.h"
#include "core/lipschitz.h"
#include "core/montecarlo.h"
#include "core/recipe.h"
#include "core/sensitivity.h"
#include "core/trainer.h"
#include "nn/serialize.h"

namespace cn::bench {

// ---------- workloads ----------

/// One of the paper's four pairs at a CORRECTNET_* profile.
using Workload = core::Recipe;

/// `w` at the profile `rc`: epochs scaled, both datasets capped.
inline Workload scaled(Workload w,
                       const core::RuntimeConfig& rc = core::RuntimeConfig::get()) {
  w.epochs = rc.epochs(w.epochs);
  w.comp_epochs = rc.epochs(w.comp_epochs);
  w.train_count = std::min(w.train_count, rc.train_cap);
  w.test_count = std::min(w.test_count, rc.test_cap);
  return w;
}

inline Workload wl_lenet_digits() { return scaled(core::recipe("lenet", "digits")); }
inline Workload wl_lenet_obj10() { return scaled(core::recipe("lenet", "objects10")); }
inline Workload wl_vgg_obj10() { return scaled(core::recipe("vgg", "objects10")); }
inline Workload wl_vgg_obj100() { return scaled(core::recipe("vgg", "objects100")); }

/// Table I's order.
inline std::vector<Workload> all_workloads() {
  return {wl_vgg_obj100(), wl_vgg_obj10(), wl_lenet_obj10(), wl_lenet_digits()};
}

/// `w`'s dataset specs under the caps of `rc` (the dataset half of the
/// cache key).
inline data::DigitsSpec digits_spec(const Workload& w,
                                    const core::RuntimeConfig& rc) {
  return core::digits_spec(scaled(w, rc));
}
inline data::ObjectsSpec objects_spec(const Workload& w,
                                      const core::RuntimeConfig& rc) {
  return core::objects_spec(scaled(w, rc));
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

/// The cached training stages: the baseline, the Lipschitz-regularized
/// network, and CorrectNet (suppression + compensation).
enum class Stage { kBase, kLip, kCorr };

inline uint64_t init_seed(Stage stage) {
  static const uint64_t kSeeds[] = {kBaseInitSeed, kLipInitSeed, kCorrInitSeed};
  return kSeeds[static_cast<size_t>(stage)];
}

inline core::TrainConfig stage_config(const Workload& w, Stage stage) {
  switch (stage) {
    case Stage::kBase: return core::base_train_config(w);
    case Stage::kLip: return core::lipschitz_train_config(w);
    default: return core::comp_train_config(w);
  }
}

/// The cache file of stage `stage` of `w`. kCorr starts from kLip and
/// compensates `plan`, so its key adds both.
inline std::string stage_file(
    const Workload& w, Stage stage, const core::CompensationPlan& plan = {},
    const core::RuntimeConfig& rc = core::RuntimeConfig::get()) {
  static const char* const kFileStage[] = {"base", "lip", "corr"};
  CacheKey key = train_key(w, stage_config(w, stage), init_seed(stage), rc);
  if (stage == Stage::kCorr) {
    key.add(train_key(w, stage_config(w, Stage::kLip), kLipInitSeed, rc).value());
    for (const auto& [layer, filters] : plan.entries) key.add(layer).add(filters);
  }
  return cache_file(w, kFileStage[static_cast<size_t>(stage)], key);
}

/// Loads stage `stage` of workload `w` from cnet_cache/ when a run with the
/// same key saved it, and otherwise trains it and saves it. A cached file
/// that fails to load counts as missing: one stderr line, then the stage
/// retrains and overwrites it. kCorr trains compensation with the recipe's
/// fixed-ratio plan (copied to `plan_out`) on top of kLip.
inline nn::Sequential trained_model(const Workload& w, const data::SplitDataset& ds,
                                    Stage stage,
                                    core::CompensationPlan* plan_out = nullptr) {
  static const char* const kWhat[] = {"baseline", "with Lipschitz regularization",
                                      "compensation blocks"};
  nn::Sequential lip;
  core::CompensationPlan plan;
  if (stage == Stage::kCorr) {
    lip = trained_model(w, ds, Stage::kLip);
    plan = core::fixed_ratio_plan(lip, w.fixed_ratio, w.max_comp_layers);
    if (plan_out) *plan_out = plan;
  }
  auto fresh = [&] {
    Rng rng(init_seed(stage));
    return stage == Stage::kCorr ? core::with_compensation(lip, plan, rng)
                                 : core::make_model(w, rng);
  };
  nn::Sequential m = fresh();
  const std::string path = cache_dir() + "/" + stage_file(w, stage, plan);
  if (std::filesystem::exists(path)) {
    try {
      nn::load_weights(m, path);
      return m;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "  [cache] %s: %s; retraining\n", path.c_str(), e.what());
      m = fresh();
    }
  }
  const core::TrainConfig cfg = stage_config(w, stage);
  std::printf("  [train] %s %s (%d epochs)...\n", w.name.c_str(),
              kWhat[static_cast<size_t>(stage)], cfg.epochs);
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
  /// Throws std::runtime_error naming `path` when it cannot be opened.
  explicit Csv(const std::string& path) : os_(path) {
    if (!os_) throw std::runtime_error("cannot open " + path + " for writing");
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
