// Full CorrectNet pipeline on VGG-16 / 10-class objects via run_correctnet():
// baseline -> Lipschitz suppression -> sensitivity sweep -> compensation ->
// final Monte-Carlo comparison. The heaviest example (several minutes on a
// multicore CPU); shrink with CORRECTNET_* env knobs if needed.
#include <cstdio>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "models/vgg.h"

int main() {
  using namespace cn;

  data::ObjectsSpec spec = data::objects_preset(10);
  spec.train_count = 3000;
  spec.test_count = 600;
  data::SplitDataset ds = data::make_objects(spec);

  core::PipelineConfig cfg;
  cfg.name = "VGG16-Objects10";
  cfg.sigma = 0.5f;
  cfg.base_train.epochs = 8;
  cfg.base_train.lr_decay = 0.85f;
  cfg.lipschitz_train = cfg.base_train;
  cfg.lipschitz_train.lipschitz.beta = 3e-2f;
  cfg.lipschitz_train.lipschitz.lambda_min = 1.0f;
  cfg.lipschitz_train.lipschitz_warmup_epochs = 3;
  cfg.comp_train.epochs = 4;
  cfg.comp_train.lr = 2e-3f;
  cfg.mc.samples = 10;
  cfg.plan_mode = core::PlanMode::kFixedRatio;
  cfg.fixed_ratio = 0.5f;
  cfg.max_candidates = 3;
  cfg.log = [](const std::string& s) { std::printf("%s\n", s.c_str()); };

  auto make_model = [](Rng& rng) {
    models::VggConfig vcfg;
    vcfg.num_classes = 10;
    return models::vgg16(vcfg, rng);
  };
  core::PipelineResult r = core::run_correctnet(make_model, ds.train, ds.test, cfg);

  std::printf("\n==== summary (sigma = 0.5) ====\n");
  std::printf("clean accuracy:       baseline %.2f%%, lipschitz %.2f%%\n",
              100.0 * r.clean_acc_base, 100.0 * r.clean_acc_lipschitz);
  std::printf("under variations:     baseline %.2f%% +- %.2f%%\n",
              100.0 * r.base_var.mean, 100.0 * r.base_var.stddev);
  std::printf("suppression only:     %.2f%% +- %.2f%%\n",
              100.0 * r.lipschitz_var.mean, 100.0 * r.lipschitz_var.stddev);
  std::printf("CorrectNet:           %.2f%% +- %.2f%%\n",
              100.0 * r.corrected_var.mean, 100.0 * r.corrected_var.stddev);
  std::printf("compensated layers:   %lld (overhead %.2f%%)\n",
              static_cast<long long>(r.comp_layers), 100.0 * r.overhead);
  std::printf("recovery ratio:       %.1f%% of clean accuracy\n",
              100.0 * r.corrected_var.mean / r.clean_acc_base);
  return 0;
}
