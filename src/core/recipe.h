// The training recipe of each (network, dataset) pair the paper evaluates:
// epochs, learning rates, the Lipschitz β, λ floor and warm-up of Eq. 10-11,
// the compensation schedule and the fixed-ratio plan. The four pairs map to
// the paper's as
//   VGG16-Cifar100  -> VGG16-Objects100   (3x32x32, 100 classes)
//   VGG16-Cifar10   -> VGG16-Objects10    (3x32x32, 10 classes)
//   LeNet-5-Cifar10 -> LeNet5-Objects10   (3x32x32, 10 classes)
//   LeNet-5-MNIST   -> LeNet5-Digits      (1x28x28, 10 classes)
// VGG on digits and LeNet on objects100 have no recipe.
//
// The paper driver, correctnet_cli and the examples all start from
// recipe(); flags (recipe_table), CORRECTNET_* scaling and smoke sizes
// override its fields.
// The paper driver's cache names hash these values (bench/common.h
// train_key), so a change here retrains every cached model.
#pragma once

#include <cstdint>
#include <string>

#include "core/config.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/sequential.h"

namespace cn::core {

enum class Net { kLeNet, kVgg };

struct Recipe {
  std::string name;        // e.g. "VGG16-Objects100"
  std::string paper_name;  // e.g. "VGG16-Cifar100"
  Net net = Net::kLeNet;
  bool digits = false;     // digits vs objects dataset
  int num_classes = 10;
  int epochs = 6;
  float lr = 1e-3f;
  float lr_decay = 1.0f;
  float sigma = 0.5f;  // variation level the λ of Eq. 10 and compensation target
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

/// The recipe of `net` (lenet|vgg) on `dataset` (digits|objects10|
/// objects100). Throws std::invalid_argument naming an unknown value or a
/// pair with no recipe.
Recipe recipe(const std::string& net, const std::string& dataset);

/// The training flags, each overriding one value of a recipe; `correctnet_cli
/// faults` takes the first kSharedRecipeFlags.
const Knobs<Recipe>& recipe_table();
constexpr size_t kSharedRecipeFlags = 5;

data::DigitsSpec digits_spec(const Recipe& r);
/// data::objects_preset at the recipe's class count and sizes.
data::ObjectsSpec objects_spec(const Recipe& r);
data::SplitDataset make_dataset(const Recipe& r);
/// A freshly initialized network for the recipe's dataset.
nn::Sequential make_model(const Recipe& r, Rng& rng);

TrainConfig base_train_config(const Recipe& r);
/// base_train_config with the Lipschitz penalty on (β, λ floor, warm-up).
TrainConfig lipschitz_train_config(const Recipe& r);
/// Compensation training under lognormal variations at r.sigma.
TrainConfig comp_train_config(const Recipe& r);

}  // namespace cn::core
