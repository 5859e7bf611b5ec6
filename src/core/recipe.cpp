#include "core/recipe.h"

#include <stdexcept>

#include "models/lenet.h"
#include "models/vgg.h"

namespace cn::core {

Recipe recipe(const std::string& net, const std::string& dataset) {
  if (net != "lenet" && net != "vgg")
    throw std::invalid_argument("unknown network '" + net + "' (lenet|vgg)");
  if (dataset != "digits" && dataset != "objects10" && dataset != "objects100")
    throw std::invalid_argument("unknown dataset '" + dataset +
                                "' (digits|objects10|objects100)");
  Recipe r;
  r.net = net == "vgg" ? Net::kVgg : Net::kLeNet;
  r.digits = dataset == "digits";
  r.num_classes = dataset == "objects100" ? 100 : 10;
  const std::string pair = net + "/" + dataset;
  if (pair == "lenet/digits") {
    r.name = "LeNet5-Digits";
    r.paper_name = "LeNet-5-MNIST";
    r.epochs = 8;
    r.train_count = 2500;
    r.test_count = 600;
    r.max_comp_layers = 2;
  } else if (pair == "lenet/objects10") {
    r.name = "LeNet5-Objects10";
    r.paper_name = "LeNet-5-Cifar10";
    r.epochs = 10;
    r.lr_decay = 0.85f;
    r.max_comp_layers = 1;
  } else if (pair == "vgg/objects10") {
    r.name = "VGG16-Objects10";
    r.paper_name = "VGG16-Cifar10";
    r.epochs = 12;
    r.lr_decay = 0.85f;
    r.lip_lambda_min = 1.0f;  // deep net: unclamped λ collapses training
    r.lip_warmup = 3;
    r.max_comp_layers = 3;
  } else if (pair == "vgg/objects100") {
    r.name = "VGG16-Objects100";
    r.paper_name = "VGG16-Cifar100";
    r.epochs = 14;
    r.lr = 1.5e-3f;
    r.lr_decay = 0.88f;
    r.lip_lambda_min = 1.0f;
    r.lip_warmup = 5;
    r.train_count = 8000;  // 100 classes need >= 80 samples/class to converge
    r.max_comp_layers = 4;
  } else {
    throw std::invalid_argument("no recipe for " + net + " on " + dataset);
  }
  return r;
}

data::DigitsSpec digits_spec(const Recipe& r) {
  data::DigitsSpec spec;
  spec.train_count = r.train_count;
  spec.test_count = r.test_count;
  return spec;
}

data::ObjectsSpec objects_spec(const Recipe& r) {
  data::ObjectsSpec spec = data::objects_preset(r.num_classes);
  spec.train_count = r.train_count;
  spec.test_count = r.test_count;
  return spec;
}

data::SplitDataset make_dataset(const Recipe& r) {
  return r.digits ? data::make_digits(digits_spec(r))
                  : data::make_objects(objects_spec(r));
}

nn::Sequential make_model(const Recipe& r, Rng& rng) {
  if (r.net == Net::kLeNet)
    return models::lenet5(r.digits ? 1 : 3, r.digits ? 28 : 32, r.num_classes, rng);
  models::VggConfig cfg;
  cfg.num_classes = r.num_classes;
  return models::vgg16(cfg, rng);
}

TrainConfig base_train_config(const Recipe& r) {
  TrainConfig cfg;
  cfg.epochs = r.epochs;
  cfg.lr = r.lr;
  cfg.lr_decay = r.lr_decay;
  return cfg;
}

TrainConfig lipschitz_train_config(const Recipe& r) {
  TrainConfig cfg = base_train_config(r);
  cfg.lipschitz.enabled = true;
  cfg.lipschitz.sigma = r.sigma;
  cfg.lipschitz.beta = r.lip_beta;
  cfg.lipschitz.lambda_min = r.lip_lambda_min;
  cfg.lipschitz_warmup_epochs = r.lip_warmup;
  return cfg;
}

TrainConfig comp_train_config(const Recipe& r) {
  TrainConfig cfg;
  cfg.epochs = r.comp_epochs;
  cfg.lr = r.comp_lr;
  cfg.variation = analog::VariationModel{analog::VariationKind::kLognormal, r.sigma};
  return cfg;
}

}  // namespace cn::core
