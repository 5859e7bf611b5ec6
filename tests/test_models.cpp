#include <gtest/gtest.h>

#include "models/lenet.h"
#include <cmath>

#include "models/vgg.h"

namespace cn::models {
namespace {

TEST(LeNet, GeometryFor28x28) {
  Rng rng(1);
  nn::Sequential m = lenet5(1, 28, 10, rng);
  Tensor x({2, 1, 28, 28});
  Tensor y = m.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
}

TEST(LeNet, GeometryFor32x32) {
  Rng rng(2);
  nn::Sequential m = lenet5(3, 32, 10, rng);
  Tensor y = m.forward(Tensor({1, 3, 32, 32}), false);
  EXPECT_EQ(y.shape(), (Shape{1, 10}));
}

TEST(LeNet, HasFiveAnalogSites) {
  // 2 convs + 3 FCs.
  Rng rng(3);
  nn::Sequential m = lenet5(1, 28, 10, rng);
  EXPECT_EQ(m.analog_sites().size(), 5u);
}

TEST(LeNet, RejectsUnsupportedInput) {
  Rng rng(4);
  EXPECT_THROW(lenet5(1, 9, 10, rng), std::invalid_argument);
}

TEST(Vgg, TopologyHas16WeightLayers) {
  Rng rng(5);
  VggConfig cfg;
  nn::Sequential m = vgg16(cfg, rng);
  // 13 convs + 3 FC = 16 analog sites (paper's VGG16 depth).
  EXPECT_EQ(m.analog_sites().size(), 16u);
}

TEST(Vgg, ForwardShape) {
  Rng rng(6);
  VggConfig cfg;
  cfg.num_classes = 100;
  nn::Sequential m = vgg16(cfg, rng);
  Tensor y = m.forward(Tensor({2, 3, 32, 32}), false);
  EXPECT_EQ(y.shape(), (Shape{2, 100}));
}

TEST(Vgg, WidthScalesParameters) {
  Rng rng(7);
  VggConfig narrow;
  narrow.width = 0.5f;
  VggConfig wide;
  wide.width = 1.0f;
  nn::Sequential mn = vgg16(narrow, rng);
  nn::Sequential mw = vgg16(wide, rng);
  EXPECT_LT(mn.num_params(), mw.num_params());
}

TEST(Vgg, InitializedWeightsAreFinite) {
  Rng rng(9);
  VggConfig cfg;
  nn::Sequential m = vgg16(cfg, rng);
  for (nn::Param* p : m.params())
    for (int64_t i = 0; i < p->size(); ++i) ASSERT_TRUE(std::isfinite(p->value[i]));
}

}  // namespace
}  // namespace cn::models
