#include <stdexcept>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/ops.h"

namespace cn::nn {
namespace {

TEST(Dense, ForwardMatchesManual) {
  Dense d(2, 3, "fc");
  // W (3,2) = [[1,2],[3,4],[5,6]], b = [0.5, -0.5, 0].
  d.weight().value = Tensor({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  d.bias().value = Tensor::from({0.5f, -0.5f, 0.0f});
  Tensor x({1, 2}, std::vector<float>{1, -1});
  Tensor y = d.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 1 - 2 + 0.5f);
  EXPECT_FLOAT_EQ(y[1], 3 - 4 - 0.5f);
  EXPECT_FLOAT_EQ(y[2], 5 - 6 + 0.0f);
}

TEST(Dense, RejectsWrongInputWidth) {
  Dense d(4, 2);
  EXPECT_THROW(d.forward(Tensor({1, 3}), false), std::invalid_argument);
}

TEST(Dense, VariationFactorsScaleWeights) {
  Dense d(1, 1);
  d.weight().value = Tensor({1, 1}, std::vector<float>{2.0f});
  d.bias().value.zero();
  Tensor x({1, 1}, std::vector<float>{1.0f});
  EXPECT_FLOAT_EQ(d.forward(x, false)[0], 2.0f);
  d.set_weight_factors(Tensor({1, 1}, std::vector<float>{1.5f}));
  EXPECT_FLOAT_EQ(d.forward(x, false)[0], 3.0f);
  d.clear_weight_factors();
  EXPECT_FLOAT_EQ(d.forward(x, false)[0], 2.0f);
}

TEST(Dense, VariationFactorShapeChecked) {
  Dense d(2, 2);
  EXPECT_THROW(d.set_weight_factors(Tensor({3, 3})), std::invalid_argument);
}

TEST(Dense, CloneIsIndependent) {
  Dense d(2, 2);
  d.weight().value.fill(1.0f);
  auto c = d.clone();
  auto* dc = static_cast<Dense*>(c.get());
  dc->weight().value.fill(5.0f);
  EXPECT_FLOAT_EQ(d.weight().value[0], 1.0f);
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  // 1x1 kernel with weight 1: output == input.
  Conv2D conv(1, 1, 1, 1, 0, 4, 4, "c");
  conv.weight().value.fill(1.0f);
  conv.bias().value.zero();
  Rng rng(1);
  Tensor x({2, 1, 4, 4});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor y = conv.forward(x, false);
  for (int64_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2D, KnownSmallConvolution) {
  // 2x2 image, 2x2 kernel of ones, no pad: single output = sum of pixels.
  Conv2D conv(1, 1, 2, 1, 0, 2, 2, "c");
  conv.weight().value.fill(1.0f);
  conv.bias().value = Tensor::from({0.25f});
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.size(), 1);
  EXPECT_FLOAT_EQ(y[0], 10.25f);
}

TEST(Conv2D, PaddedGeometry) {
  Conv2D conv(3, 8, 3, 1, 1, 16, 16, "c");
  EXPECT_EQ(conv.out_h(), 16);
  EXPECT_EQ(conv.out_w(), 16);
  Tensor x({2, 3, 16, 16});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 16, 16}));
}

TEST(Conv2D, StridedGeometry) {
  Conv2D conv(1, 4, 3, 2, 1, 8, 8, "c");
  EXPECT_EQ(conv.out_h(), 4);
  Tensor y = conv.forward(Tensor({1, 1, 8, 8}), false);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 4, 4}));
}

TEST(Conv2D, VariationChangesOutput) {
  Conv2D conv(1, 1, 1, 1, 0, 2, 2, "c");
  conv.weight().value.fill(1.0f);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 1, 1, 1});
  Tensor f(conv.weight().value.shape());
  f.fill(2.0f);
  conv.set_weight_factors(f);
  Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  // nominal_weight unchanged by the factors.
  EXPECT_FLOAT_EQ(conv.nominal_weight()[0], 1.0f);
}

TEST(ReLU, ClampsNegatives) {
  ReLU r;
  Tensor x = Tensor::from({-1, 0, 2});
  Tensor y = r.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(ReLU, BackwardMasks) {
  ReLU r;
  Tensor x = Tensor::from({-1, 3});
  r.forward(x, true);
  Tensor g = r.backward(Tensor::from({5, 7}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 7.0f);
}

TEST(ReLU, BackwardWithoutCachedForwardThrows) {
  ReLU r;
  EXPECT_THROW(r.backward(Tensor::from({5, 7})), std::logic_error);
  r.forward(Tensor::from({-1, 3}), true);
  EXPECT_THROW(r.backward(Tensor::from({5, 7, 9})), std::logic_error);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Tensor x({2, 3, 4, 5});
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  Tensor g = f.backward(Tensor({2, 60}));
  EXPECT_EQ(g.shape(), (Shape{2, 3, 4, 5}));
}

TEST(MaxPool, SelectsMaximum) {
  MaxPool2D p(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  Tensor y = p.forward(x, true);
  ASSERT_EQ(y.size(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor g = p.backward(Tensor::from({1.0f}).reshaped({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(g[1], 1.0f);  // gradient routed to the max location
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(MaxPool, RejectsIndivisibleInput) {
  MaxPool2D p(2);
  EXPECT_THROW(p.forward(Tensor({1, 1, 3, 4}), false), std::invalid_argument);
}

TEST(MaxPool, BackwardWithoutCachedForwardThrows) {
  MaxPool2D p(2);
  EXPECT_THROW(p.backward(Tensor({1, 1, 1, 1})), std::logic_error);
  // An eval forward caches nothing to route gradients through.
  p.forward(Tensor({1, 1, 2, 2}), false);
  EXPECT_THROW(p.backward(Tensor({1, 1, 1, 1})), std::logic_error);
  p.forward(Tensor({1, 1, 2, 2}), true);
  EXPECT_THROW(p.backward(Tensor({2, 1, 1, 1})), std::logic_error);
}

TEST(AvgPool, Averages) {
  AvgPool2D p(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 6});
  Tensor y = p.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(AvgPool, BackwardDistributesUniformly) {
  AvgPool2D p(2);
  p.forward(Tensor({1, 1, 2, 2}), true);
  Tensor g = p.backward(Tensor({1, 1, 1, 1}, std::vector<float>{4.0f}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(g[i], 1.0f);
}

TEST(AvgPool, BackwardWithoutCachedForwardThrows) {
  AvgPool2D p(2);
  EXPECT_THROW(p.backward(Tensor({1, 1, 1, 1})), std::logic_error);
  p.forward(Tensor({1, 1, 2, 2}), true);
  EXPECT_THROW(p.backward(Tensor({1, 1, 2, 1})), std::logic_error);
}

TEST(Sequential, ComposesAndClones) {
  Sequential m("m");
  m.emplace<Dense>(3, 4, "a");
  m.emplace<ReLU>();
  m.emplace<Dense>(4, 2, "b");
  EXPECT_EQ(m.num_layers(), 3);
  EXPECT_EQ(m.params().size(), 4u);
  EXPECT_EQ(m.num_params(), 3 * 4 + 4 + 4 * 2 + 2);
  EXPECT_EQ(m.analog_sites().size(), 2u);

  Sequential c = m.clone_model();
  static_cast<Dense&>(c.layer(0)).weight().value.fill(9.0f);
  EXPECT_NE(static_cast<Dense&>(m.layer(0)).weight().value[0], 9.0f);
}

TEST(Sequential, SetTrainableFreezesAll) {
  Sequential m("m");
  m.emplace<Dense>(2, 2);
  m.set_trainable(false);
  EXPECT_EQ(m.num_trainable_params(), 0);
  m.set_trainable(true);
  EXPECT_EQ(m.num_trainable_params(), m.num_params());
}

TEST(Sequential, ReplaceLayerSwaps) {
  Sequential m("m");
  m.emplace<Dense>(2, 2, "x");
  auto old = m.replace_layer(0, std::make_unique<ReLU>("r"));
  EXPECT_EQ(old->kind(), "dense");
  EXPECT_EQ(m.layer(0).kind(), "relu");
  EXPECT_THROW(m.replace_layer(5, std::make_unique<ReLU>()), std::out_of_range);
}

}  // namespace
}  // namespace cn::nn
