#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/batcher.h"

namespace cn::data {
namespace {

TEST(Digits, ShapesAndLabels) {
  DigitsSpec spec;
  spec.train_count = 100;
  spec.test_count = 40;
  SplitDataset ds = make_digits(spec);
  EXPECT_EQ(ds.train.images.shape(), (Shape{100, 1, 28, 28}));
  EXPECT_EQ(ds.test.images.shape(), (Shape{40, 1, 28, 28}));
  EXPECT_EQ(ds.train.num_classes, 10);
  for (int l : ds.train.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 10);
  }
  // Round-robin labeling covers all classes.
  std::set<int> classes(ds.train.labels.begin(), ds.train.labels.end());
  EXPECT_EQ(classes.size(), 10u);
}

TEST(Digits, TrainSetNormalized) {
  DigitsSpec spec;
  spec.train_count = 500;
  spec.test_count = 10;
  SplitDataset ds = make_digits(spec);
  double m = 0.0, v = 0.0;
  const int64_t n = ds.train.images.size();
  for (int64_t i = 0; i < n; ++i) m += ds.train.images[i];
  m /= n;
  for (int64_t i = 0; i < n; ++i) {
    const double d = ds.train.images[i] - m;
    v += d * d;
  }
  v /= n;
  EXPECT_NEAR(m, 0.0, 1e-3);
  EXPECT_NEAR(v, 1.0, 1e-2);
}

TEST(Digits, DeterministicGivenSeed) {
  DigitsSpec spec;
  spec.train_count = 20;
  spec.test_count = 5;
  SplitDataset a = make_digits(spec);
  SplitDataset b = make_digits(spec);
  for (int64_t i = 0; i < a.train.images.size(); ++i)
    ASSERT_FLOAT_EQ(a.train.images[i], b.train.images[i]);
}

TEST(Digits, DifferentSeedsDiffer) {
  DigitsSpec a, b;
  a.train_count = b.train_count = 20;
  a.test_count = b.test_count = 5;
  b.seed = a.seed + 1;
  SplitDataset da = make_digits(a);
  SplitDataset db = make_digits(b);
  float diff = 0.0f;
  for (int64_t i = 0; i < da.train.images.size(); ++i)
    diff += std::fabs(da.train.images[i] - db.train.images[i]);
  EXPECT_GT(diff, 1.0f);
}

TEST(Objects, ShapesAndClassCount) {
  ObjectsSpec spec;
  spec.num_classes = 7;
  spec.train_count = 70;
  spec.test_count = 14;
  SplitDataset ds = make_objects(spec);
  EXPECT_EQ(ds.train.images.shape(), (Shape{70, 3, 32, 32}));
  EXPECT_EQ(ds.train.num_classes, 7);
  std::set<int> classes(ds.train.labels.begin(), ds.train.labels.end());
  EXPECT_EQ(classes.size(), 7u);
}

TEST(Objects, PresetSetsTheDifficultyByClassCount) {
  // The paper driver's cache names hash these values (bench/common.h
  // train_key), so a change here retrains every cached objects model.
  const ObjectsSpec defaults, few = objects_preset(10), many = objects_preset(100);
  EXPECT_EQ(few.num_classes, 10);
  EXPECT_EQ(few.noise_std, 0.7f);
  EXPECT_EQ(few.class_similarity, 0.6f);
  EXPECT_EQ(few.jitter_frac, 0.15f);
  EXPECT_EQ(many.num_classes, 100);
  EXPECT_EQ(many.noise_std, 0.35f);
  EXPECT_EQ(many.class_similarity, 0.4f);
  EXPECT_EQ(many.jitter_frac, 0.1f);
  for (const ObjectsSpec& s : {few, many}) {
    EXPECT_EQ(s.train_count, defaults.train_count);
    EXPECT_EQ(s.test_count, defaults.test_count);
    EXPECT_EQ(s.seed, defaults.seed);
  }
}

TEST(Objects, RejectsDegenerateClassCount) {
  ObjectsSpec spec;
  spec.num_classes = 1;
  EXPECT_THROW(make_objects(spec), std::invalid_argument);
}

TEST(Objects, SamplesOfSameClassCorrelate) {
  // Same-class images should be closer than cross-class on average.
  ObjectsSpec spec;
  spec.num_classes = 4;
  spec.train_count = 200;
  spec.test_count = 8;
  spec.noise_std = 0.2f;
  SplitDataset ds = make_objects(spec);
  auto dist = [&](int64_t i, int64_t j) {
    double d = 0.0;
    const int64_t sz = 3 * 32 * 32;
    for (int64_t k = 0; k < sz; ++k) {
      const double diff = ds.train.images[i * sz + k] - ds.train.images[j * sz + k];
      d += diff * diff;
    }
    return d;
  };
  // images 0,4,8 are class 0; 1,5 class 1 (round-robin).
  const double same = dist(0, 4) + dist(0, 8) + dist(4, 8);
  const double cross = dist(0, 1) + dist(0, 5) + dist(4, 1);
  EXPECT_LT(same, cross);
}

TEST(Dataset, HeadAndImageAccessors) {
  DigitsSpec spec;
  spec.train_count = 30;
  spec.test_count = 5;
  SplitDataset ds = make_digits(spec);
  Dataset h = ds.train.head(12);
  EXPECT_EQ(h.size(), 12);
  EXPECT_EQ(h.labels.size(), 12u);
  Tensor img = ds.train.image(3);
  EXPECT_EQ(img.shape(), (Shape{1, 28, 28}));
  for (int64_t i = 0; i < img.size(); ++i)
    EXPECT_FLOAT_EQ(img[i], ds.train.images[3 * 28 * 28 + i]);
}

TEST(Batcher, CoversDatasetOnce) {
  DigitsSpec spec;
  spec.train_count = 25;
  spec.test_count = 5;
  SplitDataset ds = make_digits(spec);
  Batcher b(ds.train, 8);
  EXPECT_EQ(b.num_batches(), 4);
  int64_t total = 0;
  for (int64_t i = 0; i < b.num_batches(); ++i) total += b.get(i).size();
  EXPECT_EQ(total, 25);
  // Last batch is the remainder.
  EXPECT_EQ(b.get(3).size(), 1);
}

TEST(Batcher, ReshuffleChangesOrderButNotContent) {
  DigitsSpec spec;
  spec.train_count = 40;
  spec.test_count = 5;
  SplitDataset ds = make_digits(spec);
  Batcher b(ds.train, 40);
  Batch before = b.get(0);
  Rng rng(3);
  b.reshuffle(rng);
  Batch after = b.get(0);
  // Same multiset of labels.
  auto sorted = [](std::vector<int> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(before.labels), sorted(after.labels));
  EXPECT_NE(before.labels, after.labels);  // order changed (overwhelmingly likely)
}

TEST(Gather, PicksRequestedIndices) {
  DigitsSpec spec;
  spec.train_count = 10;
  spec.test_count = 5;
  SplitDataset ds = make_digits(spec);
  Batch b = gather(ds.train, {7, 2});
  EXPECT_EQ(b.size(), 2);
  EXPECT_EQ(b.labels[0], ds.train.labels[7]);
  EXPECT_EQ(b.labels[1], ds.train.labels[2]);
}

}  // namespace
}  // namespace cn::data
