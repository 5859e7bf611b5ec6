#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "tensor/rng.h"

namespace cn::data {

Tensor Dataset::image(int64_t i) const {
  const int64_t sz = channels() * height() * width();
  Tensor img({channels(), height(), width()});
  std::copy(images.data() + i * sz, images.data() + (i + 1) * sz, img.data());
  return img;
}

Dataset Dataset::head(int64_t n) const {
  n = std::min(n, size());
  Dataset d;
  d.num_classes = num_classes;
  d.images = Tensor({n, channels(), height(), width()});
  const int64_t sz = channels() * height() * width();
  std::copy(images.data(), images.data() + n * sz, d.images.data());
  d.labels.assign(labels.begin(), labels.begin() + n);
  return d;
}

namespace {

// ---------- digit glyphs ----------

struct Seg {
  float x0, y0, x1, y1;
};

// Seven-segment-style strokes on a [0,1]^2 canvas, one glyph per class,
// extended with diagonals so all ten classes are geometrically distinct.
const std::vector<std::vector<Seg>>& digit_glyphs() {
  static const std::vector<std::vector<Seg>> glyphs = {
      // 0: rectangle
      {{0.25f, 0.15f, 0.75f, 0.15f}, {0.75f, 0.15f, 0.75f, 0.85f},
       {0.75f, 0.85f, 0.25f, 0.85f}, {0.25f, 0.85f, 0.25f, 0.15f}},
      // 1: vertical bar
      {{0.5f, 0.1f, 0.5f, 0.9f}},
      // 2: top, diag, bottom
      {{0.25f, 0.2f, 0.75f, 0.2f}, {0.75f, 0.2f, 0.25f, 0.8f},
       {0.25f, 0.8f, 0.75f, 0.8f}},
      // 3: top, middle, bottom, right
      {{0.25f, 0.15f, 0.75f, 0.15f}, {0.3f, 0.5f, 0.75f, 0.5f},
       {0.25f, 0.85f, 0.75f, 0.85f}, {0.75f, 0.15f, 0.75f, 0.85f}},
      // 4: left-upper, middle, right full
      {{0.3f, 0.1f, 0.3f, 0.5f}, {0.3f, 0.5f, 0.75f, 0.5f},
       {0.7f, 0.1f, 0.7f, 0.9f}},
      // 5: top, left-upper, middle, right-lower, bottom
      {{0.75f, 0.15f, 0.25f, 0.15f}, {0.25f, 0.15f, 0.25f, 0.5f},
       {0.25f, 0.5f, 0.75f, 0.5f}, {0.75f, 0.5f, 0.75f, 0.85f},
       {0.75f, 0.85f, 0.25f, 0.85f}},
      // 6: like 5 plus left-lower
      {{0.75f, 0.15f, 0.25f, 0.15f}, {0.25f, 0.15f, 0.25f, 0.85f},
       {0.25f, 0.5f, 0.75f, 0.5f}, {0.75f, 0.5f, 0.75f, 0.85f},
       {0.75f, 0.85f, 0.25f, 0.85f}},
      // 7: top + diagonal
      {{0.2f, 0.15f, 0.8f, 0.15f}, {0.8f, 0.15f, 0.4f, 0.9f}},
      // 8: rectangle + middle
      {{0.25f, 0.15f, 0.75f, 0.15f}, {0.75f, 0.15f, 0.75f, 0.85f},
       {0.75f, 0.85f, 0.25f, 0.85f}, {0.25f, 0.85f, 0.25f, 0.15f},
       {0.25f, 0.5f, 0.75f, 0.5f}},
      // 9: like 8 without lower-left
      {{0.25f, 0.15f, 0.75f, 0.15f}, {0.75f, 0.15f, 0.75f, 0.85f},
       {0.25f, 0.5f, 0.75f, 0.5f}, {0.25f, 0.15f, 0.25f, 0.5f},
       {0.75f, 0.85f, 0.3f, 0.85f}},
  };
  return glyphs;
}

// Distance from point p to segment (a,b), all in pixel coordinates.
float point_seg_dist(float px, float py, float ax, float ay, float bx, float by) {
  const float dx = bx - ax, dy = by - ay;
  const float len2 = dx * dx + dy * dy;
  float t = len2 > 0.0f ? ((px - ax) * dx + (py - ay) * dy) / len2 : 0.0f;
  t = std::clamp(t, 0.0f, 1.0f);
  const float cx = ax + t * dx, cy = ay + t * dy;
  return std::sqrt((px - cx) * (px - cx) + (py - cy) * (py - cy));
}

void render_digit(float* img, int64_t H, int64_t W, int label, const DigitsSpec& spec,
                  Rng& rng) {
  const auto& glyph = digit_glyphs()[static_cast<size_t>(label)];
  // Jittered copy of the segments in pixel space.
  const float ox = static_cast<float>(rng.normal(0.0, spec.jitter_px));
  const float oy = static_cast<float>(rng.normal(0.0, spec.jitter_px));
  const float s = 1.0f + static_cast<float>(rng.normal(0.0, 0.06));
  std::vector<Seg> segs;
  segs.reserve(glyph.size());
  for (const Seg& g : glyph) {
    Seg j;
    j.x0 = (0.5f + (g.x0 - 0.5f) * s) * W + ox +
           static_cast<float>(rng.normal(0.0, spec.jitter_px * 0.5));
    j.y0 = (0.5f + (g.y0 - 0.5f) * s) * H + oy +
           static_cast<float>(rng.normal(0.0, spec.jitter_px * 0.5));
    j.x1 = (0.5f + (g.x1 - 0.5f) * s) * W + ox +
           static_cast<float>(rng.normal(0.0, spec.jitter_px * 0.5));
    j.y1 = (0.5f + (g.y1 - 0.5f) * s) * H + oy +
           static_cast<float>(rng.normal(0.0, spec.jitter_px * 0.5));
    segs.push_back(j);
  }
  const float radius = spec.thickness * (1.0f + static_cast<float>(rng.normal(0.0, 0.15)));
  for (int64_t y = 0; y < H; ++y) {
    for (int64_t x = 0; x < W; ++x) {
      float d = 1e9f;
      for (const Seg& sg : segs)
        d = std::min(d, point_seg_dist(static_cast<float>(x), static_cast<float>(y),
                                       sg.x0, sg.y0, sg.x1, sg.y1));
      // Soft stroke profile.
      const float v = 1.0f / (1.0f + std::exp((d - radius) * 2.5f));
      img[y * W + x] = v + static_cast<float>(rng.normal(0.0, spec.noise_std));
    }
  }
}

// ---------- blob/grating objects ----------

struct Blob {
  float cx, cy, sx, sy;  // center, extents (fractions of image)
  float amp;
  float ch[3];  // per-channel amplitude mix
};

struct Grating {
  float freq, phase, angle, amp;
  float ch[3];
};

struct ClassProto {
  std::vector<Blob> blobs;
  std::vector<Grating> gratings;
};

ClassProto random_proto(const ObjectsSpec& spec, Rng& rng) {
  ClassProto p;
  for (int b = 0; b < spec.blobs_per_class; ++b) {
    Blob bl;
    bl.cx = static_cast<float>(rng.uniform(0.15, 0.85));
    bl.cy = static_cast<float>(rng.uniform(0.15, 0.85));
    bl.sx = static_cast<float>(rng.uniform(0.05, 0.25));
    bl.sy = static_cast<float>(rng.uniform(0.05, 0.25));
    bl.amp = static_cast<float>(rng.uniform(0.5, 1.0)) * (rng.bernoulli(0.5) ? 1.0f : -1.0f);
    for (float& c : bl.ch) c = static_cast<float>(rng.uniform(0.0, 1.0));
    p.blobs.push_back(bl);
  }
  for (int g = 0; g < spec.gratings_per_class; ++g) {
    Grating gr;
    gr.freq = static_cast<float>(rng.uniform(1.5, 5.0));
    gr.phase = static_cast<float>(rng.uniform(0.0, 6.28318));
    gr.angle = static_cast<float>(rng.uniform(0.0, 3.14159));
    gr.amp = static_cast<float>(rng.uniform(0.25, 0.6));
    for (float& c : gr.ch) c = static_cast<float>(rng.uniform(0.0, 1.0));
    p.gratings.push_back(gr);
  }
  return p;
}

void render_object(float* img, int64_t C, int64_t H, int64_t W, const ClassProto& proto,
                   const ClassProto& shared, const ObjectsSpec& spec, Rng& rng) {
  const float jit = spec.jitter_frac;
  auto draw = [&](const ClassProto& pr, float weight) {
    for (const Blob& b : pr.blobs) {
      const float cx = (b.cx + static_cast<float>(rng.normal(0.0, jit))) * W;
      const float cy = (b.cy + static_cast<float>(rng.normal(0.0, jit))) * H;
      const float sx = std::max(1.0f, b.sx * W * (1.0f + static_cast<float>(rng.normal(0.0, 0.2))));
      const float sy = std::max(1.0f, b.sy * H * (1.0f + static_cast<float>(rng.normal(0.0, 0.2))));
      for (int64_t c = 0; c < C; ++c) {
        const float a = weight * b.amp * b.ch[c % 3];
        if (std::fabs(a) < 1e-4f) continue;
        float* chan = img + c * H * W;
        for (int64_t y = 0; y < H; ++y) {
          const float dy = (static_cast<float>(y) - cy) / sy;
          for (int64_t x = 0; x < W; ++x) {
            const float dx = (static_cast<float>(x) - cx) / sx;
            chan[y * W + x] += a * std::exp(-0.5f * (dx * dx + dy * dy));
          }
        }
      }
    }
    for (const Grating& g : pr.gratings) {
      const float ph = g.phase + static_cast<float>(rng.normal(0.0, 0.5));
      const float ca = std::cos(g.angle), sa = std::sin(g.angle);
      const float k = 6.28318f * g.freq;
      for (int64_t c = 0; c < C; ++c) {
        const float a = weight * g.amp * g.ch[c % 3];
        if (std::fabs(a) < 1e-4f) continue;
        float* chan = img + c * H * W;
        for (int64_t y = 0; y < H; ++y) {
          const float fy = static_cast<float>(y) / H;
          for (int64_t x = 0; x < W; ++x) {
            const float fx = static_cast<float>(x) / W;
            chan[y * W + x] += a * std::sin(k * (ca * fx + sa * fy) + ph);
          }
        }
      }
    }
  };
  draw(proto, 1.0f - spec.class_similarity);
  draw(shared, spec.class_similarity);
  for (int64_t i = 0; i < C * H * W; ++i)
    img[i] += static_cast<float>(rng.normal(0.0, spec.noise_std));
}

// Normalizes train+test with the training set's mean/std.
void normalize(Dataset& train, Dataset& test) {
  double mean = 0.0;
  for (int64_t i = 0; i < train.images.size(); ++i) mean += train.images[i];
  mean /= static_cast<double>(train.images.size());
  double var = 0.0;
  for (int64_t i = 0; i < train.images.size(); ++i) {
    const double d = train.images[i] - mean;
    var += d * d;
  }
  var /= static_cast<double>(train.images.size());
  const float m = static_cast<float>(mean);
  const float inv = static_cast<float>(1.0 / std::sqrt(var + 1e-8));
  for (int64_t i = 0; i < train.images.size(); ++i)
    train.images[i] = (train.images[i] - m) * inv;
  for (int64_t i = 0; i < test.images.size(); ++i)
    test.images[i] = (test.images[i] - m) * inv;
}

}  // namespace

SplitDataset make_digits(const DigitsSpec& spec) {
  constexpr int64_t H = 28, W = 28;
  constexpr int kClasses = 10;
  Rng rng(spec.seed);
  SplitDataset out;
  auto gen = [&](Dataset& d, int64_t count) {
    d.num_classes = kClasses;
    d.images = Tensor({count, 1, H, W});
    d.labels.resize(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      const int label = static_cast<int>(i % kClasses);
      d.labels[static_cast<size_t>(i)] = label;
      render_digit(d.images.data() + i * H * W, H, W, label, spec, rng);
    }
  };
  gen(out.train, spec.train_count);
  gen(out.test, spec.test_count);
  normalize(out.train, out.test);
  return out;
}

SplitDataset make_objects(const ObjectsSpec& spec) {
  constexpr int64_t C = 3, H = 32, W = 32;
  if (spec.num_classes < 2) throw std::invalid_argument("make_objects: need >= 2 classes");
  Rng rng(spec.seed);
  std::vector<ClassProto> protos;
  protos.reserve(static_cast<size_t>(spec.num_classes));
  for (int64_t c = 0; c < spec.num_classes; ++c) protos.push_back(random_proto(spec, rng));
  const ClassProto shared = random_proto(spec, rng);

  SplitDataset out;
  auto gen = [&](Dataset& d, int64_t count) {
    d.num_classes = static_cast<int>(spec.num_classes);
    d.images = Tensor({count, C, H, W});
    d.labels.resize(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      const int label = static_cast<int>(i % spec.num_classes);
      d.labels[static_cast<size_t>(i)] = label;
      render_object(d.images.data() + i * C * H * W, C, H, W,
                    protos[static_cast<size_t>(label)], shared, spec, rng);
    }
  };
  gen(out.train, spec.train_count);
  gen(out.test, spec.test_count);
  normalize(out.train, out.test);
  return out;
}

ObjectsSpec objects_preset(int64_t num_classes) {
  ObjectsSpec spec;
  spec.num_classes = num_classes;
  const bool many = num_classes >= 100;
  spec.noise_std = many ? 0.35f : 0.7f;
  spec.class_similarity = many ? 0.4f : 0.6f;
  spec.jitter_frac = many ? 0.1f : 0.15f;
  return spec;
}

}  // namespace cn::data
