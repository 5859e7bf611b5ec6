// The register-blocked digital kernels (exec/digital_kernels.h) against
// plain scalar loops kept here as the reference: the conv GEMM behind
// Conv2D::forward_fused (with its pre-pool, relu and post-pool stages),
// matmul_nt, and the Dense forward over the packed live weight.
// Every comparison runs at every exec::simd level the host supports, over
// randomized shapes that hit the row and 16-lane tails, zero weights, -0
// biases and non-finite inputs. The batch-independence test pins the
// serving contract: a row of a batched digital forward equals that image's
// batch-1 forward bit for bit.
#include "exec/digital_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/target.h"
#include "exec_testutil.h"
#include "models/lenet.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace cn {
namespace {

// Pins one simd level for a scope, restoring auto-selection on exit.
struct LevelGuard {
  explicit LevelGuard(int level) { EXPECT_TRUE(exec::simd::force_level(level)); }
  ~LevelGuard() { exec::simd::reset_level(); }
};

std::vector<int> levels() {
  std::vector<int> out;
  for (int l = 0; l <= exec::simd::max_level(); ++l) out.push_back(l);
  return out;
}

using testutil::expect_same_bits;

// ---- the reference loops -------------------------------------------------

void ref_im2col(const float* img, const ConvGeom& g, float* cols) {
  const int64_t OH = g.out_h(), OW = g.out_w();
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c)
    for (int64_t kh = 0; kh < g.k_h; ++kh)
      for (int64_t kw = 0; kw < g.k_w; ++kw, ++row)
        for (int64_t oh = 0; oh < OH; ++oh)
          for (int64_t ow = 0; ow < OW; ++ow) {
            const int64_t ih = oh * g.stride + kh - g.pad;
            const int64_t iw = ow * g.stride + kw - g.pad;
            const bool in = ih >= 0 && ih < g.in_h && iw >= 0 && iw < g.in_w;
            cols[row * OH * OW + oh * OW + ow] =
                in ? img[(c * g.in_h + ih) * g.in_w + iw] : 0.0f;
          }
}

// out(M, Nd) = bias + W(M, K) * cols(K, Nd): bias first, k ascending, zero
// weights skipped, float multiply then add; then std::max relu.
void ref_conv_gemm(const float* w, const float* b, int64_t M, int64_t K,
                   const float* cols, int64_t Nd, bool relu, float* out) {
  for (int64_t i = 0; i < M; ++i) {
    float* orow = out + i * Nd;
    for (int64_t j = 0; j < Nd; ++j) orow[j] = b[i];
    for (int64_t k = 0; k < K; ++k) {
      const float wv = w[i * K + k];
      if (wv == 0.0f) continue;
      for (int64_t j = 0; j < Nd; ++j) orow[j] += wv * cols[k * Nd + j];
    }
    if (relu)
      for (int64_t j = 0; j < Nd; ++j) orow[j] = std::max(orow[j], 0.0f);
  }
}

// C(M, N) = A(M, K) * B(N, K)^T: one double accumulator per output.
Tensor ref_matmul_nt(const Tensor& a, const Tensor& b) {
  const int64_t M = a.dim(0), K = a.dim(1), N = b.dim(0);
  Tensor c({M, N});
  for (int64_t i = 0; i < M; ++i)
    for (int64_t j = 0; j < N; ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < K; ++k)
        acc += static_cast<double>(a[i * K + k]) * b[j * K + k];
      c[i * N + j] = static_cast<float>(acc);
    }
  return c;
}

Tensor pool(const Tensor& x, const nn::PrePool& p) {
  if (p.kind == nn::PrePool::Kind::kMax) return nn::MaxPool2D(p.window).forward(x, false);
  return nn::AvgPool2D(p.window).forward(x, false);
}

// The conv forward as the standalone layers compute it: pool, im2col,
// reference GEMM, relu, pool.
Tensor ref_conv_forward(const nn::Conv2D& conv, Tensor x, const float* w,
                        const float* b, const nn::PrePool* pre, bool relu,
                        const nn::PrePool* post) {
  if (pre) x = pool(x, *pre);
  const ConvGeom& g = conv.geom();
  const int64_t N = x.dim(0), M = conv.out_channels();
  const int64_t K2 = g.in_c * g.k_h * g.k_w, Nd = g.out_h() * g.out_w();
  const int64_t img = g.in_c * g.in_h * g.in_w;
  Tensor y({N, M, g.out_h(), g.out_w()});
  std::vector<float> cols(static_cast<size_t>(K2 * Nd));
  for (int64_t n = 0; n < N; ++n) {
    ref_im2col(x.data() + n * img, g, cols.data());
    ref_conv_gemm(w, b, M, K2, cols.data(), Nd, relu, y.data() + n * M * Nd);
  }
  return post ? pool(y, *post) : y;
}

// ---- randomized inputs ---------------------------------------------------

// Normal values with, when `specials`, a sprinkle of +-inf, NaN and -0.
void fill_input(Tensor& t, Rng& rng, bool specials) {
  rng.fill_normal(t, 0.0f, 1.0f);
  if (!specials) return;
  const float kSpecial[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(), -0.0f};
  for (int64_t i = 0; i < t.size(); ++i)
    if (rng.uniform() < 0.02) t[i] = kSpecial[rng.uniform_int(4)];
}

// Normal weights, a fraction of them (+-)0 when `zeros`.
void fill_weights(Tensor& t, Rng& rng, bool zeros) {
  rng.fill_normal(t, 0.0f, 0.3f);
  if (!zeros) return;
  for (int64_t i = 0; i < t.size(); ++i)
    if (rng.uniform() < 0.2) t[i] = rng.uniform() < 0.5 ? 0.0f : -0.0f;
}

struct ConvCase {
  int64_t in_c, out_c, k, stride, pad, h, w;
  nn::PrePool pre, post;
  bool relu, zeros, specials, neg_zero_bias;
};

ConvCase random_case(Rng& rng) {
  ConvCase c{};
  const int64_t ks[] = {1, 2, 3, 5};
  c.k = ks[rng.uniform_int(4)];
  c.in_c = 1 + rng.uniform_int(12);  // K2 = in_c * k * k spans 1..300
  c.out_c = 1 + rng.uniform_int(9);  // every row-block tail at every level
  c.stride = 1 + rng.uniform_int(2);
  c.pad = rng.uniform_int(3);
  c.h = c.k + rng.uniform_int(14);
  c.w = c.k + rng.uniform_int(14);
  c.relu = rng.uniform() < 0.5;
  c.zeros = rng.uniform() < 0.5;
  c.specials = rng.uniform() < 0.3;
  c.neg_zero_bias = rng.uniform() < 0.3;
  if (rng.uniform() < 0.3)
    c.pre = {rng.uniform() < 0.5 ? nn::PrePool::Kind::kMax : nn::PrePool::Kind::kAvg, 2};
  const int64_t oh = (c.h + 2 * c.pad - c.k) / c.stride + 1;
  const int64_t ow = (c.w + 2 * c.pad - c.k) / c.stride + 1;
  if (rng.uniform() < 0.3 && oh % 2 == 0 && ow % 2 == 0)
    c.post = {rng.uniform() < 0.5 ? nn::PrePool::Kind::kMax : nn::PrePool::Kind::kAvg, 2};
  return c;
}

std::string describe(const ConvCase& c, int level) {
  return "level " + std::to_string(level) + " in_c " + std::to_string(c.in_c) +
         " out_c " + std::to_string(c.out_c) + " k " + std::to_string(c.k) +
         " stride " + std::to_string(c.stride) + " pad " + std::to_string(c.pad) +
         " hw " + std::to_string(c.h) + "x" + std::to_string(c.w) +
         " pre " + std::to_string(c.pre.window) + " post " +
         std::to_string(c.post.window) + (c.relu ? " relu" : "");
}

TEST(DigitalConv, MatchesScalarLoopsAtEveryLevel) {
  Rng rng(1201);
  for (int trial = 0; trial < 160; ++trial) {
    const ConvCase c = random_case(rng);
    nn::Conv2D conv(c.in_c, c.out_c, c.k, c.stride, c.pad, c.h, c.w, "k");
    Tensor& w = conv.weight().value;
    Tensor& b = conv.bias().value;
    fill_weights(w, rng, c.zeros);
    rng.fill_normal(b, 0.0f, 0.5f);
    if (c.neg_zero_bias) b[rng.uniform_int(c.out_c)] = -0.0f;
    const int64_t win = c.pre.window > 0 ? c.pre.window : 1;
    Tensor x({1 + rng.uniform_int(3), c.in_c, c.h * win, c.w * win});
    fill_input(x, rng, c.specials);
    const nn::PrePool* pre = c.pre.window > 0 ? &c.pre : nullptr;
    const nn::PrePool* post = c.post.window > 0 ? &c.post : nullptr;
    const Tensor want = ref_conv_forward(conv, x, w.data(), b.data(), pre, c.relu, post);
    for (int level : levels()) {
      LevelGuard guard(level);
      const Tensor got = conv.forward_fused(x, pre, c.relu, post);
      ASSERT_EQ(got.shape(), want.shape());
      expect_same_bits(got.data(), want.data(), got.size(), describe(c, level));
    }
  }
}

TEST(DigitalConv, PadLanesNeverReachTheOutput) {
  // Columns past nd hold NaN; no stored output may see them.
  Rng rng(1202);
  for (int level : levels()) {
    LevelGuard guard(level);
    for (int64_t nd : {1, 15, 16, 17, 33}) {
      const int64_t m = 9, k = 7, ldc = exec::digital::round_up_block(nd);
      Tensor w({m, k}), b({m}), cols({k, nd});
      fill_weights(w, rng, /*zeros=*/true);
      rng.fill_normal(b, 0.0f, 1.0f);
      rng.fill_normal(cols, 0.0f, 1.0f);
      std::vector<float> padded(static_cast<size_t>(k * ldc),
                                std::numeric_limits<float>::quiet_NaN());
      for (int64_t kk = 0; kk < k; ++kk)
        std::copy_n(cols.data() + kk * nd, nd, padded.data() + kk * ldc);
      Tensor got({m, nd}), want({m, nd});
      exec::digital::conv_gemm(w.data(), b.data(), m, k, padded.data(), ldc, nd,
                               /*relu=*/true, got.data());
      ref_conv_gemm(w.data(), b.data(), m, k, cols.data(), nd, /*relu=*/true,
                    want.data());
      expect_same_bits(got.data(), want.data(), got.size(),
                       "level " + std::to_string(level) + " nd " + std::to_string(nd));
    }
  }
}

TEST(DigitalConv, ZeroWeightsAreSkippedNotMultiplied) {
  // 0 * inf would be NaN and -0 + 0 would be +0: a skipped term does neither.
  for (int level : levels()) {
    LevelGuard guard(level);
    const float inf = std::numeric_limits<float>::infinity();
    const float w[2] = {0.0f, -0.0f};
    const float b[1] = {-0.0f};
    std::vector<float> cols(2 * exec::digital::kBlock, inf);
    cols[exec::digital::kBlock] = 1.0f;
    float out[3];
    exec::digital::conv_gemm(w, b, 1, 2, cols.data(), exec::digital::kBlock, 3,
                             /*relu=*/false, out);
    for (float v : out) EXPECT_TRUE(v == 0.0f && std::signbit(v)) << v;
    exec::digital::conv_gemm(w, b, 1, 2, cols.data(), exec::digital::kBlock, 3,
                             /*relu=*/true, out);
    for (float v : out) EXPECT_TRUE(v == 0.0f && std::signbit(v)) << "relu keeps -0";
  }
}

TEST(DigitalDense, MatmulNtMatchesScalarLoopAtEveryLevel) {
  Rng rng(1203);
  for (int trial = 0; trial < 60; ++trial) {
    const int64_t M = 1 + rng.uniform_int(trial < 50 ? 9 : 40);
    const int64_t K = 1 + rng.uniform_int(300);
    const int64_t N = 1 + rng.uniform_int(40);
    Tensor a({M, K}), b({N, K});
    fill_input(a, rng, trial % 4 == 0);
    fill_weights(b, rng, trial % 3 == 0);
    const Tensor want = ref_matmul_nt(a, b);
    for (int level : levels()) {
      LevelGuard guard(level);
      const Tensor got = matmul_nt(a, b);
      ASSERT_EQ(got.shape(), want.shape());
      expect_same_bits(got.data(), want.data(), got.size(),
                       "level " + std::to_string(level) + " M " + std::to_string(M) +
                           " K " + std::to_string(K) + " N " + std::to_string(N));
    }
  }
}

TEST(DigitalDense, ForwardMatchesScalarLoopsWithFactors) {
  // Dense packs w (or w * f) into its panel; the reference multiplies the
  // factors separately, runs the double-accumulator loop, then adds the
  // bias and clamps.
  Rng rng(1204);
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t in = 1 + rng.uniform_int(200), out = 1 + rng.uniform_int(40);
    nn::Dense d(in, out, "fc");
    fill_weights(d.weight().value, rng, trial % 3 == 0);
    rng.fill_normal(d.bias().value, 0.0f, 0.5f);
    d.bias().value[0] = -0.0f;
    Tensor f({out, in});
    rng.fill_lognormal_factor(f, 0.5f);
    const bool factors = trial % 2 == 0;
    if (factors) d.set_weight_factors(f);
    Tensor x({1 + rng.uniform_int(9), in});
    fill_input(x, rng, trial % 4 == 0);
    const Tensor w_eff = factors ? mul(d.weight().value, f) : d.weight().value;
    const Tensor acc = ref_matmul_nt(x, w_eff);
    for (bool relu : {false, true}) {
      Tensor want = acc;
      for (int64_t n = 0; n < want.dim(0); ++n)
        for (int64_t o = 0; o < out; ++o) {
          float& v = want[n * out + o];
          v += d.bias().value[o];
          if (relu) v = std::max(v, 0.0f);
        }
      for (int level : levels()) {
        LevelGuard guard(level);
        const Tensor got = relu ? d.forward_relu(x) : d.forward(x, false);
        expect_same_bits(got.data(), want.data(), got.size(),
                         "level " + std::to_string(level) + (relu ? " relu" : ""));
      }
    }
  }
}

TEST(DigitalDense, LiveWeightFollowsEditsAndFactors) {
  // The packed panel is rebuilt per forward: a weight edit, new factors and
  // clearing them all show up in the next forward.
  Rng rng(1205);
  nn::Dense d(20, 18, "fc");
  rng.fill_normal(d.weight().value, 0.0f, 0.3f);
  Tensor x({3, 20});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y0 = d.forward(x, false);
  Tensor f({18, 20});
  rng.fill_lognormal_factor(f, 0.5f);
  d.set_weight_factors(f);
  const Tensor y1 = d.forward(x, false);
  expect_same_bits(y1.data(), ref_matmul_nt(x, mul(d.weight().value, f)).data(),
                   y1.size(), "with factors");
  d.weight().value[5] += 1.0f;
  const Tensor y2 = d.forward(x, false);
  expect_same_bits(y2.data(), ref_matmul_nt(x, mul(d.weight().value, f)).data(),
                   y2.size(), "after a weight edit");
  d.clear_weight_factors();
  const Tensor y3 = d.forward(x, false);
  expect_same_bits(y3.data(), ref_matmul_nt(x, d.weight().value).data(), y3.size(),
                   "factors cleared");
  EXPECT_NE(std::memcmp(y0.data(), y3.data(), sizeof(float) * y0.size()), 0);
}

TEST(DigitalServing, BatchedRowsEqualSingleImageForwards) {
  // The serving contract: a request's logits do not depend on the batch it
  // was assembled into. Factor-mode LeNet-5, as the digital serving farms run.
  Rng rng(1206);
  nn::Sequential model = models::lenet5(1, 28, 10, rng);
  for (nn::PerturbableWeight* site : model.analog_sites()) {
    Tensor f(site->nominal_weight().shape());
    rng.fill_lognormal_factor(f, 0.5f);
    site->set_weight_factors(f);
  }
  const int64_t kMax = 33, img = 28 * 28;
  Tensor pool({kMax, 1, 28, 28});
  rng.fill_normal(pool, 0.0f, 1.0f);
  for (int level : levels()) {
    LevelGuard guard(level);
    std::vector<Tensor> single;
    for (int64_t i = 0; i < kMax; ++i) {
      Tensor xi({1, 1, 28, 28});
      std::copy_n(pool.data() + i * img, img, xi.data());
      single.push_back(model.forward(xi, false));
    }
    for (int64_t bsz = 1; bsz <= kMax; ++bsz) {
      // Batch bsz draws images starting at a rotating offset.
      Tensor xb({bsz, 1, 28, 28});
      std::vector<int64_t> idx;
      for (int64_t r = 0; r < bsz; ++r) {
        idx.push_back((bsz + r) % kMax);
        std::copy_n(pool.data() + idx.back() * img, img, xb.data() + r * img);
      }
      const Tensor yb = model.forward(xb, false);
      for (int64_t r = 0; r < bsz; ++r) {
        const Tensor& want = single[static_cast<size_t>(idx[static_cast<size_t>(r)])];
        expect_same_bits(yb.data() + r * 10, want.data(), 10,
                         "level " + std::to_string(level) + " batch " +
                             std::to_string(bsz) + " row " + std::to_string(r));
      }
    }
  }
}

}  // namespace
}  // namespace cn
