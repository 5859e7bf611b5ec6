#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tensor/rng.h"

namespace cn {
namespace {

TEST(Elementwise, AddSubMul) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({4, 5, 6});
  Tensor s = add(a, b);
  EXPECT_FLOAT_EQ(s[0], 5.0f);
  EXPECT_FLOAT_EQ(sub(b, a)[2], 3.0f);
  EXPECT_FLOAT_EQ(mul(a, b)[1], 10.0f);
  EXPECT_FLOAT_EQ(scale(a, 2.0f)[2], 6.0f);
}

TEST(Elementwise, ShapeMismatchThrows) {
  Tensor a({2}), b({3});
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(mul_inplace(a, b), std::invalid_argument);
}

TEST(Elementwise, Axpy) {
  Tensor a = Tensor::from({1, 1});
  Tensor b = Tensor::from({2, 3});
  axpy_inplace(a, 0.5f, b);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  EXPECT_FLOAT_EQ(a[1], 2.5f);
}

TEST(Reductions, SumMeanNorms) {
  Tensor a = Tensor::from({3, -4});
  EXPECT_FLOAT_EQ(sum(a), -1.0f);
  EXPECT_FLOAT_EQ(mean(a), -0.5f);
  EXPECT_FLOAT_EQ(max_abs(a), 4.0f);
  EXPECT_FLOAT_EQ(sum_sq(a), 25.0f);
  EXPECT_FLOAT_EQ(l2_norm(a), 5.0f);
}

TEST(Reductions, ArgmaxRow) {
  Tensor a({2, 3}, std::vector<float>{1, 5, 2, 9, 0, 3});
  EXPECT_EQ(argmax_row(a, 0), 1);
  EXPECT_EQ(argmax_row(a, 1), 0);
}

TEST(Matmul, SmallKnown) {
  Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b({2, 2}, std::vector<float>{5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Matmul, InnerDimMismatchThrows) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({2, 2})), std::invalid_argument);
}

TEST(Matmul, TransposedVariantsAgree) {
  Rng rng(3);
  Tensor a({7, 5});
  Tensor b({5, 9});
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  Tensor ref = matmul(a, b);
  // matmul_tn(a^T stored, b) == a*b
  Tensor at = transpose(a);
  Tensor viaTn = matmul_tn(at, b);
  // matmul_nt(a, b^T stored) == a*b
  Tensor bt = transpose(b);
  Tensor viaNt = matmul_nt(a, bt);
  for (int64_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(viaTn[i], ref[i], 1e-4f);
    EXPECT_NEAR(viaNt[i], ref[i], 1e-4f);
  }
}

TEST(Matmul, AccumulateFlag) {
  Tensor a({1, 1}, std::vector<float>{2});
  Tensor b({1, 1}, std::vector<float>{3});
  Tensor c({1, 1}, std::vector<float>{10});
  matmul_into(a, b, c, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[0], 16.0f);
  matmul_into(a, b, c, /*accumulate=*/false);
  EXPECT_FLOAT_EQ(c[0], 6.0f);
}

TEST(Matmul, LargeParallelMatchesSerial) {
  Rng rng(11);
  Tensor a({64, 33});
  Tensor b({33, 47});
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  Tensor c = matmul(a, b);
  // Serial reference.
  for (int64_t i = 0; i < 64; i += 17) {
    for (int64_t j = 0; j < 47; j += 13) {
      double acc = 0.0;
      for (int64_t k = 0; k < 33; ++k) acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-3);
    }
  }
}

TEST(Matvec, ForwardAndTransposed) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor x = Tensor::from({1, 0, -1});
  Tensor y = matvec(a, x);
  EXPECT_FLOAT_EQ(y[0], -2.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
  Tensor u = Tensor::from({1, -1});
  Tensor v = matvec_t(a, u);
  EXPECT_FLOAT_EQ(v[0], -3.0f);
  EXPECT_FLOAT_EQ(v[1], -3.0f);
  EXPECT_FLOAT_EQ(v[2], -3.0f);
}

TEST(Transpose, RoundTrip) {
  Rng rng(5);
  Tensor a({4, 6});
  rng.fill_normal(a, 0.0f, 1.0f);
  Tensor tt = transpose(transpose(a));
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(tt[i], a[i]);
}

TEST(Dot, Basic) {
  EXPECT_FLOAT_EQ(dot(Tensor::from({1, 2}), Tensor::from({3, 4})), 11.0f);
}

TEST(Im2col, IdentityKernelGeometry) {
  // 1 channel, 3x3 image, 1x1 kernel: cols == image.
  ConvGeom g{1, 3, 3, 1, 1, 1, 0};
  Tensor img({9}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor cols({9});
  im2col(img.data(), g, cols.data());
  for (int64_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(cols[i], img[i]);
}

TEST(Im2col, PaddingProducesZeros) {
  ConvGeom g{1, 2, 2, 3, 3, 1, 1};  // 2x2 image, 3x3 kernel, pad 1 -> 2x2 out
  EXPECT_EQ(g.out_h(), 2);
  Tensor img({4}, std::vector<float>{1, 2, 3, 4});
  Tensor cols({9 * 4});
  im2col(img.data(), g, cols.data());
  // First kernel position (kh=0,kw=0) at output (0,0) reads img(-1,-1) = 0.
  EXPECT_FLOAT_EQ(cols[0], 0.0f);
  // Center kernel position (kh=1,kw=1) reads the image itself.
  const int64_t center_row = 4;  // (0*3+1)*3+1
  EXPECT_FLOAT_EQ(cols[center_row * 4 + 0], 1.0f);
  EXPECT_FLOAT_EQ(cols[center_row * 4 + 3], 4.0f);
}

// Plain per-element im2col: the definition the strided and stride-1 fast
// paths must reproduce.
void im2col_reference(const float* img, const ConvGeom& g, float* cols) {
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

TEST(Im2col, RowStrideAndStride1FastPathMatchReference) {
  // Every geometry twice: dense rows (ld 0) and rows padded to a multiple of
  // 16 whose pad lanes carry a sentinel im2col must leave alone. Pads larger
  // than the kernel make whole rows and output columns pure padding.
  Rng rng(12);
  const float kSentinel = -7.25f;
  for (int64_t stride : {1, 2, 3})
    for (int64_t pad : {0, 1, 2, 4})
      for (int64_t k : {1, 3, 5})
        for (int64_t hw : {1, 4, 7, 12}) {
          ConvGeom g{2, hw, hw + 1, k, k, stride, pad};
          if (g.out_h() <= 0 || g.out_w() <= 0 || hw + 2 * pad < k) continue;
          const int64_t K2 = g.in_c * k * k, P = g.out_h() * g.out_w();
          Tensor img({g.in_c * g.in_h * g.in_w});
          rng.fill_normal(img, 0.0f, 1.0f);
          std::vector<float> want(static_cast<size_t>(K2 * P));
          im2col_reference(img.data(), g, want.data());
          std::vector<float> dense(static_cast<size_t>(K2 * P), kSentinel);
          im2col(img.data(), g, dense.data());
          EXPECT_EQ(dense, want) << "stride " << stride << " pad " << pad << " k " << k
                                 << " hw " << hw;
          const int64_t ld = (P + 15) / 16 * 16 + 16;
          std::vector<float> strided(static_cast<size_t>(K2 * ld), kSentinel);
          im2col(img.data(), g, strided.data(), ld);
          for (int64_t r = 0; r < K2; ++r)
            for (int64_t j = 0; j < ld; ++j) {
              const float got = strided[static_cast<size_t>(r * ld + j)];
              const float exp = j < P ? want[static_cast<size_t>(r * P + j)] : kSentinel;
              ASSERT_EQ(got, exp) << "row " << r << " lane " << j << " stride " << stride
                                  << " pad " << pad << " k " << k << " hw " << hw;
            }
        }
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint property).
  Rng rng(9);
  ConvGeom g{2, 5, 5, 3, 3, 2, 1};
  const int64_t cols_size = g.in_c * g.k_h * g.k_w * g.out_h() * g.out_w();
  Tensor x({g.in_c * g.in_h * g.in_w});
  Tensor y({cols_size});
  rng.fill_normal(x, 0.0f, 1.0f);
  rng.fill_normal(y, 0.0f, 1.0f);
  Tensor cx({cols_size});
  im2col(x.data(), g, cx.data());
  Tensor cy({g.in_c * g.in_h * g.in_w});
  col2im(y.data(), g, cy.data());
  EXPECT_NEAR(dot(cx, y), dot(x, cy), 1e-3f);
}

TEST(Softmax, RowsSumToOne) {
  Tensor logits({2, 4}, std::vector<float>{1, 2, 3, 4, -1, 0, 1, 100});
  Tensor p = softmax_rows(logits);
  for (int64_t r = 0; r < 2; ++r) {
    double s = 0.0;
    for (int64_t c = 0; c < 4; ++c) s += p.at(r, c);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
  // Large logit dominates without overflow.
  EXPECT_NEAR(p.at(1, 3), 1.0, 1e-5);
}

}  // namespace
}  // namespace cn
