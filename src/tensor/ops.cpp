#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "exec/digital_kernels.h"
#include "tensor/threadpool.h"

namespace cn {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                to_string(a.shape()) + " vs " + to_string(b.shape()));
  }
}
void check_rank2(const Tensor& a, const char* op) {
  if (a.rank() != 2)
    throw std::invalid_argument(std::string(op) + ": expected rank-2, got " +
                                to_string(a.shape()));
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out = a;
  add_inplace(out, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a;
  sub_inplace(out, b);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out = a;
  mul_inplace(out, b);
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  scale_inplace(out, s);
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) pa[i] += pb[i];
}

void sub_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) pa[i] -= pb[i];
}

void mul_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) pa[i] *= pb[i];
}

void scale_inplace(Tensor& a, float s) {
  float* pa = a.data();
  for (int64_t i = 0; i < a.size(); ++i) pa[i] *= s;
}

void axpy_inplace(Tensor& a, float s, const Tensor& b) {
  check_same_shape(a, b, "axpy_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) pa[i] += s * pb[i];
}

float sum(const Tensor& a) {
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) acc += a[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  return a.size() == 0 ? 0.0f : sum(a) / static_cast<float>(a.size());
}

float max_abs(const Tensor& a) {
  float m = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i]));
  return m;
}

float sum_sq(const Tensor& a) {
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) acc += static_cast<double>(a[i]) * a[i];
  return static_cast<float>(acc);
}

float l2_norm(const Tensor& a) { return std::sqrt(sum_sq(a)); }

int64_t argmax_row(const Tensor& a, int64_t r) {
  check_rank2(a, "argmax_row");
  const int64_t cols = a.dim(1);
  const float* row = a.data() + r * cols;
  int64_t best = 0;
  for (int64_t c = 1; c < cols; ++c)
    if (row[c] > row[best]) best = c;
  return best;
}

// ---------- matmul ----------

namespace {
// Inner kernel: rows [r0, r1) of C(M,N) = A(M,K) * B(K,N), accumulate or set.
void matmul_rows(const float* a, const float* b, float* c, int64_t r0, int64_t r1,
                 int64_t K, int64_t N, bool accumulate) {
  for (int64_t i = r0; i < r1; ++i) {
    float* crow = c + i * N;
    if (!accumulate) std::fill(crow, crow + N, 0.0f);
    const float* arow = a + i * K;
    for (int64_t k = 0; k < K; ++k) {
      const float aik = arow[k];
      if (aik == 0.0f) continue;
      const float* brow = b + k * N;
      for (int64_t j = 0; j < N; ++j) crow[j] += aik * brow[j];
    }
  }
}
}  // namespace

void matmul_into(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_rank2(a, "matmul");
  check_rank2(b, "matmul");
  const int64_t M = a.dim(0), K = a.dim(1), N = b.dim(1);
  if (b.dim(0) != K)
    throw std::invalid_argument("matmul: inner dim mismatch " + to_string(a.shape()) +
                                " x " + to_string(b.shape()));
  if (c.rank() != 2 || c.dim(0) != M || c.dim(1) != N)
    throw std::invalid_argument("matmul_into: bad output shape " + to_string(c.shape()));
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Parallelize over rows; keep chunks big enough to amortize scheduling.
  const int64_t min_chunk = std::max<int64_t>(1, 16384 / std::max<int64_t>(1, K * N / M + 1));
  parallel_for(
      0, M,
      [&](int64_t lo, int64_t hi) { matmul_rows(pa, pb, pc, lo, hi, K, N, accumulate); },
      std::max<int64_t>(4, min_chunk));
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  matmul_into(a, b, c, false);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_tn");
  check_rank2(b, "matmul_tn");
  const int64_t K = a.dim(0), M = a.dim(1), N = b.dim(1);
  if (b.dim(0) != K)
    throw std::invalid_argument("matmul_tn: inner dim mismatch");
  Tensor c({M, N});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // C[i,j] = sum_k A[k,i] * B[k,j]; loop k outer for sequential access.
  parallel_for(0, M, [&](int64_t lo, int64_t hi) {
    for (int64_t k = 0; k < K; ++k) {
      const float* arow = pa + k * M;
      const float* brow = pb + k * N;
      for (int64_t i = lo; i < hi; ++i) {
        const float aki = arow[i];
        if (aki == 0.0f) continue;
        float* crow = pc + i * N;
        for (int64_t j = 0; j < N; ++j) crow[j] += aki * brow[j];
      }
    }
  }, 8);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_nt");
  check_rank2(b, "matmul_nt");
  const int64_t M = a.dim(0), K = a.dim(1), N = b.dim(0);
  if (b.dim(1) != K)
    throw std::invalid_argument("matmul_nt: inner dim mismatch");
  std::vector<double> packed(static_cast<size_t>(exec::digital::packed_nt_size(N, K)));
  exec::digital::pack_nt(b.data(), nullptr, N, K, packed.data());
  Tensor c({M, N});
  const float* pa = a.data();
  float* pc = c.data();
  parallel_for(0, M, [&](int64_t lo, int64_t hi) {
    exec::digital::matmul_nt_packed(pa + lo * K, hi - lo, K, packed.data(), N,
                                    /*bias=*/nullptr, /*relu=*/false, pc + lo * N);
  }, 8);
  return c;
}

Tensor transpose(const Tensor& a) {
  check_rank2(a, "transpose");
  const int64_t M = a.dim(0), N = a.dim(1);
  Tensor t({N, M});
  for (int64_t i = 0; i < M; ++i)
    for (int64_t j = 0; j < N; ++j) t[j * M + i] = a[i * N + j];
  return t;
}

Tensor matvec(const Tensor& a, const Tensor& x) {
  check_rank2(a, "matvec");
  const int64_t M = a.dim(0), N = a.dim(1);
  if (x.size() != N) throw std::invalid_argument("matvec: size mismatch");
  Tensor y({M});
  const float* pa = a.data();
  const float* px = x.data();
  for (int64_t i = 0; i < M; ++i) {
    double acc = 0.0;
    const float* row = pa + i * N;
    for (int64_t j = 0; j < N; ++j) acc += static_cast<double>(row[j]) * px[j];
    y[i] = static_cast<float>(acc);
  }
  return y;
}

Tensor matvec_t(const Tensor& a, const Tensor& x) {
  check_rank2(a, "matvec_t");
  const int64_t M = a.dim(0), N = a.dim(1);
  if (x.size() != M) throw std::invalid_argument("matvec_t: size mismatch");
  Tensor y({N});
  const float* pa = a.data();
  for (int64_t i = 0; i < M; ++i) {
    const float xi = x[i];
    const float* row = pa + i * N;
    for (int64_t j = 0; j < N; ++j) y[j] += xi * row[j];
  }
  return y;
}

float dot(const Tensor& a, const Tensor& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) acc += static_cast<double>(a[i]) * b[i];
  return static_cast<float>(acc);
}

// ---------- im2col / col2im ----------

namespace {
// ROW_COPY (stride 1 only): output columns [lo, hi) of a row copy one input
// row and the rest are zero padding; otherwise each element is gathered.
template <bool ROW_COPY>
void im2col_rows(const float* img, const ConvGeom& g, float* cols, int64_t ld) {
  const int64_t OH = g.out_h(), OW = g.out_w();
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* chan = img + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.k_h; ++kh) {
      for (int64_t kw = 0; kw < g.k_w; ++kw, ++row) {
        float* out = cols + row * ld;
        const int64_t lo = std::clamp<int64_t>(g.pad - kw, 0, OW);
        const int64_t hi = std::clamp<int64_t>(g.in_w + g.pad - kw, lo, OW);
        for (int64_t oh = 0; oh < OH; ++oh) {
          const int64_t ih = oh * g.stride + kh - g.pad;
          float* dst = out + oh * OW;
          if (ih < 0 || ih >= g.in_h) {
            std::fill(dst, dst + OW, 0.0f);
            continue;
          }
          const float* src = chan + ih * g.in_w;
          if (ROW_COPY) {
            for (int64_t ow = 0; ow < lo; ++ow) dst[ow] = 0.0f;
            for (int64_t ow = lo; ow < hi; ++ow) dst[ow] = src[ow + kw - g.pad];
            for (int64_t ow = hi; ow < OW; ++ow) dst[ow] = 0.0f;
            continue;
          }
          for (int64_t ow = 0; ow < OW; ++ow) {
            const int64_t iw = ow * g.stride + kw - g.pad;
            dst[ow] = (iw < 0 || iw >= g.in_w) ? 0.0f : src[iw];
          }
        }
      }
    }
  }
}
}  // namespace

void im2col(const float* img, const ConvGeom& g, float* cols, int64_t ld) {
  if (ld == 0) ld = g.out_h() * g.out_w();
  // Below 8 pixels a row is cheaper gathered than copied between the border
  // memsets the copy form compiles to.
  if (g.stride == 1 && g.out_w() >= 8)
    im2col_rows<true>(img, g, cols, ld);
  else
    im2col_rows<false>(img, g, cols, ld);
}

void col2im(const float* cols, const ConvGeom& g, float* img) {
  const int64_t OH = g.out_h(), OW = g.out_w();
  const int64_t ncols = OH * OW;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    float* chan = img + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.k_h; ++kh) {
      for (int64_t kw = 0; kw < g.k_w; ++kw, ++row) {
        const float* in = cols + row * ncols;
        for (int64_t oh = 0; oh < OH; ++oh) {
          const int64_t ih = oh * g.stride + kh - g.pad;
          if (ih < 0 || ih >= g.in_h) continue;
          float* dst = chan + ih * g.in_w;
          const float* src = in + oh * OW;
          for (int64_t ow = 0; ow < OW; ++ow) {
            const int64_t iw = ow * g.stride + kw - g.pad;
            if (iw >= 0 && iw < g.in_w) dst[iw] += src[ow];
          }
        }
      }
    }
  }
}

Tensor softmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("softmax_rows: expected rank-2");
  const int64_t N = logits.dim(0), C = logits.dim(1);
  Tensor out(logits.shape());
  for (int64_t i = 0; i < N; ++i) {
    const float* in = logits.data() + i * C;
    float* o = out.data() + i * C;
    float mx = in[0];
    for (int64_t c = 1; c < C; ++c) mx = std::max(mx, in[c]);
    double z = 0.0;
    for (int64_t c = 0; c < C; ++c) {
      o[c] = std::exp(in[c] - mx);
      z += o[c];
    }
    const float inv = static_cast<float>(1.0 / z);
    for (int64_t c = 0; c < C; ++c) o[c] *= inv;
  }
  return out;
}

}  // namespace cn
