// Dense math kernels on Tensor.
//
// All functions are shape-checked (throw std::invalid_argument on mismatch).
// Conventions:
//  - matrices are rank-2 tensors, row-major;
//  - images are NCHW;
//  - "into" variants write into a preallocated output to avoid allocation in
//    hot training loops.
#pragma once

#include "tensor/tensor.h"

namespace cn {

// ---------- elementwise ----------

/// out = a + b (same shape).
Tensor add(const Tensor& a, const Tensor& b);
/// out = a - b.
Tensor sub(const Tensor& a, const Tensor& b);
/// out = a * b (Hadamard).
Tensor mul(const Tensor& a, const Tensor& b);
/// out = a * s.
Tensor scale(const Tensor& a, float s);
/// a += b.
void add_inplace(Tensor& a, const Tensor& b);
/// a -= b.
void sub_inplace(Tensor& a, const Tensor& b);
/// a *= b (Hadamard).
void mul_inplace(Tensor& a, const Tensor& b);
/// a *= s.
void scale_inplace(Tensor& a, float s);
/// a += s * b (axpy).
void axpy_inplace(Tensor& a, float s, const Tensor& b);

// ---------- reductions / stats ----------

float sum(const Tensor& a);
float mean(const Tensor& a);
float max_abs(const Tensor& a);
/// Sum of squared elements.
float sum_sq(const Tensor& a);
/// Euclidean norm.
float l2_norm(const Tensor& a);
/// Index of the maximum element in row `r` of a 2-D tensor.
int64_t argmax_row(const Tensor& a, int64_t r);

// ---------- linear algebra ----------

/// C = A(M,K) * B(K,N). Parallel blocked kernel.
Tensor matmul(const Tensor& a, const Tensor& b);
/// C += or = A*B with preallocated C; if accumulate, adds into C.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);
/// C = A^T(K,M) * B(K,N) -> (M,N).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A(M,K) * B^T(N,K) -> (M,N). Each output is one double accumulator
/// summed in ascending k (the exec::digital dense kernel).
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// Transpose of a rank-2 tensor.
Tensor transpose(const Tensor& a);
/// y = A(M,N) * x(N).
Tensor matvec(const Tensor& a, const Tensor& x);
/// y = A^T(M,N) * x(M) -> (N).
Tensor matvec_t(const Tensor& a, const Tensor& x);
/// Dot product of two same-size tensors (flattened).
float dot(const Tensor& a, const Tensor& b);

// ---------- convolution support ----------

/// Geometry of a 2-D convolution / pooling window.
struct ConvGeom {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t k_h = 0, k_w = 0;
  int64_t stride = 1;
  int64_t pad = 0;
  int64_t out_h() const { return (in_h + 2 * pad - k_h) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * pad - k_w) / stride + 1; }
};

/// im2col for one image: input (C,H,W) -> cols (C*kh*kw, OH*OW), cols rows
/// `ld` floats apart (ld >= OH*OW; 0 means OH*OW). Lanes [OH*OW, ld) of each
/// row are left untouched. Stride-1 geometries with rows of 8+ pixels copy
/// zero-bordered input rows.
void im2col(const float* img, const ConvGeom& g, float* cols, int64_t ld = 0);
/// col2im scatter-add: cols (C*kh*kw, OH*OW) -> img (C,H,W) (img must be zeroed).
void col2im(const float* cols, const ConvGeom& g, float* img);

// ---------- activations (out-of-place building blocks) ----------

/// Row-wise softmax of a 2-D tensor.
Tensor softmax_rows(const Tensor& logits);

}  // namespace cn
