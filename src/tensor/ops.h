#pragma once

#include "src/tensor/tensor.h"

namespace pipemare::tensor {

// All ops below dispatch through kernels::KernelRegistry (naive oracle vs
// tiled+SIMD; see src/tensor/kernels/) — every backend produces bitwise-
// identical results, so callers never observe the selection.

// ---- BLAS-like kernels (row-major) -----------------------------------------

/// C[m,n] = A[m,k] * B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[m,n] = A[k,m]^T * B[k,n] (transpose-first matmul, used in backward).
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// C[m,n] = A[m,k] * B[n,k]^T (transpose-second matmul, used in backward).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// C[m,n] = A[m,k] * B[n,k]^T + bias[n] broadcast over rows — the fused
/// Linear/Conv/attention-projection forward (one pass over C instead of a
/// GEMM pass plus an add_row_inplace pass). Bitwise-equal to the unfused
/// sequence.
Tensor matmul_nt_bias(const Tensor& a, const Tensor& b,
                      std::span<const float> bias);

/// B[n,m] = A[m,n]^T.
Tensor transpose2d(const Tensor& a);

// ---- Elementwise ------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);

/// a += s * b (axpy); shapes must match.
void add_inplace(Tensor& a, const Tensor& b, float s = 1.0F);

/// Adds a row vector b[n] to every row of a[m,n].
void add_row_inplace(Tensor& a, std::span<const float> b);

Tensor relu(const Tensor& a);
/// dx = dy where a > 0 else 0 (a is the forward *input*).
Tensor relu_backward(const Tensor& dy, const Tensor& a);

// ---- Reductions and softmax -------------------------------------------------

/// Numerically stable softmax over the last dimension of a 2-D tensor.
Tensor softmax_rows(const Tensor& a);

/// Numerically stable log-softmax over the last dimension of a 2-D tensor.
Tensor log_softmax_rows(const Tensor& a);

/// Sum over all elements.
double sum(const Tensor& a);

/// Column sums of a 2-D tensor: out[n] = sum_m a[m,n]; accumulated into
/// `out` (must have size n).
void col_sum_accumulate(const Tensor& a, std::span<float> out);

/// Mean squared difference between two tensors of identical shape.
double mse(const Tensor& a, const Tensor& b);

}  // namespace pipemare::tensor
