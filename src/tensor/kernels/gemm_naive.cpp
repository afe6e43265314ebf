#include "src/tensor/kernels/gemm_naive.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace pipemare::tensor::kernels {

namespace {

void naive_gemm_nn(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  // ikj loop order: streams over B and C rows, friendly to the prefetcher.
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      float av = a[static_cast<std::size_t>(i) * k + p];
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void naive_gemm_tn(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<std::size_t>(p) * m;
    const float* brow = b + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      float av = arow[i];
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void naive_gemm_nt(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float s = 0.0F;
      for (int p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = s;
    }
  }
}

void naive_axpy(float* a, const float* b, float s, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) a[i] += s * b[i];
}

void naive_add_row_inplace(float* a, const float* b, std::int64_t rows,
                           int n) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (int j = 0; j < n; ++j) a[r * n + j] += b[j];
  }
}

void naive_relu_inplace(float* a, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) a[i] = std::max(0.0F, a[i]);
}

// The unfused oracle for the fused epilogue: full GEMM pass, then a bias
// pass — the exact op sequence nn::Linear ran before fusion, so
// tiled-fused must match it bitwise.
void naive_gemm_nt_bias(const float* a, const float* b, const float* bias,
                        float* c, int m, int k, int n) {
  naive_gemm_nt(a, b, c, m, k, n);
  naive_add_row_inplace(c, bias, m, n);
}

void naive_transpose2d(const float* a, float* t, int m, int n) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      t[static_cast<std::size_t>(j) * m + i] =
          a[static_cast<std::size_t>(i) * n + j];
}

void naive_mul_inplace(float* a, const float* b, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) a[i] *= b[i];
}

void naive_scale_inplace(float* a, float s, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) a[i] *= s;
}

void naive_relu_backward(float* dx, const float* a, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    if (a[i] <= 0.0F) dx[i] = 0.0F;
  }
}

void naive_softmax_rows(const float* a, float* out, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* ar = a + static_cast<std::size_t>(i) * n;
    float* orow = out + static_cast<std::size_t>(i) * n;
    float mx = ar[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, ar[j]);
    float z = 0.0F;
    for (int j = 0; j < n; ++j) {
      float e = std::exp(ar[j] - mx);
      orow[j] = e;
      z += e;
    }
    float inv = 1.0F / z;
    for (int j = 0; j < n; ++j) orow[j] *= inv;
  }
}

void naive_log_softmax_rows(const float* a, float* out, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* ar = a + static_cast<std::size_t>(i) * n;
    float* orow = out + static_cast<std::size_t>(i) * n;
    float mx = ar[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, ar[j]);
    float z = 0.0F;
    for (int j = 0; j < n; ++j) z += std::exp(ar[j] - mx);
    float lz = std::log(z) + mx;
    for (int j = 0; j < n; ++j) orow[j] = ar[j] - lz;
  }
}

}  // namespace

const KernelTable& naive_table() {
  static const KernelTable table{
      "naive",          naive_gemm_nn,      naive_gemm_tn,
      naive_gemm_nt,    naive_gemm_nt_bias, naive_transpose2d,
      naive_axpy,       naive_mul_inplace,  naive_scale_inplace,
      naive_add_row_inplace, naive_relu_inplace, naive_relu_backward,
      naive_softmax_rows, naive_log_softmax_rows,
  };
  return table;
}

}  // namespace pipemare::tensor::kernels
