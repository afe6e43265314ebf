// Thin dispatch wrappers: shape validation and Tensor allocation live
// here; the arithmetic lives in src/tensor/kernels/ behind the
// KernelRegistry (naive oracle vs tiled+SIMD, selected via --kernels= or
// PIPEMARE_KERNELS). Scalar double-precision reductions (sum, mse,
// col_sum_accumulate) stay here: their accumulation order is the spec.
#include "src/tensor/ops.h"

#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/tensor/kernels/registry.h"

namespace pipemare::tensor {

namespace {

using kernels::KernelRegistry;

void require(bool ok, const char* msg) {
  if (!ok) throw std::invalid_argument(msg);
}

/// GEMM-family dispatch counter ("kernels.gemm_dispatch"): counts every
/// matmul* call routed through the KernelRegistry, whichever backend
/// table is selected. GEMMs are the O(mkn) calls — elementwise ops are
/// deliberately not counted to keep dispatch overhead a single relaxed
/// fetch_add on only the heavy path.
void count_gemm() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("kernels.gemm_dispatch");
  c.add();
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 tensors required");
  int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimension mismatch");
  Tensor c({m, n});
  count_gemm();
  KernelRegistry::table().gemm_nn(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_tn: rank-2 tensors required");
  int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  require(b.dim(0) == k, "matmul_tn: inner dimension mismatch");
  Tensor c({m, n});
  count_gemm();
  KernelRegistry::table().gemm_tn(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_nt: rank-2 tensors required");
  int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  require(b.dim(1) == k, "matmul_nt: inner dimension mismatch");
  Tensor c({m, n});
  count_gemm();
  KernelRegistry::table().gemm_nt(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor matmul_nt_bias(const Tensor& a, const Tensor& b,
                      std::span<const float> bias) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_nt_bias: rank-2 tensors required");
  int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  require(b.dim(1) == k, "matmul_nt_bias: inner dimension mismatch");
  require(static_cast<int>(bias.size()) == n,
          "matmul_nt_bias: bias size mismatch");
  Tensor c({m, n});
  count_gemm();
  KernelRegistry::table().gemm_nt_bias(a.data(), b.data(), bias.data(),
                                       c.data(), m, k, n);
  return c;
}

Tensor transpose2d(const Tensor& a) {
  require(a.rank() == 2, "transpose2d: rank-2 tensor required");
  int m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  KernelRegistry::table().transpose2d(a.data(), t.data(), m, n);
  return t;
}

Tensor add(const Tensor& a, const Tensor& b) {
  require(a.shape() == b.shape(), "add: shape mismatch");
  Tensor c = a;
  add_inplace(c, b, 1.0F);
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  require(a.shape() == b.shape(), "sub: shape mismatch");
  Tensor c = a;
  add_inplace(c, b, -1.0F);
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  require(a.shape() == b.shape(), "mul: shape mismatch");
  Tensor c = a;
  KernelRegistry::table().mul_inplace(c.data(), b.data(), c.size());
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = a;
  KernelRegistry::table().scale_inplace(c.data(), s, c.size());
  return c;
}

void add_inplace(Tensor& a, const Tensor& b, float s) {
  require(a.size() == b.size(), "add_inplace: size mismatch");
  KernelRegistry::table().axpy(a.data(), b.data(), s, a.size());
}

void add_row_inplace(Tensor& a, std::span<const float> b) {
  require(a.rank() >= 1, "add_row_inplace: tensor required");
  int n = a.dim(a.rank() - 1);
  require(static_cast<int>(b.size()) == n, "add_row_inplace: row size mismatch");
  std::int64_t rows = n == 0 ? 0 : a.size() / n;
  KernelRegistry::table().add_row_inplace(a.data(), b.data(), rows, n);
}

Tensor relu(const Tensor& a) {
  Tensor c = a;
  KernelRegistry::table().relu_inplace(c.data(), c.size());
  return c;
}

Tensor relu_backward(const Tensor& dy, const Tensor& a) {
  require(dy.size() == a.size(), "relu_backward: size mismatch");
  Tensor dx = dy;
  KernelRegistry::table().relu_backward(dx.data(), a.data(), dx.size());
  return dx;
}

Tensor softmax_rows(const Tensor& a) {
  require(a.rank() == 2, "softmax_rows: rank-2 tensor required");
  int m = a.dim(0), n = a.dim(1);
  Tensor out({m, n});
  if (n > 0) KernelRegistry::table().softmax_rows(a.data(), out.data(), m, n);
  return out;
}

Tensor log_softmax_rows(const Tensor& a) {
  require(a.rank() == 2, "log_softmax_rows: rank-2 tensor required");
  int m = a.dim(0), n = a.dim(1);
  Tensor out({m, n});
  if (n > 0)
    KernelRegistry::table().log_softmax_rows(a.data(), out.data(), m, n);
  return out;
}

double sum(const Tensor& a) {
  double s = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) s += a[i];
  return s;
}

void col_sum_accumulate(const Tensor& a, std::span<float> out) {
  require(a.rank() == 2, "col_sum_accumulate: rank-2 tensor required");
  int m = a.dim(0), n = a.dim(1);
  require(static_cast<int>(out.size()) == n, "col_sum_accumulate: size mismatch");
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) out[static_cast<std::size_t>(j)] += a.at(i, j);
}

double mse(const Tensor& a, const Tensor& b) {
  require(a.size() == b.size(), "mse: size mismatch");
  double s = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return a.size() == 0 ? 0.0 : s / static_cast<double>(a.size());
}

}  // namespace pipemare::tensor
