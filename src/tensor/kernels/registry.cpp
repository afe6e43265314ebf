#include "src/tensor/kernels/registry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/tensor/kernels/gemm_naive.h"
#include "src/tensor/kernels/gemm_tiled.h"
#include "src/tensor/kernels/simd.h"

namespace pipemare::tensor::kernels {

namespace {

// Below this many rows, packing B^T for the nt variant costs more than the
// packed kernel saves (pack is O(k*n), compute only O(m*k*n)); fall back
// to direct scalar dots, which are bitwise-identical anyway.
constexpr int kNtPackMinRows = 8;

std::atomic<int> g_kind{static_cast<int>(KernelKind::tiled)};

void init_from_env_once() {
  // getenv is mt-unsafe only against a concurrent setenv; this runs once
  // behind a magic-static before any worker thread exists, and nothing in
  // the tree writes the environment.
  static const bool done = [] {
    if (const char* e = std::getenv("PIPEMARE_KERNELS")) {  // NOLINT(concurrency-mt-unsafe)
      auto kind = KernelRegistry::parse(e);
      if (!kind) {
        throw std::invalid_argument(
            std::string("PIPEMARE_KERNELS: unknown kernel kind '") + e +
            "' (expected naive|tiled)");
      }
      g_kind.store(static_cast<int>(*kind), std::memory_order_relaxed);
    }
    return true;
  }();
  (void)done;
}

// ---- Tiled elementwise / epilogue kernels ---------------------------------
// Every PIPEMARE_SIMD loop below is elementwise-independent (or, for the
// bias epilogue, an independent per-element add), so vectorizing it cannot
// reorder any accumulation chain — bitwise-safe by construction.

void bias_rows(float* c, const float* bias, int i0, int i1, int n) {
  for (int i = i0; i < i1; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    PIPEMARE_SIMD
    for (int j = 0; j < n; ++j) crow[j] += bias[j];
  }
}

void tiled_axpy(float* a, const float* b, float s, std::int64_t count) {
  PIPEMARE_SIMD
  for (std::int64_t i = 0; i < count; ++i) a[i] += s * b[i];
}

void tiled_mul_inplace(float* a, const float* b, std::int64_t count) {
  PIPEMARE_SIMD
  for (std::int64_t i = 0; i < count; ++i) a[i] *= b[i];
}

void tiled_scale_inplace(float* a, float s, std::int64_t count) {
  PIPEMARE_SIMD
  for (std::int64_t i = 0; i < count; ++i) a[i] *= s;
}

void tiled_add_row_inplace(float* a, const float* b, std::int64_t rows,
                           int n) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* arow = a + r * n;
    PIPEMARE_SIMD
    for (int j = 0; j < n; ++j) arow[j] += b[j];
  }
}

void tiled_relu_inplace(float* a, std::int64_t count) {
  PIPEMARE_SIMD
  for (std::int64_t i = 0; i < count; ++i) a[i] = std::max(0.0F, a[i]);
}

void tiled_relu_backward(float* dx, const float* a, std::int64_t count) {
  PIPEMARE_SIMD
  for (std::int64_t i = 0; i < count; ++i) {
    dx[i] = a[i] <= 0.0F ? 0.0F : dx[i];
  }
}

void tiled_softmax_rows(const float* a, float* out, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* ar = a + static_cast<std::size_t>(i) * n;
    float* orow = out + static_cast<std::size_t>(i) * n;
    float mx = ar[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, ar[j]);
    // z stays a sequential scalar reduction: vectorizing it would
    // reassociate the sum and break bitwise parity with naive.
    float z = 0.0F;
    for (int j = 0; j < n; ++j) {
      float e = std::exp(ar[j] - mx);
      orow[j] = e;
      z += e;
    }
    float inv = 1.0F / z;
    PIPEMARE_SIMD
    for (int j = 0; j < n; ++j) orow[j] *= inv;
  }
}

void tiled_log_softmax_rows(const float* a, float* out, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* ar = a + static_cast<std::size_t>(i) * n;
    float* orow = out + static_cast<std::size_t>(i) * n;
    float mx = ar[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, ar[j]);
    float z = 0.0F;
    for (int j = 0; j < n; ++j) z += std::exp(ar[j] - mx);
    float lz = std::log(z) + mx;
    PIPEMARE_SIMD
    for (int j = 0; j < n; ++j) orow[j] = ar[j] - lz;
  }
}

// ---- Tiled GEMM wrappers: ISA dispatch ------------------------------------

void tiled_gemm_nn(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  tiled_fns()->gemm_rows(a, static_cast<std::size_t>(k), 1, b, c, 0, m, k, n);
}

void tiled_gemm_tn(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  tiled_fns()->gemm_rows(a, 1, static_cast<std::size_t>(m), b, c, 0, m, k, n);
}

// Shared nt body: pack B^T once to [k,n] (pure data movement, so the
// packed run reads the same values in the same ascending-k order as the
// naive dot) and reuse the nn row kernel; the fused bias epilogue runs
// after the rows are produced.
void tiled_gemm_nt_body(const float* a, const float* b, const float* bias,
                        float* c, int m, int k, int n) {
  const TiledFns* fns = tiled_fns();
  if (m < kNtPackMinRows) {
    fns->gemm_nt_rows(a, b, c, 0, m, k, n);
    if (bias != nullptr) bias_rows(c, bias, 0, m, n);
    return;
  }
  std::vector<float> bt(static_cast<std::size_t>(k) * n);
  fns->transpose2d(b, bt.data(), n, k);
  fns->gemm_rows(a, static_cast<std::size_t>(k), 1, bt.data(), c, 0, m, k, n);
  if (bias != nullptr) bias_rows(c, bias, 0, m, n);
}

void tiled_gemm_nt(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  tiled_gemm_nt_body(a, b, nullptr, c, m, k, n);
}

void tiled_gemm_nt_bias(const float* a, const float* b, const float* bias,
                        float* c, int m, int k, int n) {
  tiled_gemm_nt_body(a, b, bias, c, m, k, n);
}

void tiled_transpose2d_entry(const float* a, float* t, int m, int n) {
  tiled_fns()->transpose2d(a, t, m, n);
}

const KernelTable& tiled_table() {
  static const KernelTable table{
      "tiled",          tiled_gemm_nn,      tiled_gemm_tn,
      tiled_gemm_nt,    tiled_gemm_nt_bias, tiled_transpose2d_entry,
      tiled_axpy,       tiled_mul_inplace,  tiled_scale_inplace,
      tiled_add_row_inplace, tiled_relu_inplace, tiled_relu_backward,
      tiled_softmax_rows, tiled_log_softmax_rows,
  };
  return table;
}

}  // namespace

KernelKind KernelRegistry::kind() {
  init_from_env_once();
  return static_cast<KernelKind>(g_kind.load(std::memory_order_relaxed));
}

void KernelRegistry::set_kind(KernelKind k) {
  init_from_env_once();
  g_kind.store(static_cast<int>(k), std::memory_order_relaxed);
}

const KernelTable& KernelRegistry::table() { return table(kind()); }

const KernelTable& KernelRegistry::table(KernelKind k) {
  return k == KernelKind::tiled ? tiled_table() : naive_table();
}

std::string_view KernelRegistry::kind_name(KernelKind k) {
  return table(k).name;
}

std::string_view KernelRegistry::name() { return kind_name(kind()); }

std::optional<KernelKind> KernelRegistry::parse(std::string_view s) {
  if (s == "naive") return KernelKind::naive;
  if (s == "tiled") return KernelKind::tiled;
  return std::nullopt;
}

bool KernelRegistry::simd_compiled() {
#if defined(PIPEMARE_OPENMP_SIMD)
  return true;
#else
  return false;
#endif
}

std::string_view KernelRegistry::tiled_isa() { return tiled_fns_isa(); }

}  // namespace pipemare::tensor::kernels
