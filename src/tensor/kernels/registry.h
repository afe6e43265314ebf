#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace pipemare::tensor::kernels {

/// Which kernel backend the tensor ops dispatch to.
///
/// `naive` is the original scalar code (the oracle); `tiled` is the
/// register-blocked + SIMD path. Both produce bitwise-identical results —
/// the tiled kernels preserve the exact per-output-element k-accumulation
/// order — so the choice is pure performance, never semantics, and the
/// repo's sequential-parity invariant holds under either.
enum class KernelKind { naive, tiled };

/// Raw-pointer kernel table: one entry per dispatched op. The `tensor::ops`
/// wrappers keep all shape checking and Tensor allocation; table entries
/// see validated pointers only. GEMM outputs are written assuming `c` is
/// zero-initialized (Tensor allocation guarantees it).
struct KernelTable {
  const char* name;

  /// C[m,n] = A[m,k] * B[k,n].
  void (*gemm_nn)(const float* a, const float* b, float* c, int m, int k,
                  int n);
  /// C[m,n] = A[k,m]^T * B[k,n].
  void (*gemm_tn)(const float* a, const float* b, float* c, int m, int k,
                  int n);
  /// C[m,n] = A[m,k] * B[n,k]^T.
  void (*gemm_nt)(const float* a, const float* b, float* c, int m, int k,
                  int n);
  /// C[m,n] = A[m,k] * B[n,k]^T + bias[n] (broadcast over rows) — the
  /// fused Linear-forward epilogue.
  void (*gemm_nt_bias)(const float* a, const float* b, const float* bias,
                       float* c, int m, int k, int n);

  /// T[n,m] = A[m,n]^T.
  void (*transpose2d)(const float* a, float* t, int m, int n);

  /// a[i] += s * b[i].
  void (*axpy)(float* a, const float* b, float s, std::int64_t count);
  /// a[i] *= b[i].
  void (*mul_inplace)(float* a, const float* b, std::int64_t count);
  /// a[i] *= s.
  void (*scale_inplace)(float* a, float s, std::int64_t count);
  /// a[r*n + j] += b[j] for every row r.
  void (*add_row_inplace)(float* a, const float* b, std::int64_t rows, int n);
  /// a[i] = max(0, a[i]).
  void (*relu_inplace)(float* a, std::int64_t count);
  /// dx[i] = 0 where a[i] <= 0 (dx pre-loaded with dy).
  void (*relu_backward)(float* dx, const float* a, std::int64_t count);

  /// Row-wise stable softmax / log-softmax of a[m,n] into out[m,n].
  void (*softmax_rows)(const float* a, float* out, int m, int n);
  void (*log_softmax_rows)(const float* a, float* out, int m, int n);
};

/// Process-wide kernel selection, initialized once from the environment
/// (PIPEMARE_KERNELS=naive|tiled) on first use and overridable at startup
/// via `--kernels=` (core::parse_backend_cli).
///
/// Selection is a single atomic pointer swap: changing the kind mid-run is
/// safe (ops dispatch through one load), though the supported pattern is
/// set-at-startup. A kernel runs on the calling thread: the repo's
/// parallelism is the pipeline's, with every worker thread owned by
/// sched::TaskGraphRunner.
class KernelRegistry {
 public:
  static KernelKind kind();
  static void set_kind(KernelKind k);

  /// Active table (the one `tensor::ops` dispatches to).
  static const KernelTable& table();
  /// Specific table, independent of the active kind — lets tests and
  /// benches run naive-as-oracle against tiled without flipping state.
  static const KernelTable& table(KernelKind k);

  static std::string_view kind_name(KernelKind k);
  /// Active kind's name ("naive" / "tiled").
  static std::string_view name();
  static std::optional<KernelKind> parse(std::string_view s);

  /// Always 1: a GEMM runs on its calling thread. Kept only because
  /// perfbench writes it into its run manifest.
  static constexpr int lanes() { return 1; }

  /// True when the build had -fopenmp-simd (PIPEMARE_SIMD pragmas active).
  static bool simd_compiled();
  /// ISA the tiled GEMM dispatches to on this machine: "avx2" or "base".
  static std::string_view tiled_isa();
};

}  // namespace pipemare::tensor::kernels
