#pragma once

// Shared plumbing of the repository benchmark: command-line arguments, the
// result report (metrics by name with units, operation accounting, run
// manifest), and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pipemare::core {
class TranslationTask;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check mode: a few steps / a short phase per measurement, so the
  /// metric names can be validated in seconds (numbers are meaningless).
  bool quick = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  /// Directory for files the benchmark writes (the serving checkpoint).
  std::string work_dir = ".bench_build";
  /// Workload parameters from perfbench/workloads.json ("params"), passed
  /// through by run.py as --param key=value.
  std::map<std::string, std::string> params;

  double param(const std::string& key) const;
  std::vector<double> param_list(const std::string& key) const;
};

/// Collects the run's metrics and operation accounting and prints the
/// result: human-readable lines, the manifest and detail JSON lines, then
/// the final one-line JSON object the benchmark contract asks for.
class Report {
 public:
  /// A contract metric (end-to-end with --trace 0, per-layer with 1).
  void metric(const std::string& name, double value, const std::string& unit);
  /// An extra figure printed on the detail line only (the workload-specific
  /// names the contract's shared end-to-end names are derived from).
  void detail(const std::string& name, double value, const std::string& unit);
  void manifest(const std::string& key, const std::string& value);
  void manifest(const std::string& key, double value);
  void manifest(const std::string& key, bool value);

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records `n` failed operations with a reason printed to stderr.
  void fail(const std::string& why, std::uint64_t n = 1);

  bool ok() const { return failed_ == 0; }
  void print() const;

 private:
  struct Value {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Value> metrics_;
  std::vector<Value> details_;
  std::vector<std::pair<std::string, std::string>> manifest_;  ///< JSON-encoded
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The contract's end-to-end metrics, shared by every workload so that each
/// run prints the same names (see perfbench/workloads.json for what each
/// means on each workload).
struct EndToEnd {
  double throughput_per_s = 0.0;  ///< training samples/s | serving saturation req/s
  double latency_p50_ms = 0.0;    ///< step p50 | request p50 at the `low` rate
  double latency_tail_ms = 0.0;   ///< step p95 | request p99 at the `high` rate
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
};
void emit_end_to_end(Report& report, const EndToEnd& e);

/// Per-layer figures of a traced run. Every workload emits every name; a
/// layer a workload does not run reads 0 (serving has no optimizer step,
/// training no admission queue).
inline constexpr int kKinds = 9;  ///< module kinds, see replay.h
struct ServePhaseFigures {
  double queue_ms_p50 = 0.0;
  double queue_ms_p99 = 0.0;
  double service_ms_p50 = 0.0;
  double mean_batch = 0.0;
  double rejected = 0.0;
  double expired = 0.0;
  double gen_late_ms_p99 = 0.0;
  double worker_busy_share = 0.0;
  double stolen_share = 0.0;
};
struct LayerFigures {
  // sched: the real threaded_steal backend, sampled at step boundaries.
  double fb_ms = 0.0;
  double worker_busy_share = 0.0;
  double worker_idle_share = 0.0;
  double busy_spread = 0.0;
  double steals_per_step = 0.0;
  double stolen_busy_share = 0.0;
  double speedup_vs_seq = 0.0;
  double seq_samples_per_s = 0.0;
  // pipeline: replay (assembly, gradient buffer) and real backend (commit).
  double assemble_fwd_ms = 0.0;
  double assemble_bwd_ms = 0.0;
  double grad_buffer_ms = 0.0;
  double commit_ms = 0.0;
  // optim
  double optim_step_ms = 0.0;
  // nn: per step (training) or per forward batch (serving), by module kind.
  double fwd_ms[kKinds] = {};
  double bwd_ms[kKinds] = {};
  double gflops[kKinds] = {};
  double head_ms = 0.0;
  // tensor
  double gemm_calls_per_step = 0.0;
  double roofline_gflops = 0.0;
  // core
  double minibatch_ms = 0.0;
  double eval_s = 0.0;
  // serve
  ServePhaseFigures low, high;
  // benchmark self-checks
  double replay_coverage = 0.0;
  double trace_overhead_pct = 0.0;
};
void emit_layer_metrics(Report& report, const LayerFigures& f);

/// Fills the manifest fields shared by every workload: cores, kernel kind
/// and ISA, compiler, build type, git sha; `threads` is the number of
/// threads the workload's load runs on.
void add_run_manifest(Report& report, const Args& args, int workers, int threads);

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// The scaled Transformer analog both `transformer-steal` and
/// `serve-transformer` run (d_model 128, ffn 512, 2+2 layers).
std::unique_ptr<pipemare::core::TranslationTask> make_transformer_task(std::uint64_t seed);

void run_train(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);

}  // namespace perfbench
