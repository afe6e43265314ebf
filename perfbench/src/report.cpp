#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench/src/bench.h"
#include "perfbench/src/replay.h"
#include "src/tensor/kernels/registry.h"

namespace perfbench {

namespace {

/// Shortest round-trip decimal form: every digit measured, none invented.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double Args::param(const std::string& key) const {
  auto it = params.find(key);
  if (it == params.end()) {
    throw std::invalid_argument("missing workload parameter --param " + key + "=...");
  }
  return std::stod(it->second);
}

std::vector<double> Args::param_list(const std::string& key) const {
  auto it = params.find(key);
  if (it == params.end()) {
    throw std::invalid_argument("missing workload parameter --param " + key + "=...");
  }
  std::vector<double> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::detail(const std::string& name, double value, const std::string& unit) {
  details_.push_back({name, value, unit});
}

void Report::manifest(const std::string& key, const std::string& value) {
  manifest_.emplace_back(key, json_string(value));
}

void Report::manifest(const std::string& key, double value) {
  manifest_.emplace_back(key, json_number(value));
}

void Report::manifest(const std::string& key, bool value) {
  manifest_.emplace_back(key, value ? "true" : "false");
}

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  std::cerr << "perfbench: FAILED (" << n << "): " << why << "\n";
}

void Report::print() const {
  for (const auto& m : details_) {
    std::cout << "detail  " << m.name << " = " << json_number(m.value) << " " << m.unit
              << "\n";
  }
  for (const auto& m : metrics_) {
    std::cout << "metric  " << m.name << " = " << json_number(m.value) << " " << m.unit
              << "\n";
  }
  std::string line = "{\"manifest\": {";
  for (std::size_t i = 0; i < manifest_.size(); ++i) {
    line += (i ? ", " : "") + json_string(manifest_[i].first) + ": " + manifest_[i].second;
  }
  std::cout << line << "}}\n";
  line = "{\"detail\": {";
  for (std::size_t i = 0; i < details_.size(); ++i) {
    const auto& m = details_[i];
    line += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::cout << line << "}}\n";
  line = "{\"correct\": " + std::string(ok() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    line += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::cout << line << "}}" << std::endl;
}

void emit_end_to_end(Report& report, const EndToEnd& e) {
  report.metric("throughput_per_s", e.throughput_per_s, "1/s");
  report.metric("latency_p50_ms", e.latency_p50_ms, "ms");
  report.metric("latency_tail_ms", e.latency_tail_ms, "ms");
  report.metric("peak_rss_mb", e.peak_rss_mb, "MB");
  report.metric("setup_s", e.setup_s, "s");
}

void emit_layer_metrics(Report& report, const LayerFigures& f) {
  static_assert(kKinds == static_cast<int>(kModuleKinds.size()));
  report.metric("sched.fb_ms", f.fb_ms, "ms");
  report.metric("sched.worker_busy_share", f.worker_busy_share, "ratio");
  report.metric("sched.worker_idle_share", f.worker_idle_share, "ratio");
  report.metric("sched.busy_spread", f.busy_spread, "x");
  report.metric("sched.steals_per_step", f.steals_per_step, "count");
  report.metric("sched.stolen_busy_share", f.stolen_busy_share, "ratio");
  report.metric("sched.speedup_vs_seq", f.speedup_vs_seq, "x");
  report.metric("sched.seq_samples_per_s", f.seq_samples_per_s, "1/s");
  report.metric("pipeline.assemble_fwd_ms", f.assemble_fwd_ms, "ms");
  report.metric("pipeline.assemble_bwd_ms", f.assemble_bwd_ms, "ms");
  report.metric("pipeline.grad_buffer_ms", f.grad_buffer_ms, "ms");
  report.metric("pipeline.commit_ms", f.commit_ms, "ms");
  report.metric("optim.step_ms", f.optim_step_ms, "ms");
  for (int k = 0; k < kKinds; ++k) {
    const std::string kind = kModuleKinds[static_cast<std::size_t>(k)];
    report.metric("nn.fwd_ms." + kind, f.fwd_ms[k], "ms");
    report.metric("nn.bwd_ms." + kind, f.bwd_ms[k], "ms");
    report.metric("nn.gflops." + kind, f.gflops[k], "GFLOP/s");
  }
  report.metric("nn.head_ms", f.head_ms, "ms");
  report.metric("tensor.gemm_calls_per_step", f.gemm_calls_per_step, "count");
  report.metric("tensor.roofline_gflops", f.roofline_gflops, "GFLOP/s");
  report.metric("core.minibatch_ms", f.minibatch_ms, "ms");
  report.metric("core.eval_s", f.eval_s, "s");
  for (const auto& [rate, p] : {std::pair{"low", &f.low}, std::pair{"high", &f.high}}) {
    const std::string sfx = std::string(".") + rate;
    report.metric("serve.queue_ms_p50" + sfx, p->queue_ms_p50, "ms");
    report.metric("serve.queue_ms_p99" + sfx, p->queue_ms_p99, "ms");
    report.metric("serve.service_ms_p50" + sfx, p->service_ms_p50, "ms");
    report.metric("serve.mean_batch" + sfx, p->mean_batch, "count");
    report.metric("serve.rejected" + sfx, p->rejected, "count");
    report.metric("serve.expired" + sfx, p->expired, "count");
    report.metric("serve.gen_late_ms_p99" + sfx, p->gen_late_ms_p99, "ms");
    report.metric("serve.worker_busy_share" + sfx, p->worker_busy_share, "ratio");
    report.metric("serve.stolen_share" + sfx, p->stolen_share, "ratio");
  }
  report.metric("bench.replay_coverage", f.replay_coverage, "ratio");
  report.metric("bench.trace_overhead_pct", f.trace_overhead_pct, "%");
}

void add_run_manifest(Report& report, const Args& args, int workers, int threads) {
  using pipemare::tensor::kernels::KernelRegistry;
  const auto cores = static_cast<int>(std::thread::hardware_concurrency());
  report.manifest("workload", args.workload);
  report.manifest("seed", static_cast<double>(args.seed));
  report.manifest("seconds", args.seconds);
  report.manifest("trace", args.trace);
  report.manifest("quick", args.quick);
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const int nproc =
      sched_getaffinity(0, sizeof(affinity), &affinity) == 0 ? CPU_COUNT(&affinity) : cores;
  report.manifest("nproc", static_cast<double>(nproc));
  report.manifest("hardware_concurrency", static_cast<double>(cores));
  report.manifest("workers", static_cast<double>(workers));
  report.manifest("threads", static_cast<double>(threads));
  report.manifest("parallel_meaningful", std::min(nproc, cores) >= threads);
  report.manifest("kernel_kind", std::string(KernelRegistry::name()));
  report.manifest("tiled_isa", std::string(KernelRegistry::tiled_isa()));
  report.manifest("kernel_lanes", static_cast<double>(KernelRegistry::lanes()));
#if defined(__clang__)
  report.manifest("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  report.manifest("compiler", std::string("gcc ") + __VERSION__);
#else
  report.manifest("compiler", std::string("unknown"));
#endif
  report.manifest("build_type", std::string(PERFBENCH_BUILD_TYPE));
  report.manifest("git_sha", args.git_sha);
  report.manifest("src_digest", args.src_digest);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
