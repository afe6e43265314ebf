// Tensor-kernel micro bench: the naive oracle vs the tiled backend
// (src/tensor/kernels/), from raw GEMM GFLOP/s up to end-to-end training
// and serving throughput.
//
// Sections:
//   gemm        GFLOP/s per variant across a size sweep (square sizes plus
//               a Linear-forward-shaped nt case), with a bitwise check of
//               every tiled result against naive — the speedup numbers are
//               only meaningful because the outputs are identical.
//   epilogue    fused bias GEMM (matmul_nt_bias, what Linear, Conv2d and
//               attention run) vs the unfused two-pass sequence.
//   train       steps/s of a sequential-backend MLP training loop under
//               each kernel kind (the whole-pipeline win, not just GEMM).
//   serve       saturation throughput of serve::PipelineServer per kind.
//   calibration the measured GEMM/memory rates KernelCalibration feeds the
//               partitioner's `calibrated` mode.
//
// Usage: bench_micro_kernels [--quick=1] [--reps=5] [--train-steps=30]
//          [--sat-requests=600] [--seed=3]
//          [--json=1]  (also write the BENCH_kernels.json snapshot)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/core/backend.h"
#include "src/serve/batch_scheduler.h"
#include "src/serve/checkpoint.h"
#include "src/serve/pipeline_server.h"
#include "src/tensor/kernels/calibration.h"
#include "src/tensor/kernels/registry.h"
#include "src/tensor/ops.h"
#include "src/util/cli.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace {

using namespace pipemare;
using tensor::kernels::KernelKind;
using tensor::kernels::KernelRegistry;

using Clock = std::chrono::steady_clock;

/// Saves/restores the process-global kernel selection around the bench.
class KernelStateGuard {
 public:
  KernelStateGuard() : kind_(KernelRegistry::kind()) {}
  ~KernelStateGuard() { KernelRegistry::set_kind(kind_); }

 private:
  KernelKind kind_;
};

std::vector<float> filled(std::int64_t count, int salt) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<float>((i * 31 + salt) % 13) * 0.25F - 1.5F;
  }
  return v;
}

/// Minimum wall time of `reps` calls to fn(), in nanoseconds.
template <typename Fn>
double min_ns(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::max();
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    fn();
    auto t1 = Clock::now();
    best = std::min(
        best, static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                      .count()));
  }
  return best;
}

struct GemmRow {
  std::string variant;  // "nn", "tn", "nt"
  int m = 0, k = 0, n = 0;
  double naive_gflops = 0.0;
  double tiled_gflops = 0.0;
  bool bitwise_equal = false;
  double speedup() const {
    return naive_gflops > 0.0 ? tiled_gflops / naive_gflops : 0.0;
  }
};

GemmRow bench_gemm(const std::string& variant, int m, int k, int n, int reps) {
  GemmRow row;
  row.variant = variant;
  row.m = m;
  row.k = k;
  row.n = n;
  auto a = filled(static_cast<std::int64_t>(m) * k, 1);
  auto b = filled(static_cast<std::int64_t>(k) * n, 2);
  std::vector<float> c(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
  std::vector<float> c_ref(c.size());

  const double flops = 2.0 * m * static_cast<double>(k) * n;
  for (KernelKind kind : {KernelKind::naive, KernelKind::tiled}) {
    const auto& table = KernelRegistry::table(kind);
    auto* fn = variant == "nn"   ? table.gemm_nn
               : variant == "tn" ? table.gemm_tn
                                 : table.gemm_nt;
    double ns = min_ns(reps, [&] {
      std::fill(c.begin(), c.end(), 0.0F);
      fn(a.data(), b.data(), c.data(), m, k, n);
    });
    // The fill is inside the timed region (the table's contract is a
    // zeroed C); at these sizes it is noise next to the GEMM itself.
    const double gflops = ns > 0.0 ? flops / ns : 0.0;
    if (kind == KernelKind::naive) {
      row.naive_gflops = gflops;
      c_ref = c;
    } else {
      row.tiled_gflops = gflops;
      row.bitwise_equal =
          std::memcmp(c.data(), c_ref.data(), sizeof(float) * c.size()) == 0;
    }
  }
  return row;
}

struct EpilogueResult {
  double unfused_ms = 0.0;
  double fused_ms = 0.0;
  bool bitwise_equal = false;
  double speedup() const { return fused_ms > 0.0 ? unfused_ms / fused_ms : 0.0; }
};

EpilogueResult bench_epilogue(int m, int k, int n, int reps) {
  KernelStateGuard guard;
  KernelRegistry::set_kind(KernelKind::tiled);
  util::Rng rng(17);
  tensor::Tensor a({m, k});
  tensor::Tensor bt({n, k});
  for (std::int64_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(rng.normal());
  for (std::int64_t i = 0; i < bt.size(); ++i) bt[i] = static_cast<float>(rng.normal());
  std::vector<float> bias(static_cast<std::size_t>(n));
  for (auto& v : bias) v = static_cast<float>(rng.normal());
  std::span<const float> bs(bias);

  EpilogueResult r;
  tensor::Tensor unfused;
  r.unfused_ms = min_ns(reps, [&] {
                   unfused = tensor::matmul_nt(a, bt);
                   tensor::add_row_inplace(unfused, bs);
                 }) /
                 1e6;
  tensor::Tensor fused;
  r.fused_ms = min_ns(reps, [&] {
                 fused = tensor::matmul_nt_bias(a, bt, bs);
               }) /
               1e6;
  r.bitwise_equal =
      std::memcmp(fused.data(), unfused.data(),
                  sizeof(float) * static_cast<std::size_t>(fused.size())) == 0;
  return r;
}

/// Sequential-backend training steps/s under the given kernel kind.
double bench_train(KernelKind kind, int steps, std::uint64_t seed) {
  KernelStateGuard guard;
  KernelRegistry::set_kind(kind);
  constexpr int kLayers = 6, kWidth = 256, kClasses = 10, kMicro = 4;
  benchutil::MlpWorkload workload(kMicro, /*micro_size=*/32, kWidth, kClasses,
                                  seed);
  pipeline::EngineConfig ec;
  ec.method = pipeline::Method::PipeMare;
  ec.num_stages = 4;
  ec.num_microbatches = kMicro;
  auto backend = core::BackendRegistry::instance().create(
      benchutil::make_bench_mlp(kLayers, kWidth, kClasses),
      core::BackendConfig("sequential"), ec, seed);
  for (int s = 0; s < 2; ++s) benchutil::backend_step(*backend, workload);
  auto t0 = Clock::now();
  for (int s = 0; s < steps; ++s) benchutil::backend_step(*backend, workload);
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  return secs > 0.0 ? steps / secs : 0.0;
}

/// Closed-loop serving saturation throughput under the given kernel kind.
double bench_serve(KernelKind kind, int requests, std::uint64_t seed) {
  KernelStateGuard guard;
  KernelRegistry::set_kind(kind);
  constexpr int kLayers = 6, kWidth = 128, kClasses = 10;
  nn::Model model = benchutil::make_bench_mlp(kLayers, kWidth, kClasses);
  std::vector<float> weights(static_cast<std::size_t>(model.param_count()));
  util::Rng rng(seed);
  model.init_params(weights, rng);
  serve::ModelCheckpoint ckpt;
  ckpt.digest = serve::shape_digest(model);
  ckpt.weights = weights;
  serve::ServeConfig cfg;
  cfg.num_stages = 4;
  cfg.workers = 1;
  cfg.queue_capacity = requests;
  cfg.batch.policy = serve::BatchPolicy::Continuous;
  cfg.batch.max_batch = 8;
  serve::PipelineServer server(model, ckpt, cfg);
  server.start();

  std::vector<serve::TicketPtr> tickets;
  tickets.reserve(static_cast<std::size_t>(requests));
  const auto t0 = Clock::now();
  for (int i = 0; i < requests; ++i) {
    nn::Flow f;
    f.x = tensor::Tensor({1, kWidth});
    for (std::int64_t j = 0; j < f.x.size(); ++j) {
      f.x[j] = static_cast<float>(rng.normal()) * 0.5F;
    }
    tickets.push_back(server.submit(std::move(f)));
  }
  int ok = 0;
  for (auto& t : tickets) {
    if (t->wait().status == serve::Status::Ok) ++ok;
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  server.stop();
  return secs > 0.0 ? ok / secs : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const int reps = cli.get_int("reps", quick ? 2 : 5);
  const int train_steps = cli.get_int("train-steps", quick ? 4 : 30);
  const int sat_requests = cli.get_int("sat-requests", quick ? 120 : 600);
  const bool json = cli.get_bool("json", false);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));

  std::cout << "micro_kernels: naive vs tiled (" << KernelRegistry::tiled_isa()
            << " tiled ISA, SIMD pragmas "
            << (KernelRegistry::simd_compiled() ? "on" : "off") << ")\n\n";

  // ---- GEMM sweep ---------------------------------------------------------
  std::vector<GemmRow> gemm_rows;
  const std::vector<int> sizes = quick ? std::vector<int>{128, 512}
                                       : std::vector<int>{64, 128, 256, 512};
  for (int s : sizes) {
    for (const char* variant : {"nn", "tn", "nt"}) {
      gemm_rows.push_back(bench_gemm(variant, s, s, s, reps));
    }
  }
  // A Linear-forward shape: skinny activation rows against a wide packed
  // weight (the nt variant nn::Linear dispatches).
  gemm_rows.push_back(bench_gemm("nt", 32, 256, 256, reps));

  util::Table gemm_table(
      {"variant", "m", "k", "n", "naive GF/s", "tiled GF/s", "speedup", "bitwise"});
  bool all_bitwise = true;
  for (const auto& r : gemm_rows) {
    all_bitwise = all_bitwise && r.bitwise_equal;
    gemm_table.add_row({r.variant, std::to_string(r.m), std::to_string(r.k),
                        std::to_string(r.n), util::fmt(r.naive_gflops, 1),
                        util::fmt(r.tiled_gflops, 1), util::fmt_x(r.speedup()),
                        r.bitwise_equal ? "==" : "DIFF"});
  }
  std::cout << gemm_table.to_string() << '\n';
  if (!all_bitwise) {
    std::cout << "ERROR: tiled result diverged from naive\n";
    return 1;
  }

  // ---- Fused epilogue -----------------------------------------------------
  auto epi = bench_epilogue(256, 256, 256, reps);
  std::cout << "epilogue 256^3: unfused (gemm+bias) "
            << util::fmt(epi.unfused_ms, 2) << "ms, fused "
            << util::fmt(epi.fused_ms, 2) << "ms ("
            << util::fmt_x(epi.speedup()) << ", bitwise "
            << (epi.bitwise_equal ? "==" : "DIFF") << ")\n";

  // ---- End-to-end train / serve ------------------------------------------
  const double train_naive = bench_train(KernelKind::naive, train_steps, seed);
  const double train_tiled = bench_train(KernelKind::tiled, train_steps, seed);
  const double serve_naive = bench_serve(KernelKind::naive, sat_requests, seed);
  const double serve_tiled = bench_serve(KernelKind::tiled, sat_requests, seed);
  std::cout << "train (sequential, 6x256 MLP): naive "
            << util::fmt(train_naive, 1) << " -> tiled "
            << util::fmt(train_tiled, 1) << " steps/s ("
            << util::fmt_x(train_tiled / std::max(1e-9, train_naive)) << ")\n";
  std::cout << "serve (saturation, 6x128 MLP): naive "
            << util::fmt(serve_naive, 0) << " -> tiled "
            << util::fmt(serve_tiled, 0) << " req/s ("
            << util::fmt_x(serve_tiled / std::max(1e-9, serve_naive)) << ")\n";

  // ---- Calibration --------------------------------------------------------
  auto cal_naive = tensor::kernels::KernelCalibration::measure(KernelKind::naive);
  auto cal_tiled = tensor::kernels::KernelCalibration::measure(KernelKind::tiled);
  std::cout << "calibration: naive gemm " << util::fmt(cal_naive.gemm_flops_per_ns, 1)
            << " GF/s / mem " << util::fmt(cal_naive.mem_bytes_per_ns, 1)
            << " GB/s; tiled gemm " << util::fmt(cal_tiled.gemm_flops_per_ns, 1)
            << " GF/s / mem " << util::fmt(cal_tiled.mem_bytes_per_ns, 1)
            << " GB/s\n";

  double gemm512_speedup = 0.0;
  for (const auto& r : gemm_rows) {
    if (r.variant == "nn" && r.m == 512) gemm512_speedup = r.speedup();
  }

  if (json) {
    benchutil::Json root = benchutil::Json::object();
    root.set("bench", "micro_kernels");
    root.set("machine", benchutil::machine_info());
    benchutil::Json params = benchutil::Json::object();
    params.set("reps", reps);
    params.set("train_steps", train_steps);
    params.set("sat_requests", sat_requests);
    params.set("seed", static_cast<std::int64_t>(seed));
    params.set("tiled_isa", std::string(KernelRegistry::tiled_isa()));
    params.set("simd_compiled", KernelRegistry::simd_compiled());
    root.set("params", std::move(params));

    benchutil::Json gemm = benchutil::Json::array();
    for (const auto& r : gemm_rows) {
      benchutil::Json g = benchutil::Json::object();
      g.set("variant", r.variant);
      g.set("m", r.m);
      g.set("k", r.k);
      g.set("n", r.n);
      g.set("naive_gflops", r.naive_gflops);
      g.set("tiled_gflops", r.tiled_gflops);
      g.set("speedup", r.speedup());
      g.set("bitwise_equal", r.bitwise_equal);
      gemm.push(std::move(g));
    }
    root.set("gemm", std::move(gemm));

    benchutil::Json ep = benchutil::Json::object();
    ep.set("unfused_ms", epi.unfused_ms);
    ep.set("fused_ms", epi.fused_ms);
    ep.set("speedup", epi.speedup());
    ep.set("bitwise_equal", epi.bitwise_equal);
    root.set("epilogue", std::move(ep));

    benchutil::Json cal = benchutil::Json::object();
    cal.set("naive_gemm_flops_per_ns", cal_naive.gemm_flops_per_ns);
    cal.set("naive_mem_bytes_per_ns", cal_naive.mem_bytes_per_ns);
    cal.set("tiled_gemm_flops_per_ns", cal_tiled.gemm_flops_per_ns);
    cal.set("tiled_mem_bytes_per_ns", cal_tiled.mem_bytes_per_ns);
    root.set("calibration", std::move(cal));

    benchutil::Json summary = benchutil::Json::object();
    summary.set("gemm_512_speedup", gemm512_speedup);
    summary.set("all_bitwise_equal", all_bitwise);
    summary.set("train_naive_steps_per_sec", train_naive);
    summary.set("train_tiled_steps_per_sec", train_tiled);
    summary.set("train_gain", train_tiled / std::max(1e-9, train_naive));
    summary.set("serve_naive_req_per_sec", serve_naive);
    summary.set("serve_tiled_req_per_sec", serve_tiled);
    summary.set("serve_gain", serve_tiled / std::max(1e-9, serve_naive));
    root.set("summary", std::move(summary));
    benchutil::write_bench_json("BENCH_kernels.json", root);
  }
  return 0;
}
