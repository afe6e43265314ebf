// Wall-clock comparison of the "hogwild" (sequential HogwildEngine) and
// "threaded_hogwild" (microbatch tasks on W workers) registry backends on
// an identical training step (Appendix E stochastic-delay semantics). The
// threaded backend runs the minibatch's microbatches as independent tasks
// on a TaskGraphRunner, all reading one delayed weight view the trainer
// thread assembles per step; results are bitwise reproducible run-to-run
// and match the sequential engine up to gradient-sum reassociation, so the
// rows measure pure execution overlap. On a host with >= W cores the
// threaded rows should approach W-fold items/s once per-microbatch compute
// dominates queue and view-assembly overhead.
//
// google-benchmark target: bench_micro_threaded_hogwild
//   [--benchmark_filter=...] [--benchmark_min_time=...]
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "src/core/engine_backend.h"

namespace {

using namespace pipemare;

constexpr int kLayers = 8;
constexpr int kWidth = 192;
constexpr int kClasses = 10;
constexpr int kMicroBatches = 8;
constexpr int kMicroSize = 4;
constexpr int kStages = 4;
constexpr double kMaxDelay = 8.0;

pipeline::EngineConfig bench_config() {
  pipeline::EngineConfig ec;
  ec.method = pipeline::Method::PipeMare;
  ec.num_stages = kStages;
  ec.num_microbatches = kMicroBatches;
  return ec;
}

core::BackendConfig backend_config(const std::string& backend, int workers) {
  if (backend == "threaded_hogwild") {
    core::ThreadedHogwildOptions opts;
    opts.max_delay = kMaxDelay;
    opts.workers = workers;
    return {backend, opts};
  }
  core::HogwildOptions opts;
  opts.max_delay = kMaxDelay;
  return {backend, opts};
}

void BM_HogwildBackendStep(benchmark::State& state, const std::string& backend) {
  auto workers = static_cast<int>(state.range(0));
  auto be = core::BackendRegistry::instance().create(
      benchutil::make_bench_mlp(kLayers, kWidth, kClasses),
      backend_config(backend, workers), bench_config(), /*seed=*/1);
  benchutil::MlpWorkload w(kMicroBatches, kMicroSize, kWidth, kClasses);
  for (auto _ : state) {
    auto res = benchutil::backend_step(*be, w);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() * kMicroBatches * kMicroSize);
  if (auto* threaded = dynamic_cast<core::ThreadedHogwildBackend*>(be.get())) {
    state.counters["workers"] = static_cast<double>(threaded->engine().num_workers());
  }
}
BENCHMARK_CAPTURE(BM_HogwildBackendStep, hogwild, "hogwild")
    ->Arg(0)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_HogwildBackendStep, threaded_hogwild, "threaded_hogwild")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
