// Wall-clock comparison of the "sequential" (analytic PipelineEngine) and
// "threaded" (stage-per-thread: StealingEngine with one worker per stage,
// stealing off) registry backends on an identical training step. The two
// produce bitwise-identical results (tests/test_threaded_engine,
// tests/test_backend_registry); this benchmark
// measures the real concurrency the threaded backend adds. On a host with
// >= P cores the threaded rows should show a >= 2x higher items/s at P = 4
// once per-stage compute dominates queue overhead; on a single-core host
// the two degenerate to the same throughput minus scheduling overhead.
//
// google-benchmark target: bench_micro_threaded_engine
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

pipeline::EngineConfig bench_config(int stages) {
  pipeline::EngineConfig ec;
  ec.method = pipeline::Method::PipeMare;
  ec.num_stages = stages;
  ec.num_microbatches = kMicroBatches;
  return ec;
}

void BM_PipelineBackendStep(benchmark::State& state, const std::string& backend) {
  auto stages = static_cast<int>(state.range(0));
  auto be = core::BackendRegistry::instance().create(
      benchutil::make_bench_mlp(kLayers, kWidth, kClasses),
      core::BackendConfig{backend}, bench_config(stages), /*seed=*/1);
  benchutil::MlpWorkload w(kMicroBatches, kMicroSize, kWidth, kClasses);
  for (auto _ : state) {
    auto res = benchutil::backend_step(*be, w);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() * kMicroBatches * kMicroSize);
}
BENCHMARK_CAPTURE(BM_PipelineBackendStep, sequential, "sequential")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PipelineBackendStep, threaded, "threaded")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
