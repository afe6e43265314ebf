// Work-stealing micro bench: uniform vs balanced vs stealing on the
// skewed model from bench/micro_partition.cpp.
//
// The uniform-by-count split piles the two wide layers onto one stage, so
// the stage-per-thread "threaded" engine is bounded by that stage while
// its siblings burn pop-wait. The bench compares that baseline with two
// remedies on the same workload:
//   threaded/uniform    the baseline (one thread per stage, skewed load)
//   threaded/balanced   the static fix (cost-model split, PR 4)
//   steal/load-aware    the runtime fix (threaded_steal: W workers over
//                       the *uniform* split, idle workers stealing from
//                       the busy-share leader)
// ("threaded" is the same engine with W = P and stealing off, so a
// steal/off row would just repeat threaded/uniform.)
//
// Stage-per-thread, per-stage busy spread IS per-thread busy spread. With
// stealing the per-stage spread is invariant (a stage's compute is its
// compute wherever it runs), so the number that shows the win is the
// per-*worker* busy spread — with stealing enabled it should drop toward
// 1.0 while threaded/uniform stays pinned at the skew.
// Loss curves are bitwise identical across the uniform-partition rows by
// construction (only scheduling differs); the balanced row moves stage
// boundaries, which changes PipeMare's delay distribution and therefore
// the trajectory. The throughput gain needs >= `stages` real cores; the
// busy-spread reduction shows on any machine.
//
// Usage: bench_micro_steal [--quick=1] [--steps=40] [--stages=4]
//          [--microbatches=4] [--workers=0 (= stages)] [--seed=3]
//          [--json=1]  (also write the BENCH_steal.json snapshot)
//          [--trace=<file>]    (Chrome trace of the whole bench run)
//          [--metrics=<file>]  (metrics registry snapshot at exit)

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/core/engine_backend.h"
#include "src/core/stage_load.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/partition.h"
#include "src/sched/stealing_engine.h"
#include "src/util/cli.h"
#include "src/util/table.h"

namespace {

using namespace pipemare;

constexpr int kWide = 256;
constexpr int kClasses = 10;

struct RunResult {
  std::string label;
  double steps_per_sec = 0.0;
  double worker_spread = 0.0;   ///< max/mean busy over execution threads
  double loss = 0.0;            ///< last-step loss (bitwise-equal across rows)
  std::uint64_t steals = 0;
  double stolen_busy_share = 0.0;  ///< share of busy ns executed by thieves
};

RunResult run_backend(const std::string& label, const core::BackendConfig& backend,
                      pipeline::PartitionStrategy strategy,
                      const benchutil::MlpWorkload& workload, int stages,
                      int microbatches, int steps, std::uint64_t seed) {
  pipeline::EngineConfig ec;
  ec.method = pipeline::Method::PipeMare;
  ec.num_stages = stages;
  ec.num_microbatches = microbatches;
  ec.partition.strategy = strategy;
  ec.partition.probe = std::make_shared<const nn::Flow>(workload.inputs.at(0));

  auto built = core::BackendRegistry::instance().create(
      benchutil::make_skewed_mlp(kWide), backend, ec, seed);

  // Warmup fills the version ring and faults in buffers off the clock.
  for (int s = 0; s < 2; ++s) benchutil::backend_step(*built, workload);
  built->reset_stage_stats();

  pipeline::StepResult last{};
  auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < steps; ++s) last = benchutil::backend_step(*built, workload);
  auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.label = label;
  double secs = std::chrono::duration<double>(t1 - t0).count();
  r.steps_per_sec = secs > 0.0 ? steps / secs : 0.0;
  r.loss = last.loss;

  // Busy spread over *execution threads* (worker slots; stage-per-thread,
  // worker s is stage s).
  const auto& engine = dynamic_cast<core::ThreadedStealBackend&>(*built).engine();
  r.worker_spread = core::StageLoadObserver::busy_spread(engine.worker_stats());
  std::uint64_t busy = 0;
  std::uint64_t stolen = 0;
  for (const auto& st : engine.stage_stats()) {
    busy += st.busy_ns;
    stolen += st.stolen_ns;
    r.steals += st.stolen_items;
  }
  r.stolen_busy_share =
      busy > 0 ? static_cast<double>(stolen) / static_cast<double>(busy) : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const int steps = cli.get_int("steps", quick ? 6 : 40);
  const int stages = cli.get_int("stages", 4);
  const int microbatches = cli.get_int("microbatches", 4);
  int workers = cli.get_int("workers", 0);
  if (workers <= 0) workers = stages;
  const bool json = cli.get_bool("json", false);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));
  const std::string trace_path = cli.get("trace", "");
  const std::string metrics_path = cli.get("metrics", "");
  if (!trace_path.empty()) obs::TraceRecorder::instance().enable();

  benchutil::MlpWorkload workload(microbatches, /*micro_size=*/32, kWide, kClasses,
                                  seed);

  std::cout << "micro_steal: skewed MLP (micro_partition model), P=" << stages
            << ", N=" << microbatches << ", W=" << workers << ", " << steps
            << " steps\n\n";

  std::vector<RunResult> rows;
  rows.push_back(run_backend("threaded/uniform", core::BackendConfig("threaded"),
                             pipeline::PartitionStrategy::Uniform, workload, stages,
                             microbatches, steps, seed));
  rows.push_back(run_backend("threaded/balanced", core::BackendConfig("threaded"),
                             pipeline::PartitionStrategy::Balanced, workload, stages,
                             microbatches, steps, seed));
  core::StealOptions load;
  load.workers = workers;
  load.mode = sched::StealMode::LoadAware;
  rows.push_back(run_backend("steal/load-aware",
                             core::BackendConfig("threaded_steal", load),
                             pipeline::PartitionStrategy::Uniform, workload, stages,
                             microbatches, steps, seed));

  util::Table t({"run", "steps/s", "worker busy spread", "steals", "stolen busy",
                 "last loss"});
  for (const auto& r : rows) {
    t.add_row({r.label, util::fmt(r.steps_per_sec, 1), util::fmt(r.worker_spread, 2),
               std::to_string(r.steals),
               util::fmt(100.0 * r.stolen_busy_share, 1) + "%",
               util::fmt(r.loss, 6)});
  }
  std::cout << t.to_string() << '\n';

  const RunResult& uniform = rows[0];
  const RunResult& stealing = rows[2];
  std::cout << "stealing vs stage-per-thread on the uniform split: worker busy "
               "spread "
            << util::fmt(uniform.worker_spread, 2) << " -> "
            << util::fmt(stealing.worker_spread, 2) << ", throughput "
            << util::fmt(uniform.steps_per_sec, 1) << " -> "
            << util::fmt(stealing.steps_per_sec, 1) << " steps/s ("
            << util::fmt_x(stealing.steps_per_sec /
                           std::max(1e-9, uniform.steps_per_sec))
            << "); the uniform-partition rows' losses are bitwise-identical "
               "by construction (the balanced row's split changes the delay "
               "distribution, hence its trajectory).\n";

  if (json) {
    benchutil::Json root = benchutil::Json::object();
    root.set("bench", "micro_steal");
    root.set("machine", benchutil::machine_info());
    benchutil::Json params = benchutil::Json::object();
    params.set("stages", stages);
    params.set("microbatches", microbatches);
    params.set("workers", workers);
    params.set("steps", steps);
    params.set("seed", static_cast<std::int64_t>(seed));
    root.set("params", std::move(params));
    benchutil::Json runs = benchutil::Json::array();
    for (const auto& r : rows) {
      benchutil::Json j = benchutil::Json::object();
      j.set("label", r.label);
      j.set("steps_per_sec", r.steps_per_sec);
      j.set("worker_busy_spread", r.worker_spread);
      j.set("steals", r.steals);
      j.set("stolen_busy_share", r.stolen_busy_share);
      j.set("last_loss", r.loss);
      runs.push(std::move(j));
    }
    root.set("runs", std::move(runs));
    benchutil::Json summary = benchutil::Json::object();
    summary.set("worker_spread_uniform", uniform.worker_spread);
    summary.set("worker_spread_stealing", stealing.worker_spread);
    summary.set("throughput_gain",
                stealing.steps_per_sec / std::max(1e-9, uniform.steps_per_sec));
    root.set("summary", std::move(summary));
    benchutil::write_bench_json("BENCH_steal.json", root);
  }
  if (!trace_path.empty()) {
    obs::TraceRecorder::instance().disable();
    obs::write_chrome_trace(trace_path);
    std::cout << "wrote " << trace_path << " ("
              << obs::TraceRecorder::instance().recorded() << " events, "
              << obs::TraceRecorder::instance().dropped() << " dropped)\n";
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry::instance().write_json(metrics_path);
    std::cout << "wrote " << metrics_path << '\n';
  }
  return 0;
}
