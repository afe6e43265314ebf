// The work-stealing runtime suite (tier1): TaskQueue push/pop/steal
// mechanics (single-owner order + concurrent stealers), StealPolicy
// ranking/refresh/parsing, the TaskGraphRunner on trivial task bodies
// (steal attribution, generation completion, open / counted sessions back
// to back, thread start-up and join, pushes between generations, the idle
// step's timed recheck, the worker-count bound), and the StealingEngine
// guarantees — steals-disabled bitwise parity vs the sequential engine
// (the "threaded" backend's configuration), forced-steal bitwise parity vs the
// sequential engine, a (P, N, W) stress sweep asserting no task is lost or
// run twice, run-to-run reproducible curves in deterministic steal mode,
// steal counts surfacing through core::StageLoadObserver, and the
// stage-local weight update (StealingEngine::train_step) matching the
// serial step sequence bitwise through core::train_loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/backend.h"
#include "src/core/engine_backend.h"
#include "src/core/stage_load.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/data/translation_data.h"
#include "src/nn/activations.h"
#include "src/nn/heads.h"
#include "src/nn/linear.h"
#include "src/nn/model.h"
#include "src/nn/transformer.h"
#include "src/obs/metrics.h"
#include "src/optim/optimizer.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/sched/steal_policy.h"
#include "src/sched/stealing_engine.h"
#include "src/sched/task_graph_runner.h"
#include "src/sched/task_queue.h"
#include "src/util/rng.h"

namespace pipemare::sched {
namespace {

// ---------------------------------------------------------------------------
// TaskQueue
// ---------------------------------------------------------------------------

TEST(TaskQueue, OwnerPopsBackwardFirstThiefStealsForwardFirst) {
  TaskQueue q;
  q.push({Task::Kind::Forward, 0, 0});
  q.push({Task::Kind::Forward, 0, 1});
  q.push({Task::Kind::Backward, 0, 2});

  Task t;
  ASSERT_TRUE(q.pop(t));
  EXPECT_EQ(t.kind, Task::Kind::Backward);  // owner: backward lane first
  ASSERT_TRUE(q.steal(t));
  EXPECT_EQ(t.kind, Task::Kind::Forward);  // thief: forward lane first
  EXPECT_EQ(t.micro, 0);                   // ... and the oldest forward
  ASSERT_TRUE(q.pop(t));
  EXPECT_EQ(t.micro, 1);
  EXPECT_FALSE(q.pop(t));
  EXPECT_FALSE(q.steal(t));
  EXPECT_TRUE(q.empty());
}

TEST(TaskQueue, BothEndsAreFifoWithinALane) {
  TaskQueue q;
  for (int m = 0; m < 4; ++m) q.push({Task::Kind::Forward, 1, m});
  Task t;
  ASSERT_TRUE(q.steal(t));
  EXPECT_EQ(t.micro, 0);  // steal takes the oldest
  ASSERT_TRUE(q.pop(t));
  EXPECT_EQ(t.micro, 1);  // owner also takes the oldest (pipeline order)
  ASSERT_TRUE(q.steal(t));
  EXPECT_EQ(t.micro, 2);
  ASSERT_TRUE(q.pop(t));
  EXPECT_EQ(t.micro, 3);
}

TEST(TaskQueue, ConcurrentStealersTakeEachTaskExactlyOnce) {
  constexpr int kTasks = 512;
  constexpr int kThieves = 4;
  TaskQueue q;
  for (int m = 0; m < kTasks; ++m) q.push({Task::Kind::Forward, 0, m});

  std::mutex taken_m;
  std::vector<int> taken;
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int i = 0; i < kThieves; ++i) {
    thieves.emplace_back([&] {
      std::vector<int> mine;
      Task t;
      while (q.steal(t)) mine.push_back(t.micro);
      std::lock_guard<std::mutex> lock(taken_m);
      taken.insert(taken.end(), mine.begin(), mine.end());
    });
  }
  for (auto& th : thieves) th.join();

  ASSERT_EQ(taken.size(), static_cast<std::size_t>(kTasks)) << "lost or duplicated";
  std::sort(taken.begin(), taken.end());
  for (int m = 0; m < kTasks; ++m) {
    ASSERT_EQ(taken[static_cast<std::size_t>(m)], m) << "task " << m;
  }
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// StealPolicy
// ---------------------------------------------------------------------------

TEST(StealPolicy, RanksByPredictedShareBusiestFirstStableTies) {
  StealPolicy p(StealMode::Deterministic, {1.0, 5.0, 5.0, 2.0});
  EXPECT_EQ(p.victim_order(), (std::vector<int>{1, 2, 3, 0}));
}

TEST(StealPolicy, LoadAwareRefreshReRanksDeterministicDoesNot) {
  StealPolicy load(StealMode::LoadAware, {1.0, 1.0, 1.0});
  EXPECT_EQ(load.victim_order(), (std::vector<int>{0, 1, 2}));
  load.refresh(std::vector<std::uint64_t>{5, 50, 10});
  EXPECT_EQ(load.victim_order(), (std::vector<int>{1, 2, 0}));
  // All-zero observations keep the current ranking (nothing measured).
  load.refresh(std::vector<std::uint64_t>{0, 0, 0});
  EXPECT_EQ(load.victim_order(), (std::vector<int>{1, 2, 0}));

  StealPolicy det(StealMode::Deterministic, {1.0, 2.0, 3.0});
  EXPECT_EQ(det.victim_order(), (std::vector<int>{2, 1, 0}));
  det.refresh(std::vector<std::uint64_t>{100, 1, 1});
  EXPECT_EQ(det.victim_order(), (std::vector<int>{2, 1, 0}));  // fixed order
}

TEST(StealPolicy, ModeParsingAndNames) {
  EXPECT_EQ(parse_steal_mode("off"), StealMode::Disabled);
  EXPECT_EQ(parse_steal_mode("disabled"), StealMode::Disabled);
  EXPECT_EQ(parse_steal_mode("load"), StealMode::LoadAware);
  EXPECT_EQ(parse_steal_mode("load-aware"), StealMode::LoadAware);
  EXPECT_EQ(parse_steal_mode("det"), StealMode::Deterministic);
  EXPECT_EQ(parse_steal_mode("deterministic"), StealMode::Deterministic);
  EXPECT_EQ(parse_steal_mode("forced"), StealMode::Forced);
  EXPECT_THROW(parse_steal_mode("sideways"), std::invalid_argument);
  for (auto mode : {StealMode::Disabled, StealMode::LoadAware,
                    StealMode::Deterministic, StealMode::Forced}) {
    EXPECT_EQ(parse_steal_mode(steal_mode_name(mode)), mode);
  }
}

// ---------------------------------------------------------------------------
// TaskGraphRunner (trivial task bodies, no model)
// ---------------------------------------------------------------------------

/// A forward-only chain graph: Forward(s, m) pushes Forward(s + 1, m). The
/// body records how often each task ran and which tasks ran off their
/// home worker, so the runner's own counters can be checked against it.
struct ChainGraph {
  int stages;
  int micros;
  int workers;
  TaskGraphRunner* runner = nullptr;
  std::vector<std::atomic<int>> runs;            ///< [stage * micros + micro]
  std::vector<std::atomic<std::uint64_t>> off_home_by_stage;
  std::vector<std::atomic<std::uint64_t>> off_home_by_worker;
  std::atomic<std::int64_t> completed{0};

  ChainGraph(int p, int n, int w)
      : stages(p),
        micros(n),
        workers(w),
        runs(static_cast<std::size_t>(p * n)),
        off_home_by_stage(static_cast<std::size_t>(p)),
        off_home_by_worker(static_cast<std::size_t>(w)) {}

  void run(int worker, const Task& t) {
    runs[static_cast<std::size_t>(t.stage * micros + t.micro)].fetch_add(1);
    if (t.stage % workers != worker) {
      off_home_by_stage[static_cast<std::size_t>(t.stage)].fetch_add(1);
      off_home_by_worker[static_cast<std::size_t>(worker)].fetch_add(1);
    }
    if (t.stage + 1 < stages) runner->push({Task::Kind::Forward, t.stage + 1, t.micro});
    completed.fetch_add(1);
  }

  /// Seeds every microbatch at stage 0 and runs one generation.
  void run_generation(std::int64_t step) {
    for (int m = 0; m < micros; ++m) runner->push({Task::Kind::Forward, 0, m});
    runner->run_generation(std::int64_t{stages} * micros, step);
  }
};

TEST(TaskGraphRunner, StealsAreCountedOnlyOffHomeAndOnBothSides) {
  for (StealMode mode : {StealMode::Forced, StealMode::LoadAware, StealMode::Disabled}) {
    ChainGraph g(/*p=*/4, /*n=*/6, /*w=*/2);
    TaskGraphRunner runner(4, 2, mode, [&g](int w, const Task& t) { g.run(w, t); });
    g.runner = &runner;
    runner.set_victim_order(std::vector<int>{3, 2, 1, 0});
    for (int step = 0; step < 3; ++step) g.run_generation(step);
    const std::string label = steal_mode_name(mode);

    const auto stages = runner.stage_stats();
    const auto workers = runner.worker_stats();
    ASSERT_EQ(stages.size(), 4u);
    ASSERT_EQ(workers.size(), 2u);
    std::uint64_t stage_stolen = 0;
    std::uint64_t worker_stolen = 0;
    for (int s = 0; s < 4; ++s) {
      // A home worker's pop is never a steal; every off-home run is one.
      EXPECT_EQ(stages[static_cast<std::size_t>(s)].stolen_items,
                g.off_home_by_stage[static_cast<std::size_t>(s)].load())
          << label << " stage " << s;
      EXPECT_EQ(stages[static_cast<std::size_t>(s)].items, 3u * 6u) << label;
      stage_stolen += stages[static_cast<std::size_t>(s)].stolen_items;
    }
    for (int w = 0; w < 2; ++w) {
      EXPECT_EQ(workers[static_cast<std::size_t>(w)].stolen_items,
                g.off_home_by_worker[static_cast<std::size_t>(w)].load())
          << label << " worker " << w;
      worker_stolen += workers[static_cast<std::size_t>(w)].stolen_items;
    }
    EXPECT_EQ(stage_stolen, worker_stolen) << label;
    EXPECT_EQ(stage_stolen, runner.total_steals()) << label;
    if (mode == StealMode::Disabled) {
      EXPECT_EQ(runner.total_steals(), 0u);
    }
    if (mode == StealMode::Forced) {
      EXPECT_GT(runner.total_steals(), 0u);
    }

    runner.reset_stats();
    EXPECT_EQ(runner.total_steals(), 0u);
    for (const auto& ws : runner.worker_stats()) EXPECT_EQ(ws.items, 0u);
  }
}

TEST(TaskGraphRunner, GenerationEndsWhenEveryTaskRanExactlyOnce) {
  for (int w : {1, 2, 5}) {
    for (StealMode mode : {StealMode::Disabled, StealMode::Forced}) {
      ChainGraph g(/*p=*/3, /*n=*/8, w);
      TaskGraphRunner runner(3, w, mode, [&g](int worker, const Task& t) {
        // Slow tail tasks: the generation must not end before they finish.
        if (t.stage == 2) std::this_thread::sleep_for(std::chrono::microseconds(200));
        g.run(worker, t);
      });
      g.runner = &runner;
      runner.set_victim_order(std::vector<int>{2, 1, 0});
      for (int step = 1; step <= 3; ++step) {
        g.run_generation(step);
        const std::string label = "W=" + std::to_string(w) + " " + steal_mode_name(mode);
        // run_generation returned: every expected task has completed ...
        EXPECT_EQ(g.completed.load(), step * 3 * 8) << label;
        // ... and none ran twice.
        for (const auto& r : g.runs) EXPECT_EQ(r.load(), step) << label;
      }
    }
  }
}

TEST(TaskGraphRunner, IdleStepRecheckWakesAParkedWorkerWithoutAPush) {
  // The serving flush/deadline path: the idle step asks for a short
  // recheck, nothing is ever pushed, and the parked worker must still wake
  // to run the idle step again — here until it closes the generation.
  TaskGraphRunner* self = nullptr;
  std::atomic<int> idle_calls{0};
  TaskGraphRunner runner(
      1, 1, StealMode::LoadAware, [](int, const Task&) { ADD_FAILURE() << "no task was pushed"; },
      [&](int) -> TaskGraphRunner::Clock::duration {
        if (idle_calls.fetch_add(1) + 1 < 3) return std::chrono::milliseconds(2);
        self->close();
        return TaskGraphRunner::Clock::duration::max();
      });
  self = &runner;
  runner.open_generation();
  runner.wait_generation();
  EXPECT_EQ(idle_calls.load(), 3);
  const auto workers = runner.worker_stats();
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0].items, 0u);
  EXPECT_GT(workers[0].pop_wait_ns, 0u);  // it really parked between calls
}

TEST(TaskGraphRunner, OpenSessionThenCountedGenerationRunsExactlyK) {
  // The serving session (open / close / wait) and the training minibatch
  // (run_generation) share one barrier; each must leave it ready for the
  // other.
  constexpr std::int64_t kTasks = 7;
  std::atomic<std::int64_t> ran{0};
  TaskGraphRunner runner(2, 3, StealMode::LoadAware,
                         [&ran](int, const Task&) { ran.fetch_add(1); });
  runner.set_victim_order(std::vector<int>{1, 0});
  for (int round = 1; round <= 3; ++round) {
    runner.open_generation();
    runner.close();
    runner.wait_generation();
    EXPECT_EQ(ran.load(), (round - 1) * kTasks) << "round " << round;
    for (std::int64_t m = 0; m < kTasks; ++m) {
      runner.push({Task::Kind::Forward, static_cast<int>(m % 2), static_cast<int>(m)});
    }
    runner.run_generation(kTasks, round);
    EXPECT_EQ(ran.load(), round * kTasks) << "round " << round;
  }
}

TEST(TaskGraphRunner, ConstructAndDestroyJoinsCleanly) {
  // Workers start parked and must join whether or not a generation ran.
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    TaskGraphRunner idle(2, 3, StealMode::LoadAware,
                         [](int, const Task&) { ADD_FAILURE() << "no task was pushed"; });
    TaskGraphRunner used(2, 3, StealMode::LoadAware,
                         [&ran](int, const Task&) { ran.fetch_add(1); });
    used.push({Task::Kind::Forward, 0, 0});
    used.run_generation(1, i);
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(TaskGraphRunner, TasksPushedBetweenGenerationsRunExactlyOnce) {
  // Pushes between generations wake no one; the release must still make
  // every queued task run, with and without stealing.
  constexpr int kStages = 4;
  constexpr int kMicros = 5;
  for (StealMode mode : {StealMode::LoadAware, StealMode::Disabled}) {
    std::vector<std::atomic<int>> runs(kStages * kMicros);
    TaskGraphRunner runner(kStages, 3, mode, [&runs](int, const Task& t) {
      runs[static_cast<std::size_t>(t.stage * kMicros + t.micro)].fetch_add(1);
    });
    runner.set_victim_order(std::vector<int>{3, 2, 1, 0});
    for (int step = 1; step <= 3; ++step) {
      for (int s = 0; s < kStages; ++s) {
        for (int m = 0; m < kMicros; ++m) runner.push({Task::Kind::Forward, s, m});
      }
      runner.run_generation(kStages * kMicros, step);
      for (const auto& r : runs) EXPECT_EQ(r.load(), step) << steal_mode_name(mode);
    }
  }
}

TEST(TaskGraphRunner, ResolveWorkersBoundsRequests) {
  EXPECT_EQ(resolve_workers(3, 8), 3);
  EXPECT_GE(resolve_workers(0, 2), 1);
  EXPECT_LE(resolve_workers(0, 2), 2);
  EXPECT_EQ(resolve_workers(kMaxWorkers, 1), kMaxWorkers);
  EXPECT_THROW(resolve_workers(-1, 2), std::invalid_argument);
  EXPECT_THROW(resolve_workers(kMaxWorkers + 1, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// StealingEngine
// ---------------------------------------------------------------------------

/// The tier-1 MLP fixture: `layers` Linear(+ReLU) units with random
/// classification microbatches (same recipe as the "threaded" backend's
/// stress suite).
struct MlpFixture {
  nn::Model model;
  nn::ClassificationXent head;
  std::vector<nn::Flow> inputs;
  std::vector<tensor::Tensor> targets;

  MlpFixture(int layers, int width, int classes, int num_micro,
             std::uint64_t seed = 17) {
    for (int i = 0; i < layers; ++i) {
      model.add(std::make_unique<nn::Linear>(width, width, /*relu_init=*/true));
      model.add(std::make_unique<nn::ReLU>());
    }
    model.add(std::make_unique<nn::Linear>(width, classes));
    util::Rng rng(seed);
    for (int m = 0; m < num_micro; ++m) {
      nn::Flow f;
      f.x = tensor::Tensor({2, width});
      for (std::int64_t i = 0; i < f.x.size(); ++i) {
        f.x[i] = static_cast<float>(rng.normal());
      }
      tensor::Tensor t({2});
      for (int j = 0; j < 2; ++j) t[j] = static_cast<float>(rng.randint(classes));
      inputs.push_back(std::move(f));
      targets.push_back(std::move(t));
    }
  }
};

StealConfig steal_config(pipeline::Method method, int stages, int micro, int workers,
                         StealMode mode) {
  StealConfig cfg;
  cfg.engine.method = method;
  cfg.engine.num_stages = stages;
  cfg.engine.num_microbatches = micro;
  cfg.workers = workers;
  cfg.mode = mode;
  return cfg;
}

/// Runs `steps` SGD steps on a reference engine and the stealing engine
/// and asserts bitwise-equal losses, gradients and weights at every step.
template <class Ref>
void expect_bitwise_parity(Ref& ref, StealingEngine& eng, MlpFixture& fx, int steps,
                           const std::string& label) {
  for (int step = 0; step < steps; ++step) {
    auto rr = ref.forward_backward(fx.inputs, fx.targets, fx.head);
    auto rs = eng.forward_backward(fx.inputs, fx.targets, fx.head);
    ASSERT_EQ(rr.finite, rs.finite) << label << " step " << step;
    ASSERT_DOUBLE_EQ(rr.loss, rs.loss) << label << " step " << step;
    ASSERT_DOUBLE_EQ(rr.correct, rs.correct) << label << " step " << step;
    auto gr = ref.gradients();
    auto gs = eng.gradients();
    ASSERT_EQ(gr.size(), gs.size()) << label;
    for (std::size_t i = 0; i < gr.size(); ++i) {
      ASSERT_EQ(gr[i], gs[i]) << label << " grad " << i << " at step " << step;
    }
    for (std::size_t i = 0; i < gr.size(); ++i) {
      ref.weights()[i] -= 0.05F * gr[i];
      eng.weights()[i] -= 0.05F * gs[i];
    }
    ref.commit_update();
    eng.commit_update();
  }
  for (std::size_t i = 0; i < ref.weights().size(); ++i) {
    ASSERT_EQ(ref.weights()[i], eng.weights()[i]) << label << " weight " << i;
  }
}

TEST(StealingEngine, StealsDisabledBitwiseMatchesSequential) {
  for (auto method : {pipeline::Method::Sync, pipeline::Method::PipeDream,
                      pipeline::Method::PipeMare}) {
    MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
    auto cfg = steal_config(method, 4, 4, /*workers=*/4, StealMode::Disabled);
    pipeline::PipelineEngine seq(fx.model, cfg.engine, 1);
    StealingEngine eng(fx.model, cfg, 1);
    expect_bitwise_parity(seq, eng, fx, 4, pipeline::method_name(method));
    EXPECT_EQ(eng.total_steals(), 0u);
  }
}

TEST(StealingEngine, ForcedStealBitwiseMatchesSequential) {
  for (auto method : {pipeline::Method::Sync, pipeline::Method::PipeMare}) {
    MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
    auto cfg = steal_config(method, 4, 4, /*workers=*/3, StealMode::Forced);
    pipeline::PipelineEngine seq(fx.model, cfg.engine, 1);
    StealingEngine eng(fx.model, cfg, 1);
    expect_bitwise_parity(seq, eng, fx, 4, pipeline::method_name(method));
  }
}

TEST(StealingEngine, LoadAwareBitwiseMatchesSequentialWithT2) {
  // Stealing + discrepancy correction: the T2 extrapolation path reads the
  // same WeightVersions state, so curves stay bitwise-equal under any
  // scheduling.
  MlpFixture fx(/*layers=*/6, /*width=*/12, /*classes=*/6, /*num_micro=*/2);
  auto cfg = steal_config(pipeline::Method::PipeMare, 6, 2, /*workers=*/2,
                          StealMode::LoadAware);
  cfg.engine.discrepancy_correction = true;
  cfg.engine.decay_d = 0.25;
  pipeline::PipelineEngine seq(fx.model, cfg.engine, 1);
  StealingEngine eng(fx.model, cfg, 1);
  expect_bitwise_parity(seq, eng, fx, 4, "PipeMare+T2");
}

TEST(StealingEngine, StressSweepNoTaskLostOrRunTwice) {
  // (P, N, W) sweep under forced stealing: every config must stay
  // bitwise-identical to the sequential engine AND account for exactly
  // 2 * N tasks per stage per step (a lost task would deadlock or skew
  // the counters; a double-run would corrupt the gradient accumulation
  // and break parity).
  constexpr int kSteps = 2;
  for (int p = 1; p <= 4; ++p) {
    for (int n : {1, 2, 4}) {
      for (int w : {1, 2, 5}) {
        MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, n);
        auto cfg = steal_config(pipeline::Method::PipeMare, p, n, w, StealMode::Forced);
        pipeline::PipelineEngine seq(fx.model, cfg.engine, 1);
        StealingEngine eng(fx.model, cfg, 1);
        std::string label =
            "P=" + std::to_string(p) + " N=" + std::to_string(n) + " W=" + std::to_string(w);
        expect_bitwise_parity(seq, eng, fx, kSteps, label);

        auto stats = eng.stage_stats();
        ASSERT_EQ(stats.size(), static_cast<std::size_t>(p)) << label;
        std::uint64_t total_items = 0;
        for (int s = 0; s < p; ++s) {
          const auto& st = stats[static_cast<std::size_t>(s)];
          EXPECT_EQ(st.items, static_cast<std::uint64_t>(kSteps * 2 * n))
              << label << " stage " << s;
          EXPECT_LE(st.stolen_items, st.items) << label << " stage " << s;
          total_items += st.items;
        }
        EXPECT_EQ(total_items, static_cast<std::uint64_t>(kSteps * 2 * n * p)) << label;
        // Worker-side accounting must agree with the stage-side ledger.
        std::uint64_t worker_items = 0;
        std::uint64_t worker_steals = 0;
        for (const auto& ws : eng.worker_stats()) {
          worker_items += ws.items;
          worker_steals += ws.stolen_items;
        }
        EXPECT_EQ(worker_items, total_items) << label;
        EXPECT_EQ(worker_steals, eng.total_steals()) << label;
      }
    }
  }
}

TEST(StealingEngine, ForcedStealsAreAttributedToStagesAndThieves) {
  MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
  auto cfg = steal_config(pipeline::Method::PipeMare, 4, 4, /*workers=*/2,
                          StealMode::Forced);
  StealingEngine eng(fx.model, cfg, 1);
  for (int step = 0; step < 3; ++step) {
    (void)eng.forward_backward(fx.inputs, fx.targets, fx.head);
    eng.commit_update();
  }
  // Forced stealing at W = 2 steals on every step: each worker scans the
  // other's stages first, and every forward it runs pushes onto one.
  EXPECT_GT(eng.total_steals(), 0u);
  std::uint64_t stage_stolen = 0;
  for (const auto& st : eng.stage_stats()) stage_stolen += st.stolen_items;
  std::uint64_t worker_stolen = 0;
  for (const auto& ws : eng.worker_stats()) worker_stolen += ws.stolen_items;
  EXPECT_EQ(stage_stolen, eng.total_steals());
  EXPECT_EQ(worker_stolen, eng.total_steals());
}

TEST(StealingEngine, DeterministicModeCurvesAreRunToRunReproducible) {
  data::ImageDatasetConfig d;
  d.classes = 4;
  d.train_size = 64;
  d.test_size = 32;
  d.image_size = 8;
  d.noise_std = 0.4;
  d.seed = 11;
  nn::ResNetConfig m;
  m.base_channels = 6;
  m.blocks_per_group = {1, 1};
  core::ImageTask task(d, m, "tiny-image");

  core::TrainerConfig cfg;
  cfg.engine.method = pipeline::Method::PipeMare;
  cfg.engine.num_stages = 4;
  cfg.epochs = 2;
  cfg.minibatch_size = 32;
  cfg.microbatch_size = 8;
  cfg.schedule = core::TrainerConfig::Sched::Constant;
  cfg.lr = 0.05;
  cfg.seed = 5;
  core::StealOptions opts;
  opts.workers = 3;
  opts.mode = StealMode::Deterministic;
  cfg.backend = {"threaded_steal", opts};
  auto first = core::train(task, cfg);
  auto second = core::train(task, cfg);
  ASSERT_EQ(first.curve.size(), second.curve.size());
  for (std::size_t e = 0; e < first.curve.size(); ++e) {
    EXPECT_EQ(first.curve[e].train_loss, second.curve[e].train_loss) << "epoch " << e;
    EXPECT_EQ(first.curve[e].metric, second.curve[e].metric) << "epoch " << e;
    EXPECT_EQ(first.curve[e].param_norm, second.curve[e].param_norm) << "epoch " << e;
  }

  // ... and the same config through the "threaded" backend produces the
  // same curve bitwise (the acceptance criterion's disabled-steal parity
  // holds for every mode because the numerics are scheduling-independent).
  cfg.backend = "threaded";
  auto threaded = core::train(task, cfg);
  ASSERT_EQ(first.curve.size(), threaded.curve.size());
  for (std::size_t e = 0; e < first.curve.size(); ++e) {
    EXPECT_EQ(first.curve[e].train_loss, threaded.curve[e].train_loss) << "epoch " << e;
    EXPECT_EQ(first.curve[e].metric, threaded.curve[e].metric) << "epoch " << e;
  }
}

TEST(StealingEngine, StealCountsSurfaceThroughStageLoadObserver) {
  MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
  auto cfg = steal_config(pipeline::Method::PipeMare, 4, 4, /*workers=*/2,
                          StealMode::Forced);
  auto backend = core::BackendRegistry::instance().create(
      std::move(fx.model),
      core::BackendConfig{"threaded_steal", core::StealOptions{2, StealMode::Forced}},
      cfg.engine, 1);
  core::StageLoadObserver load(*backend);
  ASSERT_TRUE(load.active());
  for (int epoch = 0; epoch < 2; ++epoch) {
    (void)backend->forward_backward(fx.inputs, fx.targets, fx.head);
    backend->commit_update();
    core::EpochRecord rec;
    load.on_epoch(rec);
  }
  ASSERT_EQ(load.epoch_stats().size(), 2u);
  std::uint64_t items = 0;
  std::uint64_t stolen = 0;
  for (const auto& epoch : load.epoch_stats()) {
    ASSERT_EQ(epoch.size(), 4u);
    for (const auto& s : epoch) {
      items += s.items;
      stolen += s.stolen_items;
    }
  }
  EXPECT_EQ(items, 2u * 2u * 4u * 4u);  // epochs * (fwd+bwd) * N * P
  auto* steal_backend = dynamic_cast<core::ThreadedStealBackend*>(backend.get());
  ASSERT_NE(steal_backend, nullptr);
  EXPECT_EQ(stolen, steal_backend->engine().total_steals());
  EXPECT_GE(core::StageLoadObserver::busy_spread(load.totals()), 1.0);
}

TEST(StealingEngine, RejectsRecomputeAndNegativeWorkers) {
  MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/2);
  auto cfg = steal_config(pipeline::Method::PipeMare, 2, 2, 0, StealMode::LoadAware);
  cfg.engine.recompute_segments = 2;
  EXPECT_THROW(StealingEngine(fx.model, cfg, 1), std::invalid_argument);
  cfg.engine.recompute_segments = 0;
  cfg.workers = -1;
  EXPECT_THROW(StealingEngine(fx.model, cfg, 1), std::invalid_argument);
}

TEST(StealingEngine, WorkerCountIndependentOfStageCount) {
  MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/2);
  auto cfg = steal_config(pipeline::Method::PipeMare, 4, 2, /*workers=*/7,
                          StealMode::LoadAware);
  StealingEngine eng(fx.model, cfg, 1);
  EXPECT_EQ(eng.num_workers(), 7);  // W > P: extra workers live by stealing
  (void)eng.forward_backward(fx.inputs, fx.targets, fx.head);
  eng.commit_update();
  auto stats = eng.stage_stats();
  std::uint64_t total = 0;
  for (const auto& s : stats) total += s.items;
  EXPECT_EQ(total, 2u * 2u * 4u);
}

// ---------------------------------------------------------------------------
// Zero-copy weight views: fallback parity matrix and copy accounting
// ---------------------------------------------------------------------------

/// One configuration of the view parity matrix.
struct ViewCase {
  std::string label;
  pipeline::Method method = pipeline::Method::PipeMare;
  int stages = 4;
  bool split_bias = false;
  bool t2 = false;
  bool t2_per_microbatch = false;
  int switch_at = -1;  ///< T3: train Sync until this step, then `method`
  bool empty_stage = false;  ///< stage 1 owns no weight units
};

TEST(WeightViews, FallbackParityMatrixMatchesSequentialBitwise) {
  // Every path of WeightVersions::forward_view / backward_view — the
  // in-place fast paths and the scratch fallbacks — must reproduce the
  // copying sequential engine bit for bit, stage-per-thread ("threaded")
  // and under forced stealing alike.
  const std::vector<ViewCase> cases = {
      // 4 Linear layers split into 8 units over 3 stages: the cut between
      // stages 1 and 2 falls between a weight and its bias, so stage 1's
      // forward reads two versions.
      {"split_bias PipeMare+T2 (mixed-version forward)", pipeline::Method::PipeMare, 3,
       true, true},
      {"t2_per_microbatch (scratch backward)", pipeline::Method::PipeMare, 4, false, true,
       true},
      {"PipeMare without T2", pipeline::Method::PipeMare, 4},
      {"PipeDream (backward = forward view)", pipeline::Method::PipeDream, 4},
      {"PipeDream split_bias", pipeline::Method::PipeDream, 3, true},
      {"Sync", pipeline::Method::Sync, 4, false, true},
      {"T3 Sync->PipeMare+T2", pipeline::Method::PipeMare, 4, false, true, false, 2},
      // 4 Linear layers split into 8 units over 8 stages: every odd stage
      // is scheduled only a bias, so it owns no module and no weight unit.
      {"stages owning no weight units", pipeline::Method::PipeMare, 8, true, true, false,
       -1, true},
  };
  constexpr int kSteps = 5;
  for (const ViewCase& c : cases) {
    MlpFixture fx(/*layers=*/3, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
    auto cfg = steal_config(c.method, c.stages, 4, /*workers=*/3, StealMode::Forced);
    cfg.engine.split_bias = c.split_bias;
    cfg.engine.discrepancy_correction = c.t2;
    cfg.engine.decay_d = 0.25;
    cfg.engine.t2_per_microbatch = c.t2_per_microbatch;
    pipeline::PipelineEngine seq(fx.model, cfg.engine, 1);
    StealingEngine thr(fx.model, threaded_config(cfg.engine), 1);
    StealingEngine steal(fx.model, cfg, 1);
    if (c.empty_stage) {
      auto ranges = pipeline::stage_module_ranges(steal.partition());
      ASSERT_EQ(ranges[1].unit_first, ranges[1].unit_last) << c.label;
    }
    for (int step = 0; step < kSteps; ++step) {
      if (c.switch_at >= 0) {
        auto m = step < c.switch_at ? pipeline::Method::Sync : c.method;
        seq.set_method(m);
        thr.set_method(m);
        steal.set_method(m);
      }
      auto rs = seq.forward_backward(fx.inputs, fx.targets, fx.head);
      auto rt = thr.forward_backward(fx.inputs, fx.targets, fx.head);
      auto rw = steal.forward_backward(fx.inputs, fx.targets, fx.head);
      ASSERT_DOUBLE_EQ(rs.loss, rt.loss) << c.label << " threaded step " << step;
      ASSERT_DOUBLE_EQ(rs.loss, rw.loss) << c.label << " threaded_steal step " << step;
      ASSERT_EQ(rs.finite, rw.finite) << c.label << " step " << step;
      auto gs = seq.gradients();
      auto gt = thr.gradients();
      auto gw = steal.gradients();
      for (std::size_t i = 0; i < gs.size(); ++i) {
        ASSERT_EQ(gs[i], gt[i]) << c.label << " threaded grad " << i << " step " << step;
        ASSERT_EQ(gs[i], gw[i]) << c.label << " threaded_steal grad " << i << " step "
                                << step;
      }
      for (std::size_t i = 0; i < gs.size(); ++i) {
        seq.weights()[i] -= 0.05F * gs[i];
        thr.weights()[i] -= 0.05F * gt[i];
        steal.weights()[i] -= 0.05F * gw[i];
      }
      seq.commit_update();
      thr.commit_update();
      steal.commit_update();
    }
    for (std::size_t i = 0; i < seq.weights().size(); ++i) {
      ASSERT_EQ(seq.weights()[i], thr.weights()[i]) << c.label << " weight " << i;
      ASSERT_EQ(seq.weights()[i], steal.weights()[i]) << c.label << " weight " << i;
    }
  }
}

/// SGD step on the stealing engine, returning the bytes the step copied
/// (tasks, then commit) through "train.weights.bytes_copied".
std::pair<std::uint64_t, std::uint64_t> copied_bytes_per_step(StealingEngine& eng,
                                                              MlpFixture& fx) {
  obs::Counter& copied =
      obs::MetricsRegistry::instance().counter("train.weights.bytes_copied");
  const std::uint64_t before = copied.value();
  (void)eng.forward_backward(fx.inputs, fx.targets, fx.head);
  const std::uint64_t after_tasks = copied.value();
  auto g = eng.gradients();
  for (std::size_t i = 0; i < g.size(); ++i) eng.weights()[i] -= 0.05F * g[i];
  eng.commit_update();
  return {after_tasks - before, copied.value() - after_tasks};
}

TEST(WeightViews, PerStageT2StepCopiesOnlyTheRingPublish) {
  // PipeMare + T2 without split_bias: every task reads its weights in
  // place, and the commit copies the model exactly once (the ring
  // publish; the delta EMA and the T2 backward weights ride along).
  MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
  auto cfg = steal_config(pipeline::Method::PipeMare, 4, 4, /*workers=*/3,
                          StealMode::Forced);
  cfg.engine.discrepancy_correction = true;
  StealingEngine eng(fx.model, cfg, 1);
  const std::uint64_t model_bytes = 4 * static_cast<std::uint64_t>(fx.model.param_count());
  for (int step = 0; step < 4; ++step) {
    auto [tasks, commit] = copied_bytes_per_step(eng, fx);
    EXPECT_EQ(tasks, 0u) << "step " << step;
    EXPECT_EQ(commit, model_bytes) << "step " << step;
  }
}

TEST(WeightViews, SplitBiasFallbackBytesAreCounted) {
  // With split_bias a stage's bias unit is scheduled one stage later, so
  // once the versions diverge the stage's forward assembles into scratch:
  // exactly the stage's unit bytes for every (stage, microbatch) whose
  // units read different versions.
  constexpr int kStages = 4;
  constexpr int kMicro = 4;
  MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, kMicro);
  auto cfg = steal_config(pipeline::Method::PipeMare, kStages, kMicro, /*workers=*/3,
                          StealMode::Forced);
  cfg.engine.split_bias = true;
  cfg.engine.discrepancy_correction = true;
  StealingEngine eng(fx.model, cfg, 1);
  const pipeline::Partition& part = eng.partition();
  const auto ranges = pipeline::stage_module_ranges(part);
  std::uint64_t total_fallback = 0;
  for (int step = 0; step < 6; ++step) {
    std::uint64_t expected = 0;
    for (int s = 0; s < kStages; ++s) {
      const auto& r = ranges[static_cast<std::size_t>(s)];
      for (int m = 0; m < kMicro; ++m) {
        std::set<std::int64_t> versions;
        std::uint64_t bytes = 0;
        for (int u = r.unit_first; u < r.unit_last; ++u) {
          int stage = part.unit_stage[static_cast<std::size_t>(u)];
          versions.insert(std::max<std::int64_t>(
              step - eng.schedule().fwd_staleness(stage, m), 0));
          bytes += 4 * static_cast<std::uint64_t>(part.units[static_cast<std::size_t>(u)].size);
        }
        if (versions.size() > 1) expected += bytes;
      }
    }
    auto [tasks, commit] = copied_bytes_per_step(eng, fx);
    EXPECT_EQ(tasks, expected) << "step " << step;
    EXPECT_EQ(commit, 4 * static_cast<std::uint64_t>(fx.model.param_count()));
    total_fallback += tasks;
  }
  EXPECT_GT(total_fallback, 0u) << "the split_bias fallback must be exercised";
}

// ---------------------------------------------------------------------------
// Stage-local weight updates: StealingEngine::train_step vs the serial step
// ---------------------------------------------------------------------------

constexpr int kTaskFeatures = 10;
constexpr int kTaskClasses = 5;

/// An MLP whose layer widths alternate, so a balanced split differs from
/// the uniform one (the repartition case).
void add_alternating_mlp(nn::Model& m) {
  const int widths[] = {kTaskFeatures, 24, 8, 24, 8};
  for (std::size_t i = 0; i + 1 < std::size(widths); ++i) {
    m.add(std::make_unique<nn::Linear>(widths[i], widths[i + 1], /*relu_init=*/true));
    m.add(std::make_unique<nn::ReLU>());
  }
  m.add(std::make_unique<nn::Linear>(8, kTaskClasses));
}

nn::Model alternating_mlp() {
  nn::Model m;
  add_alternating_mlp(m);
  return m;
}

/// Random classification over a model from `build` (kTaskFeatures in,
/// kTaskClasses out).
class MlpTask : public core::Task {
 public:
  explicit MlpTask(int size, std::function<nn::Model()> build = alternating_mlp)
      : size_(size), build_(std::move(build)) {
    util::Rng rng(31);
    for (int i = 0; i < size_ * kTaskFeatures; ++i) {
      xs_.push_back(static_cast<float>(rng.normal()));
    }
    for (int i = 0; i < size_; ++i) {
      ys_.push_back(static_cast<float>(rng.randint(kTaskClasses)));
    }
  }

  std::string name() const override { return "stage-local-mlp"; }
  std::string metric_name() const override { return "accuracy"; }
  nn::Model build_model() const override { return build_(); }
  const nn::LossHead& loss() const override { return loss_; }
  int train_size() const override { return size_; }
  data::MicroBatches minibatch(const std::vector<int>& indices,
                               int micro_size) const override {
    data::MicroBatches mb;
    for (std::size_t start = 0; start < indices.size();
         start += static_cast<std::size_t>(micro_size)) {
      const auto rows = std::min(static_cast<std::size_t>(micro_size), indices.size() - start);
      nn::Flow f;
      f.x = tensor::Tensor({static_cast<int>(rows), kTaskFeatures});
      tensor::Tensor t({static_cast<int>(rows)});
      for (std::size_t r = 0; r < rows; ++r) {
        const auto idx = static_cast<std::size_t>(indices[start + r]);
        for (int c = 0; c < kTaskFeatures; ++c) {
          f.x.at(static_cast<int>(r), c) = xs_[idx * kTaskFeatures + static_cast<std::size_t>(c)];
        }
        t.at(static_cast<int>(r)) = ys_[idx];
      }
      mb.inputs.push_back(std::move(f));
      mb.targets.push_back(std::move(t));
    }
    return mb;
  }
  double evaluate(const nn::Model& model, std::span<const float> params) const override {
    std::vector<int> all(static_cast<std::size_t>(size_));
    for (int i = 0; i < size_; ++i) all[static_cast<std::size_t>(i)] = i;
    auto mb = minibatch(all, size_);
    auto caches = model.make_caches();
    nn::Flow out = model.forward(mb.inputs.at(0), params, caches);
    auto res = loss_.forward_backward(out.x, mb.targets.at(0));
    return res.count > 0 ? 100.0 * res.correct / res.count : 0.0;
  }

 private:
  int size_;
  std::function<nn::Model()> build_;
  std::vector<float> xs_;
  std::vector<float> ys_;
  nn::ClassificationXent loss_;
};

/// A Transformer small enough for the sanitizer runs.
std::unique_ptr<core::TranslationTask> tiny_translation_task() {
  data::TranslationConfig d;
  d.vocab = 12;
  d.seq_len = 5;
  d.train_size = 32;
  d.test_size = 8;
  d.seed = 3;
  nn::TransformerConfig m;
  m.vocab = 12;
  m.d_model = 8;
  m.heads = 2;
  m.enc_layers = 1;
  m.dec_layers = 1;
  m.ffn_hidden = 16;
  m.max_len = 8;
  return std::make_unique<core::TranslationTask>(d, m, "tiny-translation", 4);
}

/// True when some module's weight units fall in different LR stages: the
/// module runs on one stage, but unit_stage puts part of it in the next
/// stage's LR segment.
bool module_straddles_stages(const pipeline::Partition& part) {
  for (std::size_t u = 1; u < part.units.size(); ++u) {
    if (part.units[u].module == part.units[u - 1].module &&
        part.unit_stage[u] != part.unit_stage[u - 1]) {
      return true;
    }
  }
  return false;
}

/// Repartitions the backend to `target` at the end of epoch `at_epoch`.
class MigrateAt final : public core::StepObserver {
 public:
  MigrateAt(core::ExecutionBackend& backend, const pipeline::Partition& target, int at_epoch)
      : backend_(backend), target_(target), at_epoch_(at_epoch) {}
  void on_epoch(core::EpochRecord& record) override {
    if (record.epoch == at_epoch_) backend_.repartition(target_);
  }

 private:
  core::ExecutionBackend& backend_;
  const pipeline::Partition& target_;
  int at_epoch_;
};

/// One cell of the stage-local update parity matrix.
struct UpdateCase {
  std::string label;
  pipeline::Method method = pipeline::Method::PipeMare;
  bool t2 = false;
  bool split_bias = false;
  bool t1 = false;
  int warmup_epochs = 0;  ///< T3: Sync for this many epochs, then `method`
  bool adamw = false;
  double grad_clip = 0.0;
  bool repartition = false;  ///< migrate to the balanced split after epoch 1
  bool transformer = false;
};

struct CurveRun {
  core::TrainResult result;
  std::vector<float> weights;
};

CurveRun run_update_case(const core::Task& task, const UpdateCase& c,
                         const core::BackendConfig& backend) {
  core::TrainerConfig cfg;
  cfg.engine.method = c.method;
  cfg.engine.num_stages = c.transformer ? 6 : 4;
  cfg.engine.discrepancy_correction = c.t2;
  cfg.engine.decay_d = 0.25;
  cfg.engine.split_bias = c.split_bias;
  cfg.epochs = 3;
  cfg.minibatch_size = c.transformer ? 8 : 16;
  cfg.microbatch_size = c.transformer ? 2 : 4;
  cfg.engine.num_microbatches = cfg.num_microbatches();
  cfg.schedule = core::TrainerConfig::Sched::Constant;
  cfg.t1 = c.t1;
  cfg.t1_annealing_steps = 6;
  cfg.warmup_epochs = c.warmup_epochs;
  cfg.grad_clip = c.grad_clip;
  cfg.seed = 5;
  if (c.adamw) {
    cfg.optimizer = core::TrainerConfig::Opt::AdamW;
    cfg.lr = 2e-3;
    cfg.weight_decay = 1e-4;
  } else {
    cfg.optimizer = core::TrainerConfig::Opt::SgdMomentum;
    cfg.lr = 0.05;
    cfg.weight_decay = 5e-4;
  }
  cfg.backend = backend;
  auto be = core::BackendRegistry::instance().create(task.build_model(), backend,
                                                     cfg.engine, cfg.seed);
  pipeline::PartitionSpec balanced;
  balanced.strategy = pipeline::PartitionStrategy::Balanced;
  const pipeline::Partition target = pipeline::make_partition(
      be->model(), cfg.engine.num_stages, c.split_bias, balanced);
  if (c.repartition) {
    EXPECT_NE(target.unit_stage, be->partition()->unit_stage) << c.label;
  }
  if (c.transformer) {
    EXPECT_TRUE(module_straddles_stages(*be->partition())) << c.label;
  }
  MigrateAt migrate(*be, target, 1);
  std::vector<core::StepObserver*> obs;
  if (c.repartition) obs.push_back(&migrate);
  CurveRun run;
  run.result = core::train_loop(task, *be, cfg, obs);
  run.weights.assign(be->weights().begin(), be->weights().end());
  return run;
}

void expect_same_run(const CurveRun& ref, const CurveRun& got, const std::string& label) {
  ASSERT_EQ(ref.result.diverged, got.result.diverged) << label;
  ASSERT_EQ(ref.result.curve.size(), got.result.curve.size()) << label;
  for (std::size_t e = 0; e < ref.result.curve.size(); ++e) {
    const auto& a = ref.result.curve[e];
    const auto& b = got.result.curve[e];
    // Bitwise, so a divergence record's NaN metric compares equal too.
    EXPECT_EQ(std::memcmp(&a.train_loss, &b.train_loss, sizeof(double)), 0)
        << label << " epoch " << e << ": " << a.train_loss << " vs " << b.train_loss;
    EXPECT_EQ(std::memcmp(&a.metric, &b.metric, sizeof(double)), 0)
        << label << " epoch " << e << ": " << a.metric << " vs " << b.metric;
    EXPECT_EQ(std::memcmp(&a.param_norm, &b.param_norm, sizeof(double)), 0)
        << label << " epoch " << e << ": " << a.param_norm << " vs " << b.param_norm;
  }
  ASSERT_EQ(ref.weights.size(), got.weights.size()) << label;
  for (std::size_t i = 0; i < ref.weights.size(); ++i) {
    ASSERT_EQ(ref.weights[i], got.weights[i]) << label << " weight " << i;
  }
}

TEST(StageLocalUpdate, ParityMatrixThroughTrainLoopMatchesSequentialBitwise) {
  // Every method and technique the step sequence touches: which weights a
  // stage steps (split_bias, a Transformer module straddling an LR
  // segment boundary, a mid-training repartition), with which LR (T1,
  // T3), which optimizer, and the serial clip-on sequence.
  const std::vector<UpdateCase> cases = {
      {"PipeMare + per-stage T2, AdamW", pipeline::Method::PipeMare, true, false, false, 0,
       true},
      {"PipeMare without T2", pipeline::Method::PipeMare},
      {"Sync, AdamW", pipeline::Method::Sync, false, false, false, 0, true},
      {"PipeDream", pipeline::Method::PipeDream},
      {"split_bias PipeMare + T2", pipeline::Method::PipeMare, true, true},
      {"T1 per-stage LR scales, AdamW", pipeline::Method::PipeMare, true, false, true, 0,
       true},
      {"T3 Sync -> PipeMare", pipeline::Method::PipeMare, true, false, false, 1},
      {"grad_clip > 0 (serial sequence), AdamW", pipeline::Method::PipeMare, true, false,
       false, 0, true, 0.5},
      {"mid-training repartition", pipeline::Method::PipeMare, true, false, false, 0, false,
       0.0, true},
      {"Transformer, module straddling a stage boundary, AdamW", pipeline::Method::PipeMare,
       true, false, false, 0, true, 0.0, false, true},
  };
  core::StealOptions forced;
  forced.workers = 3;
  forced.mode = StealMode::Forced;
  MlpTask mlp(48);
  auto translation = tiny_translation_task();
  for (const UpdateCase& c : cases) {
    const core::Task& task = c.transformer ? static_cast<const core::Task&>(*translation)
                                           : static_cast<const core::Task&>(mlp);
    const CurveRun seq = run_update_case(task, c, core::BackendConfig{"sequential"});
    ASSERT_FALSE(seq.result.diverged) << c.label;
    ASSERT_EQ(seq.result.curve.size(), 3u) << c.label;
    expect_same_run(seq, run_update_case(task, c, core::BackendConfig{"threaded"}),
                    c.label + " / threaded");
    expect_same_run(seq,
                    run_update_case(task, c, core::BackendConfig{"threaded_steal", forced}),
                    c.label + " / forced threaded_steal");
  }
}

/// AdamW that records the thread of every step_range call.
class RecordingAdamW final : public optim::AdamW {
 public:
  void step_range(std::span<float> params, std::span<const float> grads,
                  const optim::LrSegment& seg) override {
    {
      std::lock_guard<std::mutex> lock(m_);
      threads_.push_back(std::this_thread::get_id());
    }
    AdamW::step_range(params, grads, seg);
  }

  /// step_range calls recorded since the last call, and how many ran on
  /// `caller`.
  std::pair<std::size_t, std::size_t> take(std::thread::id caller) {
    std::lock_guard<std::mutex> lock(m_);
    const auto on_caller =
        static_cast<std::size_t>(std::count(threads_.begin(), threads_.end(), caller));
    const std::size_t total = threads_.size();
    threads_.clear();
    return {total, on_caller};
  }

 private:
  std::mutex m_;
  std::vector<std::thread::id> threads_;
};

TEST(StageLocalUpdate, UpdatesRunOnWorkersUnlessClipped) {
  // With clip off every stage's slice is stepped by a pool worker; with
  // clip on, train_step is the serial sequence on the calling thread. The
  // commit copies the model exactly once per step either way.
  MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
  auto cfg = steal_config(pipeline::Method::PipeMare, 4, 4, /*workers=*/3,
                          StealMode::Forced);
  cfg.engine.discrepancy_correction = true;
  StealingEngine eng(fx.model, cfg, 1);
  RecordingAdamW opt;
  const auto segments = eng.lr_segments(1e-3, {});
  obs::Counter& copied =
      obs::MetricsRegistry::instance().counter("train.weights.bytes_copied");
  const std::uint64_t model_bytes = 4 * static_cast<std::uint64_t>(fx.model.param_count());
  const auto caller = std::this_thread::get_id();
  for (double clip : {0.0, 1e9}) {
    for (int step = 0; step < 3; ++step) {
      const std::uint64_t before = copied.value();
      auto res = core::train_step(eng, fx.inputs, fx.targets, fx.head,
                                  core::StepUpdate{opt, segments, 1e3, clip});
      ASSERT_TRUE(res.finite);
      EXPECT_EQ(copied.value() - before, model_bytes) << "clip " << clip << " step " << step;
      auto [total, on_caller] = opt.take(caller);
      EXPECT_GE(total, segments.size()) << "clip " << clip;
      if (clip > 0.0) {
        EXPECT_EQ(on_caller, total) << "clipped step " << step;
      } else {
        EXPECT_EQ(on_caller, 0u) << "stage-local step " << step;
      }
    }
  }
  EXPECT_EQ(eng.steps_taken(), 6);
}

// ---------------------------------------------------------------------------
// Stage-local updates: the divergence and failure contracts
// ---------------------------------------------------------------------------

constexpr const char* kStepFaultMessage = "injected step fault";

/// Test-only module with one weight, the identity on activations. On the
/// first training pass of step `step`, microbatch `micro`, its backward
/// either writes +inf into its weight's gradient (the loss stays finite)
/// or throws; a retry of the step runs clean. It is the first module of
/// the model, so it runs on stage 0: every other stage may have stepped
/// by the time it fails.
class StepFault : public nn::Module {
 public:
  enum class Kind { InfGradient, Throw };

  StepFault(Kind kind, std::int64_t step, int micro) : kind_(kind), step_(step), micro_(micro) {}

  std::string name() const override { return "StepFault"; }
  std::int64_t param_count() const override { return 1; }

  nn::Flow forward(const nn::Flow& in, std::span<const float> /*w*/,
                   nn::Cache& cache) const override {
    cache.saved.assign(1, tensor::Tensor({1}));
    const bool hit = in.training && in.step == step_ && in.micro == micro_ &&
                     armed_.exchange(false);
    cache.saved[0][0] = hit ? 1.0F : 0.0F;
    return in;
  }

  nn::Flow backward(const nn::Flow& dout, std::span<const float> /*w_bkwd*/,
                    const nn::Cache& cache, std::span<float> grad) const override {
    if (cache.saved.at(0)[0] != 0.0F) {
      if (kind_ == Kind::Throw) throw std::runtime_error(kStepFaultMessage);
      grad[0] = std::numeric_limits<float>::infinity();
    }
    return dout;
  }

 private:
  Kind kind_;
  std::int64_t step_;
  int micro_;
  mutable std::atomic<bool> armed_{true};
};

/// The alternating MLP behind a StepFault.
std::function<nn::Model()> faulty_mlp(StepFault::Kind kind, std::int64_t step, int micro) {
  return [=] {
    nn::Model m;
    m.add(std::make_unique<StepFault>(kind, step, micro));
    add_alternating_mlp(m);
    return m;
  };
}

/// Trains `task` through core::train_loop on sequential, threaded and
/// forced threaded_steal and expects bitwise-equal curves (divergence
/// record included) and final weights.
void expect_backends_agree(const core::Task& task, core::TrainerConfig cfg,
                           const std::string& label) {
  cfg.engine.num_microbatches = cfg.num_microbatches();
  core::StealOptions forced;
  forced.workers = 3;
  forced.mode = StealMode::Forced;
  auto run = [&](const core::BackendConfig& backend) {
    auto be = core::BackendRegistry::instance().create(task.build_model(), backend,
                                                       cfg.engine, cfg.seed);
    CurveRun r;
    r.result = core::train_loop(task, *be, cfg);
    r.weights.assign(be->weights().begin(), be->weights().end());
    return r;
  };
  const CurveRun seq = run(core::BackendConfig{"sequential"});
  ASSERT_TRUE(seq.result.diverged) << label;
  ASSERT_TRUE(seq.result.curve.back().is_divergence_record()) << label;
  expect_same_run(seq, run(core::BackendConfig{"threaded"}), label + " / threaded");
  expect_same_run(seq, run(core::BackendConfig{"threaded_steal", forced}),
                  label + " / forced threaded_steal");
}

TEST(StageLocalUpdate, NonFiniteLowerStageGradientRestoresSteppedStages) {
  // Step 4 (epoch 2) yields +inf in stage 0's gradient while every loss
  // stays finite: the upper stages step, then the step diverges and they
  // are restored, so the divergence record's ||w|| is the pre-step one.
  constexpr int kMicro = 4;
  for (bool adamw : {false, true}) {
    MlpTask task(48, faulty_mlp(StepFault::Kind::InfGradient, 4, kMicro - 1));
    core::TrainerConfig cfg;
    cfg.engine.method = pipeline::Method::PipeMare;
    cfg.engine.num_stages = 4;
    cfg.engine.discrepancy_correction = true;
    cfg.epochs = 3;
    cfg.minibatch_size = 16;
    cfg.microbatch_size = 16 / kMicro;
    cfg.schedule = core::TrainerConfig::Sched::Constant;
    cfg.optimizer = adamw ? core::TrainerConfig::Opt::AdamW : core::TrainerConfig::Opt::SgdMomentum;
    cfg.lr = adamw ? 2e-3 : 0.05;
    cfg.seed = 5;
    expect_backends_agree(task, cfg, adamw ? "AdamW" : "SGD");
  }
}

TEST(StageLocalUpdate, ForcedDivergenceMatchesSequential) {
  // The forced-divergence case of the trainer suite (any loss counts as
  // divergent): Backward(P-1, N-1)'s decision fails, no stage steps.
  data::ImageDatasetConfig d;
  d.classes = 4;
  d.train_size = 256;
  d.test_size = 96;
  d.image_size = 8;
  d.noise_std = 0.4;
  d.seed = 11;
  nn::ResNetConfig m;
  m.base_channels = 6;
  m.blocks_per_group = {1, 1};
  core::ImageTask task(d, m, "tiny-image");
  core::TrainerConfig cfg;
  cfg.engine.method = pipeline::Method::PipeMare;
  cfg.engine.num_stages = 4;
  cfg.epochs = 3;
  cfg.minibatch_size = 32;
  cfg.microbatch_size = 8;
  cfg.schedule = core::TrainerConfig::Sched::Constant;
  cfg.lr = 0.05;
  cfg.weight_decay = 1e-4;
  cfg.seed = 5;
  cfg.divergence_loss = 1e-12;
  expect_backends_agree(task, cfg, "divergence_loss 1e-12");
}

TEST(StageLocalUpdate, ThrowOnALowerStageRestoresWeightsAndLeavesPoolUsable) {
  // Backward(0, N-1) throws on step 1, after the upper stages' updates
  // were released: train_step rethrows once the graph drained, the live
  // weights are the pre-step version bitwise, and the pool still runs.
  constexpr int kStages = 4;
  constexpr int kMicro = 4;
  MlpTask task(16, faulty_mlp(StepFault::Kind::Throw, 1, kMicro - 1));
  pipeline::EngineConfig ec;
  ec.method = pipeline::Method::PipeMare;
  ec.num_stages = kStages;
  ec.num_microbatches = kMicro;
  ec.discrepancy_correction = true;
  core::StealOptions forced;
  forced.workers = 3;
  forced.mode = StealMode::Forced;
  std::vector<int> idx(16);
  for (int i = 0; i < 16; ++i) idx[static_cast<std::size_t>(i)] = i;
  const auto mb = task.minibatch(idx, 16 / kMicro);
  for (const auto& backend :
       {core::BackendConfig{"threaded"}, core::BackendConfig{"threaded_steal", forced}}) {
    auto be = core::BackendRegistry::instance().create(task.build_model(), backend, ec, 1);
    optim::AdamW opt;
    const auto segments = be->lr_segments(1e-2, {});
    const core::StepUpdate update{opt, segments, 1e3, 0.0};
    ASSERT_TRUE(core::train_step(*be, mb.inputs, mb.targets, task.loss(), update).finite);
    const std::vector<float> before(be->weights().begin(), be->weights().end());
    auto items = [&] {
      std::uint64_t n = 0;
      for (const auto& st : be->stage_stats()) n += st.items;
      return n;
    };
    const std::uint64_t items_before = items();
    try {
      (void)core::train_step(*be, mb.inputs, mb.targets, task.loss(), update);
      ADD_FAILURE() << backend.name << ": expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(kStepFaultMessage), std::string::npos)
          << backend.name << ": " << e.what();
    }
    EXPECT_EQ(items() - items_before, 2u * kMicro * kStages) << backend.name;
    auto w = be->weights();
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(std::memcmp(&w[i], &before[i], sizeof(float)), 0)
          << backend.name << " weight " << i;
    }
    auto retry = be->forward_backward(mb.inputs, mb.targets, task.loss());
    EXPECT_TRUE(retry.finite) << backend.name;
    EXPECT_EQ(items() - items_before, 4u * kMicro * kStages) << backend.name;
  }
}

}  // namespace
}  // namespace pipemare::sched
