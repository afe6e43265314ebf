#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/core/stage_load.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/data/regression_data.h"
#include "src/data/translation_data.h"
#include "src/hogwild/hogwild.h"
#include "src/hogwild/threaded_hogwild.h"
#include "src/nn/activations.h"
#include "src/nn/dropout.h"
#include "src/nn/heads.h"
#include "src/nn/linear.h"
#include "src/nn/model.h"
#include "src/nn/transformer.h"
#include "src/util/rng.h"

namespace pipemare::hogwild {
namespace {

/// Small dropout-free MLP + random classification microbatches shared by
/// the sequential-vs-threaded comparisons.
struct HogwildFixture {
  nn::Model model;
  nn::ClassificationXent head;
  std::vector<nn::Flow> inputs;
  std::vector<tensor::Tensor> targets;

  HogwildFixture(int num_micro, int layers = 4, int width = 12, int classes = 6,
                 std::uint64_t seed = 17, bool relu = true) {
    for (int i = 0; i < layers; ++i) {
      model.add(std::make_unique<nn::Linear>(width, width, /*relu_init=*/relu));
      // ReLU maps NaN to 0; the non-finite contract test drops it so a
      // poisoned input actually reaches the loss.
      if (relu) model.add(std::make_unique<nn::ReLU>());
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

HogwildConfig base_config(int stages, int micro) {
  HogwildConfig hw;
  hw.num_stages = stages;
  hw.num_microbatches = micro;
  hw.max_delay = 6.0;
  return hw;
}

TEST(HogwildValidation, RejectsBadConfigs) {
  HogwildFixture fx(2);
  auto bad_stages = base_config(0, 2);
  EXPECT_THROW(HogwildEngine(fx.model, bad_stages, 1), std::invalid_argument);
  EXPECT_THROW(ThreadedHogwildEngine(fx.model, bad_stages, 1), std::invalid_argument);

  auto bad_micro = base_config(2, 0);
  EXPECT_THROW(HogwildEngine(fx.model, bad_micro, 1), std::invalid_argument);
  EXPECT_THROW(ThreadedHogwildEngine(fx.model, bad_micro, 1), std::invalid_argument);

  // The original bug: a negative max_delay silently produced a nonsense
  // history depth; it must throw like the pipeline engines' validation.
  auto bad_delay = base_config(2, 2);
  bad_delay.max_delay = -1.0;
  EXPECT_THROW(HogwildEngine(fx.model, bad_delay, 1), std::invalid_argument);
  EXPECT_THROW(ThreadedHogwildEngine(fx.model, bad_delay, 1), std::invalid_argument);

  auto bad_mean = base_config(2, 2);
  bad_mean.mean_delay = {1.0, 2.0, 3.0};  // size != num_stages
  EXPECT_THROW(HogwildEngine(fx.model, bad_mean, 1), std::invalid_argument);
  EXPECT_THROW(ThreadedHogwildEngine(fx.model, bad_mean, 1), std::invalid_argument);

  auto bad_workers = base_config(2, 2);
  bad_workers.num_workers = -1;
  EXPECT_THROW(ThreadedHogwildEngine(fx.model, bad_workers, 1), std::invalid_argument);

  // Worker counts are bounded: checked by the validator alone, so no pool
  // is ever asked for the threads.
  auto too_many = base_config(2, 2);
  too_many.num_workers = sched::kMaxWorkers + 1;
  EXPECT_THROW(validate_config(too_many), std::invalid_argument);
  too_many.num_workers = sched::kMaxWorkers;
  validate_config(too_many);
}

namespace {

/// A module that really does mutate state in forward, to keep the
/// whole-model-replica safety gate honest now that no in-tree module
/// trips it.
class StatefulProbe : public nn::Linear {
 public:
  StatefulProbe() : nn::Linear(8, 8) {}
  std::string name() const override { return "StatefulProbe"; }
  bool stateful_forward() const override { return true; }
};

}  // namespace

TEST(ThreadedHogwild, RejectsStatefulForwardModules) {
  nn::Model model;
  model.add(std::make_unique<nn::Linear>(8, 8));
  model.add(std::make_unique<StatefulProbe>());
  model.add(std::make_unique<nn::Linear>(8, 4));
  EXPECT_THROW(ThreadedHogwildEngine(model, base_config(2, 2), 1),
               std::invalid_argument);
  // The sequential engine keeps supporting stateful-forward models.
  EXPECT_NO_THROW(HogwildEngine(model, base_config(2, 2), 1));
}

TEST(ThreadedHogwild, AcceptsDropoutModels) {
  // Dropout masks are counter-based (pure functions of seed/step/micro/
  // element), so concurrent whole-model replicas are safe and the
  // Transformer analogs can run on this backend (the ROADMAP item the
  // old stateful RNG stream blocked).
  nn::Model model;
  model.add(std::make_unique<nn::Linear>(8, 8));
  model.add(std::make_unique<nn::Dropout>(0.3));
  model.add(std::make_unique<nn::Linear>(8, 4));
  EXPECT_NO_THROW(ThreadedHogwildEngine(model, base_config(2, 2), 1));
}

TEST(ThreadedHogwild, TransformerDropoutBitwiseAcrossWorkerCounts) {
  // The ROADMAP item this PR closes: the Transformer analogs (with active
  // Dropout) run on the threaded Hogwild backend, and because masks are
  // counter-based, thread timing cannot leak into them — two identically
  // seeded runs with different worker counts stay bitwise equal, and both
  // match the sequential HogwildEngine's losses exactly (identical weight
  // views, identical masks; only gradient accumulation reassociates).
  data::TranslationConfig d;
  d.vocab = 12;
  d.seq_len = 5;
  d.train_size = 16;
  d.test_size = 4;
  d.seed = 3;
  nn::TransformerConfig mc;
  mc.d_model = 16;
  mc.heads = 2;
  mc.enc_layers = 1;
  mc.dec_layers = 1;
  mc.ffn_hidden = 24;
  mc.dropout = 0.3;
  core::TranslationTask task(d, mc, "tiny-dropout", /*eval=*/4);
  nn::Model model = task.build_model();

  auto hw = base_config(3, 2);
  HogwildEngine seq(model, hw, 11);
  ThreadedHogwildEngine a(model, hw, 11);
  hw.num_workers = 2;
  ThreadedHogwildEngine b(model, hw, 11);

  auto mb = task.minibatch({0, 1, 2, 3}, 2);
  for (int step = 0; step < 3; ++step) {
    auto rs = seq.forward_backward(mb.inputs, mb.targets, task.loss());
    auto ra = a.forward_backward(mb.inputs, mb.targets, task.loss());
    auto rb = b.forward_backward(mb.inputs, mb.targets, task.loss());
    ASSERT_DOUBLE_EQ(ra.loss, rb.loss) << "step " << step;
    // Sequential comparison is tight but not bitwise: gradient
    // accumulation reassociates across microbatch boundaries, so weights
    // (and with them later losses) drift by float rounding after step 0.
    ASSERT_NEAR(rs.loss, ra.loss, 1e-5 * (1.0 + std::abs(rs.loss)))
        << "step " << step;
    auto ga = a.gradients();
    auto gb = b.gradients();
    for (std::size_t i = 0; i < ga.size(); ++i) {
      ASSERT_EQ(ga[i], gb[i]) << "grad " << i << " at step " << step;
    }
    auto apply = [](auto& engine) {
      auto g = engine.gradients();
      for (std::size_t i = 0; i < g.size(); ++i) engine.weights()[i] -= 0.05F * g[i];
      engine.commit_update();
    };
    apply(seq);
    apply(a);
    apply(b);
  }
}

TEST(ThreadedHogwild, ResolvesWorkerCount) {
  HogwildFixture fx(4);
  auto hw = base_config(2, 4);
  hw.num_workers = 3;
  ThreadedHogwildEngine engine(fx.model, hw, 1);
  EXPECT_EQ(engine.num_workers(), 3);

  hw.num_workers = 0;  // auto: min(cores, N) >= 1
  ThreadedHogwildEngine auto_engine(fx.model, hw, 1);
  EXPECT_GE(auto_engine.num_workers(), 1);
  EXPECT_LE(auto_engine.num_workers(), 4);
}

/// Runs `steps` steps of an N-microbatch minibatch on W workers and returns
/// the per-worker counters.
std::vector<pipeline::StageStats> worker_stats_after(int n, int workers, int steps) {
  HogwildFixture fx(n);
  auto hw = base_config(2, n);
  hw.num_workers = workers;
  ThreadedHogwildEngine engine(fx.model, hw, 1);
  for (int step = 0; step < steps; ++step) {
    (void)engine.forward_backward(fx.inputs, fx.targets, fx.head);
    engine.commit_update();
  }
  return engine.stage_stats();
}

TEST(ThreadedHogwild, PerWorkerStatsCountProcessedMicrobatches) {
  // Parity with the stage-partitioned backends' load instrumentation:
  // per-worker busy / item counters behind the same stage_stats() surface, so
  // core::StageLoadObserver samples every multithreaded backend uniformly.
  // The contract is on the sum over workers: every microbatch runs exactly
  // once, on whichever worker took it; a steal is one of those runs.
  const int n = 6;
  const int steps = 3;
  HogwildFixture fx(n);
  auto hw = base_config(2, n);
  hw.num_workers = 2;
  ThreadedHogwildEngine engine(fx.model, hw, 1);

  auto before = engine.stage_stats();
  ASSERT_EQ(before.size(), 2u);  // slots are workers, not stages
  for (const auto& s : before) {
    EXPECT_EQ(s.busy_ns, 0u);
    EXPECT_EQ(s.items, 0u);
  }

  for (int step = 0; step < steps; ++step) {
    (void)engine.forward_backward(fx.inputs, fx.targets, fx.head);
    engine.commit_update();
  }
  auto after = engine.stage_stats();
  std::uint64_t items = 0;
  std::uint64_t stolen = 0;
  std::uint64_t busy = 0;
  for (const auto& s : after) {
    items += s.items;
    stolen += s.stolen_items;
    busy += s.busy_ns;
  }
  EXPECT_EQ(items, static_cast<std::uint64_t>(steps * n));
  EXPECT_LE(stolen, items);
  EXPECT_GT(busy, 0u);

  engine.reset_stage_stats();
  for (const auto& s : engine.stage_stats()) {
    EXPECT_EQ(s.busy_ns, 0u);
    EXPECT_EQ(s.pop_wait_ns, 0u);
    EXPECT_EQ(s.items, 0u);
    EXPECT_EQ(s.stolen_items, 0u);
  }

  // One worker owns every queue, so nothing is ever stolen.
  auto single = worker_stats_after(n, 1, steps);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].items, static_cast<std::uint64_t>(steps * n));
  EXPECT_EQ(single[0].stolen_items, 0u);

  // More workers than microbatches: one worker's queue stays empty.
  auto wide = worker_stats_after(2, 3, steps);
  ASSERT_EQ(wide.size(), 3u);
  items = 0;
  for (const auto& s : wide) items += s.items;
  EXPECT_EQ(items, static_cast<std::uint64_t>(steps * 2));
}

TEST(ThreadedHogwild, StageLoadObserverActivatesThroughRegistryBackend) {
  HogwildFixture fx(4);
  pipeline::EngineConfig engine;
  engine.num_stages = 2;
  engine.num_microbatches = 4;
  core::ThreadedHogwildOptions opts;
  opts.workers = 2;
  opts.max_delay = 6.0;
  auto backend = core::BackendRegistry::instance().create(
      std::move(fx.model), core::BackendConfig{"threaded_hogwild", opts}, engine, 1);
  core::StageLoadObserver load(*backend);
  ASSERT_TRUE(load.active());
  (void)backend->forward_backward(fx.inputs, fx.targets, fx.head);
  backend->commit_update();
  core::EpochRecord rec;
  load.on_epoch(rec);
  ASSERT_EQ(load.epoch_stats().size(), 1u);
  ASSERT_EQ(load.epoch_stats()[0].size(), 2u);
  std::uint64_t items = 0;
  for (const auto& s : load.epoch_stats()[0]) items += s.items;
  EXPECT_EQ(items, 4u);
}

TEST(ThreadedHogwild, MatchesDelayProfileOfSequential) {
  HogwildFixture fx(2);
  auto hw = base_config(4, 2);
  HogwildEngine seq(fx.model, hw, 7);
  ThreadedHogwildEngine thr(fx.model, hw, 7);
  auto tau_s = seq.stage_tau_fwd();
  auto tau_t = thr.stage_tau_fwd();
  ASSERT_EQ(tau_s.size(), tau_t.size());
  for (std::size_t s = 0; s < tau_s.size(); ++s) {
    EXPECT_DOUBLE_EQ(tau_s[s], tau_t[s]);
  }
}

/// Runs `steps` SGD steps on both engines. Losses must agree to tight
/// tolerance at every step; the engines share the delay RNG stream and
/// weight views, and differ only by float reassociation across microbatch
/// boundaries in gradient accumulation (bias column sums).
void expect_close_trajectories(pipeline::Method method, int stages, int micro,
                               int steps, int workers) {
  HogwildFixture fx(micro);
  auto hw = base_config(stages, micro);
  hw.num_workers = workers;
  HogwildEngine seq(fx.model, hw, 3);
  ThreadedHogwildEngine thr(fx.model, hw, 3);
  seq.set_method(method);
  thr.set_method(method);
  for (int step = 0; step < steps; ++step) {
    auto rs = seq.forward_backward(fx.inputs, fx.targets, fx.head);
    auto rt = thr.forward_backward(fx.inputs, fx.targets, fx.head);
    ASSERT_EQ(rs.finite, rt.finite) << "step " << step;
    ASSERT_NEAR(rs.loss, rt.loss, 1e-5 * (1.0 + std::abs(rs.loss))) << "step " << step;
    ASSERT_DOUBLE_EQ(rs.correct, rt.correct) << "step " << step;
    ASSERT_DOUBLE_EQ(rs.count, rt.count) << "step " << step;
    auto gs = seq.gradients();
    auto gt = thr.gradients();
    ASSERT_EQ(gs.size(), gt.size());
    for (std::size_t i = 0; i < gs.size(); ++i) {
      ASSERT_NEAR(gs[i], gt[i], 1e-4F * (1.0F + std::abs(gs[i])))
          << "grad " << i << " at step " << step;
    }
    for (std::size_t i = 0; i < gs.size(); ++i) {
      seq.weights()[i] -= 0.05F * gs[i];
      thr.weights()[i] -= 0.05F * gt[i];
    }
    seq.commit_update();
    thr.commit_update();
  }
}

TEST(ThreadedHogwild, TracksSequentialUnderStochasticDelays) {
  expect_close_trajectories(pipeline::Method::PipeMare, 4, 4, 6, 4);
}

TEST(ThreadedHogwild, TracksSequentialUnderSync) {
  expect_close_trajectories(pipeline::Method::Sync, 4, 4, 4, 2);
}

TEST(ThreadedHogwild, SingleWorkerDegeneratesCleanly) {
  expect_close_trajectories(pipeline::Method::PipeMare, 3, 5, 4, 1);
}

TEST(ThreadedHogwild, RunToRunBitwiseReproducible) {
  // Thread timing must not leak into results: two identically seeded runs
  // with different worker counts produce bitwise-equal losses, gradients
  // and weights (per-microbatch slots merged in microbatch order).
  HogwildFixture fx(6);
  auto hw = base_config(3, 6);
  hw.num_workers = 4;
  ThreadedHogwildEngine a(fx.model, hw, 11);
  hw.num_workers = 2;
  ThreadedHogwildEngine b(fx.model, hw, 11);
  for (int step = 0; step < 5; ++step) {
    auto ra = a.forward_backward(fx.inputs, fx.targets, fx.head);
    auto rb = b.forward_backward(fx.inputs, fx.targets, fx.head);
    ASSERT_DOUBLE_EQ(ra.loss, rb.loss) << "step " << step;
    auto ga = a.gradients();
    auto gb = b.gradients();
    for (std::size_t i = 0; i < ga.size(); ++i) {
      ASSERT_EQ(ga[i], gb[i]) << "grad " << i << " at step " << step;
    }
    for (std::size_t i = 0; i < ga.size(); ++i) {
      a.weights()[i] -= 0.05F * ga[i];
      b.weights()[i] -= 0.05F * gb[i];
    }
    a.commit_update();
    b.commit_update();
  }
  for (std::size_t i = 0; i < a.weights().size(); ++i) {
    ASSERT_EQ(a.weights()[i], b.weights()[i]) << "weight " << i;
  }
}

TEST(ThreadedHogwild, NonFiniteLossContractMatchesSequential) {
  HogwildFixture fx(4, 4, 12, 6, 17, /*relu=*/false);
  for (std::int64_t i = 0; i < fx.inputs[2].x.size(); ++i) {
    fx.inputs[2].x[i] = std::numeric_limits<float>::quiet_NaN();
  }
  auto hw = base_config(2, 4);
  HogwildEngine seq(fx.model, hw, 3);
  ThreadedHogwildEngine thr(fx.model, hw, 3);
  auto rs = seq.forward_backward(fx.inputs, fx.targets, fx.head);
  auto rt = thr.forward_backward(fx.inputs, fx.targets, fx.head);
  EXPECT_FALSE(rs.finite);
  EXPECT_FALSE(rt.finite);
  EXPECT_FALSE(std::isfinite(rs.loss));
  EXPECT_FALSE(std::isfinite(rt.loss));
  // The unified contract: a divergent step has no meaningful metrics.
  EXPECT_EQ(rs.correct, 0.0);
  EXPECT_EQ(rs.count, 0.0);
  EXPECT_EQ(rt.correct, 0.0);
  EXPECT_EQ(rt.count, 0.0);
}

TEST(ThreadedHogwild, TrainsQuadraticWorkloadToSequentialLoss) {
  // The fig19-style quadratic (linear regression) workload: the threaded
  // backend must reach the sequential engine's final loss to tolerance,
  // driven end-to-end through core::train via the registry backend.
  data::RegressionConfig rc;
  rc.features = 8;
  rc.size = 128;
  rc.noise_std = 0.05;
  rc.seed = 9;
  core::RegressionTask task(rc);

  core::TrainerConfig cfg;
  cfg.epochs = 4;
  cfg.minibatch_size = 16;
  cfg.microbatch_size = 4;
  cfg.schedule = core::TrainerConfig::Sched::Constant;
  cfg.lr = 0.05;
  cfg.weight_decay = 0.0;
  cfg.seed = 5;
  cfg.engine.method = pipeline::Method::PipeMare;
  cfg.engine.num_stages = 1;
  const double max_delay = 6.0;

  // Sequential reference via train_loop on HogwildEngine.
  nn::Model model = task.build_model();
  HogwildConfig hw;
  hw.num_stages = cfg.engine.num_stages;
  hw.num_microbatches = cfg.num_microbatches();
  hw.max_delay = max_delay;
  HogwildEngine seq(model, hw, cfg.seed);
  auto seq_res = core::train_loop(task, seq, cfg);

  core::ThreadedHogwildOptions opts;
  opts.max_delay = max_delay;
  opts.workers = 3;
  cfg.backend = {"threaded_hogwild", opts};
  auto thr_res = core::train(task, cfg);

  ASSERT_FALSE(seq_res.diverged);
  ASSERT_FALSE(thr_res.diverged);
  ASSERT_EQ(seq_res.curve.size(), thr_res.curve.size());
  double seq_final = seq_res.curve.back().train_loss;
  double thr_final = thr_res.curve.back().train_loss;
  EXPECT_NEAR(seq_final, thr_final, 1e-4 * (1.0 + std::abs(seq_final)));
}

TEST(Trainer, HogwildExecutionRejectsRecompute) {
  // Parity with "threaded": recomputation is modelled only by the
  // analytic engine, so the Hogwild backend must reject it rather than
  // silently dropping the setting.
  data::RegressionConfig rc;
  rc.features = 4;
  rc.size = 32;
  core::RegressionTask task(rc);
  core::TrainerConfig cfg;
  cfg.backend = "threaded_hogwild";
  cfg.engine.recompute_segments = 2;
  EXPECT_THROW(core::train(task, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace pipemare::hogwild
