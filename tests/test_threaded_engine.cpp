// The "threaded" backend suite (tier1, also run under ASan and TSan):
// the registry entry resolves to sched::StealingEngine with one worker per
// stage and stealing off. Bitwise parity with the sequential engine across
// methods, T2, split_bias, balanced partitions, Dropout streams and a
// (P, N) sweep; per-stage load counters; the registry-level contract
// (name, W = P, no steals); and the failure path — a throwing module on
// one (step, microbatch) rethrows, drains and leaves the engine usable —
// for "threaded", forced "threaded_steal" and "threaded_hogwild".
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/backend.h"
#include "src/core/engine_backend.h"
#include "src/core/stage_load.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/nn/activations.h"
#include "src/nn/heads.h"
#include "src/nn/linear.h"
#include "src/nn/model.h"
#include "src/nn/resnet.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/sched/stealing_engine.h"
#include "src/util/rng.h"

namespace pipemare::pipeline {
namespace {

/// A "threaded" backend built through the registry; it owns `model`.
std::unique_ptr<core::ExecutionBackend> make_threaded(nn::Model model,
                                                      const EngineConfig& ec) {
  return core::BackendRegistry::instance().create(std::move(model),
                                                  core::BackendConfig{"threaded"}, ec, 1);
}

/// Small CNN + random classification microbatches shared by the parity
/// tests (same recipe as bench/micro_engine's engine benchmark).
struct ParityFixture {
  nn::ResNetConfig mc;
  nn::Model model;
  nn::ClassificationXent head;
  std::vector<nn::Flow> inputs;
  std::vector<tensor::Tensor> targets;

  /// A second, identical model (the registry backend owns its own).
  nn::Model build() const { return nn::make_resnet(mc); }

  explicit ParityFixture(int num_micro, std::uint64_t seed = 3) {
    mc.base_channels = 8;
    mc.blocks_per_group = {1, 1};
    model = build();
    util::Rng rng(seed);
    for (int m = 0; m < num_micro; ++m) {
      nn::Flow f;
      f.x = tensor::Tensor({2, 3, 8, 8});
      for (std::int64_t i = 0; i < f.x.size(); ++i) {
        f.x[i] = static_cast<float>(rng.normal());
      }
      tensor::Tensor t({2});
      for (int j = 0; j < 2; ++j) t[j] = static_cast<float>(rng.randint(10));
      inputs.push_back(std::move(f));
      targets.push_back(std::move(t));
    }
  }
};

EngineConfig parity_config(Method method, int stages, int micro) {
  EngineConfig ec;
  ec.method = method;
  ec.num_stages = stages;
  ec.num_microbatches = micro;
  return ec;
}

/// Runs `steps` SGD steps on the sequential engine and a backend and
/// asserts bitwise-equal losses, gradients and weights at every step.
void expect_bitwise_parity(PipelineEngine& seq, core::ExecutionBackend& thr,
                           const std::vector<nn::Flow>& inputs,
                           const std::vector<tensor::Tensor>& targets,
                           const nn::LossHead& head, int steps,
                           const std::string& label = "") {
  for (int step = 0; step < steps; ++step) {
    auto rs = seq.forward_backward(inputs, targets, head);
    auto rt = thr.forward_backward(inputs, targets, head);
    ASSERT_EQ(rs.finite, rt.finite) << label << " step " << step;
    ASSERT_DOUBLE_EQ(rs.loss, rt.loss) << label << " step " << step;
    ASSERT_DOUBLE_EQ(rs.correct, rt.correct) << label << " step " << step;
    auto gs = seq.gradients();
    auto gt = thr.gradients();
    ASSERT_EQ(gs.size(), gt.size()) << label;
    for (std::size_t i = 0; i < gs.size(); ++i) {
      ASSERT_EQ(gs[i], gt[i]) << label << " grad " << i << " at step " << step;
    }
    for (std::size_t i = 0; i < gs.size(); ++i) {
      seq.weights()[i] -= 0.05F * gs[i];
      thr.weights()[i] -= 0.05F * gt[i];
    }
    seq.commit_update();
    thr.commit_update();
  }
  for (std::size_t i = 0; i < seq.weights().size(); ++i) {
    ASSERT_EQ(seq.weights()[i], thr.weights()[i]) << label << " weight " << i;
  }
}

void expect_bitwise_parity(EngineConfig ec, int steps) {
  ParityFixture fx(ec.num_microbatches);
  PipelineEngine seq(fx.model, ec, 1);
  auto thr = make_threaded(fx.build(), ec);
  expect_bitwise_parity(seq, *thr, fx.inputs, fx.targets, fx.head, steps);
}

TEST(ThreadedBackend, BitwiseParityWithSequentialSync) {
  expect_bitwise_parity(parity_config(Method::Sync, 4, 4), 5);
}

TEST(ThreadedBackend, BitwiseParityWithSequentialPipeDream) {
  expect_bitwise_parity(parity_config(Method::PipeDream, 4, 4), 5);
}

TEST(ThreadedBackend, BitwiseParityWithSequentialPipeMare) {
  expect_bitwise_parity(parity_config(Method::PipeMare, 4, 4), 5);
}

TEST(ThreadedBackend, BitwiseParityWithDiscrepancyCorrection) {
  auto ec = parity_config(Method::PipeMare, 6, 2);
  ec.discrepancy_correction = true;
  ec.decay_d = 0.25;
  expect_bitwise_parity(ec, 5);
}

TEST(ThreadedBackend, BitwiseParityWithSplitBiasUnits) {
  // split_bias can schedule a module's bias unit on the stage after the
  // one executing the module; the threaded engine must still version that
  // unit by its own scheduled stage.
  ParityFixture fx(2);
  int stages = max_stages(fx.model, true);
  auto ec = parity_config(Method::PipeMare, stages, 2);
  ec.split_bias = true;
  expect_bitwise_parity(ec, 3);
}

TEST(ThreadedBackend, SingleStageDegeneratesToSequential) {
  expect_bitwise_parity(parity_config(Method::PipeMare, 1, 4), 3);
}

TEST(ThreadedBackend, BitwiseParityWithBalancedPartition) {
  // Both engines derive the same cost-balanced partition from the shared
  // spec, so the parity guarantee is strategy-independent.
  ParityFixture fx(4);
  auto ec = parity_config(Method::PipeMare, 4, 4);
  ec.partition.strategy = PartitionStrategy::Balanced;
  ec.partition.probe = std::make_shared<const nn::Flow>(fx.inputs.at(0));
  PipelineEngine seq(fx.model, ec, 1);
  auto thr = make_threaded(fx.build(), ec);
  ASSERT_NE(thr->partition(), nullptr);
  EXPECT_EQ(seq.partition().unit_stage, thr->partition()->unit_stage);
  EXPECT_EQ(thr->partition()->strategy, PartitionStrategy::Balanced);
  expect_bitwise_parity(seq, *thr, fx.inputs, fx.targets, fx.head, 3);
}

TEST(ThreadedBackend, StageStatsTrackPerStageLoad) {
  const int stages = 3;
  const int micro = 4;
  ParityFixture fx(micro);
  auto thr = make_threaded(fx.build(), parity_config(Method::PipeMare, stages, micro));

  auto before = thr->stage_stats();
  ASSERT_EQ(before.size(), static_cast<std::size_t>(stages));
  for (const auto& s : before) {
    EXPECT_EQ(s.busy_ns, 0u);
    EXPECT_EQ(s.items, 0u);
  }

  const int steps = 2;
  for (int step = 0; step < steps; ++step) {
    (void)thr->forward_backward(fx.inputs, fx.targets, fx.head);
    thr->commit_update();
  }

  auto after = thr->stage_stats();
  for (int s = 0; s < stages; ++s) {
    const auto& st = after[static_cast<std::size_t>(s)];
    EXPECT_GT(st.busy_ns, 0u) << "stage " << s;
    // Every stage runs N forward and N backward tasks per minibatch (the
    // tail's loss rides on its forward task).
    EXPECT_EQ(st.items, static_cast<std::uint64_t>(steps * micro * 2)) << "stage " << s;
    EXPECT_EQ(st.stolen_items, 0u) << "stage " << s;
  }

  thr->reset_stage_stats();
  for (const auto& s : thr->stage_stats()) {
    EXPECT_EQ(s.busy_ns, 0u);
    EXPECT_EQ(s.pop_wait_ns, 0u);
    EXPECT_EQ(s.items, 0u);
  }
}

TEST(ThreadedBackend, StageLoadObserverSamplesEpochDeltas) {
  ParityFixture fx(2);
  auto thr = make_threaded(fx.build(), parity_config(Method::PipeMare, 2, 2));
  core::StageLoadObserver load(*thr);
  ASSERT_TRUE(load.active());
  for (int epoch = 0; epoch < 2; ++epoch) {
    (void)thr->forward_backward(fx.inputs, fx.targets, fx.head);
    thr->commit_update();
    core::EpochRecord rec;
    load.on_epoch(rec);
  }
  ASSERT_EQ(load.epoch_stats().size(), 2u);
  for (const auto& epoch : load.epoch_stats()) {
    ASSERT_EQ(epoch.size(), 2u);
    for (const auto& s : epoch) EXPECT_GT(s.items, 0u);
  }
  EXPECT_GE(core::StageLoadObserver::busy_spread(load.totals()), 1.0);
}

TEST(ThreadedBackend, BitwiseParityWithDropoutStreams) {
  // Dropout masks are counter-based: pure functions of (module seed, step,
  // micro, element) stamped on the Flow, so the threaded backend
  // reproduces the sequential engine's masks bitwise regardless of worker
  // timing. Each engine gets its own (identically seeded) model.
  data::TranslationConfig d;
  d.vocab = 12;
  d.seq_len = 5;
  d.train_size = 32;
  d.test_size = 8;
  d.seed = 3;
  nn::TransformerConfig mc;
  mc.d_model = 16;
  mc.heads = 2;
  mc.enc_layers = 1;
  mc.dec_layers = 1;
  mc.ffn_hidden = 24;
  mc.dropout = 0.3;
  core::TranslationTask task(d, mc, "tiny-dropout", /*eval=*/8);
  nn::Model model_seq = task.build_model();

  auto ec = parity_config(Method::PipeMare, 4, 2);
  PipelineEngine seq(model_seq, ec, 1);
  auto thr = make_threaded(task.build_model(), ec);

  auto mb = task.minibatch({0, 1, 2, 3}, 2);
  expect_bitwise_parity(seq, *thr, mb.inputs, mb.targets, task.loss(), 3);
}

TEST(ThreadedBackend, MatchesSequentialStalenessStatistics) {
  auto ec = parity_config(Method::PipeMare, 8, 4);
  ParityFixture fx(ec.num_microbatches);
  PipelineEngine seq(fx.model, ec, 1);
  auto thr = make_threaded(fx.build(), ec);
  auto tau_s = seq.stage_tau_fwd();
  auto tau_t = thr->stage_tau_fwd();
  ASSERT_EQ(tau_s.size(), tau_t.size());
  for (std::size_t s = 0; s < tau_s.size(); ++s) {
    EXPECT_DOUBLE_EQ(tau_s[s], tau_t[s]);
    // The paper's closed form (2(P-i)+1)/N for 1-indexed stage i.
    EXPECT_DOUBLE_EQ(tau_t[s], (2.0 * (8 - 1 - static_cast<double>(s)) + 1.0) / 4.0);
  }
}

TEST(ThreadedBackend, RegistryEntryIsOneWorkerPerStageWithoutStealing) {
  // "threaded" is StealingEngine with W = P and stealing off: it keeps its
  // registry name, runs stage s only on worker s, never steals, and stays
  // bitwise-equal to the sequential engine with more stages than cores.
  constexpr int kStages = 8;
  auto ec = parity_config(Method::PipeMare, kStages, 4);
  ParityFixture fx(ec.num_microbatches);
  PipelineEngine seq(fx.model, ec, 1);
  auto thr = make_threaded(fx.build(), ec);
  EXPECT_EQ(thr->name(), "threaded");
  auto* steal = dynamic_cast<core::ThreadedStealBackend*>(thr.get());
  ASSERT_NE(steal, nullptr);
  const sched::StealingEngine& eng = steal->engine();
  EXPECT_EQ(eng.num_workers(), kStages);
  EXPECT_EQ(eng.config().mode, sched::StealMode::Disabled);

  expect_bitwise_parity(seq, *thr, fx.inputs, fx.targets, fx.head, 3);
  EXPECT_EQ(eng.total_steals(), 0u);
  const auto stages = eng.stage_stats();
  const auto workers = eng.worker_stats();
  ASSERT_EQ(workers.size(), stages.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    // Worker s executed exactly stage s's tasks.
    EXPECT_EQ(workers[s].items, stages[s].items) << "stage " << s;
    EXPECT_EQ(workers[s].busy_ns, stages[s].busy_ns) << "stage " << s;
  }
}

TEST(ThreadedBackend, RejectsRecomputeSegments) {
  ParityFixture fx(2);
  auto ec = parity_config(Method::PipeMare, 4, 2);
  ec.recompute_segments = 2;
  EXPECT_THROW(make_threaded(fx.build(), ec), std::invalid_argument);
}

TEST(ThreadedBackend, TrainLoopParityOnTinyTranslation) {
  // End-to-end: core::train drives either engine to the same loss
  // trajectory and metric curve (Sync and fully-async PipeMare).
  data::TranslationConfig d;
  d.vocab = 12;
  d.seq_len = 5;
  d.train_size = 64;
  d.test_size = 16;
  d.seed = 3;
  nn::TransformerConfig m;
  m.d_model = 16;
  m.heads = 2;
  m.enc_layers = 1;
  m.dec_layers = 1;
  m.ffn_hidden = 24;
  core::TranslationTask task(d, m, "tiny-parity", /*eval=*/8);

  for (auto method : {Method::Sync, Method::PipeMare}) {
    core::TrainerConfig cfg;
    cfg.epochs = 2;
    cfg.minibatch_size = 16;
    cfg.microbatch_size = 4;
    cfg.optimizer = core::TrainerConfig::Opt::AdamW;
    cfg.schedule = core::TrainerConfig::Sched::InverseSqrt;
    cfg.lr = 4e-3;
    cfg.sched_warmup_steps = 10;
    cfg.seed = 7;
    cfg.engine.method = method;
    cfg.engine.num_stages = 4;

    auto seq_res = core::train(task, cfg);
    cfg.backend = "threaded";
    auto thr_res = core::train(task, cfg);

    ASSERT_EQ(seq_res.curve.size(), thr_res.curve.size()) << method_name(method);
    for (std::size_t e = 0; e < seq_res.curve.size(); ++e) {
      EXPECT_DOUBLE_EQ(seq_res.curve[e].train_loss, thr_res.curve[e].train_loss)
          << method_name(method) << " epoch " << e;
      EXPECT_DOUBLE_EQ(seq_res.curve[e].metric, thr_res.curve[e].metric)
          << method_name(method) << " epoch " << e;
      EXPECT_DOUBLE_EQ(seq_res.curve[e].param_norm, thr_res.curve[e].param_norm)
          << method_name(method) << " epoch " << e;
    }
  }
}

/// A deep MLP of `layers` Linear(+ReLU) blocks: `layers` weight units, so
/// any P <= layers partitions cleanly; uniform per-layer cost. `relu =
/// false` drops the activations (ReLU maps NaN to 0).
nn::Model make_stress_mlp(int layers, int width, int classes, bool relu = true) {
  nn::Model m;
  for (int i = 0; i < layers; ++i) {
    m.add(std::make_unique<nn::Linear>(width, width, /*relu_init=*/relu));
    if (relu) m.add(std::make_unique<nn::ReLU>());
  }
  m.add(std::make_unique<nn::Linear>(width, classes));
  return m;
}

/// Random classification microbatches of two rows for the MLPs above.
struct MlpBatch {
  std::vector<nn::Flow> inputs;
  std::vector<tensor::Tensor> targets;

  MlpBatch(int num_micro, int width, int classes) {
    util::Rng rng(17);
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

TEST(ThreadedBackend, SmallStressSweepMatchesSequentialBitwise) {
  // Sweep (P, N) in {1..4} x {1..8}: every config must stay
  // bitwise-identical to the sequential engine (no deadlock at any
  // pipeline depth or microbatch count, and correct results).
  constexpr int kClasses = 6;
  nn::ClassificationXent head;
  for (int p = 1; p <= 4; ++p) {
    for (int n = 1; n <= 8; ++n) {
      nn::Model model = make_stress_mlp(/*layers=*/4, /*width=*/12, kClasses);
      MlpBatch batch(n, 12, kClasses);
      auto ec = parity_config(Method::PipeMare, p, n);
      PipelineEngine seq(model, ec, 1);
      auto thr = make_threaded(make_stress_mlp(4, 12, kClasses), ec);
      expect_bitwise_parity(seq, *thr, batch.inputs, batch.targets, head, 3,
                            "P=" + std::to_string(p) + " N=" + std::to_string(n));
    }
  }
}

TEST(ThreadedBackend, NonFiniteLossContractMatchesSequential) {
  // Unified StepResult contract: first non-finite loss, zeroed metrics.
  constexpr int kClasses = 6;
  auto ec = parity_config(Method::PipeMare, 4, 4);
  // Linear-only chain: ReLU maps NaN to 0 (x > 0 ? x : 0), so an
  // activation would wash the poison out before it reaches the loss.
  nn::Model model = make_stress_mlp(4, 12, kClasses, /*relu=*/false);
  nn::ClassificationXent head;
  MlpBatch batch(ec.num_microbatches, 12, kClasses);
  // Poison microbatch 2 so earlier microbatches accumulate loss/metrics
  // that the contract requires the engines to discard. (An MLP propagates
  // the NaN to the loss; normalization layers could wash out mere infs.)
  for (std::int64_t i = 0; i < batch.inputs[2].x.size(); ++i) {
    batch.inputs[2].x[i] = std::numeric_limits<float>::quiet_NaN();
  }
  PipelineEngine seq(model, ec, 1);
  auto thr = make_threaded(make_stress_mlp(4, 12, kClasses, /*relu=*/false), ec);
  auto rs = seq.forward_backward(batch.inputs, batch.targets, head);
  auto rt = thr->forward_backward(batch.inputs, batch.targets, head);
  EXPECT_FALSE(rs.finite);
  EXPECT_FALSE(rt.finite);
  EXPECT_FALSE(std::isfinite(rs.loss));
  EXPECT_FALSE(std::isfinite(rt.loss));
  EXPECT_EQ(rs.correct, 0.0);
  EXPECT_EQ(rs.count, 0.0);
  EXPECT_EQ(rt.correct, 0.0);
  EXPECT_EQ(rt.count, 0.0);
}

// ---------------------------------------------------------------------------
// Failure path: a throwing task rethrows, drains, and leaves the engine usable
// ---------------------------------------------------------------------------

constexpr const char* kFaultMessage = "injected fault";

/// Test-only identity layer that throws once, on one (step, microbatch)
/// of a training pass: in its forward, or in its backward (flagged
/// through the microbatch's cache by the forward). A step of -1 never
/// fires. The one-shot flag is atomic, so concurrent replicas (Hogwild)
/// stay race-free.
class FaultInjector : public nn::Module {
 public:
  enum class Phase { Forward, Backward };

  FaultInjector(Phase phase, std::int64_t step, int micro)
      : phase_(phase), step_(step), micro_(micro) {}

  std::string name() const override { return "FaultInjector"; }

  nn::Flow forward(const nn::Flow& in, std::span<const float> /*w*/,
                   nn::Cache& cache) const override {
    const bool hit = in.training && in.step == step_ && in.micro == micro_ &&
                     armed_.exchange(false);
    if (hit && phase_ == Phase::Forward) throw std::runtime_error(kFaultMessage);
    cache.saved.assign(1, tensor::Tensor({1}));
    cache.saved[0][0] = hit ? 1.0F : 0.0F;
    return in;
  }

  nn::Flow backward(const nn::Flow& dout, std::span<const float> /*w_bkwd*/,
                    const nn::Cache& cache, std::span<float> /*grad*/) const override {
    if (cache.saved.at(0)[0] != 0.0F) throw std::runtime_error(kFaultMessage);
    return dout;
  }

 private:
  Phase phase_;
  std::int64_t step_;
  int micro_;
  mutable std::atomic<bool> armed_{true};
};

/// The stress MLP with a FaultInjector between its second and third layer.
nn::Model make_faulty_mlp(FaultInjector::Phase phase, std::int64_t step, int micro) {
  nn::Model m;
  for (int i = 0; i < 4; ++i) {
    if (i == 2) m.add(std::make_unique<FaultInjector>(phase, step, micro));
    m.add(std::make_unique<nn::Linear>(12, 12, /*relu_init=*/true));
    m.add(std::make_unique<nn::ReLU>());
  }
  m.add(std::make_unique<nn::Linear>(12, 6));
  return m;
}

std::uint64_t total_items(const core::ExecutionBackend& backend) {
  std::uint64_t items = 0;
  for (const auto& s : backend.stage_stats()) items += s.items;
  return items;
}

TEST(FailurePath, ThrowingTaskRethrowsDrainsAndLeavesEngineUsable) {
  constexpr int kStages = 4;
  constexpr int kMicro = 4;
  constexpr std::int64_t kFaultStep = 1;
  constexpr int kFaultMicro = 2;
  core::StealOptions forced;
  forced.workers = 3;
  forced.mode = sched::StealMode::Forced;
  core::ThreadedHogwildOptions hogwild;
  hogwild.workers = 3;
  const std::vector<core::BackendConfig> backends = {
      core::BackendConfig{"threaded"}, core::BackendConfig{"threaded_steal", forced},
      core::BackendConfig{"threaded_hogwild", hogwild}};
  nn::ClassificationXent head;
  MlpBatch batch(kMicro, 12, 6);
  auto ec = parity_config(Method::PipeMare, kStages, kMicro);
  auto& registry = core::BackendRegistry::instance();

  for (const auto& backend : backends) {
    const bool hogwild_backend = backend.name == "threaded_hogwild";
    // Tasks (stage slots) or microbatches (worker slots) per step.
    const std::uint64_t per_step = hogwild_backend ? kMicro : 2 * kMicro * kStages;
    for (auto phase : {FaultInjector::Phase::Forward, FaultInjector::Phase::Backward}) {
      const std::string label =
          backend.name +
          (phase == FaultInjector::Phase::Forward ? " forward" : " backward");
      auto faulty = registry.create(make_faulty_mlp(phase, kFaultStep, kFaultMicro),
                                    backend, ec, 1);
      auto twin = registry.create(make_faulty_mlp(phase, -1, 0), backend, ec, 1);
      for (auto* be : {faulty.get(), twin.get()}) {
        ASSERT_TRUE(be->forward_backward(batch.inputs, batch.targets, head).finite)
            << label;
        be->commit_update();
      }

      // 1. The failing step rethrows the module's message...
      try {
        (void)faulty->forward_backward(batch.inputs, batch.targets, head);
        ADD_FAILURE() << label << ": expected std::runtime_error";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(kFaultMessage), std::string::npos)
            << label << ": " << e.what();
      }
      // 2. ...only after every task of the step ran (skipping compute once
      // the failure is recorded): the graph drained, nothing was lost.
      EXPECT_EQ(total_items(*faulty), 2 * per_step) << label;

      // 3. The same engine completes the retried step with finite results.
      // A stage-partitioned backend carries no residue of the failure: it
      // matches the twin that never failed bitwise. (Hogwild's retry
      // draws fresh delays, so it is only checked for finiteness.)
      auto retry = faulty->forward_backward(batch.inputs, batch.targets, head);
      EXPECT_TRUE(retry.finite) << label;
      EXPECT_TRUE(std::isfinite(retry.loss)) << label;
      EXPECT_EQ(total_items(*faulty), 3 * per_step) << label;
      if (!hogwild_backend) {
        auto clean = twin->forward_backward(batch.inputs, batch.targets, head);
        EXPECT_EQ(retry.loss, clean.loss) << label;
        auto gf = faulty->gradients();
        auto gt = twin->gradients();
        for (std::size_t i = 0; i < gf.size(); ++i) {
          ASSERT_EQ(gf[i], gt[i]) << label << " grad " << i;
        }
      }
      faulty->commit_update();
    }
  }
}

}  // namespace
}  // namespace pipemare::pipeline
