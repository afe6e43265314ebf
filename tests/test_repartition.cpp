// Dynamic-repartitioning tests: the spec parser, the observed-cost
// distribution, migration validation, the planner's decision logic, the
// engines' zero-copy migration (bit-identical to a fresh engine built
// with the new split; sequential/threaded parity across a mid-training
// move), the off-path's bitwise stability, and the end-to-end auto loop
// rebalancing a deliberately bad uniform split on a skewed MLP.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/backend.h"
#include "src/core/repartition_observer.h"
#include "src/core/stage_load.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/nn/activations.h"
#include "src/nn/heads.h"
#include "src/nn/linear.h"
#include "src/nn/model.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/repartition.h"
#include "src/sched/stealing_engine.h"
#include "src/tensor/kernels/registry.h"
#include "src/util/cli.h"
#include "src/util/rng.h"

namespace pipemare::pipeline {
namespace {

/// Front-loaded MLP: three wide layers then a narrow tail — 12 weight
/// units whose cost is dominated by the first three. A uniform-by-count
/// split into 4 stages piles all three heavies onto stage 0 (predicted
/// balance ratio > 3); the balanced split gives each heavy its own stage.
nn::Model make_skewed_mlp() {
  nn::Model m;
  for (int l = 0; l < 3; ++l) {
    m.add(std::make_unique<nn::Linear>(64, 64, true));
    m.add(std::make_unique<nn::ReLU>());
  }
  m.add(std::make_unique<nn::Linear>(64, 8, true));
  m.add(std::make_unique<nn::ReLU>());
  for (int l = 0; l < 7; ++l) {
    m.add(std::make_unique<nn::Linear>(8, 8, true));
    m.add(std::make_unique<nn::ReLU>());
  }
  m.add(std::make_unique<nn::Linear>(8, 4));
  return m;
}

/// Random classification task over the skewed model (same recipe as
/// test_partition's MlpTask, sized so one epoch is one minibatch).
class SkewedTask : public core::Task {
 public:
  explicit SkewedTask(int size, std::uint64_t seed = 23) : size_(size) {
    util::Rng rng(seed);
    for (int i = 0; i < size_; ++i) {
      std::vector<float> row(kFeatures);
      for (float& v : row) v = static_cast<float>(rng.normal());
      xs_.push_back(std::move(row));
      ys_.push_back(static_cast<float>(rng.randint(kClasses)));
    }
  }

  std::string name() const override { return "repartition-mlp"; }
  std::string metric_name() const override { return "accuracy"; }
  nn::Model build_model() const override { return make_skewed_mlp(); }
  const nn::LossHead& loss() const override { return loss_; }
  int train_size() const override { return size_; }

  data::MicroBatches minibatch(const std::vector<int>& indices,
                               int micro_size) const override {
    data::MicroBatches mb;
    for (std::size_t start = 0; start < indices.size();
         start += static_cast<std::size_t>(micro_size)) {
      auto count = std::min(static_cast<std::size_t>(micro_size),
                            indices.size() - start);
      nn::Flow f;
      f.x = tensor::Tensor({static_cast<int>(count), kFeatures});
      tensor::Tensor t({static_cast<int>(count)});
      for (std::size_t r = 0; r < count; ++r) {
        auto idx = static_cast<std::size_t>(indices[start + r]);
        for (int c = 0; c < kFeatures; ++c) {
          f.x.at(static_cast<int>(r), c) = xs_[idx][static_cast<std::size_t>(c)];
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
  static constexpr int kFeatures = 64;  // matches make_skewed_mlp input
  static constexpr int kClasses = 4;
  int size_;
  std::vector<std::vector<float>> xs_;
  std::vector<float> ys_;
  nn::ClassificationXent loss_;
};

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(RepartitionSpec, ParsesOffAutoAndThreshold) {
  auto off = parse_repartition_spec("off");
  EXPECT_FALSE(off.enabled);
  auto on = parse_repartition_spec("auto");
  EXPECT_TRUE(on.enabled);
  EXPECT_DOUBLE_EQ(on.threshold, RepartitionConfig{}.threshold);
  auto tuned = parse_repartition_spec("auto,1.5");
  EXPECT_TRUE(tuned.enabled);
  EXPECT_DOUBLE_EQ(tuned.threshold, 1.5);
}

TEST(RepartitionSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "on", "auto,", "auto,1.0", "auto,0.5", "auto,x",
                          "auto,1.5x", "Auto"}) {
    EXPECT_THROW(parse_repartition_spec(bad), std::invalid_argument) << bad;
  }
}

TEST(RepartitionSpec, NameRoundTripsThroughParser) {
  for (const char* spec : {"off", "auto,1.5", "auto,2.0"}) {
    auto cfg = parse_repartition_spec(spec);
    auto again = parse_repartition_spec(repartition_spec_name(cfg));
    EXPECT_EQ(again.enabled, cfg.enabled) << spec;
    EXPECT_DOUBLE_EQ(again.threshold, cfg.threshold) << spec;
  }
}

TEST(RepartitionSpec, CliParserWiresConfigAndRejectsUnsupportedBackends) {
  auto parse = [](std::vector<std::string> argv_s) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("prog"));
    for (auto& a : argv_s) argv.push_back(a.data());
    util::Cli cli(static_cast<int>(argv.size()), argv.data());
    core::TrainerConfig cfg;
    core::parse_backend_cli(cli, cfg);
    return cfg;
  };
  auto cfg = parse({"--backend=threaded", "--repartition=auto,1.5"});
  EXPECT_TRUE(cfg.repartition.enabled);
  EXPECT_DOUBLE_EQ(cfg.repartition.threshold, 1.5);
  EXPECT_FALSE(parse({"--backend=threaded", "--repartition=off"})
                   .repartition.enabled);
  EXPECT_TRUE(parse({"--backend=threaded_steal", "--repartition=auto"})
                  .repartition.enabled);
  // The delay-model backends cannot migrate; the parser says so up front.
  for (const char* backend : {"sequential", "hogwild", "threaded_hogwild"}) {
    EXPECT_THROW(
        parse({std::string("--backend=") + backend, "--repartition=auto"}),
        std::invalid_argument)
        << backend;
    EXPECT_NO_THROW(
        parse({std::string("--backend=") + backend, "--repartition=off"}))
        << backend;
  }
  EXPECT_THROW(parse({"--backend=threaded", "--repartition=sometimes"}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Observed-cost distribution
// ---------------------------------------------------------------------------

/// Four-unit chain, small enough to reason about splits by hand.
nn::Model make_chain4() {
  nn::Model m;
  for (int l = 0; l < 4; ++l) m.add(std::make_unique<nn::Linear>(8, 8, true));
  return m;
}

TEST(ObservedUnitCosts, DistributesBusyTimeByPredictedShare) {
  nn::Model m = make_chain4();
  std::vector<double> costs = {3.0, 1.0, 2.0, 2.0};
  Partition part = make_partition(m, 2, false, costs);
  // min-max split of {3,1,2,2} into 2 groups: {3,1} | {2,2}, max 4.
  ASSERT_EQ(part.unit_stage, (std::vector<int>{0, 0, 1, 1}));
  std::vector<std::uint64_t> busy = {800, 300};
  auto observed = observed_unit_costs(part, busy);
  ASSERT_EQ(observed.size(), 4u);
  // Stage 0's 800ns split 3:1; stage 1's 300ns split evenly.
  EXPECT_DOUBLE_EQ(observed[0], 600.0);
  EXPECT_DOUBLE_EQ(observed[1], 200.0);
  EXPECT_DOUBLE_EQ(observed[2], 150.0);
  EXPECT_DOUBLE_EQ(observed[3], 150.0);
}

TEST(ObservedUnitCosts, ZeroPredictedStageSplitsEvenly) {
  nn::Model m = make_chain4();
  Partition part = make_partition(m, 2, false);  // uniform: 2 units/stage
  part.unit_cost.assign(part.unit_cost.size(), 0.0);
  std::vector<std::uint64_t> busy = {900, 500};
  auto observed = observed_unit_costs(part, busy);
  EXPECT_DOUBLE_EQ(observed[0], 450.0);
  EXPECT_DOUBLE_EQ(observed[1], 450.0);
  EXPECT_DOUBLE_EQ(observed[2], 250.0);
  EXPECT_DOUBLE_EQ(observed[3], 250.0);
}

TEST(ObservedUnitCosts, MismatchedBusyVectorThrows) {
  nn::Model m = make_skewed_mlp();
  Partition part = make_partition(m, 4, false);
  std::vector<std::uint64_t> busy = {1, 2};
  EXPECT_THROW(observed_unit_costs(part, busy), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Migration validation
// ---------------------------------------------------------------------------

TEST(ValidateRepartition, RejectsIncompatiblePartitions) {
  nn::Model m = make_skewed_mlp();
  Partition from = make_partition(m, 4, false);
  EXPECT_NO_THROW(validate_repartition(from, make_partition(m, 4, false)));

  // Different stage count.
  EXPECT_THROW(validate_repartition(from, make_partition(m, 3, false)),
               std::invalid_argument);
  // Different unit decomposition.
  EXPECT_THROW(validate_repartition(from, make_partition(m, 4, true)),
               std::invalid_argument);
  // Different model (different unit sizes).
  nn::Model other;
  other.add(std::make_unique<nn::Linear>(4, 4, true));
  other.add(std::make_unique<nn::Linear>(4, 4, true));
  other.add(std::make_unique<nn::Linear>(4, 4, true));
  other.add(std::make_unique<nn::Linear>(4, 4, true));
  EXPECT_THROW(validate_repartition(from, make_partition(other, 4, false)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Planner decision logic
// ---------------------------------------------------------------------------

TEST(Repartitioner, MigratesOffASkewedUniformSplit) {
  nn::Model m = make_skewed_mlp();
  Repartitioner planner(m, parse_repartition_spec("auto"));
  Partition uniform = make_partition(m, 4, false);
  // Busy time proportional to parameter count: the three heavies swamp
  // uniform stage 0.
  std::vector<std::uint64_t> busy(4, 0);
  for (int i = 0; i < uniform.num_units(); ++i) {
    busy[static_cast<std::size_t>(uniform.unit_stage[static_cast<std::size_t>(i)])] +=
        static_cast<std::uint64_t>(uniform.units[static_cast<std::size_t>(i)].size);
  }
  RepartitionDecision decision;
  auto planned = planner.plan(uniform, busy, &decision);
  ASSERT_TRUE(planned.has_value());
  EXPECT_TRUE(decision.migrate);
  EXPECT_GT(decision.observed_ratio, 2.0);
  EXPECT_LT(decision.planned_ratio, decision.observed_ratio);
  EXPECT_NE(planned->unit_stage, uniform.unit_stage);
  EXPECT_NO_THROW(validate_repartition(uniform, *planned));
  // The plan separates the heavy front: no stage owns all three heavies.
  EXPECT_NE(planned->unit_stage[0], planned->unit_stage[2]);
}

TEST(Repartitioner, StaysPutWhenBalancedOrBelowThreshold) {
  nn::Model m = make_skewed_mlp();
  Repartitioner planner(m, parse_repartition_spec("auto,1.5"));
  Partition uniform = make_partition(m, 4, false);

  // Evenly observed load: under every threshold, no move.
  std::vector<std::uint64_t> even(4, 1000);
  RepartitionDecision decision;
  EXPECT_FALSE(planner.plan(uniform, even, &decision).has_value());
  EXPECT_NEAR(decision.observed_ratio, 1.0, 1e-9);

  // Skew below the threshold: observed ratio 4800/4200 < 1.5.
  std::vector<std::uint64_t> mild = {4800, 4000, 4000, 4000};
  EXPECT_FALSE(planner.plan(uniform, mild, &decision).has_value());
  EXPECT_LT(decision.observed_ratio, 1.5);

  // A split that is already the observed optimum: replanning from its own
  // observation cannot strictly improve, so no thrash.
  std::vector<double> unit_costs(12, 1.0);
  Partition balanced = make_partition(m, 4, false, unit_costs);
  std::vector<std::uint64_t> matching(4, 0);
  for (int i = 0; i < balanced.num_units(); ++i) {
    matching[static_cast<std::size_t>(
        balanced.unit_stage[static_cast<std::size_t>(i)])] += 1000;
  }
  EXPECT_FALSE(planner.plan(balanced, matching, &decision).has_value());
}

TEST(Repartitioner, RejectsDegenerateConfig) {
  nn::Model m = make_skewed_mlp();
  RepartitionConfig bad_threshold;
  bad_threshold.threshold = 1.0;
  EXPECT_THROW(Repartitioner(m, bad_threshold), std::invalid_argument);
  RepartitionConfig bad_cooldown;
  bad_cooldown.min_epochs_between = 0;
  EXPECT_THROW(Repartitioner(m, bad_cooldown), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Engine migration: bit-identical to a fresh engine with the new split
// ---------------------------------------------------------------------------

/// Random microbatches for the skewed model (engine-level tests).
struct SkewedFixture {
  nn::Model model = make_skewed_mlp();
  nn::ClassificationXent head;
  std::vector<nn::Flow> inputs;
  std::vector<tensor::Tensor> targets;

  explicit SkewedFixture(int num_micro, std::uint64_t seed = 11) {
    util::Rng rng(seed);
    for (int m = 0; m < num_micro; ++m) {
      nn::Flow f;
      f.x = tensor::Tensor({4, 64});
      for (std::int64_t i = 0; i < f.x.size(); ++i) {
        f.x[i] = static_cast<float>(rng.normal());
      }
      tensor::Tensor t({4});
      for (int j = 0; j < 4; ++j) t[j] = static_cast<float>(rng.randint(4));
      inputs.push_back(std::move(f));
      targets.push_back(std::move(t));
    }
  }
};

/// One SGD step on an engine; returns the step loss.
template <typename EngineT>
double sgd_step(EngineT& engine, const SkewedFixture& fx) {
  auto r = engine.forward_backward(fx.inputs, fx.targets, fx.head);
  auto g = engine.gradients();
  auto w = engine.weights();
  for (std::size_t i = 0; i < g.size(); ++i) w[i] -= 0.05F * g[i];
  engine.commit_update();
  return r.loss;
}

/// The view-based engines a migration must be invisible to, built from
/// one EngineConfig: "threaded" and "threaded_steal" (forced stealing).
std::unique_ptr<sched::StealingEngine> make_threaded(const nn::Model& m,
                                                     const EngineConfig& ec) {
  return std::make_unique<sched::StealingEngine>(m, sched::threaded_config(ec), 1);
}

std::unique_ptr<sched::StealingEngine> make_stealing(const nn::Model& m,
                                                     const EngineConfig& ec) {
  sched::StealConfig sc;
  sc.engine = ec;
  sc.workers = 3;
  sc.mode = sched::StealMode::Forced;
  return std::make_unique<sched::StealingEngine>(m, sc, 1);
}

/// Engine A starts uniform and immediately migrates to the balanced
/// split; engine B is built balanced from scratch. Under the zero-copy
/// protocol (full-vector weight versions, offset-keyed state) the two
/// must train bit-identically from the first step on.
template <typename MakeEngine>
void expect_migrated_matches_fresh(bool t2, MakeEngine make, const std::string& label) {
  SkewedFixture fx(4);
  EngineConfig uniform_cfg;
  uniform_cfg.method = Method::PipeMare;
  uniform_cfg.num_stages = 4;
  uniform_cfg.num_microbatches = 4;
  uniform_cfg.discrepancy_correction = t2;
  EngineConfig balanced_cfg = uniform_cfg;
  balanced_cfg.partition.strategy = PartitionStrategy::Balanced;

  auto migrated = make(fx.model, uniform_cfg);
  auto fresh = make(fx.model, balanced_cfg);
  Partition target = make_partition(fx.model, 4, false, balanced_cfg.partition);
  ASSERT_NE(migrated->partition().unit_stage, target.unit_stage)
      << "balanced must differ from uniform for this model";
  migrated->repartition(target);
  EXPECT_EQ(migrated->partition().unit_stage, fresh->partition().unit_stage);

  for (int step = 0; step < 5; ++step) {
    double lm = sgd_step(*migrated, fx);
    double lf = sgd_step(*fresh, fx);
    ASSERT_DOUBLE_EQ(lm, lf) << label << " step " << step;
  }
  auto wm = migrated->weights();
  auto wf = fresh->weights();
  ASSERT_EQ(wm.size(), wf.size());
  for (std::size_t i = 0; i < wm.size(); ++i) {
    ASSERT_EQ(wm[i], wf[i]) << label << " weight " << i;
  }
}

TEST(EngineMigration, MigratedEngineMatchesFreshEngineBitwise) {
  for (bool t2 : {false, true}) {
    const std::string suffix = t2 ? " +T2" : "";
    expect_migrated_matches_fresh(t2, make_threaded, "threaded" + suffix);
    expect_migrated_matches_fresh(t2, make_stealing, "threaded_steal" + suffix);
  }
}

/// Both engines train uniform for three steps, migrate to balanced at the
/// same minibatch boundary, and continue — losses, gradients and weights
/// stay bitwise equal throughout, so the migration itself is semantically
/// invisible (only stage placement changes). With T2 the migration moves
/// units between stages with different mean delays, so the per-stage T2
/// backward weights the view engines materialize must follow the new map.
template <typename MakeEngine>
void expect_sequential_parity_across_migration(bool t2, MakeEngine make,
                                               const std::string& label) {
  SkewedFixture fx(4);
  EngineConfig ec;
  ec.method = Method::PipeMare;
  ec.num_stages = 4;
  ec.num_microbatches = 4;
  ec.discrepancy_correction = t2;
  PipelineEngine seq(fx.model, ec, 1);
  auto thr = make(fx.model, ec);
  PartitionSpec balanced_spec;
  balanced_spec.strategy = PartitionStrategy::Balanced;
  Partition target = make_partition(fx.model, 4, false, balanced_spec);

  for (int step = 0; step < 6; ++step) {
    if (step == 3) {
      seq.repartition(target);
      thr->repartition(target);
    }
    double ls = sgd_step(seq, fx);
    double lt = sgd_step(*thr, fx);
    ASSERT_DOUBLE_EQ(ls, lt) << label << " step " << step;
    auto gs = seq.gradients();
    auto gt = thr->gradients();
    ASSERT_EQ(gs.size(), gt.size());
    for (std::size_t i = 0; i < gs.size(); ++i) {
      ASSERT_EQ(gs[i], gt[i]) << label << " grad " << i << " at step " << step;
    }
  }
  for (std::size_t i = 0; i < seq.weights().size(); ++i) {
    ASSERT_EQ(seq.weights()[i], thr->weights()[i]) << label << " weight " << i;
  }
}

TEST(EngineMigration, SequentialAndThreadedAgreeAcrossMidTrainingMigration) {
  for (bool t2 : {false, true}) {
    const std::string suffix = t2 ? " +T2" : "";
    expect_sequential_parity_across_migration(t2, make_threaded, "threaded" + suffix);
    expect_sequential_parity_across_migration(t2, make_stealing,
                                              "threaded_steal" + suffix);
  }
}

TEST(EngineMigration, EngineRejectsIncompatiblePartition) {
  SkewedFixture fx(2);
  EngineConfig ec;
  ec.num_stages = 4;
  ec.num_microbatches = 2;
  sched::StealingEngine thr(fx.model, sched::threaded_config(ec), 1);
  EXPECT_THROW(thr.repartition(make_partition(fx.model, 3, false)),
               std::invalid_argument);
  EXPECT_THROW(thr.repartition(make_partition(fx.model, 4, true)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end: off is bitwise-stable, auto rebalances a bad split
// ---------------------------------------------------------------------------

core::TrainerConfig skewed_trainer_config(int epochs) {
  core::TrainerConfig cfg;
  cfg.epochs = epochs;
  cfg.minibatch_size = 64;
  cfg.microbatch_size = 16;
  cfg.schedule = core::TrainerConfig::Sched::Constant;
  cfg.lr = 0.02;
  cfg.seed = 9;
  cfg.engine.num_stages = 4;
  cfg.backend = "threaded";
  return cfg;
}

TEST(RepartitionTraining, OffAndNeverTriggeredAutoMatchBaselineBitwise) {
  // --repartition=off must be the exact seed behaviour, and an auto run
  // whose threshold is never exceeded must not perturb training either
  // (the observer only reads counters until it migrates).
  SkewedTask task(64);
  core::TrainerConfig cfg = skewed_trainer_config(2);
  auto baseline = core::train(task, cfg);

  cfg.repartition = pipeline::parse_repartition_spec("off");
  auto off = core::train(task, cfg);

  cfg.repartition = pipeline::parse_repartition_spec("auto,1000000.0");
  auto never = core::train(task, cfg);

  ASSERT_EQ(baseline.curve.size(), off.curve.size());
  ASSERT_EQ(baseline.curve.size(), never.curve.size());
  for (std::size_t e = 0; e < baseline.curve.size(); ++e) {
    EXPECT_EQ(baseline.curve[e].train_loss, off.curve[e].train_loss) << e;
    EXPECT_EQ(baseline.curve[e].param_norm, off.curve[e].param_norm) << e;
    EXPECT_EQ(baseline.curve[e].train_loss, never.curve[e].train_loss) << e;
    EXPECT_EQ(baseline.curve[e].param_norm, never.curve[e].param_norm) << e;
  }
}

TEST(RepartitionTraining, AutoRebalancesSkewedUniformSplitWithinTwoEpochs) {
  // The acceptance scenario: a deliberately bad uniform split on the
  // skewed MLP, --repartition=auto. The first epoch observes the
  // imbalance, migrates at its boundary, and the post-migration epochs'
  // observed busy-time balance ratio improves by at least 2x.
  //
  // Pinned to the naive kernel backend: the 2x threshold is calibrated
  // against the scalar kernels' wall-clock skew, and the tiled backend
  // speeds up the wide GEMMs ~3x more than the narrow layers, compressing
  // the very imbalance the scenario measures. The rebalancing logic under
  // test is kernel-agnostic (it replans from observed busy counters).
  struct KindGuard {
    tensor::kernels::KernelKind saved = tensor::kernels::KernelRegistry::kind();
    ~KindGuard() { tensor::kernels::KernelRegistry::set_kind(saved); }
  } kind_guard;
  tensor::kernels::KernelRegistry::set_kind(tensor::kernels::KernelKind::naive);
  SkewedTask task(64);
  core::TrainerConfig cfg = skewed_trainer_config(4);
  cfg.engine.num_microbatches = cfg.num_microbatches();
  auto backend = core::BackendRegistry::instance().create(
      task.build_model(), core::BackendConfig("threaded"), cfg.engine, cfg.seed);

  core::StageLoadObserver load(*backend);
  core::StepObserver* peers[] = {&load};
  core::RepartitionObserver repartitioner(
      *backend, pipeline::parse_repartition_spec("auto"), peers);
  std::vector<core::StepObserver*> obs = {&load, &repartitioner};
  auto result = core::train_loop(task, *backend, cfg, obs);
  EXPECT_FALSE(result.diverged);

  ASSERT_GE(repartitioner.events().size(), 2u);
  EXPECT_TRUE(repartitioner.events().front().migrated)
      << "observed ratio " << repartitioner.events().front().observed_ratio;
  EXPECT_GE(repartitioner.migrations(), 1);

  // Busy-time spread before the migration (epoch 1) vs after (last epoch).
  ASSERT_EQ(load.epoch_stats().size(), 4u);
  double before = core::StageLoadObserver::busy_spread(load.epoch_stats().front());
  double after = core::StageLoadObserver::busy_spread(load.epoch_stats().back());
  EXPECT_GT(before, 1.5) << "uniform split should be visibly imbalanced";
  EXPECT_GE(before / after, 2.0)
      << "before=" << before << " after=" << after;

  // The loss curve stays sane across the migration (statistical parity
  // with a run that never migrates; bitwise parity is not expected — the
  // weight-version staleness pattern legitimately changes).
  for (const auto& rec : result.curve) {
    EXPECT_TRUE(std::isfinite(rec.train_loss));
  }
}

TEST(RepartitionTraining, TrainRejectsUninstrumentedBackend) {
  SkewedTask task(64);
  core::TrainerConfig cfg = skewed_trainer_config(1);
  cfg.backend = "sequential";
  cfg.repartition = pipeline::parse_repartition_spec("auto");
  EXPECT_THROW(core::train(task, cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Observer interplay: baselines reset across a migration
// ---------------------------------------------------------------------------

TEST(StageLoadObserver, BaselineResetsOnRepartitionAndSizeChange) {
  SkewedFixture fx(2);
  EngineConfig ec;
  ec.num_stages = 4;
  ec.num_microbatches = 2;
  auto thr = core::BackendRegistry::instance().create(make_skewed_mlp(),
                                                      core::BackendConfig{"threaded"}, ec, 1);
  core::StageLoadObserver load(*thr);
  core::EpochRecord rec;
  rec.metric = 0.0;

  sgd_step(*thr, fx);
  load.on_epoch(rec);
  ASSERT_EQ(load.epoch_stats().size(), 1u);

  // A repartition resets the engine counters; the observer must not diff
  // the next epoch against the stale (larger) baseline.
  PartitionSpec spec;
  spec.strategy = PartitionStrategy::Balanced;
  Partition target = make_partition(fx.model, 4, false, spec);
  Partition from = *thr->partition();
  thr->repartition(target);
  thr->reset_stage_stats();
  load.on_repartition(from, target, 1);

  sgd_step(*thr, fx);
  load.on_epoch(rec);
  ASSERT_EQ(load.epoch_stats().size(), 2u);
  auto fresh = thr->stage_stats();
  const auto& delta = load.epoch_stats().back();
  ASSERT_EQ(delta.size(), fresh.size());
  for (std::size_t s = 0; s < delta.size(); ++s) {
    // Without the baseline reset the "delta" would wrap through the
    // regression fallback; with it, the epoch delta is the post-reset
    // cumulative value.
    EXPECT_EQ(delta[s].busy_ns, fresh[s].busy_ns) << "stage " << s;
    EXPECT_EQ(delta[s].items, fresh[s].items) << "stage " << s;
  }
}

}  // namespace
}  // namespace pipemare::pipeline
