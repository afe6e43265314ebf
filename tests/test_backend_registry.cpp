// The ExecutionBackend registry suite: backend enumeration, cross-backend
// training on a tiny task, bitwise sequential/threaded parity, run-to-run
// reproducibility of the threaded Hogwild backend, the deprecated bool
// shims, and the registry's error paths (unknown names, mismatched option
// variants, single validation path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/core/backend.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/hogwild/hogwild.h"
#include "src/pipeline/partition.h"
#include "src/sched/task_graph_runner.h"
#include "src/util/cli.h"

namespace pipemare::core {
namespace {

/// Small, fast image task (the ResNet analog is dropout-free, so every
/// registered backend — including threaded_hogwild — can run it).
std::unique_ptr<ImageTask> tiny_image_task(std::uint64_t seed = 11) {
  data::ImageDatasetConfig d;
  d.classes = 4;
  d.train_size = 128;
  d.test_size = 64;
  d.image_size = 8;
  d.noise_std = 0.4;
  d.seed = seed;
  nn::ResNetConfig m;
  m.base_channels = 6;
  m.blocks_per_group = {1, 1};
  return std::make_unique<ImageTask>(d, m, "tiny-image");
}

TrainerConfig tiny_config(pipeline::Method method, int stages, int epochs) {
  TrainerConfig cfg;
  cfg.engine.method = method;
  cfg.engine.num_stages = stages;
  cfg.epochs = epochs;
  cfg.minibatch_size = 32;
  cfg.microbatch_size = 8;
  cfg.schedule = TrainerConfig::Sched::Constant;
  cfg.lr = 0.05;
  cfg.weight_decay = 1e-4;
  cfg.seed = 5;
  return cfg;
}

/// Bitwise curve equality, ignoring wall-clock seconds (never comparable
/// across runs).
void expect_curves_bitwise_equal(const TrainResult& a, const TrainResult& b,
                                 const std::string& label) {
  ASSERT_EQ(a.curve.size(), b.curve.size()) << label;
  for (std::size_t e = 0; e < a.curve.size(); ++e) {
    EXPECT_EQ(a.curve[e].epoch, b.curve[e].epoch) << label << " epoch " << e;
    EXPECT_EQ(a.curve[e].train_loss, b.curve[e].train_loss) << label << " epoch " << e;
    // A divergence record carries metric = NaN, where EXPECT_EQ would fail
    // even on identical curves; compare record kinds instead.
    ASSERT_EQ(a.curve[e].is_divergence_record(), b.curve[e].is_divergence_record())
        << label << " epoch " << e;
    if (!a.curve[e].is_divergence_record()) {
      EXPECT_EQ(a.curve[e].metric, b.curve[e].metric) << label << " epoch " << e;
    }
    EXPECT_EQ(a.curve[e].param_norm, b.curve[e].param_norm) << label << " epoch " << e;
    EXPECT_EQ(a.curve[e].base_lr, b.curve[e].base_lr) << label << " epoch " << e;
  }
  EXPECT_EQ(a.best_metric, b.best_metric) << label;
  EXPECT_EQ(a.best_epoch, b.best_epoch) << label;
  EXPECT_EQ(a.diverged, b.diverged) << label;
}

TEST(BackendRegistry, EnumeratesAllBuiltinBackends) {
  auto names = BackendRegistry::instance().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected : {"hogwild", "sequential", "threaded", "threaded_hogwild",
                               "threaded_steal"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing backend: " << expected;
    EXPECT_TRUE(BackendRegistry::instance().contains(expected)) << expected;
  }
  EXPECT_FALSE(BackendRegistry::instance().contains("work_stealing"));
}

TEST(BackendRegistry, UnknownBackendThrowsWithAvailableNames) {
  auto task = tiny_image_task();
  TrainerConfig cfg = tiny_config(pipeline::Method::PipeMare, 4, 1);
  cfg.backend = "warp-drive";
  try {
    train(*task, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("warp-drive"), std::string::npos) << msg;
    for (const auto& name : BackendRegistry::instance().names()) {
      EXPECT_NE(msg.find(name), std::string::npos)
          << "error should list '" << name << "': " << msg;
    }
  }
}

TEST(BackendRegistry, CliHelpListsEveryRegisteredBackend) {
  // The --help block is built from the registry, so a newly registered
  // backend shows up in every binary's usage text automatically.
  std::string help = backend_cli_help();
  for (const auto& name : BackendRegistry::instance().names()) {
    EXPECT_NE(help.find(name), std::string::npos)
        << "help should list '" << name << "': " << help;
  }
  EXPECT_NE(help.find("--steal="), std::string::npos) << help;
}

TEST(BackendRegistry, EveryRegisteredBackendTrainsTinyTask) {
  auto task = tiny_image_task();
  for (const auto& name : BackendRegistry::instance().names()) {
    TrainerConfig cfg = tiny_config(pipeline::Method::PipeMare, 4, 2);
    cfg.backend.name = name;
    auto res = train(*task, cfg);
    EXPECT_FALSE(res.diverged) << name;
    ASSERT_EQ(res.curve.size(), 2u) << name;
    for (const auto& rec : res.curve) {
      EXPECT_TRUE(std::isfinite(rec.train_loss)) << name;
      EXPECT_TRUE(std::isfinite(rec.metric)) << name;
      EXPECT_GT(rec.param_norm, 0.0) << name;
      EXPECT_GT(rec.seconds, 0.0) << name << ": EpochTimer must stamp seconds";
    }
  }
}

TEST(BackendRegistry, SequentialAndThreadedBitwiseParity) {
  auto task = tiny_image_task();
  for (auto method : {pipeline::Method::Sync, pipeline::Method::PipeDream,
                      pipeline::Method::PipeMare}) {
    TrainerConfig cfg = tiny_config(method, 4, 2);
    cfg.backend = "sequential";
    auto seq = train(*task, cfg);
    cfg.backend = "threaded";
    auto thr = train(*task, cfg);
    expect_curves_bitwise_equal(seq, thr, pipeline::method_name(method));
  }
}

TEST(BackendRegistry, ThreadedHogwildRunToRunReproducible) {
  auto task = tiny_image_task();
  TrainerConfig cfg = tiny_config(pipeline::Method::PipeMare, 4, 2);
  ThreadedHogwildOptions opts;
  opts.max_delay = 6.0;
  opts.workers = 3;
  cfg.backend = {"threaded_hogwild", opts};
  auto first = train(*task, cfg);
  auto second = train(*task, cfg);
  expect_curves_bitwise_equal(first, second, "threaded_hogwild run-to-run");
}

TEST(BackendRegistry, MismatchedOptionsVariantThrows) {
  auto task = tiny_image_task();
  TrainerConfig cfg = tiny_config(pipeline::Method::PipeMare, 4, 1);
  cfg.backend = {"sequential", ThreadedHogwildOptions{}};
  try {
    train(*task, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("sequential"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::string(ThreadedHogwildOptions::kName)), std::string::npos)
        << msg;
  }
}

TEST(BackendRegistry, ValidateIsTheSingleHogwildValidationPath) {
  // Bad Hogwild knobs must be rejected by hogwild::validate_config through
  // the registry's validate(), with no model or engine ever built.
  pipeline::EngineConfig engine;
  engine.num_stages = 4;
  engine.num_microbatches = 4;
  HogwildOptions bad;
  bad.max_delay = -1.0;
  EXPECT_THROW(
      BackendRegistry::instance().validate(BackendConfig{"hogwild", bad}, engine),
      std::invalid_argument);
  ThreadedHogwildOptions bad_workers;
  bad_workers.workers = -2;
  EXPECT_THROW(BackendRegistry::instance().validate(
                   BackendConfig{"threaded_hogwild", bad_workers}, engine),
               std::invalid_argument);
  // The same knobs pass when valid.
  BackendRegistry::instance().validate(BackendConfig{"hogwild"}, engine);
}

TEST(BackendRegistry, ValidateRejectsWorkerCountsAboveTheLimit) {
  // --workers is outside input and each worker is an OS thread: counts past
  // sched::kMaxWorkers are rejected at validation, naming the field, before
  // any pool exists. Only validators run here — nothing spawns threads.
  pipeline::EngineConfig engine;
  engine.num_stages = 4;
  engine.num_microbatches = 4;
  auto expect_rejected = [&](const BackendConfig& b) {
    try {
      BackendRegistry::instance().validate(b, engine);
      ADD_FAILURE() << b.name << " accepted an over-limit worker count";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("workers"), std::string::npos) << e.what();
    }
  };
  StealOptions steal;
  steal.workers = sched::kMaxWorkers + 1;
  expect_rejected(BackendConfig{"threaded_steal", steal});
  steal.workers = 1000000;
  expect_rejected(BackendConfig{"threaded_steal", steal});
  ThreadedHogwildOptions hog;
  hog.workers = sched::kMaxWorkers + 1;
  expect_rejected(BackendConfig{"threaded_hogwild", hog});
  // The limit itself is accepted.
  steal.workers = sched::kMaxWorkers;
  BackendRegistry::instance().validate(BackendConfig{"threaded_steal", steal}, engine);
  hog.workers = sched::kMaxWorkers;
  BackendRegistry::instance().validate(BackendConfig{"threaded_hogwild", hog}, engine);
}

TEST(BackendRegistry, NonSequentialBackendsRejectRecompute) {
  auto task = tiny_image_task();
  for (const char* name : {"threaded", "hogwild", "threaded_hogwild", "threaded_steal"}) {
    TrainerConfig cfg = tiny_config(pipeline::Method::PipeMare, 4, 1);
    cfg.backend = name;
    cfg.engine.recompute_segments = 2;
    EXPECT_THROW(train(*task, cfg), std::invalid_argument) << name;
  }
}

TEST(BackendRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(BackendRegistry::instance().register_backend(
                   "sequential",
                   [](const BackendConfig&, const pipeline::EngineConfig&,
                      const nn::Model*) {},
                   [](nn::Model, const BackendConfig&, const pipeline::EngineConfig&,
                      std::uint64_t) -> std::unique_ptr<ExecutionBackend> {
                     return nullptr;
                   }),
               std::invalid_argument);
}

TEST(BackendRegistry, CreateReportsNameAndAppliesMethod) {
  auto task = tiny_image_task();
  pipeline::EngineConfig engine;
  engine.method = pipeline::Method::PipeDream;
  engine.num_stages = 2;
  engine.num_microbatches = 4;
  for (const auto& name : BackendRegistry::instance().names()) {
    auto backend = BackendRegistry::instance().create(task->build_model(),
                                                      BackendConfig{name}, engine, 3);
    EXPECT_EQ(backend->name(), name);
    EXPECT_EQ(backend->method(), pipeline::Method::PipeDream) << name;
    EXPECT_GT(backend->weights().size(), 0u) << name;
    EXPECT_EQ(backend->stage_tau_fwd().size(), 2u) << name;
  }
}

TEST(ParseBackendCli, AppliesFlagsAndCarriesDelayAcrossFamily) {
  {
    const char* argv[] = {"prog", "--backend=threaded"};
    util::Cli cli(2, const_cast<char**>(argv));
    TrainerConfig cfg;
    parse_backend_cli(cli, cfg);
    EXPECT_EQ(cfg.backend.name, "threaded");
  }
  {
    const char* argv[] = {"prog", "--backend=threaded_hogwild", "--workers=4",
                          "--max-delay=3.5"};
    util::Cli cli(4, const_cast<char**>(argv));
    TrainerConfig cfg;
    parse_backend_cli(cli, cfg);
    const auto& opts = std::get<ThreadedHogwildOptions>(cfg.backend.options);
    EXPECT_EQ(opts.workers, 4);
    EXPECT_EQ(opts.max_delay, 3.5);
  }
  {
    // Switching hogwild -> threaded_hogwild keeps the configured max_delay.
    const char* argv[] = {"prog", "--backend=threaded_hogwild"};
    util::Cli cli(2, const_cast<char**>(argv));
    TrainerConfig cfg;
    HogwildOptions preset;
    preset.max_delay = 9.0;
    cfg.backend = {"hogwild", preset};
    parse_backend_cli(cli, cfg);
    const auto& opts = std::get<ThreadedHogwildOptions>(cfg.backend.options);
    EXPECT_EQ(opts.max_delay, 9.0);
  }
  {
    // Switching out of the hogwild family must drop the preset hogwild
    // options, or the target backend's variant check would reject them.
    const char* argv[] = {"prog", "--backend=threaded"};
    util::Cli cli(2, const_cast<char**>(argv));
    TrainerConfig cfg;
    HogwildOptions preset;
    preset.max_delay = 9.0;
    cfg.backend = {"hogwild", preset};
    parse_backend_cli(cli, cfg);
    EXPECT_EQ(cfg.backend.name, "threaded");
    EXPECT_TRUE(std::holds_alternative<std::monostate>(cfg.backend.options));
    pipeline::EngineConfig engine;
    BackendRegistry::instance().validate(cfg.backend, engine);  // must not throw
  }
  {
    const char* argv[] = {"prog", "--backend=threaded_steal", "--workers=3",
                          "--steal=forced"};
    util::Cli cli(4, const_cast<char**>(argv));
    TrainerConfig cfg;
    parse_backend_cli(cli, cfg);
    const auto& opts = std::get<StealOptions>(cfg.backend.options);
    EXPECT_EQ(opts.workers, 3);
    EXPECT_EQ(opts.mode, sched::StealMode::Forced);
  }
  {
    // Worker counts carry between the worker-pool backends on a --backend
    // switch (threaded_hogwild preset -> threaded_steal).
    const char* argv[] = {"prog", "--backend=threaded_steal"};
    util::Cli cli(2, const_cast<char**>(argv));
    TrainerConfig cfg;
    ThreadedHogwildOptions preset;
    preset.workers = 6;
    cfg.backend = {"threaded_hogwild", preset};
    parse_backend_cli(cli, cfg);
    const auto& opts = std::get<StealOptions>(cfg.backend.options);
    EXPECT_EQ(opts.workers, 6);
    EXPECT_EQ(opts.mode, sched::StealMode::LoadAware);
  }
  {
    // --steal on a non-steal backend throws instead of being dropped.
    const char* argv[] = {"prog", "--backend=threaded", "--steal=forced"};
    util::Cli cli(3, const_cast<char**>(argv));
    TrainerConfig cfg;
    EXPECT_THROW(parse_backend_cli(cli, cfg), std::invalid_argument);
  }
  {
    // ... and --max-delay on threaded_steal throws (hogwild-family knob).
    const char* argv[] = {"prog", "--backend=threaded_steal", "--max-delay=4"};
    util::Cli cli(3, const_cast<char**>(argv));
    TrainerConfig cfg;
    EXPECT_THROW(parse_backend_cli(cli, cfg), std::invalid_argument);
  }
  {
    const char* argv[] = {"prog", "--backend=threaded_steal", "--steal=sideways"};
    util::Cli cli(3, const_cast<char**>(argv));
    TrainerConfig cfg;
    EXPECT_THROW(parse_backend_cli(cli, cfg), std::invalid_argument);
  }
  {
    const char* argv[] = {"prog", "--backend=nope"};
    util::Cli cli(2, const_cast<char**>(argv));
    TrainerConfig cfg;
    EXPECT_THROW(parse_backend_cli(cli, cfg), std::invalid_argument);
  }
  {
    // Flags the selected backend cannot honor must throw, not silently
    // drop (e.g. --workers on the single-threaded hogwild backend).
    const char* argv[] = {"prog", "--backend=hogwild", "--workers=4"};
    util::Cli cli(3, const_cast<char**>(argv));
    TrainerConfig cfg;
    EXPECT_THROW(parse_backend_cli(cli, cfg), std::invalid_argument);
  }
  {
    const char* argv[] = {"prog", "--backend=threaded", "--max-delay=4"};
    util::Cli cli(3, const_cast<char**>(argv));
    TrainerConfig cfg;
    EXPECT_THROW(parse_backend_cli(cli, cfg), std::invalid_argument);
  }
}

}  // namespace
}  // namespace pipemare::core
