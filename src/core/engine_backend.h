#pragma once

// The EngineBackend adapter lives apart from backend.h so that
// TrainerConfig consumers (everything including trainer.h) depend only on
// the ExecutionBackend interface + registry, not on the concrete
// engine headers. Include this header where the adapter itself is needed:
// the registry factories (backend.cpp), custom backend registrations, and
// callers that dynamic_cast a created backend to reach an engine-specific
// surface (e.g. StealingEngine::worker_stats in the micro benches).

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/backend.h"
#include "src/hogwild/hogwild.h"
#include "src/hogwild/threaded_hogwild.h"
#include "src/pipeline/engine.h"
#include "src/sched/stealing_engine.h"

namespace pipemare::core {

/// Adapter: any type satisfying the train_loop engine concept becomes an
/// ExecutionBackend. The adapter owns the model (engines keep a reference).
template <class Engine, class EngineCfg>
class EngineBackend final : public ExecutionBackend {
 public:
  EngineBackend(std::string name, nn::Model model, EngineCfg cfg, std::uint64_t seed)
      : name_(std::move(name)), model_(std::move(model)),
        engine_(model_, std::move(cfg), seed) {}

  EngineBackend(const EngineBackend&) = delete;
  EngineBackend& operator=(const EngineBackend&) = delete;

  pipeline::StepResult forward_backward(
      const std::vector<nn::Flow>& micro_inputs,
      const std::vector<tensor::Tensor>& micro_targets,
      const nn::LossHead& head) override {
    return engine_.forward_backward(micro_inputs, micro_targets, head);
  }
  std::span<float> weights() override { return engine_.weights(); }
  std::span<const float> weights() const override { return engine_.weights(); }
  std::span<float> gradients() override { return engine_.gradients(); }
  void commit_update() override { engine_.commit_update(); }
  /// Engines with their own step schedule (StealingEngine) provide
  /// train_step(); the rest keep the interface's serial sequence.
  pipeline::StepResult train_step(const std::vector<nn::Flow>& micro_inputs,
                                  const std::vector<tensor::Tensor>& micro_targets,
                                  const nn::LossHead& head,
                                  const pipeline::StepUpdate& update) override {
    if constexpr (requires(Engine& e) {
                    e.train_step(micro_inputs, micro_targets, head, update);
                  }) {
      return engine_.train_step(micro_inputs, micro_targets, head, update);
    } else {
      return ExecutionBackend::train_step(micro_inputs, micro_targets, head, update);
    }
  }
  std::vector<optim::LrSegment> lr_segments(
      double base_lr, std::span<const double> scales) const override {
    return engine_.lr_segments(base_lr, scales);
  }
  std::vector<double> stage_tau_fwd() const override { return engine_.stage_tau_fwd(); }
  void set_method(pipeline::Method m) override { engine_.set_method(m); }
  pipeline::Method method() const override { return engine_.method(); }
  const nn::Model& model() const override { return model_; }
  std::string_view name() const override { return name_; }

  /// Engines expose load instrumentation by providing stage_stats() /
  /// reset_stage_stats(); engines without it (the analytic sequential
  /// pipeline, the single-threaded Hogwild engine) fall back to the
  /// interface default (empty = uninstrumented).
  std::vector<pipeline::StageStats> stage_stats() const override {
    if constexpr (requires(const Engine& e) { e.stage_stats(); }) {
      return engine_.stage_stats();
    } else {
      return {};
    }
  }
  void reset_stage_stats() override {
    if constexpr (requires(Engine& e) { e.reset_stage_stats(); }) {
      engine_.reset_stage_stats();
    }
  }

  /// Engines opt into dynamic repartitioning by providing repartition();
  /// the rest keep the interface default (unsupported, throwing).
  bool supports_repartition() const override {
    return requires(Engine& e, const pipeline::Partition& p) { e.repartition(p); };
  }
  const pipeline::Partition* partition() const override {
    if constexpr (requires(const Engine& e) {
                    { e.partition() } -> std::same_as<const pipeline::Partition&>;
                  }) {
      return &engine_.partition();
    } else {
      return nullptr;
    }
  }
  void repartition(const pipeline::Partition& next) override {
    if constexpr (requires(Engine& e, const pipeline::Partition& p) {
                    e.repartition(p);
                  }) {
      engine_.repartition(next);
    } else {
      ExecutionBackend::repartition(next);  // throws
    }
  }

  /// The wrapped engine, for callers needing its concrete surface
  /// (e.g. StealingEngine::worker_stats in the micro benches).
  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }

 private:
  std::string name_;
  nn::Model model_;
  Engine engine_;
};

/// Concrete adapter instantiations of the built-in backends (what the
/// registry factories return; dynamic_cast targets for engine-specific
/// introspection). "threaded" and "threaded_steal" are both
/// ThreadedStealBackend.
using SequentialBackend = EngineBackend<pipeline::PipelineEngine, pipeline::EngineConfig>;
using HogwildBackend = EngineBackend<hogwild::HogwildEngine, hogwild::HogwildConfig>;
using ThreadedHogwildBackend =
    EngineBackend<hogwild::ThreadedHogwildEngine, hogwild::HogwildConfig>;
using ThreadedStealBackend = EngineBackend<sched::StealingEngine, sched::StealConfig>;

}  // namespace pipemare::core
