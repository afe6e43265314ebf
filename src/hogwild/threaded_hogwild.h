#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "src/hogwild/hogwild.h"
#include "src/nn/heads.h"
#include "src/nn/model.h"
#include "src/optim/optimizer.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/stage_stats.h"
#include "src/sched/task_graph_runner.h"

namespace pipemare::hogwild {

/// Multithreaded Hogwild! backend (Appendix E): HogwildEngine's delay
/// model with the minibatch's microbatches run concurrently as N
/// independent tasks on a sched::TaskGraphRunner of W workers.
///
/// Every piece of training state — config, partition, delay RNG, version
/// ring, live weights, gradients, staleness histograms — is the wrapped
/// HogwildEngine's. Each step the trainer thread draws the delays and
/// assembles one delayed weight view (HogwildEngine::delayed_weights),
/// pushes microbatch m onto queue m mod W and runs one generation of N
/// tasks. A task runs one microbatch's forward and backward against that
/// shared read-only view, with the worker's own activation caches, and
/// writes its loss, metrics and gradient into the microbatch's slot.
/// Workers that run out of home tasks steal (StealMode::LoadAware). The
/// generation barrier orders the trainer's view and commits before every
/// worker read.
///
/// Determinism: the delays come from the same RNG stream, in the same
/// order, as HogwildEngine, and the slots are merged in microbatch order —
/// so the engine is *bitwise reproducible run-to-run* whatever the worker
/// count or the steals, and matches the sequential HogwildEngine exactly
/// up to floating-point reassociation across microbatch boundaries in the
/// gradient sum (modules that accumulate a gradient index more than once
/// per backward — bias columns, convolutions — see a different addition
/// order; losses and weight views are otherwise identical). Tests assert
/// run-to-run bitwise equality and sequential parity to tight tolerance.
/// The one restriction: models whose modules mutate internal state in
/// `forward` (Module::stateful_forward) are rejected, since concurrent
/// microbatches would race on that state. No in-tree module trips it:
/// Dropout derives its masks from counter-based streams (pure functions
/// of module seed / step / microbatch / element, stamped on the Flow), so
/// the Transformer analogs run here with masks bitwise-identical to the
/// sequential HogwildEngine's.
///
/// The surface matches the core::train_loop engine concept / the
/// core::ExecutionBackend interface; it is registered with the
/// BackendRegistry as "threaded_hogwild" (selected via
/// TrainerConfig::backend).
class ThreadedHogwildEngine {
 public:
  using StepResult = pipeline::StepResult;

  ThreadedHogwildEngine(const nn::Model& model, HogwildConfig cfg, std::uint64_t seed);

  ThreadedHogwildEngine(const ThreadedHogwildEngine&) = delete;
  ThreadedHogwildEngine& operator=(const ThreadedHogwildEngine&) = delete;

  /// Rethrows the lowest-indexed failing microbatch's exception as
  /// std::runtime_error("ThreadedHogwildEngine worker failed: ...") once
  /// every task of the step has run.
  StepResult forward_backward(const std::vector<nn::Flow>& micro_inputs,
                              const std::vector<tensor::Tensor>& micro_targets,
                              const nn::LossHead& head);

  std::span<float> weights() { return core_.weights(); }
  std::span<const float> weights() const { return core_.weights(); }
  std::span<float> gradients() { return core_.gradients(); }
  /// Publishes the mutated live weights as the next delayed version. Call
  /// exactly once after each optimizer step.
  void commit_update() { core_.commit_update(); }

  /// Sync disables the random delays (used for T3 warmup comparisons).
  void set_method(pipeline::Method m) { core_.set_method(m); }
  pipeline::Method method() const { return core_.method(); }

  const nn::Model& model() const { return core_.model(); }
  const pipeline::Partition& partition() const { return core_.partition(); }
  int num_workers() const { return runner_->num_workers(); }

  /// Per-stage delay expectations (what T1 divides by).
  std::vector<double> stage_tau_fwd() const { return core_.stage_tau_fwd(); }

  /// Per-*worker* load counters (this backend has no stage workers; a
  /// slot is a worker): busy_ns / items = the microbatches the worker ran,
  /// stolen_items / stolen_ns = those it took from another worker's queue,
  /// pop_wait_ns = time idle waiting. Cumulative since construction (or the
  /// last reset). Summed over slots, items is exactly the microbatches run;
  /// a single slot may read 0 (another worker can run all of a step). Call
  /// between minibatches.
  std::vector<pipeline::StageStats> stage_stats() const { return runner_->worker_stats(); }
  void reset_stage_stats() { runner_->reset_stats(); }

  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const {
    return core_.lr_segments(base_lr, scales);
  }

 private:
  /// One microbatch's results, written only by the task that runs it.
  struct MicroSlot {
    double loss = 0.0;
    double correct = 0.0;
    double count = 0.0;
    std::vector<float> grads;
    std::exception_ptr error;
  };

  void run_micro(int worker, int micro);

  HogwildEngine core_;
  std::vector<MicroSlot> slots_;                ///< per microbatch
  std::vector<std::vector<nn::Cache>> caches_;  ///< per worker

  // Per-minibatch context, written by the trainer thread before the
  // generation and read by the tasks (published by the release barrier).
  const std::vector<nn::Flow>* mb_inputs_ = nullptr;
  const std::vector<tensor::Tensor>* mb_targets_ = nullptr;
  const nn::LossHead* mb_head_ = nullptr;
  std::span<const float> view_;  ///< this step's delayed weights

  std::unique_ptr<sched::TaskGraphRunner> runner_;  ///< last member: joins first
};

}  // namespace pipemare::hogwild
