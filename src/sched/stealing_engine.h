#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/nn/heads.h"
#include "src/nn/model.h"
#include "src/optim/optimizer.h"
#include "src/pipeline/config.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/schedule.h"
#include "src/pipeline/stage_stats.h"
#include "src/pipeline/weight_versions.h"
#include "src/sched/steal_policy.h"
#include "src/sched/task_graph_runner.h"
#include "src/util/sync.h"

namespace pipemare::sched {

/// Configuration of the work-stealing runtime: the shared pipeline
/// EngineConfig plus the scheduler knobs (registered with the
/// core::BackendRegistry as "threaded_steal" via core::StealOptions).
struct StealConfig {
  pipeline::EngineConfig engine;
  int workers = 0;  ///< worker threads; 0 = min(cores, num_stages)
  StealMode mode = StealMode::LoadAware;
};

/// The "threaded" registry backend: one worker per stage with stealing
/// off, so stage s runs only on worker s — stage-per-thread 1F1B
/// execution (PipeDream-style pipelined workers) on this engine.
inline StealConfig threaded_config(pipeline::EngineConfig engine) {
  StealConfig cfg;
  cfg.workers = engine.num_stages;
  cfg.engine = std::move(engine);
  cfg.mode = StealMode::Disabled;
  return cfg;
}

/// Work-stealing pipeline-parallel execution (registered with the
/// core::BackendRegistry as "threaded_steal", and — through
/// threaded_config — as "threaded"): instead of pinning one
/// thread per stage, W workers — W chosen independently of P — drain
/// per-stage TaskQueue deques of *ready* forward/backward microbatch
/// tasks, and an idle worker steals the oldest ready task from the stage
/// the StealPolicy ranks busiest (seeded from the partition cost model's
/// predicted stage costs, re-ranked between minibatches from the observed
/// per-stage busy counters). The TaskGraphRunner schedules (queues, stage s
/// home to worker s mod W, acquire, wakeups, load counters); this engine
/// owns the task bodies, the backward-chain gates and the weight versions,
/// and hands the policy's victim order to the runner before each minibatch.
///
/// PipeMare semantics are preserved exactly: a stolen task executes with
/// the *owner stage's* weight version — every (stage, microbatch) forward
/// and backward parameter view is read through the same shared
/// WeightVersions snapshot protocol the sequential engine uses (here in
/// place, through its zero-copy views), so the delay distribution
/// (Table 1) does not depend on which worker runs the task.
///
/// Stronger still, the engine's numerics are *scheduling-independent by
/// construction*, so training curves are bitwise-identical to the
/// "sequential" engine whether stealing is off, on, or forced (tests
/// assert all three), and bitwise run-to-run reproducible in every mode:
///  1. weight views are pure functions of (stage, micro, step) through
///     WeightVersions, frozen within a minibatch;
///  2. forwards of a stage touch disjoint per-microbatch caches and
///     counter-based Dropout masks are draw-order-independent, so their
///     execution order is free;
///  3. backwards of a stage are serialized in microbatch order by a
///     readiness chain (Backward(s, m) becomes ready only once
///     Backward(s+1, m) produced its gradient AND Backward(s, m-1)
///     completed), so gradient accumulation into the stage's disjoint
///     slice of the gradient buffer replays the sequential order (the
///     chain's head zeroes the slice and its tail normalizes it, so the
///     trainer thread never sweeps the whole buffer);
///  4. per-microbatch losses land in slots merged in microbatch order
///     after the minibatch barrier, replaying the sequential sum.
/// The StealMode therefore only changes *which worker* runs a task and
/// when — wall-clock, busy spread, steal counters — never the floats.
///
/// Stage-local weight updates (train_step): as on pipeline hardware, each
/// stage applies its own update as soon as its gradient is final. The
/// worker that runs Backward(s, N-1) pushes its successors, then steps the
/// optimizer over stage s's execution range (its modules' weight units,
/// with each weight's LR from the LrSegment holding it) and commits those
/// units' next version (WeightVersions::commit_units), so the update
/// overlaps the lower stages' backward passes and only stage 0's slice is
/// on the step's critical path. The trainer thread then only publishes
/// the version. Every weight sees the same per-element expressions as the
/// serial sequence, so curves stay bitwise-equal to "sequential".
///
/// The surface matches the core::train_loop engine concept /
/// core::ExecutionBackend interface. Unsupported: activation
/// recomputation (an analytic-engine feature).
class StealingEngine {
 public:
  using StepResult = pipeline::StepResult;
  using StageStats = pipeline::StageStats;

  StealingEngine(const nn::Model& model, StealConfig cfg, std::uint64_t seed);
  ~StealingEngine();

  StealingEngine(const StealingEngine&) = delete;
  StealingEngine& operator=(const StealingEngine&) = delete;

  /// Runs the N microbatches of one minibatch through the worker pool
  /// with schedule-exact weight versions, accumulating the mean gradient.
  /// Rethrows the first worker-side exception (after the task graph
  /// drains).
  StepResult forward_backward(const std::vector<nn::Flow>& micro_inputs,
                              const std::vector<tensor::Tensor>& micro_targets,
                              const nn::LossHead& head);

  /// One training step with stage-local updates (see the class comment):
  /// forward_backward plus `update`. Divergence is exact: Backward(P-1,
  /// N-1) decides once, from the ordered loss merge, whether the stages
  /// may step; a stage then steps only if its own gradient slice is
  /// finite. If the step diverges after some stages stepped (a lower
  /// stage's non-finite gradient) or a task throws, those stages' live
  /// weights are restored from the current version and nothing is
  /// published: weights() equal the serial sequence's (no update), but
  /// the optimizer state and the T2 delta EMA are unspecified — train_loop
  /// ends the run there. A throw is rethrown after the graph drains.
  /// With update.grad_clip > 0 this is pipeline::serial_train_step: the
  /// global norm is one sum over the whole gradient in index order.
  StepResult train_step(const std::vector<nn::Flow>& micro_inputs,
                        const std::vector<tensor::Tensor>& micro_targets,
                        const nn::LossHead& head, const pipeline::StepUpdate& update);

  std::span<float> weights() { return store_.live(); }
  std::span<const float> weights() const { return store_.live(); }
  std::span<float> gradients() { return grads_; }
  void commit_update() { store_.commit_update(); }

  /// Evaluation helper: forward-only on the live weights (single-threaded).
  nn::LossResult evaluate(const nn::Flow& input, const tensor::Tensor& target,
                          const nn::LossHead& head) const;

  void set_method(pipeline::Method m) { cfg_.engine.method = m; }
  pipeline::Method method() const { return cfg_.engine.method; }

  /// Epoch-boundary dynamic repartitioning: swaps in a new unit -> stage
  /// assignment over the same weight units (checked by
  /// pipeline::validate_repartition), rebuilds the per-stage module/unit
  /// ranges, and reseeds the StealPolicy's victim ranking from the new
  /// partition's predicted stage costs. Only call between minibatches:
  /// the workers are parked on the pool barrier then, and the next
  /// generation's release barrier publishes the new state. No weights,
  /// version history, or optimizer state move.
  void repartition(const pipeline::Partition& next);

  const pipeline::Partition& partition() const { return partition_; }
  const pipeline::Schedule& schedule() const { return schedule_; }
  const nn::Model& model() const { return model_; }
  const StealConfig& config() const { return cfg_; }
  std::int64_t steps_taken() const { return store_.step(); }
  int num_workers() const { return runner_->num_workers(); }

  std::vector<double> stage_tau_fwd() const {
    return pipeline::stage_tau_fwd_vector(schedule_);
  }
  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const {
    return pipeline::stage_lr_segments(partition_, base_lr, scales);
  }

  /// The runner's per-stage and per-worker load counters (see
  /// TaskGraphRunner; with threaded_config, worker s is stage s). The busy
  /// spread across workers is the number stealing actually flattens
  /// (per-stage busy is invariant under stealing).
  std::vector<StageStats> stage_stats() const { return runner_->stage_stats(); }
  std::vector<StageStats> worker_stats() const { return runner_->worker_stats(); }
  void reset_stage_stats() { runner_->reset_stats(); }
  std::uint64_t total_steals() const { return runner_->total_steals(); }

 private:
  using StageRange = pipeline::StageModuleRange;

  /// The runner's task body: one forward or backward of (stage, micro),
  /// plus the stage's update after its last backward in a train_step.
  void execute(int worker, const Task& task);
  void run_forward(const Task& task, std::vector<float>& w);
  void run_backward(const Task& task, std::vector<float>& w);
  /// Stage `s`'s optimizer slice and commit sweep (train_step only).
  void update_stage(int s);
  /// Seeds one minibatch's tasks and runs them as one generation; with an
  /// update, the stages step inside it.
  void run_minibatch(const std::vector<nn::Flow>& micro_inputs,
                     const std::vector<tensor::Tensor>& micro_targets,
                     const nn::LossHead& head, const pipeline::StepUpdate* update);
  /// The ordered merge of the per-microbatch loss slots, plus the stages'
  /// gradient finiteness when `with_gradients`.
  StepResult merged_result(bool with_gradients) const;
  /// Throws the first recorded worker failure of the minibatch, if any.
  void rethrow_failure();
  /// The slice of grads_ a stage's backward accumulates into (the weight
  /// units its modules own, contiguous in the flat layout); empty for a
  /// stage that owns no weight units.
  std::span<float> stage_gradients(const StageRange& r);
  /// Marks Backward(stage, micro)'s gradient input as available and
  /// pushes it if its predecessor in the stage's backward chain is done.
  void mark_backward_ready(int stage, int micro);
  void record_failure(const char* what);

  const nn::Model& model_;
  StealConfig cfg_;
  pipeline::Partition partition_;
  pipeline::Schedule schedule_;
  pipeline::WeightVersions store_;
  StealPolicy policy_;
  std::vector<float> grads_;

  std::vector<StageRange> ranges_;                   ///< per stage
  std::vector<std::vector<nn::Cache>> caches_;       ///< per microbatch

  // Per-minibatch context, owned by forward_backward for the duration of
  // one generation; workers read it between the pool barriers.
  const std::vector<tensor::Tensor>* mb_targets_ = nullptr;
  const nn::LossHead* mb_head_ = nullptr;
  std::vector<nn::Flow> fwd_flow_;   ///< per micro: activation between stages
  std::vector<nn::Flow> bwd_flow_;   ///< per micro: gradient between stages
  std::vector<double> micro_loss_;   ///< per micro: loss slots (ordered merge)
  std::vector<double> micro_correct_;
  std::vector<double> micro_count_;
  /// What a stage's last backward of the minibatch reports. Single writer
  /// (the task running Backward(s, N-1) and the stage's update after it),
  /// read after the minibatch barrier.
  struct StageEnd {
    /// 0 if the normalization sweep found a non-finite gradient
    std::uint8_t grads_finite = 1;
    /// 1 once update_stage began changing the stage's live weights
    std::uint8_t stepped = 0;
  };
  std::vector<StageEnd> stage_end_;  ///< per stage
  std::atomic<bool> mb_failed_{false};
  /// Backward(P-1, N-1)'s decision that the stages may step. Written before
  /// that task hands Backward(P-2, N-1) its gradient; every lower stage's
  /// last backward is ordered after that handoff by the backward chain.
  bool update_go_ = false;
  /// train_step's update, or null in forward_backward.
  const pipeline::StepUpdate* mb_update_ = nullptr;

  // The backward-chain gates and the failure record, GUARDED_BY(gate_m_)
  // — a Clang -Wthread-safety build proves the gating protocol never
  // touches them unlocked. Lock order: gate_m_ -> the runner's mutex ->
  // TaskQueue mutex (see TaskGraphRunner).
  mutable util::Mutex gate_m_;
  std::string mb_error_ GUARDED_BY(gate_m_);  ///< first worker exception
  std::vector<int> next_bwd_ GUARDED_BY(gate_m_);      ///< per stage: next micro
  std::vector<std::uint8_t> bwd_ready_ GUARDED_BY(gate_m_);  ///< [stage*N+micro]

  /// Per worker: the weight views' fallback buffer. Most tasks read
  /// their weights in place (a ring slot, the live weights or the T2
  /// backward weights); only a mixed-version stage (split_bias) or
  /// per-microbatch T2 assembles here, and the store sizes the buffer on
  /// that first use.
  std::vector<std::vector<float>> scratch_;

  std::unique_ptr<TaskGraphRunner> runner_;  ///< last member: joins first
};

}  // namespace pipemare::sched
