#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/nn/heads.h"
#include "src/nn/model.h"
#include "src/optim/optimizer.h"
#include "src/pipeline/config.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/schedule.h"
#include "src/pipeline/stage_mailbox.h"
#include "src/pipeline/stage_stats.h"
#include "src/pipeline/weight_versions.h"
#include "src/util/sync.h"

namespace pipemare::pipeline {

/// Truly concurrent pipeline-parallel execution (registered with the
/// core::BackendRegistry as "threaded"): one persistent worker
/// thread per stage, connected by bounded two-lane mailboxes, running the
/// 1F1B schedule with real wall-clock overlap (PipeDream-style pipelined
/// workers; the first step toward "as fast as the hardware allows").
///
/// Statistically this engine is *identical* to the sequential
/// PipelineEngine: both read every (stage, microbatch) forward and
/// backward parameter view through the same WeightVersions store (this
/// engine through its zero-copy views, the sequential one through the
/// copying assembly calls), and within a minibatch the store is frozen
/// (updates commit between minibatches), so the weight bytes each pass
/// sees do not depend on thread timing. Combined with three ordering facts —
///   1. each stage worker processes its microbatches in FIFO order,
///   2. stages own disjoint module (and hence gradient and cache) ranges,
///   3. Dropout masks are counter-based — pure functions of (module seed,
///      step, microbatch, element) — so they are independent of draw order
///      entirely —
/// every float is produced by the same operations in the same order as in
/// the sequential engine, making loss trajectories and gradients bitwise
/// equal (see tests/test_threaded_engine.cpp).
///
/// The surface mirrors PipelineEngine so core::train_loop can drive either
/// engine:
///
///   auto res = engine.forward_backward(inputs, targets, head);
///   opt.step(engine.weights(), engine.gradients(), segments);
///   engine.commit_update();
///
/// Unsupported: activation recomputation (cfg.recompute_segments > 0) is a
/// memory-model feature of the analytic engine and is rejected here.
class ThreadedEngine {
 public:
  using StepResult = pipeline::StepResult;

  ThreadedEngine(const nn::Model& model, EngineConfig cfg, std::uint64_t seed);
  ~ThreadedEngine();

  ThreadedEngine(const ThreadedEngine&) = delete;
  ThreadedEngine& operator=(const ThreadedEngine&) = delete;

  /// Runs the N microbatches of one minibatch through the stage workers
  /// with schedule-exact weight versions, accumulating the mean gradient.
  /// Rethrows the first worker-side exception (after the pipeline drains).
  StepResult forward_backward(const std::vector<nn::Flow>& micro_inputs,
                              const std::vector<tensor::Tensor>& micro_targets,
                              const nn::LossHead& head);

  /// Live (most recent) weights; the caller's optimizer mutates these.
  std::span<float> weights() { return store_.live(); }
  std::span<const float> weights() const { return store_.live(); }

  /// Mean gradient produced by the last forward_backward.
  std::span<float> gradients() { return grads_; }

  /// Publishes the mutated live weights as the next version and updates
  /// the T2 delta EMA. Call exactly once after each optimizer step.
  void commit_update() { store_.commit_update(); }

  /// Evaluation helper: forward-only on the live weights (single-threaded;
  /// evaluation has no pipeline semantics to overlap).
  nn::LossResult evaluate(const nn::Flow& input, const tensor::Tensor& target,
                          const nn::LossHead& head) const;

  /// Technique 3 switches from Sync warmup to PipeMare mid-training. Only
  /// call between minibatches (as core::train_loop does).
  void set_method(Method m) { cfg_.method = m; }
  Method method() const { return cfg_.method; }

  /// Epoch-boundary dynamic repartitioning: swaps in a new unit -> stage
  /// assignment over the same weight units (checked by
  /// validate_repartition) and rebuilds the per-stage module/unit ranges.
  /// Only call between minibatches: the workers are parked on the
  /// generation barrier then, and the next forward_backward's generation
  /// bump (under ctrl_m_) publishes the new ranges to every worker. No
  /// weights, version history, or optimizer state move.
  void repartition(const Partition& next);

  const Partition& partition() const { return partition_; }
  const Schedule& schedule() const { return schedule_; }
  const nn::Model& model() const { return model_; }
  const EngineConfig& config() const { return cfg_; }
  std::int64_t steps_taken() const { return store_.step(); }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Mean forward delay per stage, (2(P-i)+1)/N — the tau vector T1 needs.
  std::vector<double> stage_tau_fwd() const { return stage_tau_fwd_vector(schedule_); }

  /// Per-stage mailbox occupancy statistics (cumulative high-water marks
  /// since construction). The 1F1B lane bounds make these provably at
  /// most min(N, P - s + 1) per lane for stage s; tests assert it.
  std::vector<StageMailbox::LaneStats> lane_stats() const;

  /// Per-stage load counters, cumulative since construction (or the last
  /// reset_stage_stats). This is the measurement substrate the partition
  /// cost model is validated against — and what the work-stealing backend
  /// ("threaded_steal", src/sched/) balances at runtime: a stage whose
  /// busy share dwarfs the others is the pipeline's bottleneck, and its
  /// siblings' pop_wait is the headroom stealing reclaims. The struct is
  /// shared across all instrumented backends (stage_stats.h); this
  /// engine's slots are stages and its stolen_* fields stay 0.
  using StageStats = pipeline::StageStats;

  /// Snapshot of the per-stage counters. Call between minibatches (the
  /// engine's external-synchronization contract); the minibatch completion
  /// barrier orders worker writes before this read.
  std::vector<StageStats> stage_stats() const;
  void reset_stage_stats();

  /// Per-stage optimizer segments with the given base LR and per-stage
  /// scale factors (from the T1 rescheduler). Scales may be empty (all 1).
  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const {
    return stage_lr_segments(partition_, base_lr, scales);
  }

 private:
  /// A stage worker's slice of the model (see pipeline::StageModuleRange):
  /// with split_bias a module's bias unit may be *scheduled* on the next
  /// stage while the module executes here; the unit range follows module
  /// ownership, and each unit's staleness follows its own scheduled stage
  /// — exactly like the sequential engine.
  using StageRange = StageModuleRange;

  void worker_loop(int stage);
  void run_minibatch(int stage, std::vector<float>& w_fwd, std::vector<float>& w_bkwd);
  void backward_step(int stage, int micro, nn::Flow dflow, std::vector<float>& w_bkwd);
  void record_failure(const char* what);

  const nn::Model& model_;
  EngineConfig cfg_;
  Partition partition_;
  Schedule schedule_;
  WeightVersions store_;
  std::vector<float> grads_;

  std::vector<StageRange> ranges_;  ///< per stage
  /// Per-stage load counters. Each slot is written only by its stage's
  /// worker; readers run between minibatches, ordered by the completion
  /// barrier (ctrl_m_ release/acquire), so plain fields suffice.
  std::vector<StageStats> stats_;   ///< per stage
  std::vector<std::unique_ptr<StageMailbox>> mailboxes_;  ///< per stage
  std::vector<std::vector<nn::Cache>> caches_;  ///< per microbatch, full model

  // Per-minibatch context, owned by forward_backward for the duration of
  // one generation; workers read it between the go and done barriers.
  // (Inputs need no pointer here: they reach stage 0 as mailbox items.)
  // These fields are deliberately NOT GUARDED_BY(ctrl_m_): they are
  // *barrier-published* — written by the trainer thread before the
  // generation bump and read lock-free by workers until the completion
  // barrier (whose ctrl_m_ release/acquire pair provides the
  // happens-before). Annotating them would outlaw exactly the lock-free
  // worker reads the barrier protocol licenses.
  const std::vector<tensor::Tensor>* mb_targets_ = nullptr;
  const nn::LossHead* mb_head_ = nullptr;
  StepResult mb_result_;        ///< written only by the last-stage worker
  std::atomic<bool> mb_failed_{false};
  std::string mb_error_ GUARDED_BY(ctrl_m_);  ///< first worker exception

  util::Mutex ctrl_m_;
  util::CondVar ctrl_go_;
  util::CondVar ctrl_done_;
  std::uint64_t generation_ GUARDED_BY(ctrl_m_) = 0;
  int done_count_ GUARDED_BY(ctrl_m_) = 0;
  bool shutdown_ GUARDED_BY(ctrl_m_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace pipemare::pipeline
