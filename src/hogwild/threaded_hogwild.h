#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hogwild/hogwild.h"
#include "src/nn/heads.h"
#include "src/nn/model.h"
#include "src/optim/optimizer.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/stage_stats.h"
#include "src/sched/worker_pool.h"
#include "src/util/rng.h"
#include "src/util/sync.h"

namespace pipemare::hogwild {

/// Multithreaded Hogwild! backend (Appendix E): W free-running worker
/// threads execute the minibatch's microbatches concurrently, each reading
/// lock-free against the shared `live_` vector / per-stage delayed weight
/// snapshots and writing its results into per-microbatch slots.
///
/// The workers are a sched::WorkerPool running one generation per
/// minibatch; each claims microbatches from an atomic cursor until the
/// minibatch is exhausted. Delayed snapshots are served from the same
/// bounded version-history ring HogwildEngine keeps, behind a seqlock-style
/// epoch: `commit_update` brackets its history write with epoch increments
/// (odd = writer active) and snapshot readers retry until they observe a
/// stable even epoch. Within the current trainer the pool's generation
/// barrier orders commits strictly before worker reads — that barrier, not
/// the epoch, is what makes the reads race-free (and what ThreadSanitizer
/// verifies). The epoch is a protocol sketch for future free-running
/// (commit-while-reading) modes; enabling those additionally requires
/// race-free slot storage (atomic data words or swapped version buffers),
/// since a retried plain-copy of bytes a writer is mutating is still a
/// data race. Each worker assembles its own snapshot view (rather than
/// sharing one trainer-built buffer, which the barrier would permit)
/// precisely to keep that read path in place.
///
/// Determinism: the per-step stage delays are sampled once on the trainer
/// thread from the same RNG stream HogwildEngine uses, every worker
/// assembles the identical delayed weight view from them, and losses /
/// gradients are written to per-microbatch slots merged in microbatch
/// order — so the engine is *bitwise reproducible run-to-run* regardless
/// of thread timing, and matches the sequential HogwildEngine exactly up
/// to floating-point reassociation across microbatch boundaries in the
/// gradient sum (modules that accumulate a gradient index more than once
/// per backward — bias columns, convolutions — see a different addition
/// order; losses and weight views are otherwise identical). Tests assert
/// run-to-run bitwise equality and sequential parity to tight tolerance.
/// The one restriction: models whose modules mutate internal state in
/// `forward` (Module::stateful_forward) are rejected, since whole-model
/// replicas would race on that state. No in-tree module trips it anymore:
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
  ~ThreadedHogwildEngine();

  ThreadedHogwildEngine(const ThreadedHogwildEngine&) = delete;
  ThreadedHogwildEngine& operator=(const ThreadedHogwildEngine&) = delete;

  StepResult forward_backward(const std::vector<nn::Flow>& micro_inputs,
                              const std::vector<tensor::Tensor>& micro_targets,
                              const nn::LossHead& head);

  std::span<float> weights() { return live_; }
  std::span<const float> weights() const { return live_; }
  std::span<float> gradients() { return grads_; }

  /// Publishes the mutated live weights as the next delayed version
  /// (seqlock-guarded). Call exactly once after each optimizer step.
  void commit_update();

  /// Sync disables the random delays (used for T3 warmup comparisons).
  void set_method(pipeline::Method m) { method_ = m; }
  pipeline::Method method() const { return method_; }

  const nn::Model& model() const { return model_; }
  const pipeline::Partition& partition() const { return partition_; }
  int num_workers() const { return pool_->size(); }

  /// Per-stage delay expectations (what T1 divides by).
  std::vector<double> stage_tau_fwd() const { return mean_delay_; }

  /// Per-*worker* load counters (this backend has no stage workers; its
  /// unit of execution parallelism is the free-running worker thread):
  /// busy_ns = compute of the microbatches the worker processed, items =
  /// microbatches processed; pop_wait_ns stays 0 (claiming a microbatch
  /// never blocks). Cumulative since construction (or the last reset);
  /// the same shape the stage-partitioned backends report per stage, so
  /// core::StageLoadObserver samples every multithreaded backend
  /// uniformly. Call between minibatches (the generation barrier orders
  /// worker writes before the read).
  std::vector<pipeline::StageStats> stage_stats() const { return stats_; }
  void reset_stage_stats() { stats_.assign(stats_.size(), pipeline::StageStats{}); }

  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const;

 private:
  void drain(int worker);
  void process_micro(int micro, std::vector<float>& w, bool& w_ready);
  void assemble_delayed_weights(std::vector<float>& w) const;
  void record_failure(const char* what);

  const nn::Model& model_;
  HogwildConfig cfg_;
  pipeline::Partition partition_;
  pipeline::Method method_ = pipeline::Method::PipeMare;
  std::vector<double> mean_delay_;

  // Version-ring-published state (NOT mutex-guarded): step_, history_ and
  // live_ follow the same publication protocol as pipeline::WeightVersions
  // — the trainer thread writes them between minibatches (commit_update)
  // and workers read them inside a minibatch, with the generation barrier
  // providing the happens-before today and the epoch_ seqlock sketched in
  // for the future free-running mode. This unannotated block is exactly
  // the boundary that work moves: relaxing the barrier means making these
  // bytes race-free (atomic words or double-buffered slabs), not adding a
  // lock.
  std::int64_t step_ = 0;
  int history_depth_ = 1;
  std::vector<std::vector<float>> history_;
  std::vector<float> live_;
  std::vector<float> grads_;
  util::Rng delay_rng_;

  /// Seqlock epoch around history_ writes: odd while commit_update is
  /// mutating the ring, even when stable.
  std::atomic<std::uint64_t> epoch_{0};

  /// Per-unit source version for the current step, sampled by the trainer
  /// thread in forward_backward (same draws as HogwildEngine).
  std::vector<std::int64_t> unit_version_;

  /// "train.staleness.stage<k>": observed sampled delay per stage, the
  /// shared cross-backend metric family (pipeline::staleness_histograms).
  std::vector<obs::Histogram*> staleness_;

  // Per-minibatch context; workers read it between the pool barriers.
  // Barrier-published (not GUARDED_BY: the lock-free worker reads are the
  // point; the generation barrier's release/acquire pair publishes them).
  const std::vector<nn::Flow>* mb_inputs_ = nullptr;
  const std::vector<tensor::Tensor>* mb_targets_ = nullptr;
  const nn::LossHead* mb_head_ = nullptr;
  int mb_size_ = 0;                ///< microbatches in this minibatch
  std::atomic<int> next_micro_{0};  ///< the workers' claim cursor
  std::vector<double> micro_loss_;
  std::vector<double> micro_correct_;
  std::vector<double> micro_count_;
  std::vector<std::vector<float>> micro_grads_;
  std::vector<std::vector<nn::Cache>> caches_;  ///< per microbatch
  std::atomic<bool> mb_failed_{false};
  util::Mutex error_m_;
  std::string mb_error_ GUARDED_BY(error_m_);  ///< first worker exception

  /// Per-worker load counters. Each slot is written only by its worker;
  /// readers run between minibatches, ordered by the generation barrier,
  /// so plain fields suffice.
  std::vector<pipeline::StageStats> stats_;
  /// Per worker: the delayed-weight view it assembles once per step.
  std::vector<std::vector<float>> scratch_;

  std::unique_ptr<sched::WorkerPool> pool_;  ///< last member: joins before teardown
};

}  // namespace pipemare::hogwild
