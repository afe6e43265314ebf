#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/nn/heads.h"
#include "src/nn/model.h"
#include "src/optim/optimizer.h"
#include "src/pipeline/config.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/schedule.h"
#include "src/pipeline/weight_versions.h"

namespace pipemare::pipeline {

/// Result of one minibatch forward/backward (shared by all engines).
///
/// Non-finite contract (identical across PipelineEngine, StealingEngine,
/// HogwildEngine and ThreadedHogwildEngine): if any microbatch's loss is
/// non-finite, `finite` is false, `loss` holds the first (in microbatch
/// order) non-finite loss value, `correct`/`count` are zero — a divergent
/// step has no meaningful metrics — and the gradient buffer contents are
/// unspecified. If every loss is finite but the final gradient sweep
/// finds a non-finite entry, `finite` is false while `loss`, `correct`
/// and `count` keep their accumulated (valid) values.
struct StepResult {
  double loss = 0.0;     ///< mean loss over the minibatch
  double correct = 0.0;  ///< summed metric numerator (e.g. #correct)
  double count = 0.0;    ///< metric denominator
  bool finite = true;    ///< false if loss or gradients went non-finite
};

/// The weight update that ends one training step: the caller's optimizer,
/// the step's per-stage LR segments (pure functions of the step counters,
/// so they are computed before the step runs), the divergence bound, and
/// the global gradient-norm clip (0 = off). See core::train_step.
struct StepUpdate {
  optim::Optimizer& opt;
  std::span<const optim::LrSegment> segments;
  double divergence_loss = 1e3;
  double grad_clip = 0.0;
};

/// True when a step's result ends training: a non-finite loss or gradient,
/// or a mean loss above `divergence_loss`. Such a step applies no update.
inline bool diverged(const StepResult& r, double divergence_loss) {
  return !r.finite || r.loss > divergence_loss;
}

/// The serial step sequence any engine runs: forward_backward, the
/// divergence check (a diverged step returns before any update), the
/// global-norm clip, the optimizer step over the whole weight vector and
/// the commit.
template <class Engine>
StepResult serial_train_step(Engine& engine, const std::vector<nn::Flow>& micro_inputs,
                             const std::vector<tensor::Tensor>& micro_targets,
                             const nn::LossHead& head, const StepUpdate& update) {
  StepResult res = engine.forward_backward(micro_inputs, micro_targets, head);
  if (diverged(res, update.divergence_loss)) return res;
  if (update.grad_clip > 0.0) optim::clip_grad_norm(engine.gradients(), update.grad_clip);
  update.opt.step(engine.weights(), engine.gradients(), update.segments);
  engine.commit_update();
  return res;
}

/// Per-stage optimizer segments for a partition with the given base LR and
/// per-stage scale factors (from the T1 rescheduler). Scales may be empty
/// (all 1).
std::vector<optim::LrSegment> stage_lr_segments(const Partition& partition,
                                                double base_lr,
                                                std::span<const double> scales);

/// Mean forward delay per stage, (2(P-i)+1)/N — the tau vector T1 needs.
/// Always the asynchronous-schedule delays: T1 consumers apply these only
/// during the asynchronous phase, so the current method (e.g. Sync during
/// T3 warmup) must not zero them out.
std::vector<double> stage_tau_fwd_vector(const Schedule& schedule);

/// Forward-only evaluation of `params` — the engines' shared evaluate().
nn::LossResult evaluate_forward(const nn::Model& model, std::span<const float> params,
                                const nn::Flow& input, const tensor::Tensor& target,
                                const nn::LossHead& head);

/// Executes pipeline-parallel training *statistically exactly* (registered
/// with the core::BackendRegistry as "sequential"): every
/// microbatch's forward/backward uses the precise weight version that the
/// 1F1B tick schedule would expose (see Schedule), while the computation
/// itself runs sequentially on one host. Throughput is modelled
/// analytically in src/hwmodel — the same methodology as the paper's own
/// PyTorch-based simulator (Appendix C.4). For real wall-clock overlap on
/// a multicore host, see sched::StealingEngine (the "threaded" and
/// "threaded_steal" backends), which shares this engine's weight-version
/// store and produces identical results.
///
/// The engine owns the live weights, the per-version weight history (which
/// doubles as PipeDream's weight stash), and the T2 delta buffers (all via
/// WeightVersions). The caller owns the optimizer; one training step is
/// serial_train_step:
///
///   auto res = engine.forward_backward(inputs, targets, head);
///   opt.step(engine.weights(), engine.gradients(), segments);
///   engine.commit_update();
class PipelineEngine {
 public:
  using StepResult = pipeline::StepResult;

  PipelineEngine(const nn::Model& model, EngineConfig cfg, std::uint64_t seed);

  /// Runs the N microbatches of one minibatch through forward and backward
  /// with schedule-exact weight versions, accumulating the mean gradient.
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

  /// Evaluation helper: forward-only on the live weights.
  nn::LossResult evaluate(const nn::Flow& input, const tensor::Tensor& target,
                          const nn::LossHead& head) const;

  /// Technique 3 switches from Sync warmup to PipeMare mid-training.
  void set_method(Method m) { cfg_.method = m; }
  Method method() const { return cfg_.method; }

  /// Epoch-boundary dynamic repartitioning: swaps in a new unit -> stage
  /// assignment over the same weight units (checked by
  /// validate_repartition). Only call between minibatches. No weights,
  /// version history, or optimizer state move — committed versions are
  /// full flat vectors and the Schedule depends only on (P, N), so the
  /// migration is exactly the map each unit's staleness is read through.
  void repartition(const Partition& next);

  const Partition& partition() const { return partition_; }
  const Schedule& schedule() const { return schedule_; }
  const nn::Model& model() const { return model_; }
  const EngineConfig& config() const { return cfg_; }
  std::int64_t steps_taken() const { return store_.step(); }

  /// Mean forward delay per stage, (2(P-i)+1)/N — the tau vector T1 needs.
  std::vector<double> stage_tau_fwd() const { return stage_tau_fwd_vector(schedule_); }

  /// Per-stage optimizer segments with the given base LR and per-stage
  /// scale factors (from the T1 rescheduler). Scales may be empty (all 1).
  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const {
    return stage_lr_segments(partition_, base_lr, scales);
  }

  /// Module index ranges [first, last) of the recompute segments
  /// (empty when recomputation is disabled).
  const std::vector<std::pair<int, int>>& recompute_ranges() const { return segments_; }

 private:
  void assemble_forward_params(int micro, std::vector<float>& out) const;
  void assemble_backward_params(int micro, const std::vector<float>& fwd_params,
                                std::vector<float>& out) const;
  void assemble_recompute_params(int micro, int segment_end_stage,
                                 const std::vector<float>& fwd_params,
                                 std::vector<float>& out) const;

  const nn::Model& model_;
  EngineConfig cfg_;
  Partition partition_;
  Schedule schedule_;
  WeightVersions store_;
  std::vector<float> grads_;

  std::vector<std::pair<int, int>> segments_;  ///< recompute module ranges
};

}  // namespace pipemare::pipeline
