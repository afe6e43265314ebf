#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/nn/heads.h"
#include "src/nn/model.h"
#include "src/obs/metrics.h"
#include "src/optim/optimizer.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/util/rng.h"

namespace pipemare::hogwild {

/// Hogwild!-style stochastic asynchrony (Appendix E): each stage's
/// gradient is computed entirely on a *randomly* delayed weight version,
///   w_{i,t+1} = w_{i,t} - alpha [grad f_{t - tau_i}(w_{t - tau_i})]_i,
/// with tau_i drawn per step from a truncated exponential distribution
/// (the maximum-entropy delay model of Mitliagkas et al.). Stages have
/// different delay expectations, mirroring the pipeline's stage-dependent
/// delay profile.
struct HogwildConfig {
  int num_stages = 1;
  int num_microbatches = 1;
  bool split_bias = false;
  pipeline::PartitionSpec partition;    ///< stage-partitioning strategy
  double max_delay = 16.0;              ///< truncation bound (>= 0)
  std::vector<double> mean_delay;       ///< per-stage expectation; empty =>
                                        ///< PipeMare-profile (2(P-i)+1)/N
  int num_workers = 0;                  ///< threaded backend only: worker
                                        ///< threads; 0 = min(cores, N)
};

/// Validates a HogwildConfig the way the pipeline engines validate theirs:
/// num_stages >= 1, num_microbatches >= 1, max_delay finite and >= 0,
/// mean_delay empty or of size num_stages, 0 <= num_workers <=
/// sched::kMaxWorkers (src/sched/task_graph_runner.h).
/// Throws std::invalid_argument. HogwildEngine's constructor runs it (so
/// ThreadedHogwildEngine does, through its core), as do the registry's
/// validate hooks.
void validate_config(const HogwildConfig& cfg);

/// The per-stage delay expectations the config implies: `mean_delay` when
/// given, otherwise the pipeline profile (2(P-i)+1)/N of Appendix E.
/// Assumes a validated config.
std::vector<double> resolve_mean_delay(const HogwildConfig& cfg);

/// Builds a HogwildConfig from the shared pipeline EngineConfig (stages /
/// microbatches / split_bias) plus the Hogwild-specific knobs. This is the
/// single translation point the BackendRegistry factories use — previously
/// the fields were hand-copied inside core::train. Pair with
/// validate_config, the single validation path for both Hogwild engines.
HogwildConfig from_engine_config(const pipeline::EngineConfig& engine,
                                 double max_delay, int num_workers,
                                 std::vector<double> mean_delay = {});

/// Drop-in execution engine with the same surface the core::train_loop
/// template expects, so Hogwild training reuses the full T1 trainer.
/// Registered with the core::BackendRegistry as "hogwild".
class HogwildEngine {
 public:
  HogwildEngine(const nn::Model& model, HogwildConfig cfg, std::uint64_t seed);

  using StepResult = pipeline::PipelineEngine::StepResult;

  StepResult forward_backward(const std::vector<nn::Flow>& micro_inputs,
                              const std::vector<tensor::Tensor>& micro_targets,
                              const nn::LossHead& head);

  /// Draws this step's per-unit delays (recording them in the staleness
  /// histograms) and returns the delayed weight view every microbatch of
  /// the step reads. Under Sync it is the live weights. Call once per
  /// step, before any read; the view stays valid until the next call or
  /// commit_update().
  std::span<const float> delayed_weights();

  std::span<float> weights() { return live_; }
  std::span<const float> weights() const { return live_; }
  std::span<float> gradients() { return grads_; }
  void commit_update();
  /// Committed updates so far (the version the live weights carry).
  std::int64_t step() const { return step_; }

  /// Sync disables the random delays (used for T3 warmup comparisons).
  void set_method(pipeline::Method m) { method_ = m; }
  pipeline::Method method() const { return method_; }

  const nn::Model& model() const { return model_; }
  const pipeline::Partition& partition() const { return partition_; }

  /// Per-stage delay expectations (what T1 divides by).
  std::vector<double> stage_tau_fwd() const { return mean_delay_; }

  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const;

 private:
  const nn::Model& model_;
  HogwildConfig cfg_;
  pipeline::Partition partition_;
  pipeline::Method method_ = pipeline::Method::PipeMare;
  std::vector<double> mean_delay_;

  std::int64_t step_ = 0;
  int history_depth_ = 1;
  std::vector<std::vector<float>> history_;
  std::vector<float> live_;
  std::vector<float> view_;  ///< delayed_weights() buffer, reused every step
  std::vector<float> grads_;
  util::Rng delay_rng_;
  /// "train.staleness.stage<k>": observed sampled delay per stage — the
  /// same metric family every other backend records through
  /// pipeline::staleness_histograms (registry-owned pointers).
  std::vector<obs::Histogram*> staleness_;
};

}  // namespace pipemare::hogwild
