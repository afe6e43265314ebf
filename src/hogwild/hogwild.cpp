#include "src/hogwild/hogwild.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/pipeline/weight_versions.h"
#include "src/sched/task_graph_runner.h"

namespace pipemare::hogwild {

void validate_config(const HogwildConfig& cfg) {
  if (cfg.num_stages < 1) {
    throw std::invalid_argument("HogwildConfig: num_stages >= 1 required");
  }
  if (cfg.num_microbatches < 1) {
    throw std::invalid_argument("HogwildConfig: num_microbatches >= 1 required");
  }
  if (!std::isfinite(cfg.max_delay) || cfg.max_delay < 0.0) {
    throw std::invalid_argument("HogwildConfig: max_delay must be finite and >= 0");
  }
  if (!cfg.mean_delay.empty() &&
      static_cast<int>(cfg.mean_delay.size()) != cfg.num_stages) {
    throw std::invalid_argument("HogwildConfig: mean_delay size mismatch");
  }
  if (cfg.num_workers < 0 || cfg.num_workers > sched::kMaxWorkers) {
    throw std::invalid_argument("HogwildConfig: num_workers must be in [0, " +
                                std::to_string(sched::kMaxWorkers) + "]");
  }
}

std::vector<double> resolve_mean_delay(const HogwildConfig& cfg) {
  if (!cfg.mean_delay.empty()) return cfg.mean_delay;
  // Default profile: the pipeline's stage-dependent expectations
  // (2(P-i)+1)/N, as used in the paper's Appendix E experiments.
  std::vector<double> mean(static_cast<std::size_t>(cfg.num_stages));
  for (int s = 0; s < cfg.num_stages; ++s) {
    mean[static_cast<std::size_t>(s)] =
        static_cast<double>(2 * (cfg.num_stages - 1 - s) + 1) /
        static_cast<double>(cfg.num_microbatches);
  }
  return mean;
}

HogwildConfig from_engine_config(const pipeline::EngineConfig& engine,
                                 double max_delay, int num_workers,
                                 std::vector<double> mean_delay) {
  HogwildConfig hw;
  hw.num_stages = engine.num_stages;
  hw.num_microbatches = engine.num_microbatches;
  hw.split_bias = engine.split_bias;
  hw.partition = engine.partition;
  hw.max_delay = max_delay;
  hw.mean_delay = std::move(mean_delay);
  hw.num_workers = num_workers;
  return hw;
}

HogwildEngine::HogwildEngine(const nn::Model& model, HogwildConfig cfg, std::uint64_t seed)
    : model_(model),
      cfg_(std::move(cfg)),
      partition_((validate_config(cfg_),
                  pipeline::make_partition(model, cfg_.num_stages, cfg_.split_bias,
                                           cfg_.partition))),
      mean_delay_(resolve_mean_delay(cfg_)),
      delay_rng_(seed ^ 0x9e3779b97f4a7c15ULL) {
  // The probe microbatch is consumed by make_partition above; don't keep
  // its tensors alive for the whole engine lifetime.
  cfg_.partition.probe.reset();
  live_.assign(static_cast<std::size_t>(model.param_count()), 0.0F);
  util::Rng init_rng(seed);
  model_.init_params(live_, init_rng);
  grads_.assign(live_.size(), 0.0F);
  history_depth_ = static_cast<int>(std::ceil(cfg_.max_delay)) + 2;
  history_.assign(static_cast<std::size_t>(history_depth_), {});
  history_[0] = live_;
  staleness_ = pipeline::staleness_histograms(cfg_.num_stages);
}

HogwildEngine::StepResult HogwildEngine::forward_backward(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head) {
  auto n = static_cast<int>(micro_inputs.size());
  if (n == 0 || micro_targets.size() != micro_inputs.size()) {
    throw std::invalid_argument("HogwildEngine: bad microbatch vectors");
  }
  std::fill(grads_.begin(), grads_.end(), 0.0F);
  StepResult result;
  std::span<const float> w = delayed_weights();

  auto caches = model_.make_caches();
  for (int micro = 0; micro < n; ++micro) {
    nn::Flow input = micro_inputs[static_cast<std::size_t>(micro)];
    input.training = true;
    input.micro = micro;
    input.step = step_;
    nn::Flow out = model_.forward(std::move(input), w, caches);
    auto lr = head.forward_backward(out.x, micro_targets[static_cast<std::size_t>(micro)]);
    if (!std::isfinite(lr.loss)) {
      // Unified non-finite contract (see pipeline::StepResult): first
      // non-finite loss, zeroed metrics, gradients unspecified.
      result.finite = false;
      result.loss = lr.loss;
      result.correct = 0.0;
      result.count = 0.0;
      return result;
    }
    result.loss += lr.loss / n;
    result.correct += lr.correct;
    result.count += lr.count;
    nn::Flow dflow;
    dflow.x = lr.doutput;
    (void)model_.backward(std::move(dflow), w, caches, grads_);
  }
  auto inv_n = 1.0F / static_cast<float>(n);
  for (float& g : grads_) {
    g *= inv_n;
    if (!std::isfinite(g)) result.finite = false;
  }
  return result;
}

std::span<const float> HogwildEngine::delayed_weights() {
  if (method_ == pipeline::Method::Sync) return live_;
  // One delay per stage unit per optimizer step; both the forward and
  // backward passes of a stage read the same delayed version (eq. 17).
  view_.resize(live_.size());
  for (int u = 0; u < partition_.num_units(); ++u) {
    const nn::WeightUnit& unit = partition_.units[static_cast<std::size_t>(u)];
    int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
    double mean = mean_delay_[static_cast<std::size_t>(stage)];
    auto delay = static_cast<std::int64_t>(
        std::llround(delay_rng_.truncated_exponential(mean, cfg_.max_delay)));
    std::int64_t v = std::max<std::int64_t>(0, step_ - delay);
    // Observed tau: the delay as actually experienced (clamped while
    // step_ < delay), per unit — matching WeightVersions' recording.
    staleness_[static_cast<std::size_t>(stage)]->observe(static_cast<double>(step_ - v));
    const auto& src = history_[static_cast<std::size_t>(v % history_depth_)];
    std::copy(src.begin() + unit.offset, src.begin() + unit.offset + unit.size,
              view_.begin() + unit.offset);
  }
  return view_;
}

void HogwildEngine::commit_update() {
  ++step_;
  history_[static_cast<std::size_t>(step_ % history_depth_)] = live_;
}

std::vector<optim::LrSegment> HogwildEngine::lr_segments(
    double base_lr, std::span<const double> scales) const {
  return pipeline::stage_lr_segments(partition_, base_lr, scales);
}

}  // namespace pipemare::hogwild
