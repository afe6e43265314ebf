#include "src/hogwild/threaded_hogwild.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/obs/trace.h"
#include "src/pipeline/weight_versions.h"
#include "src/util/stats.h"

namespace pipemare::hogwild {

namespace {

using Clock = std::chrono::steady_clock;
using util::ns_between;

}  // namespace

ThreadedHogwildEngine::ThreadedHogwildEngine(const nn::Model& model, HogwildConfig cfg,
                                             std::uint64_t seed)
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
  for (int m = 0; m < model_.num_modules(); ++m) {
    if (model_.module(m).stateful_forward()) {
      throw std::invalid_argument(
          "ThreadedHogwildEngine: module '" + model_.module(m).name() +
          "' mutates state in forward (stateful_forward); concurrent "
          "whole-model replicas would race on it. Use the 'hogwild' backend "
          "or the stage-partitioned 'threaded' backend instead.");
    }
  }

  live_.assign(static_cast<std::size_t>(model.param_count()), 0.0F);
  util::Rng init_rng(seed);
  model_.init_params(live_, init_rng);
  grads_.assign(live_.size(), 0.0F);
  history_depth_ = static_cast<int>(std::ceil(cfg_.max_delay)) + 2;
  history_.assign(static_cast<std::size_t>(history_depth_), {});
  history_[0] = live_;
  unit_version_.assign(static_cast<std::size_t>(partition_.num_units()), 0);
  staleness_ = pipeline::staleness_histograms(cfg_.num_stages);

  const int w = sched::resolve_workers(cfg_.num_workers, cfg_.num_microbatches);
  stats_.assign(static_cast<std::size_t>(w), pipeline::StageStats{});
  scratch_.assign(static_cast<std::size_t>(w), std::vector<float>(live_.size()));

  // Spawn last: drain() touches every field above.
  pool_ = std::make_unique<sched::WorkerPool>(w, [this](int worker) { drain(worker); });
}

ThreadedHogwildEngine::~ThreadedHogwildEngine() = default;

void ThreadedHogwildEngine::record_failure(const char* what) {
  bool expected = false;
  if (mb_failed_.compare_exchange_strong(expected, true)) {
    util::MutexLock lock(error_m_);
    mb_error_ = what;
  }
}

void ThreadedHogwildEngine::assemble_delayed_weights(std::vector<float>& w) const {
  if (method_ == pipeline::Method::Sync) {
    std::copy(live_.begin(), live_.end(), w.begin());
    return;
  }
  for (int u = 0; u < partition_.num_units(); ++u) {
    const nn::WeightUnit& unit = partition_.units[static_cast<std::size_t>(u)];
    std::int64_t v = unit_version_[static_cast<std::size_t>(u)];
    const auto slot = static_cast<std::size_t>(v % history_depth_);
    // Seqlock read: retry until the copy happened entirely inside one
    // stable (even) epoch. Commits are barrier-ordered before worker
    // reads today, so this never spins and the barrier (not the epoch)
    // provides the happens-before; a true free-running mode must also
    // make the slot bytes themselves race-free (see the class comment).
    for (;;) {
      std::uint64_t e1 = epoch_.load(std::memory_order_acquire);
      if (e1 & 1U) continue;  // writer active
      const auto& src = history_[slot];
      std::copy(src.begin() + unit.offset, src.begin() + unit.offset + unit.size,
                w.begin() + unit.offset);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (epoch_.load(std::memory_order_relaxed) == e1) break;
    }
  }
}

void ThreadedHogwildEngine::process_micro(int micro, std::vector<float>& w,
                                          bool& w_ready) {
  if (mb_failed_.load(std::memory_order_relaxed)) return;
  try {
    if (!w_ready) {
      // One delayed-weight view per worker per step: every worker builds
      // the identical bytes (the trainer thread sampled the versions), so
      // microbatch->worker assignment cannot change any result.
      assemble_delayed_weights(w);
      w_ready = true;
    }
    auto idx = static_cast<std::size_t>(micro);
    nn::Flow input = (*mb_inputs_)[idx];
    input.training = true;
    input.micro = micro;
    input.step = step_;
    nn::Flow out = model_.forward(std::move(input), w, caches_[idx]);
    auto lr = mb_head_->forward_backward(out.x, (*mb_targets_)[idx]);
    micro_loss_[idx] = lr.loss;
    micro_correct_[idx] = lr.correct;
    micro_count_[idx] = lr.count;
    if (!std::isfinite(lr.loss)) return;  // gradients unspecified past here
    std::vector<float>& g = micro_grads_[idx];
    g.assign(live_.size(), 0.0F);
    nn::Flow dflow;
    dflow.x = std::move(lr.doutput);
    (void)model_.backward(std::move(dflow), w, caches_[idx], g);
  } catch (const std::exception& e) {
    record_failure(e.what());
  }
}

void ThreadedHogwildEngine::drain(int worker) {
  std::vector<float>& w = scratch_[static_cast<std::size_t>(worker)];
  pipeline::StageStats& stats = stats_[static_cast<std::size_t>(worker)];
  bool w_ready = false;
  for (;;) {
    const int micro = next_micro_.fetch_add(1, std::memory_order_relaxed);
    if (micro >= mb_size_) return;
    auto t0 = Clock::now();
    {
      obs::Span span("micro", "hogwild", -1, micro, step_);
      process_micro(micro, w, w_ready);
    }
    stats.busy_ns += ns_between(t0, Clock::now());
    ++stats.items;
  }
}

ThreadedHogwildEngine::StepResult ThreadedHogwildEngine::forward_backward(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head) {
  auto n = static_cast<int>(micro_inputs.size());
  if (n == 0 || micro_targets.size() != micro_inputs.size()) {
    throw std::invalid_argument("ThreadedHogwildEngine: bad microbatch vectors");
  }
  auto un = static_cast<std::size_t>(n);
  micro_loss_.assign(un, 0.0);
  micro_correct_.assign(un, 0.0);
  micro_count_.assign(un, 0.0);
  if (micro_grads_.size() < un) micro_grads_.resize(un);
  if (caches_.size() < un) caches_.resize(un);
  for (auto& c : caches_) {
    if (static_cast<int>(c.size()) != model_.num_modules()) c = model_.make_caches();
  }

  // Sample this step's per-unit weight versions on the trainer thread —
  // the same draws, in the same order, as HogwildEngine (eq. 17: a
  // stage's forward and backward share one delayed version).
  if (method_ != pipeline::Method::Sync) {
    for (int u = 0; u < partition_.num_units(); ++u) {
      int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
      double mean = mean_delay_[static_cast<std::size_t>(stage)];
      auto delay = static_cast<std::int64_t>(
          std::llround(delay_rng_.truncated_exponential(mean, cfg_.max_delay)));
      std::int64_t v = std::max<std::int64_t>(0, step_ - delay);
      unit_version_[static_cast<std::size_t>(u)] = v;
      // Observed tau, clamped while step_ < delay — same recording point
      // as HogwildEngine so the two backends' histograms are comparable.
      staleness_[static_cast<std::size_t>(stage)]->observe(
          static_cast<double>(step_ - v));
    }
  }

  mb_inputs_ = &micro_inputs;
  mb_targets_ = &micro_targets;
  mb_head_ = &head;
  mb_size_ = n;
  next_micro_.store(0, std::memory_order_relaxed);
  mb_failed_.store(false);
  {
    util::MutexLock lock(error_m_);
    mb_error_.clear();
  }
  pool_->run_generation();
  mb_inputs_ = nullptr;
  mb_targets_ = nullptr;
  mb_head_ = nullptr;
  if (mb_failed_.load()) {
    util::MutexLock lock(error_m_);
    throw std::runtime_error("ThreadedHogwildEngine worker failed: " + mb_error_);
  }

  // Deterministic merge in microbatch order, matching the sequential
  // engine's accumulation (and the unified non-finite contract).
  StepResult result;
  for (int m = 0; m < n; ++m) {
    double loss = micro_loss_[static_cast<std::size_t>(m)];
    if (!std::isfinite(loss)) {
      result.finite = false;
      result.loss = loss;
      result.correct = 0.0;
      result.count = 0.0;
      return result;
    }
    result.loss += loss / n;
    result.correct += micro_correct_[static_cast<std::size_t>(m)];
    result.count += micro_count_[static_cast<std::size_t>(m)];
  }
  std::fill(grads_.begin(), grads_.end(), 0.0F);
  for (int m = 0; m < n; ++m) {
    const std::vector<float>& g = micro_grads_[static_cast<std::size_t>(m)];
    for (std::size_t i = 0; i < grads_.size(); ++i) grads_[i] += g[i];
  }
  auto inv_n = 1.0F / static_cast<float>(n);
  for (float& g : grads_) {
    g *= inv_n;
    if (!std::isfinite(g)) result.finite = false;
  }
  return result;
}

void ThreadedHogwildEngine::commit_update() {
  ++step_;
  // Seqlock write: odd epoch while the ring slot is inconsistent.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  history_[static_cast<std::size_t>(step_ % history_depth_)] = live_;
  epoch_.fetch_add(1, std::memory_order_release);
}

std::vector<optim::LrSegment> ThreadedHogwildEngine::lr_segments(
    double base_lr, std::span<const double> scales) const {
  return pipeline::stage_lr_segments(partition_, base_lr, scales);
}

}  // namespace pipemare::hogwild
