#include "src/hogwild/threaded_hogwild.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/trace.h"

namespace pipemare::hogwild {

ThreadedHogwildEngine::ThreadedHogwildEngine(const nn::Model& model, HogwildConfig cfg,
                                             std::uint64_t seed)
    : core_(model, cfg, seed) {
  for (int m = 0; m < model.num_modules(); ++m) {
    if (model.module(m).stateful_forward()) {
      throw std::invalid_argument(
          "ThreadedHogwildEngine: module '" + model.module(m).name() +
          "' mutates state in forward (stateful_forward); concurrent "
          "microbatches would race on it. Use the 'hogwild' backend "
          "or the stage-partitioned 'threaded' backend instead.");
    }
  }
  const int w = sched::resolve_workers(cfg.num_workers, cfg.num_microbatches);
  caches_.resize(static_cast<std::size_t>(w));
  for (auto& c : caches_) c = model.make_caches();
  // One queue per worker; every queue is a steal victim.
  runner_ = std::make_unique<sched::TaskGraphRunner>(
      w, w, sched::StealMode::LoadAware,
      [this](int worker, const sched::Task& task) { run_micro(worker, task.micro); });
  std::vector<int> victims(static_cast<std::size_t>(w));
  std::iota(victims.begin(), victims.end(), 0);
  runner_->set_victim_order(victims);
}

void ThreadedHogwildEngine::run_micro(int worker, int micro) {
  const auto idx = static_cast<std::size_t>(micro);
  MicroSlot& slot = slots_[idx];
  std::vector<nn::Cache>& caches = caches_[static_cast<std::size_t>(worker)];
  obs::Span span("micro", "hogwild", -1, micro, core_.step());
  try {
    nn::Flow input = (*mb_inputs_)[idx];
    input.training = true;
    input.micro = micro;
    input.step = core_.step();
    nn::Flow out = core_.model().forward(std::move(input), view_, caches);
    auto lr = mb_head_->forward_backward(out.x, (*mb_targets_)[idx]);
    slot.loss = lr.loss;
    slot.correct = lr.correct;
    slot.count = lr.count;
    if (!std::isfinite(lr.loss)) return;  // gradients unspecified past here
    slot.grads.assign(view_.size(), 0.0F);
    nn::Flow dflow;
    dflow.x = std::move(lr.doutput);
    (void)core_.model().backward(std::move(dflow), view_, caches, slot.grads);
  } catch (...) {
    slot.error = std::current_exception();
  }
}

ThreadedHogwildEngine::StepResult ThreadedHogwildEngine::forward_backward(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head) {
  auto n = static_cast<int>(micro_inputs.size());
  if (n == 0 || micro_targets.size() != micro_inputs.size()) {
    throw std::invalid_argument("ThreadedHogwildEngine: bad microbatch vectors");
  }
  slots_.resize(static_cast<std::size_t>(n));
  for (MicroSlot& slot : slots_) slot.error = nullptr;

  mb_inputs_ = &micro_inputs;
  mb_targets_ = &micro_targets;
  mb_head_ = &head;
  view_ = core_.delayed_weights();
  const int w = runner_->num_workers();
  for (int m = 0; m < n; ++m) runner_->push({sched::Task::Kind::Forward, m % w, m});
  runner_->run_generation(n, core_.step());
  mb_inputs_ = nullptr;
  mb_targets_ = nullptr;
  mb_head_ = nullptr;
  for (const MicroSlot& slot : slots_) {
    if (!slot.error) continue;
    try {
      std::rethrow_exception(slot.error);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("ThreadedHogwildEngine worker failed: ") +
                               e.what());
    }
  }

  // Deterministic merge in microbatch order, matching the sequential
  // engine's accumulation (and the unified non-finite contract).
  StepResult result;
  for (const MicroSlot& slot : slots_) {
    if (!std::isfinite(slot.loss)) {
      result.finite = false;
      result.loss = slot.loss;
      result.correct = 0.0;
      result.count = 0.0;
      return result;
    }
    result.loss += slot.loss / n;
    result.correct += slot.correct;
    result.count += slot.count;
  }
  std::span<float> grads = core_.gradients();
  std::fill(grads.begin(), grads.end(), 0.0F);
  for (const MicroSlot& slot : slots_) {
    for (std::size_t i = 0; i < grads.size(); ++i) grads[i] += slot.grads[i];
  }
  auto inv_n = 1.0F / static_cast<float>(n);
  for (float& g : grads) {
    g *= inv_n;
    if (!std::isfinite(g)) result.finite = false;
  }
  return result;
}

}  // namespace pipemare::hogwild
