#include "src/sched/stealing_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/obs/trace.h"
#include "src/pipeline/cost_model.h"
#include "src/pipeline/repartition.h"

namespace pipemare::sched {

namespace {

/// Predicted per-stage busy shares for the StealPolicy seed. A balanced
/// partition already carries cost-model stage costs; a uniform partition's
/// stage_cost counts units (exactly the assumption the cost model
/// corrects), so re-profile through the cost model — analytic fallback
/// when the spec has no probe microbatch.
std::vector<double> predicted_stage_costs(const nn::Model& model,
                                          const pipeline::Partition& partition,
                                          pipeline::PartitionSpec spec) {
  if (partition.strategy == pipeline::PartitionStrategy::Balanced) {
    return partition.stage_cost;
  }
  if (!spec.probe) spec.measured = false;
  auto unit = pipeline::profile_unit_costs(model, partition.units, spec);
  std::vector<double> stage(static_cast<std::size_t>(partition.num_stages), 0.0);
  for (std::size_t u = 0; u < unit.size(); ++u) {
    stage[static_cast<std::size_t>(partition.unit_stage[u])] += unit[u];
  }
  return stage;
}

/// Disabled never reads the victim ranking, so it skips the cost profiling
/// (a measured spec would otherwise time every module at construction).
StealPolicy make_policy(StealMode mode, const nn::Model& model,
                        const pipeline::Partition& partition,
                        const pipeline::PartitionSpec& spec) {
  if (mode == StealMode::Disabled) return StealPolicy(mode, {});
  return StealPolicy(mode, predicted_stage_costs(model, partition, spec));
}

}  // namespace

StealingEngine::StealingEngine(const nn::Model& model, StealConfig cfg,
                               std::uint64_t seed)
    : model_(model),
      cfg_(std::move(cfg)),
      partition_(pipeline::make_partition(model, cfg_.engine.num_stages,
                                          cfg_.engine.split_bias,
                                          cfg_.engine.partition)),
      schedule_(cfg_.engine.num_stages, cfg_.engine.num_microbatches),
      store_(model, cfg_.engine, partition_, schedule_, seed),
      policy_(make_policy(cfg_.mode, model, partition_, cfg_.engine.partition)) {
  if (cfg_.engine.recompute_segments > 0) {
    throw std::invalid_argument(
        "StealingEngine: activation recomputation is modelled only by the "
        "analytic PipelineEngine; set recompute_segments = 0");
  }
  // The probe microbatch is consumed by make_partition / the policy seed
  // above; don't keep its tensors alive for the whole engine lifetime.
  cfg_.engine.partition.probe.reset();
  grads_.assign(store_.live().size(), 0.0F);

  // Stage -> module/unit ranges.
  ranges_ = pipeline::stage_module_ranges(partition_);

  const int p = cfg_.engine.num_stages;
  const int n = cfg_.engine.num_microbatches;
  caches_.resize(static_cast<std::size_t>(n));
  for (auto& c : caches_) c = model_.make_caches();
  fwd_flow_.resize(static_cast<std::size_t>(n));
  bwd_flow_.resize(static_cast<std::size_t>(n));
  micro_loss_.assign(static_cast<std::size_t>(n), 0.0);
  micro_correct_.assign(static_cast<std::size_t>(n), 0.0);
  micro_count_.assign(static_cast<std::size_t>(n), 0.0);
  next_bwd_.assign(static_cast<std::size_t>(p), 0);
  bwd_ready_.assign(static_cast<std::size_t>(p) * static_cast<std::size_t>(n), 0);
  stage_end_.resize(static_cast<std::size_t>(p));
  const int w = resolve_workers(cfg_.workers, p);
  scratch_.resize(static_cast<std::size_t>(w));

  // Spawn last: the workers run execute(), which touches every field above.
  runner_ = std::make_unique<TaskGraphRunner>(
      p, w, cfg_.mode, [this](int worker, const Task& task) { execute(worker, task); });
}

StealingEngine::~StealingEngine() = default;

void StealingEngine::repartition(const pipeline::Partition& next) {
  pipeline::validate_repartition(partition_, next);
  // Quiescent point: between minibatches the workers are parked on the
  // pool barrier; the next generation's release barrier publishes the new
  // ranges / staleness map / victim order. Stage count is unchanged, so
  // the runner's per-stage queues, counters and home mapping stay valid.
  partition_ = next;
  store_.refresh();
  ranges_ = pipeline::stage_module_ranges(partition_);
  // Reseed the victim ranking from the new split's predicted stage costs
  // (the probe was dropped after construction; the analytic fallback is
  // fine — a migrated partition carries observed-cost stage totals).
  policy_ = make_policy(cfg_.mode, model_, partition_, cfg_.engine.partition);
}

void StealingEngine::record_failure(const char* what) {
  bool expected = false;
  if (mb_failed_.compare_exchange_strong(expected, true)) {
    util::MutexLock lock(gate_m_);
    mb_error_ = what;
  }
}

std::span<float> StealingEngine::stage_gradients(const StageRange& r) {
  const auto [lo, hi] = pipeline::unit_param_bounds(partition_, r.unit_first, r.unit_last);
  return std::span<float>(grads_).subspan(static_cast<std::size_t>(lo),
                                          static_cast<std::size_t>(hi - lo));
}

void StealingEngine::mark_backward_ready(int stage, int micro) {
  const int n = cfg_.engine.num_microbatches;
  bool head = false;
  {
    util::MutexLock lock(gate_m_);
    bwd_ready_[static_cast<std::size_t>(stage) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(micro)] = 1;
    // Push only at the chain head; Backward(stage, micro) with an
    // uncompleted predecessor is pushed by that predecessor's chain
    // advance instead. Both checks run under gate_m_, so exactly one path
    // fires.
    head = next_bwd_[static_cast<std::size_t>(stage)] == micro;
  }
  if (head) runner_->push({Task::Kind::Backward, stage, micro});
}

void StealingEngine::execute(int worker, const Task& task) {
  {
    obs::Span span(task.kind == Task::Kind::Forward ? "fwd" : "bwd", "sched",
                   task.stage, task.micro, store_.step());
    std::vector<float>& w = scratch_[static_cast<std::size_t>(worker)];
    if (task.kind == Task::Kind::Forward) {
      run_forward(task, w);
    } else {
      run_backward(task, w);
    }
  }
  // The stage's update runs after run_backward pushed Backward(s-1, N-1)
  // and the chain successor, so it overlaps the lower stages' backward
  // passes instead of delaying them. It is the stage's work, so it counts
  // toward the stage's busy time.
  if (mb_update_ != nullptr && task.kind == Task::Kind::Backward &&
      task.micro == cfg_.engine.num_microbatches - 1) {
    update_stage(task.stage);
  }
}

void StealingEngine::run_forward(const Task& task, std::vector<float>& w) {
  const int s = task.stage;
  const int m = task.micro;
  const StageRange& r = ranges_[static_cast<std::size_t>(s)];
  const bool last = s == cfg_.engine.num_stages - 1;
  nn::Flow in = std::move(fwd_flow_[static_cast<std::size_t>(m)]);
  nn::Flow out;
  if (!mb_failed_.load(std::memory_order_relaxed)) {
    try {
      out = model_.forward_range(r.module_first, r.module_last, std::move(in),
                                 store_.forward_view(r.unit_first, r.unit_last, m, w),
                                 caches_[static_cast<std::size_t>(m)]);
    } catch (const std::exception& e) {
      record_failure(e.what());
    }
  }
  if (!last) {
    fwd_flow_[static_cast<std::size_t>(m)] = std::move(out);
    runner_->push({Task::Kind::Forward, s + 1, m});
    return;
  }
  // Tail stage: loss into this microbatch's slot (slots are merged in
  // microbatch order after the barrier, replaying the sequential sum even
  // when tail forwards complete out of order), then hand the output
  // gradient to the stage's backward chain.
  nn::Flow dflow;
  if (!mb_failed_.load(std::memory_order_relaxed)) {
    try {
      nn::LossResult lr = mb_head_->forward_backward(
          out.x, (*mb_targets_)[static_cast<std::size_t>(m)]);
      micro_loss_[static_cast<std::size_t>(m)] = lr.loss;
      micro_correct_[static_cast<std::size_t>(m)] = lr.correct;
      micro_count_[static_cast<std::size_t>(m)] = lr.count;
      dflow.x = std::move(lr.doutput);
    } catch (const std::exception& e) {
      record_failure(e.what());
    }
  }
  bwd_flow_[static_cast<std::size_t>(m)] = std::move(dflow);
  mark_backward_ready(s, m);
}

void StealingEngine::run_backward(const Task& task, std::vector<float>& w) {
  const int s = task.stage;
  const int m = task.micro;
  const int n = cfg_.engine.num_microbatches;
  const StageRange& r = ranges_[static_cast<std::size_t>(s)];
  nn::Flow dflow = std::move(bwd_flow_[static_cast<std::size_t>(m)]);
  nn::Flow din;
  if (!mb_failed_.load(std::memory_order_relaxed)) {
    try {
      // The stage's gradient sweeps run here, not on the trainer thread:
      // the backward chain orders Backward(s, 0) before every other
      // accumulation into the slice and Backward(s, N-1) after it.
      std::span<float> g = stage_gradients(r);
      if (m == 0) std::fill(g.begin(), g.end(), 0.0F);
      din = model_.backward_range(r.module_first, r.module_last, std::move(dflow),
                                  store_.backward_view(r.unit_first, r.unit_last, m, w),
                                  caches_[static_cast<std::size_t>(m)], grads_);
      if (m == n - 1) {
        // Same normalization and finiteness sweep as the sequential engine.
        auto inv_n = 1.0F / static_cast<float>(n);
        bool finite = true;
        for (float& x : g) {
          x *= inv_n;
          if (!std::isfinite(x)) finite = false;
        }
        stage_end_[static_cast<std::size_t>(s)].grads_finite = finite ? 1 : 0;
      }
    } catch (const std::exception& e) {
      record_failure(e.what());
    }
  }
  if (mb_update_ != nullptr && m == n - 1 && s == cfg_.engine.num_stages - 1) {
    // Every microbatch loss is in its slot now (each tail forward fed this
    // chain). Decide once, before any lower stage can reach its update.
    update_go_ = !mb_failed_.load(std::memory_order_relaxed) &&
                 !pipeline::diverged(merged_result(false), mb_update_->divergence_loss);
  }
  if (s > 0) {
    // The flow slot is written before the task is pushed; the TaskQueue
    // mutex orders it for the worker that pops the task.
    bwd_flow_[static_cast<std::size_t>(m)] = std::move(din);
    mark_backward_ready(s - 1, m);
  }
  // Advance this stage's backward chain: the successor was parked if its
  // gradient arrived while we were running.
  bool successor_ready = false;
  {
    util::MutexLock lock(gate_m_);
    next_bwd_[static_cast<std::size_t>(s)] = m + 1;
    successor_ready =
        m + 1 < n &&
        bwd_ready_[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(m) + 1] != 0;
  }
  if (successor_ready) runner_->push({Task::Kind::Backward, s, m + 1});
}

void StealingEngine::update_stage(int s) {
  const StageRange& r = ranges_[static_cast<std::size_t>(s)];
  if (r.unit_first == r.unit_last || !update_go_ ||
      stage_end_[static_cast<std::size_t>(s)].grads_finite == 0 ||
      mb_failed_.load(std::memory_order_relaxed)) {
    return;
  }
  obs::Span span("update", "sched", s, -1, store_.step());
  stage_end_[static_cast<std::size_t>(s)].stepped = 1;
  try {
    // Step the stage's execution range (module ownership), not its LR
    // segment: unit_stage may place a unit of this stage's modules in the
    // next stage's segment, whose gradient is final only here. Each weight
    // takes the LR of the segment holding it.
    const auto [lo, hi] = pipeline::unit_param_bounds(partition_, r.unit_first, r.unit_last);
    for (const optim::LrSegment& seg : mb_update_->segments) {
      const std::int64_t a = std::max(lo, seg.offset);
      const std::int64_t b = std::min(hi, seg.offset + seg.size);
      if (a < b) mb_update_->opt.step_range(store_.live(), grads_, {a, b - a, seg.lr});
    }
    store_.commit_units(r.unit_first, r.unit_last);
  } catch (const std::exception& e) {
    record_failure(e.what());
  }
}

void StealingEngine::run_minibatch(const std::vector<nn::Flow>& micro_inputs,
                                   const std::vector<tensor::Tensor>& micro_targets,
                                   const nn::LossHead& head,
                                   const pipeline::StepUpdate* update) {
  const int n = cfg_.engine.num_microbatches;
  const int p = cfg_.engine.num_stages;
  if (static_cast<int>(micro_inputs.size()) != n ||
      static_cast<int>(micro_targets.size()) != n) {
    throw std::invalid_argument("forward_backward: expected N microbatches");
  }
  std::fill(micro_loss_.begin(), micro_loss_.end(), 0.0);
  std::fill(micro_correct_.begin(), micro_correct_.end(), 0.0);
  std::fill(micro_count_.begin(), micro_count_.end(), 0.0);
  for (int m = 0; m < n; ++m) {
    nn::Flow in = micro_inputs[static_cast<std::size_t>(m)];
    in.training = true;
    in.micro = m;
    in.step = store_.step();
    fwd_flow_[static_cast<std::size_t>(m)] = std::move(in);
    bwd_flow_[static_cast<std::size_t>(m)] = nn::Flow{};
  }
  mb_targets_ = &micro_targets;
  mb_head_ = &head;
  mb_failed_.store(false);
  mb_update_ = update;
  update_go_ = false;
  for (StageEnd& end : stage_end_) end.stepped = 0;
  if (update != nullptr) {
    // Sized here, on the trainer thread: the workers only fill them.
    update->opt.begin_step(store_.live().size());
    store_.begin_commit();
  }

  // LoadAware victim re-ranking from the cumulative busy counters (no-op
  // in the other modes; the first minibatch keeps the cost-model seed).
  std::vector<std::uint64_t> busy;
  for (const StageStats& st : runner_->stage_stats()) busy.push_back(st.busy_ns);
  policy_.refresh(busy);
  runner_->set_victim_order(policy_.victim_order());

  {
    // Workers are parked in the pool barrier here, so taking gate_m_ is
    // uncontended — and lets the analysis prove the per-minibatch resets
    // of the gating state never race a straggler.
    util::MutexLock lock(gate_m_);
    std::fill(next_bwd_.begin(), next_bwd_.end(), 0);
    std::fill(bwd_ready_.begin(), bwd_ready_.end(), 0);
    mb_error_.clear();
  }
  for (int m = 0; m < n; ++m) runner_->push({Task::Kind::Forward, 0, m});
  runner_->run_generation(std::int64_t{2} * n * p, store_.step());
  mb_targets_ = nullptr;
  mb_head_ = nullptr;
  mb_update_ = nullptr;
}

void StealingEngine::rethrow_failure() {
  if (mb_failed_.load()) {
    util::MutexLock lock(gate_m_);
    throw std::runtime_error("StealingEngine worker failed: " + mb_error_);
  }
}

StealingEngine::StepResult StealingEngine::merged_result(bool with_gradients) const {
  // Ordered merge of the per-microbatch slots: bitwise-identical to the
  // sequential engine's in-order accumulation (and the unified non-finite
  // StepResult contract: first non-finite loss in microbatch order,
  // zeroed metrics, gradients unspecified).
  const int n = cfg_.engine.num_microbatches;
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
  // The workers already normalized each stage's gradient slice.
  if (with_gradients) {
    for (const StageEnd& end : stage_end_) {
      if (end.grads_finite == 0) result.finite = false;
    }
  }
  return result;
}

StealingEngine::StepResult StealingEngine::forward_backward(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head) {
  run_minibatch(micro_inputs, micro_targets, head, nullptr);
  rethrow_failure();
  return merged_result(true);
}

StealingEngine::StepResult StealingEngine::train_step(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head,
    const pipeline::StepUpdate& update) {
  if (update.grad_clip > 0.0) {
    return pipeline::serial_train_step(*this, micro_inputs, micro_targets, head, update);
  }
  run_minibatch(micro_inputs, micro_targets, head, &update);
  StepResult result = merged_result(true);
  if (mb_failed_.load() || pipeline::diverged(result, update.divergence_loss)) {
    // Undo the stages that stepped before the step was known to fail; the
    // current version's ring slot holds their pre-step weights bitwise.
    for (std::size_t s = 0; s < stage_end_.size(); ++s) {
      if (stage_end_[s].stepped != 0) {
        store_.restore_units(ranges_[s].unit_first, ranges_[s].unit_last);
      }
    }
    rethrow_failure();
    return result;
  }
  store_.publish_commit();
  return result;
}

nn::LossResult StealingEngine::evaluate(const nn::Flow& input,
                                        const tensor::Tensor& target,
                                        const nn::LossHead& head) const {
  return pipeline::evaluate_forward(model_, store_.live(), input, target, head);
}

}  // namespace pipemare::sched
