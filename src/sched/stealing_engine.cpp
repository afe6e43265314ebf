#include "src/sched/stealing_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/cost_model.h"
#include "src/pipeline/repartition.h"
#include "src/util/stats.h"

namespace pipemare::sched {

namespace {

using Clock = std::chrono::steady_clock;
using util::ns_between;

/// Steal-log soft cap: the log is an opt-in debugging artifact; a long run
/// with logging left on must not grow without bound.
constexpr std::size_t kMaxStealLog = std::size_t{1} << 20;

int resolve_worker_count(const StealConfig& cfg) {
  if (cfg.workers > 0) return cfg.workers;
  auto cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores <= 0) cores = 2;
  return std::max(1, std::min(cores, cfg.engine.num_stages));
}

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
  if (cfg_.workers < 0) {
    throw std::invalid_argument("StealingEngine: workers must be >= 0");
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

  queues_.reserve(static_cast<std::size_t>(p));
  for (int s = 0; s < p; ++s) queues_.push_back(std::make_unique<TaskQueue>());
  stage_counters_ = std::make_unique<AtomicStageCounters[]>(static_cast<std::size_t>(p));

  const int w = resolve_worker_count(cfg_);
  home_stages_.resize(static_cast<std::size_t>(w));
  for (int s = 0; s < p; ++s) {
    home_stages_[static_cast<std::size_t>(s % w)].push_back(s);
  }
  worker_stats_.assign(static_cast<std::size_t>(w), StageStats{});
  scratch_.resize(static_cast<std::size_t>(w));
  home_cv_ = std::make_unique<util::CondVar[]>(static_cast<std::size_t>(w));
  grads_finite_.assign(static_cast<std::size_t>(p), 1);

  // Spawn last: drain() touches every field above.
  pool_ = std::make_unique<WorkerPool>(w, [this](int worker) { drain(worker); });
}

StealingEngine::~StealingEngine() = default;

void StealingEngine::repartition(const pipeline::Partition& next) {
  pipeline::validate_repartition(partition_, next);
  // Quiescent point: between minibatches the workers are parked on the
  // pool barrier; the next generation's release barrier publishes the new
  // ranges / staleness map / victim order. Stage count is unchanged, so
  // the per-stage queues, counters and home assignments stay valid.
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
    util::MutexLock lock(sched_m_);
    mb_error_ = what;
  }
}

std::span<float> StealingEngine::stage_gradients(const StageRange& r) {
  if (r.unit_first == r.unit_last) return {};
  const nn::WeightUnit& first = partition_.units[static_cast<std::size_t>(r.unit_first)];
  const nn::WeightUnit& last = partition_.units[static_cast<std::size_t>(r.unit_last - 1)];
  return std::span<float>(grads_).subspan(
      static_cast<std::size_t>(first.offset),
      static_cast<std::size_t>(last.offset + last.size - first.offset));
}

void StealingEngine::enqueue(const Task& task) {
  queues_[static_cast<std::size_t>(task.stage)]->push(task);
  {
    util::MutexLock lock(sched_m_);
    ++push_version_;
  }
  notify_pushed(task.stage);
}

void StealingEngine::mark_backward_ready(int stage, int micro) {
  const int n = cfg_.engine.num_microbatches;
  bool notify = false;
  {
    util::MutexLock lock(sched_m_);
    bwd_ready_[static_cast<std::size_t>(stage) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(micro)] = 1;
    // Enqueue only at the chain head; Backward(stage, micro) with an
    // uncompleted predecessor is enqueued by that predecessor's
    // chain-advance instead. Both checks run under sched_m_, so exactly
    // one path fires.
    if (next_bwd_[static_cast<std::size_t>(stage)] == micro) {
      queues_[static_cast<std::size_t>(stage)]->push(
          {Task::Kind::Backward, stage, micro});
      ++push_version_;
      notify = true;
    }
  }
  if (notify) notify_pushed(stage);
}

void StealingEngine::notify_pushed(int stage) {
  if (policy_.steal_enabled()) {
    sched_cv_.notify_all();
  } else {
    home_cv_[static_cast<std::size_t>(home_worker(stage))].notify_one();
  }
}

void StealingEngine::complete_task() {
  bool all_done = false;
  {
    util::MutexLock lock(sched_m_);
    all_done = --remaining_ == 0;
  }
  if (!all_done) return;
  // Every idle worker must wake to exit, whichever condvar it sleeps on.
  sched_cv_.notify_all();
  for (int w = 0; w < pool_->size(); ++w) home_cv_[static_cast<std::size_t>(w)].notify_one();
}

bool StealingEngine::acquire_home(int worker, Task& out) {
  for (int s : home_stages_[static_cast<std::size_t>(worker)]) {
    if (queues_[static_cast<std::size_t>(s)]->pop(out)) return true;
  }
  return false;
}

bool StealingEngine::acquire_steal(int worker, Task& out, bool& stolen) {
  for (int s : policy_.victim_order()) {
    if (!queues_[static_cast<std::size_t>(s)]->steal(out)) continue;
    if (home_worker(s) != worker) {
      stolen = true;
      stage_counters_[static_cast<std::size_t>(s)].stolen_items.fetch_add(
          1, std::memory_order_relaxed);
      worker_stats_[static_cast<std::size_t>(worker)].stolen_items += 1;
      static obs::Counter& steals =
          obs::MetricsRegistry::instance().counter("sched.steals");
      steals.add();
      obs::instant("steal", "sched", out.stage, out.micro, store_.step());
      if (policy_.deterministic() || cfg_.record_log) {
        util::MutexLock lock(sched_m_);
        if (steal_log_.size() < kMaxStealLog) {
          steal_log_.push_back(
              {store_.step(), worker, out.stage, out.micro, out.kind});
        } else {
          ++dropped_log_entries_;
          // Mirrored in the registry: the in-object counter needs a lock
          // and an engine pointer to read, the metric shows up in every
          // snapshot (satellite: surface steal-log drops).
          static obs::Counter& dropped =
              obs::MetricsRegistry::instance().counter("sched.steal_log_dropped");
          dropped.add();
        }
      }
    }
    return true;
  }
  return false;
}

bool StealingEngine::acquire(int worker, Task& out, bool& stolen) {
  stolen = false;
  if (policy_.steal_first()) {
    return acquire_steal(worker, out, stolen) || acquire_home(worker, out);
  }
  if (acquire_home(worker, out)) return true;
  return policy_.steal_enabled() && acquire_steal(worker, out, stolen);
}

void StealingEngine::drain(int worker) {
  std::vector<float>& w = scratch_[static_cast<std::size_t>(worker)];
  StageStats& ws = worker_stats_[static_cast<std::size_t>(worker)];
  for (;;) {
    std::uint64_t version;
    {
      util::MutexLock lock(sched_m_);
      if (remaining_ == 0) return;
      version = push_version_;
    }
    Task task;
    bool stolen = false;
    if (acquire(worker, task, stolen)) {
      execute(worker, task, stolen, w);
      continue;
    }
    // Nothing admissible anywhere: sleep until a push bumps the version
    // (re-scan) or the last task completes (exit). Reading `version`
    // before the scan makes the wait race-free — a push between scan and
    // wait leaves push_version_ != version, so the wait condition is
    // already true and we never sleep through work.
    util::CondVar& idle = policy_.steal_enabled()
                              ? sched_cv_
                              : home_cv_[static_cast<std::size_t>(worker)];
    auto t0 = Clock::now();
    {
      obs::Span bubble("pop_wait", "sched", -1, -1, store_.step());
      util::MutexLock lock(sched_m_);
      while (remaining_ != 0 && push_version_ == version) idle.wait(sched_m_);
    }
    ws.pop_wait_ns += ns_between(t0, Clock::now());
  }
}

void StealingEngine::execute(int worker, const Task& task, bool stolen,
                             std::vector<float>& w) {
  obs::Span span(task.kind == Task::Kind::Forward ? "fwd" : "bwd", "sched",
                 task.stage, task.micro, store_.step());
  std::uint64_t busy = task.kind == Task::Kind::Forward
                           ? run_forward(worker, task, w)
                           : run_backward(worker, task, w);
  AtomicStageCounters& sc = stage_counters_[static_cast<std::size_t>(task.stage)];
  sc.busy_ns.fetch_add(busy, std::memory_order_relaxed);
  sc.items.fetch_add(1, std::memory_order_relaxed);
  if (stolen) sc.stolen_ns.fetch_add(busy, std::memory_order_relaxed);
  StageStats& ws = worker_stats_[static_cast<std::size_t>(worker)];
  ws.busy_ns += busy;
  ws.items += 1;
  complete_task();
}

std::uint64_t StealingEngine::run_forward(int /*worker*/, const Task& task,
                                          std::vector<float>& w) {
  const int s = task.stage;
  const int m = task.micro;
  const StageRange& r = ranges_[static_cast<std::size_t>(s)];
  const bool last = s == cfg_.engine.num_stages - 1;
  std::uint64_t busy = 0;
  nn::Flow in = std::move(fwd_flow_[static_cast<std::size_t>(m)]);
  nn::Flow out;
  if (!mb_failed_.load(std::memory_order_relaxed)) {
    try {
      auto t0 = Clock::now();
      out = model_.forward_range(r.module_first, r.module_last, std::move(in),
                                 store_.forward_view(r.unit_first, r.unit_last, m, w),
                                 caches_[static_cast<std::size_t>(m)]);
      busy += ns_between(t0, Clock::now());
    } catch (const std::exception& e) {
      record_failure(e.what());
    }
  }
  if (!last) {
    fwd_flow_[static_cast<std::size_t>(m)] = std::move(out);
    enqueue({Task::Kind::Forward, s + 1, m});
    return busy;
  }
  // Tail stage: loss into this microbatch's slot (slots are merged in
  // microbatch order after the barrier, replaying the sequential sum even
  // when tail forwards complete out of order), then hand the output
  // gradient to the stage's backward chain.
  nn::Flow dflow;
  if (!mb_failed_.load(std::memory_order_relaxed)) {
    try {
      auto t0 = Clock::now();
      nn::LossResult lr = mb_head_->forward_backward(
          out.x, (*mb_targets_)[static_cast<std::size_t>(m)]);
      busy += ns_between(t0, Clock::now());
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
  return busy;
}

std::uint64_t StealingEngine::run_backward(int /*worker*/, const Task& task,
                                           std::vector<float>& w) {
  const int s = task.stage;
  const int m = task.micro;
  const int n = cfg_.engine.num_microbatches;
  const StageRange& r = ranges_[static_cast<std::size_t>(s)];
  std::uint64_t busy = 0;
  nn::Flow dflow = std::move(bwd_flow_[static_cast<std::size_t>(m)]);
  nn::Flow din;
  if (!mb_failed_.load(std::memory_order_relaxed)) {
    try {
      auto t0 = Clock::now();
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
        grads_finite_[static_cast<std::size_t>(s)] = finite ? 1 : 0;
      }
      busy += ns_between(t0, Clock::now());
    } catch (const std::exception& e) {
      record_failure(e.what());
    }
  }
  if (s > 0) {
    // The flow slot must be written before the ready flag is published;
    // the sched_m_ lock inside mark_backward_ready orders both for the
    // worker that picks the task up.
    bwd_flow_[static_cast<std::size_t>(m)] = std::move(din);
    mark_backward_ready(s - 1, m);
  }
  // Advance this stage's backward chain: the successor was parked if its
  // gradient arrived while we were running.
  bool notify = false;
  {
    util::MutexLock lock(sched_m_);
    next_bwd_[static_cast<std::size_t>(s)] = m + 1;
    if (m + 1 < n &&
        bwd_ready_[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(m) + 1] != 0) {
      queues_[static_cast<std::size_t>(s)]->push({Task::Kind::Backward, s, m + 1});
      ++push_version_;
      notify = true;
    }
  }
  if (notify) notify_pushed(s);
  return busy;
}

StealingEngine::StepResult StealingEngine::forward_backward(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head) {
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

  // LoadAware victim re-ranking from the cumulative busy counters (no-op
  // in the other modes; the first minibatch keeps the cost-model seed).
  {
    std::vector<std::uint64_t> busy(static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      busy[static_cast<std::size_t>(s)] =
          stage_counters_[static_cast<std::size_t>(s)].busy_ns.load(
              std::memory_order_relaxed);
    }
    policy_.refresh(busy);
  }

  {
    // Workers are parked in the pool barrier here, so taking sched_m_ is
    // uncontended — and lets the analysis prove the per-minibatch resets
    // of the gating state never race a straggler.
    util::MutexLock lock(sched_m_);
    remaining_ = 2 * n * p;
    push_version_ = 0;
    std::fill(next_bwd_.begin(), next_bwd_.end(), 0);
    std::fill(bwd_ready_.begin(), bwd_ready_.end(), 0);
    mb_error_.clear();
  }
  // Workers are parked in the pool barrier, so the seed tasks can be
  // enqueued without notifications.
  for (int m = 0; m < n; ++m) {
    queues_[0]->push({Task::Kind::Forward, 0, m});
  }
  pool_->run_generation();
  mb_targets_ = nullptr;
  mb_head_ = nullptr;
  if (mb_failed_.load()) {
    util::MutexLock lock(sched_m_);
    throw std::runtime_error("StealingEngine worker failed: " + mb_error_);
  }

  // Ordered merge of the per-microbatch slots: bitwise-identical to the
  // sequential engine's in-order accumulation (and the unified non-finite
  // StepResult contract: first non-finite loss in microbatch order,
  // zeroed metrics, gradients unspecified).
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
  for (std::uint8_t finite : grads_finite_) {
    if (finite == 0) result.finite = false;
  }
  return result;
}

std::vector<StealingEngine::StageStats> StealingEngine::stage_stats() const {
  const int p = cfg_.engine.num_stages;
  std::vector<StageStats> out(static_cast<std::size_t>(p));
  for (int s = 0; s < p; ++s) {
    const AtomicStageCounters& c = stage_counters_[static_cast<std::size_t>(s)];
    StageStats& st = out[static_cast<std::size_t>(s)];
    st.busy_ns = c.busy_ns.load(std::memory_order_relaxed);
    st.items = c.items.load(std::memory_order_relaxed);
    st.stolen_items = c.stolen_items.load(std::memory_order_relaxed);
    st.stolen_ns = c.stolen_ns.load(std::memory_order_relaxed);
  }
  return out;
}

void StealingEngine::reset_stage_stats() {
  const int p = cfg_.engine.num_stages;
  for (int s = 0; s < p; ++s) {
    AtomicStageCounters& c = stage_counters_[static_cast<std::size_t>(s)];
    c.busy_ns.store(0, std::memory_order_relaxed);
    c.items.store(0, std::memory_order_relaxed);
    c.stolen_items.store(0, std::memory_order_relaxed);
    c.stolen_ns.store(0, std::memory_order_relaxed);
  }
  worker_stats_.assign(worker_stats_.size(), StageStats{});
}

std::vector<StealingEngine::StageStats> StealingEngine::worker_stats() const {
  return worker_stats_;
}

std::uint64_t StealingEngine::total_steals() const {
  std::uint64_t total = 0;
  for (const auto& st : stage_stats()) total += st.stolen_items;
  return total;
}

const std::vector<StealRecord>& StealingEngine::steal_log() const {
  // Between minibatches the workers are parked, so the reference stays
  // stable after the lock drops (see the header contract).
  util::MutexLock lock(sched_m_);
  return steal_log_;
}

std::uint64_t StealingEngine::dropped_log_entries() const {
  util::MutexLock lock(sched_m_);
  return dropped_log_entries_;
}

void StealingEngine::clear_steal_log() {
  util::MutexLock lock(sched_m_);
  steal_log_.clear();
  dropped_log_entries_ = 0;
}

nn::LossResult StealingEngine::evaluate(const nn::Flow& input,
                                        const tensor::Tensor& target,
                                        const nn::LossHead& head) const {
  return pipeline::evaluate_forward(model_, store_.live(), input, target, head);
}

}  // namespace pipemare::sched
