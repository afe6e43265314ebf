#include "src/pipeline/threaded_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/trace.h"
#include "src/pipeline/repartition.h"
#include "src/util/stats.h"

namespace pipemare::pipeline {

namespace {

using Clock = std::chrono::steady_clock;
using util::ns_between;

}  // namespace

ThreadedEngine::ThreadedEngine(const nn::Model& model, EngineConfig cfg, std::uint64_t seed)
    : model_(model),
      cfg_(std::move(cfg)),
      partition_(make_partition(model, cfg_.num_stages, cfg_.split_bias, cfg_.partition)),
      schedule_(cfg_.num_stages, cfg_.num_microbatches),
      store_(model, cfg_, partition_, schedule_, seed) {
  if (cfg_.recompute_segments > 0) {
    throw std::invalid_argument(
        "ThreadedEngine: activation recomputation is modelled only by the "
        "analytic PipelineEngine; set recompute_segments = 0");
  }
  // The probe microbatch is consumed by make_partition above; don't keep
  // its tensors alive for the whole engine lifetime.
  cfg_.partition.probe.reset();
  grads_.assign(store_.live().size(), 0.0F);
  stats_.assign(static_cast<std::size_t>(cfg_.num_stages), StageStats{});

  ranges_ = stage_module_ranges(partition_);

  const int p = cfg_.num_stages;
  const int n = cfg_.num_microbatches;
  caches_.resize(static_cast<std::size_t>(n));
  for (auto& c : caches_) c = model_.make_caches();

  mailboxes_.reserve(static_cast<std::size_t>(p));
  for (int s = 0; s < p; ++s) {
    // 1F1B memory bound (Table 1 / PipeDream's steady-state occupancy):
    // stage s of P (0-indexed) admits at most min(N, P - s) in-flight
    // microbatches (its warmup depth) before insisting on a backward, and
    // its forward lane never needs to buffer more than min(N, P - s + 1)
    // activations — the predecessor's credit allowance. Deadlock-freedom
    // does not depend on these values (any capacity/credits >= 1 works,
    // see StageMailbox); they make the in-flight activation footprint
    // O(P - s) per stage instead of the old lane_capacity = N, i.e. O(P)
    // total instead of O(P * N).
    auto cap = static_cast<std::size_t>(std::min(n, p - s + 1));
    auto credits = static_cast<std::size_t>(std::max(1, std::min(n, p - s)));
    mailboxes_.push_back(std::make_unique<StageMailbox>(cap, credits));
  }

  workers_.reserve(static_cast<std::size_t>(p));
  try {
    for (int s = 0; s < p; ++s) {
      workers_.emplace_back([this, s] { worker_loop(s); });
    }
  } catch (...) {
    // Thread spawning failed partway (e.g. thread-count limits): shut the
    // started workers down and join them so destroying the joinable
    // std::threads does not std::terminate; then surface the error.
    {
      util::MutexLock lock(ctrl_m_);
      shutdown_ = true;
    }
    ctrl_go_.notify_all();
    for (auto& w : workers_) w.join();
    throw;
  }
}

void ThreadedEngine::repartition(const Partition& next) {
  validate_repartition(partition_, next);
  // Quiescent point: between minibatches every worker is parked on the
  // generation barrier, and the next generation bump (under ctrl_m_)
  // orders these writes before any worker reads ranges_ or the store's
  // staleness map. Stage count is unchanged, so mailbox capacities and
  // the stats_ slots stay valid.
  partition_ = next;
  store_.refresh();
  ranges_ = stage_module_ranges(partition_);
}

ThreadedEngine::~ThreadedEngine() {
  {
    util::MutexLock lock(ctrl_m_);
    shutdown_ = true;
  }
  ctrl_go_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadedEngine::record_failure(const char* what) {
  bool expected = false;
  if (mb_failed_.compare_exchange_strong(expected, true)) {
    util::MutexLock lock(ctrl_m_);
    mb_error_ = what;
  }
}

void ThreadedEngine::worker_loop(int stage) {
  // Scratch for the weight views' fallbacks (mixed-version stages,
  // per-microbatch T2); sized by the store on first use, only this
  // stage's slices are written and read.
  std::vector<float> w_fwd;
  std::vector<float> w_bkwd;
  std::uint64_t seen = 0;
  for (;;) {
    {
      util::MutexLock lock(ctrl_m_);
      while (!shutdown_ && generation_ <= seen) ctrl_go_.wait(ctrl_m_);
      if (shutdown_) return;
      seen = generation_;
    }
    if (obs::TraceRecorder::instance().enabled()) {
      obs::TraceRecorder::instance().set_thread_name("pipeline-stage-" +
                                                     std::to_string(stage));
    }
    run_minibatch(stage, w_fwd, w_bkwd);
    {
      util::MutexLock lock(ctrl_m_);
      ++done_count_;
    }
    ctrl_done_.notify_one();
  }
}

void ThreadedEngine::backward_step(int stage, int micro, nn::Flow dflow,
                                   std::vector<float>& w_bkwd) {
  const StageRange& r = ranges_[static_cast<std::size_t>(stage)];
  StageStats& stats = stats_[static_cast<std::size_t>(stage)];
  nn::Flow din;
  if (!mb_failed_.load(std::memory_order_relaxed)) {
    try {
      obs::Span span("bwd", "pipeline", stage, micro, store_.step());
      auto t0 = Clock::now();
      din = model_.backward_range(
          r.module_first, r.module_last, std::move(dflow),
          store_.backward_view(r.unit_first, r.unit_last, micro, w_bkwd),
          caches_[static_cast<std::size_t>(micro)], grads_);
      stats.busy_ns += ns_between(t0, Clock::now());
    } catch (const std::exception& e) {
      record_failure(e.what());
    }
  }
  if (stage > 0) {
    mailboxes_[static_cast<std::size_t>(stage - 1)]->push_backward(
        {StageItem::Kind::Backward, micro, std::move(din)});
  }
}

void ThreadedEngine::run_minibatch(int stage, std::vector<float>& w_fwd,
                                   std::vector<float>& w_bkwd) {
  const int n = cfg_.num_microbatches;
  const StageRange& r = ranges_[static_cast<std::size_t>(stage)];
  StageStats& stats = stats_[static_cast<std::size_t>(stage)];
  const bool last = stage == cfg_.num_stages - 1;
  int fwd_left = n;
  int bwd_left = n;
  // 1F1B worker loop: drain whatever the mailbox offers, backwards first.
  // After a worker-side exception the minibatch is poisoned: remaining
  // items skip compute and empty flows keep the chains draining so every
  // worker still reaches its 2N-item quota.
  while (fwd_left > 0 || bwd_left > 0) {
    auto t_pop = Clock::now();
    StageItem item;
    {
      // The pop wait *is* the pipeline bubble at this stage: idle time
      // between the previous item finishing and the next one arriving.
      obs::Span bubble("pop_wait", "pipeline", stage, -1, store_.step());
      item = mailboxes_[static_cast<std::size_t>(stage)]->pop();
    }
    stats.pop_wait_ns += ns_between(t_pop, Clock::now());
    ++stats.items;
    if (item.kind == StageItem::Kind::Forward) {
      --fwd_left;
      nn::Flow out;
      if (!mb_failed_.load(std::memory_order_relaxed)) {
        try {
          obs::Span span("fwd", "pipeline", stage, item.micro, store_.step());
          auto t0 = Clock::now();
          out = model_.forward_range(
              r.module_first, r.module_last, std::move(item.flow),
              store_.forward_view(r.unit_first, r.unit_last, item.micro, w_fwd),
              caches_[static_cast<std::size_t>(item.micro)]);
          stats.busy_ns += ns_between(t0, Clock::now());
        } catch (const std::exception& e) {
          record_failure(e.what());
        }
      }
      if (!last) {
        auto t_push = Clock::now();
        mailboxes_[static_cast<std::size_t>(stage + 1)]->push_forward(
            {StageItem::Kind::Forward, item.micro, std::move(out)});
        stats.push_wait_ns += ns_between(t_push, Clock::now());
      } else {
        // Tail stage: loss, then the microbatch's backward immediately
        // (its F and B are adjacent ticks in the 1F1B schedule).
        nn::Flow dflow;
        if (!mb_failed_.load(std::memory_order_relaxed)) {
          try {
            auto t0 = Clock::now();
            nn::LossResult lr = mb_head_->forward_backward(
                out.x, (*mb_targets_)[static_cast<std::size_t>(item.micro)]);
            stats.busy_ns += ns_between(t0, Clock::now());
            if (!std::isfinite(lr.loss)) {
              if (mb_result_.finite) {
                mb_result_.finite = false;
                mb_result_.loss = lr.loss;
              }
            } else if (mb_result_.finite) {
              mb_result_.loss += lr.loss / n;
              mb_result_.correct += lr.correct;
              mb_result_.count += lr.count;
            }
            dflow.x = std::move(lr.doutput);
          } catch (const std::exception& e) {
            record_failure(e.what());
          }
        }
        backward_step(stage, item.micro, std::move(dflow), w_bkwd);
        --bwd_left;
        // The fused F+B never pops a Backward item, so the round-trip
        // credit must be returned explicitly.
        mailboxes_[static_cast<std::size_t>(stage)]->complete_inflight();
      }
    } else {
      backward_step(stage, item.micro, std::move(item.flow), w_bkwd);
      --bwd_left;
    }
  }
}

ThreadedEngine::StepResult ThreadedEngine::forward_backward(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head) {
  const int n = cfg_.num_microbatches;
  if (static_cast<int>(micro_inputs.size()) != n ||
      static_cast<int>(micro_targets.size()) != n) {
    throw std::invalid_argument("forward_backward: expected N microbatches");
  }
  std::fill(grads_.begin(), grads_.end(), 0.0F);
  {
    util::MutexLock lock(ctrl_m_);
    mb_targets_ = &micro_targets;
    mb_head_ = &head;
    mb_result_ = StepResult{};
    mb_failed_.store(false);
    mb_error_.clear();
    done_count_ = 0;
    ++generation_;
  }
  ctrl_go_.notify_all();
  for (int m = 0; m < n; ++m) {
    StageItem item;
    item.kind = StageItem::Kind::Forward;
    item.micro = m;
    item.flow = micro_inputs[static_cast<std::size_t>(m)];
    item.flow.training = true;
    item.flow.micro = m;
    item.flow.step = store_.step();
    mailboxes_[0]->push_forward(std::move(item));
  }
  StepResult result;
  {
    util::MutexLock lock(ctrl_m_);
    while (done_count_ != cfg_.num_stages) ctrl_done_.wait(ctrl_m_);
    mb_targets_ = nullptr;
    mb_head_ = nullptr;
    result = mb_result_;
    if (mb_failed_.load()) {
      throw std::runtime_error("ThreadedEngine worker failed: " + mb_error_);
    }
  }
  if (result.finite) {
    // Same normalization and finiteness sweep as the sequential engine.
    auto inv_n = 1.0F / static_cast<float>(n);
    for (float& g : grads_) {
      g *= inv_n;
      if (!std::isfinite(g)) result.finite = false;
    }
  } else {
    // Unified non-finite contract (see StepResult): a non-finite loss
    // invalidates the step's metrics, so correct/count are zeroed and the
    // gradient buffer is left unspecified.
    result.correct = 0.0;
    result.count = 0.0;
  }
  return result;
}

std::vector<StageMailbox::LaneStats> ThreadedEngine::lane_stats() const {
  std::vector<StageMailbox::LaneStats> stats;
  stats.reserve(mailboxes_.size());
  for (const auto& box : mailboxes_) stats.push_back(box->stats());
  return stats;
}

std::vector<ThreadedEngine::StageStats> ThreadedEngine::stage_stats() const {
  return stats_;
}

void ThreadedEngine::reset_stage_stats() {
  stats_.assign(stats_.size(), StageStats{});
}

nn::LossResult ThreadedEngine::evaluate(const nn::Flow& input, const tensor::Tensor& target,
                                        const nn::LossHead& head) const {
  return evaluate_forward(model_, store_.live(), input, target, head);
}

}  // namespace pipemare::pipeline
