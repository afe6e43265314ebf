#include "src/sched/task_graph_runner.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/stats.h"

namespace pipemare::sched {

namespace {

/// Time the calling thread spent in push() / notify_all(), left out of the
/// running task's busy time: waking workers is scheduler cost, and counting it
/// would flatten the per-stage busy shares stealing and repartitioning rank.
thread_local std::uint64_t tls_notify_ns = 0;

}  // namespace

int resolve_workers(int requested, int parallelism) {
  if (requested < 0 || requested > kMaxWorkers) {
    throw std::invalid_argument("resolve_workers: " + std::to_string(requested) +
                                " workers requested; must be in [0, " +
                                std::to_string(kMaxWorkers) + "] (0 = auto)");
  }
  if (requested > 0) return requested;
  auto cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores <= 0) cores = 2;
  return std::max(1, std::min(cores, parallelism));
}

TaskGraphRunner::TaskGraphRunner(int stages, int workers, StealMode mode,
                                 RunTask run, IdleStep idle)
    : workers_(workers), mode_(mode), run_(std::move(run)), idle_(std::move(idle)) {
  if (stages < 1 || workers < 1 || workers > kMaxWorkers) {
    throw std::invalid_argument(
        "TaskGraphRunner: need stages >= 1 and workers in [1, kMaxWorkers]");
  }
  const auto p = static_cast<std::size_t>(stages);
  const auto w = static_cast<std::size_t>(workers);
  for (std::size_t s = 0; s < p; ++s) queues_.push_back(std::make_unique<TaskQueue>());
  home_stages_.resize(w);
  for (int s = 0; s < stages; ++s) {
    home_stages_[static_cast<std::size_t>(s % workers)].push_back(s);
  }
  counters_ = std::make_unique<Counters[]>(p + w);
  home_cv_ = std::make_unique<util::CondVar[]>(w + 1);
  // Spawn last: work() touches every field above.
  threads_.reserve(w);
  try {
    for (int i = 0; i < workers; ++i) threads_.emplace_back([this, i] { thread_loop(i); });
  } catch (...) {
    // Destroying a joinable std::thread would std::terminate.
    {
      util::MutexLock lock(m_);
      shutdown_ = true;
    }
    all_cv_.notify_all();
    for (auto& t : threads_) t.join();
    throw;
  }
}

TaskGraphRunner::~TaskGraphRunner() {
  {
    util::MutexLock lock(m_);
    shutdown_ = true;
  }
  all_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void TaskGraphRunner::thread_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      util::MutexLock lock(m_);
      while (!shutdown_ && generation_ == seen) all_cv_.wait(m_);
      if (shutdown_) return;
      seen = generation_;
    }
    if (obs::TraceRecorder::instance().enabled()) {
      obs::TraceRecorder::instance().set_thread_name("pool-worker-" +
                                                     std::to_string(worker));
    }
    work(worker);
    bool last = false;
    {
      util::MutexLock lock(m_);
      last = ++parked_ == workers_;
    }
    if (last) home_cv_[static_cast<std::size_t>(workers_)].notify_one();
  }
}

void TaskGraphRunner::set_victim_order(std::span<const int> order) {
  victims_.assign(order.begin(), order.end());
}

void TaskGraphRunner::push(const Task& task) {
  const auto t0 = Clock::now();
  queues_[static_cast<std::size_t>(task.stage)]->push(task);
  bool open = false;
  {
    util::MutexLock lock(m_);
    ++push_version_;
    open = remaining_ != 0;
  }
  // Between generations (the owner seeding its queues) every worker is
  // parked or leaving, and the next release makes each one scan.
  if (open && mode_ == StealMode::Disabled) {
    home_cv_[static_cast<std::size_t>(home_worker(task.stage))].notify_one();
  } else if (open) {
    all_cv_.notify_all();
  }
  tls_notify_ns += util::ns_between(t0, Clock::now());
}

void TaskGraphRunner::notify_all() {
  const auto t0 = Clock::now();
  bool open = false;
  {
    util::MutexLock lock(m_);
    ++push_version_;
    open = remaining_ != 0;
  }
  if (open) wake_all();
  tls_notify_ns += util::ns_between(t0, Clock::now());
}

void TaskGraphRunner::wake_all() {
  all_cv_.notify_all();
  if (mode_ != StealMode::Disabled) return;
  for (int w = 0; w < workers_; ++w) home_cv_[static_cast<std::size_t>(w)].notify_one();
}

void TaskGraphRunner::release(std::int64_t remaining, bool counted, std::int64_t step) {
  // Cached once: generation turnover is the runner's coarsest event (one
  // per minibatch / serving session), but the registry lookup is still
  // string keyed and not worth repeating.
  static obs::Counter& generations =
      obs::MetricsRegistry::instance().counter("sched.generations");
  generations.add();
  counted_ = counted;
  step_ = step;
  {
    util::MutexLock lock(m_);
    remaining_ = remaining;
    parked_ = 0;
    ++generation_;
  }
  all_cv_.notify_all();
}

void TaskGraphRunner::run_generation(std::int64_t tasks, std::int64_t step) {
  release(tasks, /*counted=*/true, step);
  wait_generation();
}

void TaskGraphRunner::open_generation() { release(1, /*counted=*/false, -1); }

void TaskGraphRunner::close() {
  {
    util::MutexLock lock(m_);
    remaining_ = 0;
  }
  wake_all();
}

void TaskGraphRunner::wait_generation() {
  util::MutexLock lock(m_);
  while (parked_ != workers_) home_cv_[static_cast<std::size_t>(workers_)].wait(m_);
}

void TaskGraphRunner::work(int worker) {
  for (;;) {
    std::uint64_t version;
    {
      util::MutexLock lock(m_);
      if (remaining_ == 0) return;
      version = push_version_;
    }
    Task task;
    bool stolen = false;
    if (acquire(worker, task, stolen)) {
      execute(worker, task, stolen);
      continue;
    }
    const Clock::duration sleep = idle_ ? idle_(worker) : Clock::duration::max();
    if (sleep > Clock::duration::zero()) idle_wait(worker, version, sleep);
  }
}

bool TaskGraphRunner::acquire(int worker, Task& out, bool& stolen) {
  if (mode_ == StealMode::Forced && steal(worker, out)) {
    stolen = true;
    return true;
  }
  for (int s : home_stages_[static_cast<std::size_t>(worker)]) {
    if (queues_[static_cast<std::size_t>(s)]->pop(out)) return true;
  }
  if (mode_ == StealMode::Disabled || mode_ == StealMode::Forced) return false;
  stolen = steal(worker, out);
  return stolen;
}

bool TaskGraphRunner::steal(int worker, Task& out) {
  for (int s : victims_) {
    if (home_worker(s) == worker) continue;
    if (!queues_[static_cast<std::size_t>(s)]->steal(out)) continue;
    static obs::Counter& steals = obs::MetricsRegistry::instance().counter("sched.steals");
    steals.add();
    obs::instant("steal", "sched", out.stage, out.micro, step_);
    return true;
  }
  return false;
}

void TaskGraphRunner::execute(int worker, const Task& task, bool stolen) {
  tls_notify_ns = 0;
  const auto t0 = Clock::now();
  run_(worker, task);
  const std::uint64_t total = util::ns_between(t0, Clock::now());
  const std::uint64_t ns = total - std::min(total, tls_notify_ns);
  for (Counters* c : {&counters_[static_cast<std::size_t>(task.stage)],
                      &counters_[queues_.size() + static_cast<std::size_t>(worker)]}) {
    c->busy_ns.fetch_add(ns, std::memory_order_relaxed);
    c->items.fetch_add(1, std::memory_order_relaxed);
    if (stolen) {
      c->stolen_items.fetch_add(1, std::memory_order_relaxed);
      c->stolen_ns.fetch_add(ns, std::memory_order_relaxed);
    }
  }
  if (!counted_) return;
  bool done = false;
  {
    util::MutexLock lock(m_);
    done = --remaining_ == 0;
  }
  // Every idle worker must wake to exit, whichever condvar it sleeps on.
  if (done) wake_all();
}

void TaskGraphRunner::idle_wait(int worker, std::uint64_t version, Clock::duration sleep) {
  // `version` was read before the scan, so a push between the scan and
  // this wait leaves push_version_ != version and the worker never sleeps
  // through work.
  util::CondVar& cv =
      mode_ == StealMode::Disabled ? home_cv_[static_cast<std::size_t>(worker)] : all_cv_;
  const auto t0 = Clock::now();
  {
    obs::Span bubble("pop_wait", "sched", -1, -1, step_);
    util::MutexLock lock(m_);
    if (sleep == Clock::duration::max()) {
      while (remaining_ != 0 && push_version_ == version) cv.wait(m_);
    } else if (remaining_ != 0 && push_version_ == version) {
      // One timed wait: the caller reruns the idle step either way.
      cv.wait_for(m_, std::chrono::duration_cast<std::chrono::nanoseconds>(sleep));
    }
  }
  counters_[queues_.size() + static_cast<std::size_t>(worker)].pop_wait_ns.fetch_add(
      util::ns_between(t0, Clock::now()), std::memory_order_relaxed);
}

std::vector<pipeline::StageStats> TaskGraphRunner::snapshot(std::size_t first,
                                                            std::size_t count) const {
  std::vector<pipeline::StageStats> out;
  for (std::size_t i = first; i < first + count; ++i) {
    const Counters& c = counters_[i];
    pipeline::StageStats& st = out.emplace_back();
    st.busy_ns = c.busy_ns.load(std::memory_order_relaxed);
    st.pop_wait_ns = c.pop_wait_ns.load(std::memory_order_relaxed);
    st.items = c.items.load(std::memory_order_relaxed);
    st.stolen_items = c.stolen_items.load(std::memory_order_relaxed);
    st.stolen_ns = c.stolen_ns.load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<pipeline::StageStats> TaskGraphRunner::stage_stats() const {
  return snapshot(0, queues_.size());
}

std::vector<pipeline::StageStats> TaskGraphRunner::worker_stats() const {
  return snapshot(queues_.size(), static_cast<std::size_t>(workers_));
}

void TaskGraphRunner::reset_stats() {
  for (std::size_t i = 0; i < queues_.size() + static_cast<std::size_t>(workers_); ++i) {
    Counters& c = counters_[i];
    for (auto* a : {&c.busy_ns, &c.pop_wait_ns, &c.items, &c.stolen_items, &c.stolen_ns}) {
      a->store(0, std::memory_order_relaxed);
    }
  }
}

std::uint64_t TaskGraphRunner::total_steals() const {
  std::uint64_t total = 0;
  for (const auto& st : stage_stats()) total += st.stolen_items;
  return total;
}

}  // namespace pipemare::sched
