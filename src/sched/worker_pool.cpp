#include "src/sched/worker_pool.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace pipemare::sched {

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

WorkerPool::WorkerPool(int workers, Body body) : body_(std::move(body)) {
  threads_.reserve(static_cast<std::size_t>(workers));
  try {
    for (int w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { thread_loop(w); });
    }
  } catch (...) {
    {
      util::MutexLock lock(m_);
      shutdown_ = true;
    }
    go_.notify_all();
    for (auto& t : threads_) t.join();
    throw;
  }
}

WorkerPool::~WorkerPool() {
  {
    util::MutexLock lock(m_);
    shutdown_ = true;
  }
  go_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::thread_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      util::MutexLock lock(m_);
      while (!shutdown_ && generation_ <= seen) go_.wait(m_);
      if (shutdown_) return;
      seen = generation_;
    }
    if (obs::TraceRecorder::instance().enabled()) {
      obs::TraceRecorder::instance().set_thread_name("pool-worker-" +
                                                     std::to_string(worker));
    }
    body_(worker);
    {
      util::MutexLock lock(m_);
      ++done_count_;
    }
    done_.notify_one();
  }
}

void WorkerPool::run_generation() {
  begin_generation();
  wait_generation();
}

void WorkerPool::begin_generation() {
  // Cached once: generation turnover is the pool's coarsest event (one per
  // minibatch / serving session), but the registry lookup is still string
  // keyed and not worth repeating.
  static obs::Counter& generations =
      obs::MetricsRegistry::instance().counter("sched.generations");
  generations.add();
  {
    util::MutexLock lock(m_);
    done_count_ = 0;
    ++generation_;
  }
  go_.notify_all();
}

void WorkerPool::wait_generation() {
  util::MutexLock lock(m_);
  while (done_count_ != static_cast<int>(threads_.size())) done_.wait(m_);
}

}  // namespace pipemare::sched
