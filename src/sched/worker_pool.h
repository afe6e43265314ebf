#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/sync.h"

namespace pipemare::sched {

/// Upper bound on any requested worker count. Worker counts come from
/// outside input (--workers, --serve-workers, ServeConfig::workers), and
/// each worker is an OS thread; the largest in-tree caller uses 8.
inline constexpr int kMaxWorkers = 256;

/// The one worker-count resolver of the pool's owners: `requested` > 0 is
/// taken as is, 0 means min(hardware cores, `parallelism`), at least 1.
/// Throws std::invalid_argument unless 0 <= requested <= kMaxWorkers.
int resolve_workers(int requested, int parallelism);

/// A persistent pool of W worker threads driven in *generations*: the
/// owner calls run_generation(), every worker runs the body exactly once
/// (with its worker index), and run_generation returns when all W bodies
/// have finished. This is the one release/collect barrier of the repo, and
/// the only place a std::thread is constructed. Two owners construct it
/// (scripts/check_invariants.sh rule 7): sched::TaskGraphRunner, which every
/// engine runs on — StealingEngine ("threaded", "threaded_steal"),
/// ThreadedHogwildEngine ("threaded_hogwild") and serve::PipelineServer —
/// and the intra-op GEMM lanes.
///
/// The barrier also carries the memory-ordering contract the engines rely
/// on: everything the owner writes before run_generation() is visible to
/// every body, and everything the bodies write is visible to the owner
/// after run_generation() returns — so per-minibatch context and plain
/// (non-atomic) single-writer counters need no further synchronization.
///
/// The barrier state (generation counter, completion count, shutdown flag)
/// is GUARDED_BY(m_); a Clang -Wthread-safety build proves the protocol
/// never reads or writes it outside the lock.
///
/// The body must not throw (engines catch worker-side exceptions and
/// record them; see StealingEngine::record_failure).
class WorkerPool {
 public:
  using Body = std::function<void(int worker)>;

  /// Spawns `workers` threads running `body` once per generation. If
  /// thread creation fails partway, the started threads are shut down and
  /// joined before the exception propagates (destroying joinable
  /// std::threads would std::terminate).
  WorkerPool(int workers, Body body);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Releases all workers for one generation and blocks until every
  /// body has returned. Equivalent to begin_generation() followed by
  /// wait_generation() — the engines' per-minibatch barrier.
  void run_generation();

  /// Releases all workers for one generation without waiting — the
  /// non-blocking half of run_generation, for long-running bodies whose
  /// lifetime is controlled elsewhere (serve::PipelineServer's workers run
  /// one generation per serving session and park when the server drains).
  /// At most one generation may be open at a time.
  void begin_generation();

  /// Blocks until every body of the generation opened by the last
  /// begin_generation() has returned. Call exactly once per
  /// begin_generation(); carries the same memory-ordering contract as
  /// run_generation.
  void wait_generation();

 private:
  void thread_loop(int worker);

  Body body_;
  util::Mutex m_;
  util::CondVar go_;
  util::CondVar done_;
  std::uint64_t generation_ GUARDED_BY(m_) = 0;
  int done_count_ GUARDED_BY(m_) = 0;
  bool shutdown_ GUARDED_BY(m_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace pipemare::sched
