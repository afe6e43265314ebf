#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/pipeline/stage_stats.h"
#include "src/sched/steal_policy.h"
#include "src/sched/task_queue.h"
#include "src/util/sync.h"

namespace pipemare::sched {

/// Upper bound on any requested worker count. Worker counts come from
/// outside input (--workers, --serve-workers, ServeConfig::workers), and
/// each worker is an OS thread; the largest in-tree caller uses 8.
inline constexpr int kMaxWorkers = 256;

/// The one worker-count resolver of the runner's owners: `requested` > 0 is
/// taken as is, 0 means min(hardware cores, `parallelism`), at least 1.
/// Throws std::invalid_argument unless 0 <= requested <= kMaxWorkers.
int resolve_workers(int requested, int parallelism);

/// The task-graph runner every multithreaded engine runs on: pipeline
/// training (StealingEngine: forward and backward tasks, one generation per
/// minibatch), Hogwild training (hogwild::ThreadedHogwildEngine: one
/// independent task per microbatch, one queue per worker, one generation
/// per minibatch) and serving (serve::PipelineServer: forward-only tasks,
/// one open generation per serving session).
///
/// It is the only code in the repo that owns threads (scripts/
/// check_invariants.sh rule 2): W workers, started parked at construction
/// and joined at destruction. It owns the scheduling half of every engine:
/// the workers and their generation barrier, one TaskQueue per stage, the
/// home mapping (stage s is home to worker s mod W), acquire, the push /
/// notify / idle-wait protocol, and task timing into the per-stage and
/// per-worker StageStats counters. The owner keeps the task
/// bodies and whatever gates decide *when* a task becomes ready; it hands
/// the runner exactly two callbacks: "run this task" and, optionally, an
/// idle step.
///
/// Acquire. A worker pops its home stages first (TaskQueue::pop: backward
/// lane first), then scans the owner-supplied victim order, skipping its
/// own stages (TaskQueue::steal: forward lane first). StealMode::Forced
/// scans victims before home; StealMode::Disabled never steals. A task
/// taken from a stage the worker is not home to is a steal: it is counted
/// in both the stage's and the worker's stolen_items / stolen_ns, in the
/// `sched.steals` counter, and as a `steal` trace instant.
///
/// Wakeups. Every push bumps a version under the runner mutex. A worker
/// reads the version before it scans; finding nothing, it runs the idle
/// step (if any) and sleeps until the version moves, the generation ends,
/// or the idle step's recheck time passes. With stealing off, a push wakes
/// only the stage's home worker (with W = P > cores, waking all W per push
/// costs more than the work); otherwise it wakes every idle worker.
///
/// Generations. run_generation(tasks) releases the workers and returns
/// once exactly `tasks` task executions have completed (the owner seeds
/// the queues first; bodies push successors). open_generation() releases
/// them until the owner calls close(), typically from its idle step once
/// it has drained; wait_generation() then collects them. Between
/// generations the workers park on all_cv_, and a push or notify_all()
/// wakes no one: the next release makes every worker scan the queues.
///
/// Memory ordering. The release / collect pair is the repo's one thread
/// barrier: everything the owner writes before a release is visible to
/// every task of that generation, and everything the tasks write is
/// visible to the owner once the generation is collected — so
/// per-minibatch context and plain (non-atomic) single-writer counters need
/// no further synchronization. The barrier state (generation_, parked_,
/// shutdown_) is GUARDED_BY(m_), which a Clang -Wthread-safety build proves.
///
/// Lock order: owner mutex -> runner mutex (m_) -> TaskQueue mutex. An
/// owner may push() or notify_all() while holding its own mutex (the
/// runner never calls back into the owner with m_ held); the runner holds
/// m_ only around its version / generation state and never while it calls
/// the task body, the idle step or a TaskQueue operation. The counters are
/// relaxed atomics: stage slots have concurrent writers (two thieves can
/// run forwards of one stage), and serving reads them while it runs.
class TaskGraphRunner {
 public:
  using Clock = std::chrono::steady_clock;
  /// Runs one acquired task; must not throw.
  using RunTask = std::function<void(int worker, const Task& task)>;
  /// Called by a worker that found no task. Returns how long the worker
  /// may sleep before calling it again: <= zero to rescan at once (the
  /// step made work ready), Clock::duration::max() to sleep until a push.
  /// Must not throw.
  using IdleStep = std::function<Clock::duration(int worker)>;

  /// Starts `workers` threads, parked until the first generation. If
  /// starting a thread fails partway, the started ones are joined before
  /// the exception propagates.
  TaskGraphRunner(int stages, int workers, StealMode mode, RunTask run,
                  IdleStep idle = {});
  /// Joins the workers; call with no generation open.
  ~TaskGraphRunner();

  TaskGraphRunner(const TaskGraphRunner&) = delete;
  TaskGraphRunner& operator=(const TaskGraphRunner&) = delete;

  int num_workers() const { return workers_; }

  /// Stages a thief scans, preferred victim first (none until set). Call
  /// between generations; the release barrier publishes it to the workers.
  void set_victim_order(std::span<const int> order);

  /// Makes `task` ready and wakes the workers that may run it (none between
  /// generations). Any thread, inside or between generations.
  void push(const Task& task) EXCLUDES(m_);

  /// Wakes every idle worker to rescan (and rerun the idle step): the
  /// owner made work available outside the queues.
  void notify_all() EXCLUDES(m_);

  /// Runs one generation of exactly `tasks` task executions and returns
  /// when the last one completes. `step` tags the generation's
  /// `pop_wait` spans and `steal` instants.
  void run_generation(std::int64_t tasks, std::int64_t step) EXCLUDES(m_);

  /// Opens a generation with no task count; it ends at close().
  void open_generation() EXCLUDES(m_);
  /// Ends the open generation: every worker returns once it finishes the
  /// task in hand. Call only when no task is queued.
  void close() EXCLUDES(m_);
  /// Blocks until every worker of the open generation has returned.
  void wait_generation() EXCLUDES(m_);

  /// Per-*stage* counters, cumulative since construction or the last
  /// reset: busy/items of the stage's tasks wherever they ran, plus
  /// stolen_items / stolen_ns for the share non-home workers ran. A task's
  /// busy time is its body's wall time minus the time the body spent in
  /// push() / notify_all(). pop_wait_ns is 0 — waiting is a worker-side
  /// notion.
  std::vector<pipeline::StageStats> stage_stats() const;
  /// Per-*worker* counters: busy, pop_wait_ns = time idle waiting, items,
  /// and the tasks (and their busy time) it stole.
  std::vector<pipeline::StageStats> worker_stats() const;
  void reset_stats();
  /// Tasks stolen since construction (or the last reset).
  std::uint64_t total_steals() const;

 private:
  struct Counters {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> pop_wait_ns{0};
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::uint64_t> stolen_items{0};
    std::atomic<std::uint64_t> stolen_ns{0};
  };

  int home_worker(int stage) const { return stage % workers_; }
  /// A worker thread: parks until a release, runs work(), parks again.
  void thread_loop(int worker) EXCLUDES(m_);
  /// Counter slots [first, first + count): stages are slots [0, P),
  /// worker w is slot P + w.
  std::vector<pipeline::StageStats> snapshot(std::size_t first, std::size_t count) const;
  void work(int worker) EXCLUDES(m_);
  bool acquire(int worker, Task& out, bool& stolen);
  bool steal(int worker, Task& out);
  void execute(int worker, const Task& task, bool stolen) EXCLUDES(m_);
  void idle_wait(int worker, std::uint64_t version, Clock::duration sleep)
      EXCLUDES(m_);
  void release(std::int64_t remaining, bool counted, std::int64_t step) EXCLUDES(m_);
  void wake_all();

  const int workers_;
  const StealMode mode_;
  const RunTask run_;
  const IdleStep idle_;
  std::vector<std::unique_ptr<TaskQueue>> queues_;  ///< per stage
  std::vector<std::vector<int>> home_stages_;       ///< per worker
  std::vector<int> victims_;
  std::unique_ptr<Counters[]> counters_;  ///< per stage, then per worker

  // Generation shape, written only between generations (the release
  // publishes it to the workers).
  bool counted_ = true;     ///< run_generation (true) vs open_generation
  std::int64_t step_ = -1;  ///< trace tag of the current generation

  util::Mutex m_;
  /// Idle workers wait here when stealing is on; parked workers always do.
  util::CondVar all_cv_;
  /// Slots [0, W), per worker, when stealing is off: only the home worker
  /// of a stage may run its tasks, so a push wakes that one worker. Slot W
  /// is the owner's: wait_generation() sleeps there until every worker parked.
  std::unique_ptr<util::CondVar[]> home_cv_;
  std::uint64_t push_version_ GUARDED_BY(m_) = 0;
  /// Task executions left in a counted generation; an open generation
  /// holds 1 until close(). 0 = the generation is over.
  std::int64_t remaining_ GUARDED_BY(m_) = 0;
  std::uint64_t generation_ GUARDED_BY(m_) = 0;  ///< releases so far
  int parked_ GUARDED_BY(m_) = 0;  ///< workers done with the current generation
  bool shutdown_ GUARDED_BY(m_) = false;

  std::vector<std::thread> threads_;
};

}  // namespace pipemare::sched
